// The multibatch work-profile scenario: one dense hawk-dove trajectory on a
// solo multibatch engine, gated on its seed-deterministic work counters as
// its snapshot records them — rounds started, collisions resolved, and the
// aggregation factor interactions / (rounds + collisions), ~sqrt(n) on any
// kernel. The counters are identical on every machine at a fixed (smoke,
// seed) and at any --threads setting (a trajectory always runs on one
// thread), so an exact-value drift surfaces in the refresh diff and a real
// regression (lost aggregation) fails the gate. The scenario keeps its
// historical name so the committed baseline keeps tracking these metrics.
//
// The interactions/s rate is recorded for the trajectory but carries no
// regression goal: CI hardware varies, so only seed-deterministic
// quantities gate.
#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/exp/scenario.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/timer.hpp"

namespace {

using namespace ppg;

scenario_result run_multibatch_profile(const scenario_context& ctx) {
  scenario_result result;
  // Dense two-way hawk-dove: every pair randomizes both sides, so every
  // round exercises the MVH tables and the multinomial splits.
  const game_protocol proto(hawk_dove_matrix(1.0, 2.0),
                            std::make_shared<logit_response_rule>(0.5),
                            revision_discipline::two_way);
  const std::uint64_t n = ctx.pick<std::uint64_t>(8'000'000, 1'000'000);
  const std::uint64_t steps = ctx.pick<std::uint64_t>(4'000'000, 400'000);
  result.param("n", n);
  result.param("steps", steps);
  result.param("game", "hawk-dove v=1 c=2, logit tau=0.5, two-way");

  multibatch_engine engine(proto, {n / 2, n - n / 2}, ctx.make_rng(1));
  const timer clock;
  engine.run(steps);
  result.metric("ips_multibatch", static_cast<double>(steps) / clock.seconds());
  const json snapshot = engine.save_state();
  const auto rounds = json_require_uint(snapshot, "rounds", "p1 snapshot");
  const auto collisions =
      json_require_uint(snapshot, "collisions", "p1 snapshot");
  result.metric("mb_rounds", static_cast<double>(rounds),
                metric_goal::maximize);
  result.metric("mb_collisions", static_cast<double>(collisions),
                metric_goal::maximize);
  result.metric("mb_aggregation_factor",
                static_cast<double>(steps) /
                    static_cast<double>(rounds + collisions),
                metric_goal::maximize);
  result.note(
      "Expected shape: rounds ~ collisions (every round but a truncated "
      "last one\nends in a collision) and an aggregation factor of order "
      "sqrt(n).");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "p1_parallel_engines", "engines,multibatch,perf",
    "Multibatch work profile on one dense hawk-dove trajectory: rounds, "
    "collisions, aggregation factor",
    run_multibatch_profile);

}  // namespace
