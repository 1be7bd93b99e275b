// Experiment G4 (multibatch engine): the dense-game workload where the
// batched engine's identity skipping buys nothing — every hawk-dove or RPS
// interaction samples a randomized kernel outcome, so batched degenerates
// to one sampling round per interaction while the multibatch engine
// aggregates ~sqrt(n) interactions per round.
//
// The regression gate is the *event* speedup: sampling events per engine
// (batched: advance_batch rounds; multibatch: aggregated rounds +
// collision resolutions, both read from the engine snapshots) are
// seed-deterministic counts, so the ratio is reproducible across hardware
// — unlike wall-clock rates, which are reported for the trajectory but
// never gated. The acceptance bar is a
// >= 5x event win on a dense game at n = 10^8; the measured ratio is in
// the thousands, recorded both raw (gated, goal max) and as the
// deterministic pass flag multibatch_5x_win.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppg/exp/scenario.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/util/table.hpp"
#include "ppg/util/timer.hpp"

namespace {

using namespace ppg;

scenario_result run_g4(const scenario_context& ctx) {
  scenario_result result;
  const auto n = ctx.pick<std::uint64_t>(100'000'000, 1'000'000);
  const auto interactions = ctx.pick<std::uint64_t>(2'000'000, 200'000);
  result.param("n", n);
  result.param("interactions", interactions);
  result.param("hawk_dove", "v=1 c=2, logit tau=0.5");
  result.param("rps", "proportional imitation rate=0.8");

  const auto hawk_dove = hawk_dove_matrix(1.0, 2.0);
  const auto rps = rock_paper_scissors_matrix();
  const game_protocol hd_proto(hawk_dove,
                               std::make_shared<logit_response_rule>(0.5));
  const game_protocol rps_proto(
      rps, std::make_shared<proportional_imitation_rule>(0.8));

  auto& table = result.table(
      "sampling events per engine on dense games (seed-deterministic; the "
      "gated\nspeedup is events_batched / events_multibatch)",
      {"game", "batched events", "multibatch events", "event speedup",
       "wall speedup"});
  double min_event_speedup = 0.0;
  std::uint64_t salt = 1;
  const std::vector<std::pair<std::string, const game_protocol*>> games = {
      {"hawk_dove", &hd_proto}, {"rps", &rps_proto}};
  for (const auto& [name, proto] : games) {
    const std::size_t q = proto->num_states();
    std::vector<std::uint64_t> counts(q, n / q);
    counts.back() += n - (n / q) * q;
    const sim_spec spec(*proto, std::move(counts));

    rng gen_batched = ctx.make_rng(salt++);
    const auto batched = spec.make_engine(engine_kind::batched, gen_batched);
    const timer batched_clock;
    batched->run(interactions);
    const double batched_seconds = batched_clock.seconds();
    const auto batched_events =
        json_require_uint(batched->save_state(), "batches", "g4 snapshot");

    rng gen_multibatch = ctx.make_rng(salt++);
    const auto multibatch =
        spec.make_engine(engine_kind::multibatch, gen_multibatch);
    const timer multibatch_clock;
    multibatch->run(interactions);
    const double multibatch_seconds = multibatch_clock.seconds();
    const json mb = multibatch->save_state();
    const auto multibatch_events =
        json_require_uint(mb, "rounds", "g4 snapshot") +
        json_require_uint(mb, "collisions", "g4 snapshot");

    const double event_speedup = static_cast<double>(batched_events) /
                                 static_cast<double>(multibatch_events);
    const double wall_speedup = batched_seconds / multibatch_seconds;
    min_event_speedup = min_event_speedup == 0.0
                            ? event_speedup
                            : std::min(min_event_speedup, event_speedup);
    result.metric("events_batched_" + name,
                  static_cast<double>(batched_events));
    result.metric("events_multibatch_" + name,
                  static_cast<double>(multibatch_events));
    result.metric("event_speedup_" + name, event_speedup,
                  metric_goal::maximize);
    // Wall-clock is informational only: CI hardware varies.
    result.metric("wall_speedup_" + name, wall_speedup);
    table.add_row({name, format_metric(static_cast<double>(batched_events)),
                   format_metric(static_cast<double>(multibatch_events)),
                   format_metric(event_speedup, 4),
                   format_metric(wall_speedup, 3)});
  }

  // The acceptance bar as a deterministic pass flag: >= 5x on every dense
  // game (the measured ratios are orders of magnitude above it).
  result.metric("multibatch_5x_win", min_event_speedup >= 5.0 ? 1.0 : 0.0,
                metric_goal::maximize);
  result.note(
      "Expected shape: batched events ~= interactions (dense kernels have "
      "no\nidentity pairs to skip) while multibatch events ~= interactions "
      "/ sqrt(n),\nso the event speedup grows with sqrt(n) and clears the "
      "5x acceptance bar by\norders of magnitude at n = 10^8.");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "g4_multibatch_dense", "games,engines,multibatch,perf",
    "Multibatch vs batched sampling-event speedup on dense games", run_g4);

}  // namespace
