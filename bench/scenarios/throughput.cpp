// Batch-replication throughput scenario: aggregate interactions/second
// of batch_runner at several worker-thread counts, plus the
// bit-identical-aggregates determinism check across those counts.
//
// The rates are wall-clock and carry no regression goal (CI hardware
// varies); only the seed-deterministic thread_determinism flag gates the
// regression check (scripts/check_bench.py). Engine throughput is timed by
// perfbench (perfbench/run.py), with repeated samples and per-layer traces.
#include <string>
#include <vector>

#include "ppg/core/igt_protocol.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/exp/scenario.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/util/timer.hpp"

namespace {

using namespace ppg;

scenario_result run_batch(const scenario_context& ctx) {
  scenario_result result;
  const std::size_t k = 8;
  const auto pop = abg_population::from_fractions(1000, 0.1, 0.2, 0.7);
  const igt_protocol proto(k);
  const sim_spec spec(proto, igt_initial_counts(pop, k, 0));
  const std::size_t replicas = 8;
  const std::uint64_t steps = ctx.pick<std::uint64_t>(400'000, 100'000);
  const auto thread_counts =
      ctx.pick<std::vector<std::size_t>>({1, 2, 4, 8}, {1, 2, 4});
  result.param("replicas", replicas);
  result.param("steps_per_replica", steps);

  const auto run_once = [&](std::size_t threads) {
    return replicate_census(
        {replicas, derive_stream_seed(ctx.seed, 99), threads},
        [&](const replica_context&, rng& gen) {
          const auto sim = spec.make_engine(engine_kind::agent, gen);
          sim->run(steps);
          return sim->census().fractions();
        });
  };

  auto& table = result.table(
      "agent-level batch replication: aggregate interactions/second vs "
      "worker\nthreads (8 replicas)",
      {"threads", "total interactions/s", "speedup vs 1 thread"});
  double base_rate = 0.0;
  std::vector<double> reference_mean;
  bool deterministic = true;
  for (const std::size_t threads : thread_counts) {
    const timer clock;
    const auto batch = run_once(threads);
    const double seconds = clock.seconds();
    const double rate =
        static_cast<double>(replicas) * static_cast<double>(steps) / seconds;
    if (threads == 1) {
      base_rate = rate;
      reference_mean = batch.mean();
    } else if (batch.mean() != reference_mean) {
      // The determinism contract: aggregates are bit-identical at any
      // thread count (fold order is replica order, not completion order).
      deterministic = false;
    }
    result.metric("batch_ips_t" + format_metric(static_cast<double>(threads)),
                  rate);
    table.add_row({format_metric(static_cast<double>(threads)),
                   format_metric(rate, 4),
                   format_metric(rate / base_rate, 3)});
  }

  result.metric("thread_determinism", deterministic ? 1.0 : 0.0,
                metric_goal::maximize);
  result.note(
      "Expected shape: near-linear speedup up to the physical core count, "
      "and\nbit-identical aggregates at every thread count "
      "(thread_determinism = 1).");
  return result;
}

[[maybe_unused]] const bool registered_batch = register_scenario(
    "throughput_batch", "throughput,batch,threads,perf",
    "Batch-replication thread scaling and the bit-identical determinism "
    "check",
    run_batch);

}  // namespace
