// Layer probes for the traced run. Each replays one layer's public calls
// on a workload's own protocol and start census, so every per-layer metric
// is measured on every workload: on the workload that exercises a layer the
// probe shows its cost there, and on the others the prediction is that the
// end-to-end metrics do not follow it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "ppg/pp/checkpoint.hpp"
#include "ppg/util/rng.hpp"

namespace perfbench {

/// Workers of a batch_runner fan-out: 4, or nproc when that is smaller.
[[nodiscard]] std::size_t fanout_workers();

/// What the probes need to know about a workload.
struct layer_input {
  std::vector<const ppg::sim_recipe*> recipes;  ///< protocols + start census
  ppg::engine_kind kind = ppg::engine_kind::multibatch;  ///< its engine
  std::uint64_t seed = 1;
  std::string work_dir;
};

/// serve_mixed's request mix. Every step advances one scheduler chunk and
/// reads the census; a checkpoint read follows with probability 1/4 and a
/// DELETE + re-create (a kernel-cache hit) with probability 1/32.
enum class serve_op : std::uint8_t { advance, census, checkpoint, recreate };

class serve_mix {
 public:
  serve_mix(std::uint64_t seed, std::uint64_t client);
  /// The next step's operations, in order.
  [[nodiscard]] std::vector<serve_op> next_step();

 private:
  ppg::rng gen_;
};

inline constexpr std::uint64_t serve_chunk = std::uint64_t{1} << 16;

/// The serve_mixed session recipe: igt, k = 8, one-way, n = 10^6, dense
/// (alpha, beta, gamma) = (0.1, 0.2, 0.7), every GTFT agent at level 0.
[[nodiscard]] ppg::json serve_recipe();

/// pp.multibatch.* and pp.batched.*: both engine kinds from the start
/// census over a fixed budget; counts come from save_state() snapshots.
void probe_engine_counters(const layer_input& in, result& out);

/// stats.*: replays whole multibatch rounds through the public samplers.
/// Needs pp.multibatch.ns_per_round in `out` for stats.sampler_share.
void probe_samplers(const layer_input& in, result& out);

/// exp.*: a batch_runner fan-out of 8 replicas of the workload's engine.
void probe_fanout(const layer_input& in, result& out);

/// Summarizes replica spans into exp.* metrics.
void report_fanout(const samples& replica_s, double sweep_wall_s,
                   std::size_t workers, result& out);

/// serve.*: the seeded request mix replayed in-process through
/// serve_app::handle over a timed store, then over a loopback socket.
/// With `native`, also reports pp.run_*, pp.make_engine_ms and
/// trace.overhead_frac from the replay (serve_mixed's traced run).
void probe_serve(const layer_input& in, bool native, result& out);

/// util.*: checkpoint dump / parse of a run engine, and atomic writes of a
/// spill-sized document.
void probe_checkpoint_io(const layer_input& in, result& out);

/// Runs every probe above except those `skip` names ("fanout", "serve").
void run_probes(const layer_input& in, const std::vector<std::string>& skip,
                result& out);

/// Writes the span file and prints the per-layer self-time table.
void finish_trace(const bench_args& args);

}  // namespace perfbench
