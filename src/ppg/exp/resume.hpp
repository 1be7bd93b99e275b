// Resumable replica sweeps: the checkpointable form of a long-horizon
// replicated run. A sweep is R replicas of one sim_recipe on one engine
// kind, built and advanced through batch_runner: replica i is built from
// batch_runner's stream law (make_stream_rng(master_seed, i), then
// sim_spec::make_engine's split), so a sweep that is never checkpointed
// produces the same per-replica trajectories a replicate_* body building
// `spec.make_engine(kind, gen)` would. Unlike a run-to-completion batch
// body, the sweep advances its replicas in bounded chunks (one batch_runner
// pass per chunk) and can serialize the complete state — every replica's
// engine snapshot, i.e. every per-stream RNG position — between chunks;
// save() → restore() through a file continues every replica bit-exactly
// (same chunk schedule; DESIGN.md §9).
//
// Deliberately NOT checkpointed: aggregator partials. Reductions stay
// replayable on the caller's side from the replicas' final censuses —
// checkpointing a half-folded mean would freeze the reduction order into
// the file format for no resume benefit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/exp/batch_runner.hpp"
#include "ppg/pp/checkpoint.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/util/json.hpp"

namespace ppg {

class resumable_sweep {
 public:
  /// R replicas of recipe.spec() on engine `kind`, each to be advanced to
  /// `horizon` interactions. `threads` bounds the worker pool used by
  /// advance() (0 = hardware concurrency); replica trajectories are
  /// independent streams, so the thread count never changes any result.
  resumable_sweep(sim_recipe recipe, engine_kind kind,
                  std::uint64_t master_seed, std::size_t replicas,
                  std::uint64_t horizon, std::size_t threads = 0);

  resumable_sweep(resumable_sweep&&) = default;
  resumable_sweep& operator=(resumable_sweep&&) = default;

  /// Advances every unfinished replica by min(chunk, its remaining budget)
  /// interactions; returns whether any replica is still unfinished. The
  /// chunk schedule is part of the draw schedule for the aggregated
  /// engines, so a resumed sweep must keep the same chunk size to stay
  /// bit-identical to an uninterrupted one — the same bounded-chunk
  /// discipline ppg-serve's fair_scheduler (serve/scheduler.hpp) applies
  /// to session advances, for the same reason.
  bool advance(std::uint64_t chunk);

  [[nodiscard]] bool finished() const;
  [[nodiscard]] std::size_t replicas() const { return engines_.size(); }
  [[nodiscard]] std::uint64_t horizon() const { return horizon_; }
  [[nodiscard]] std::uint64_t master_seed() const { return master_seed_; }
  [[nodiscard]] engine_kind kind() const { return kind_; }
  [[nodiscard]] const sim_recipe& recipe() const { return recipe_; }
  [[nodiscard]] const sim_engine& replica(std::size_t i) const;

  /// The sweep checkpoint: {"schema_version", "spec", "kind",
  /// "master_seed", "horizon", "replicas": [one engine snapshot each]}.
  /// Self-describing via the embedded spec header, like a single-engine
  /// checkpoint.
  [[nodiscard]] json save() const;

  /// Rebuilds a sweep from save()'s document (fresh process OK); continues
  /// every replica bit-exactly.
  [[nodiscard]] static resumable_sweep restore(const json& doc,
                                               std::size_t threads = 0);

 private:
  sim_recipe recipe_;
  engine_kind kind_;
  std::uint64_t master_seed_;
  std::uint64_t horizon_;
  batch_runner runner_;  ///< builds and advances the replicas
  std::vector<std::unique_ptr<sim_engine>> engines_;
};

}  // namespace ppg
