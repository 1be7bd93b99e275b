// The multibatch engine: census-level execution that advances the chain in
// aggregated rounds of ~Theta(sqrt(n)) interactions instead of one at a
// time, with o(1) sampling work per interaction even on *dense* kernels —
// where nearly every interaction changes the census and the batched
// engine's identity-skipping degenerates to one O(q) sampling round per
// interaction.
//
// A round is the run of interactions up to and including the first "agent
// collision". Agents drawn in the current round are *touched*; while every
// interaction involves only untouched agents, the drawn pairs are disjoint,
// so their census effect is exchangeable and can be applied in aggregate:
//
//  1. the number of collision-free interactions J before the first
//     interaction re-using a touched agent follows the exact birthday law
//     P(J > j) = prod_{i<j} (n-2i)(n-2i-1) / (n(n-1)), drawn by inversion
//     of the log-survival recurrence, grown on demand up to the largest J
//     drawn so far (stats/discrete_sampling's collision_run_sampler);
//  2. the q x q table of ordered state-pair counts of those J interactions
//     is drawn jointly, once per applied run, from multivariate
//     hypergeometrics over the untouched census (initiator sample, then
//     responder sample, then a uniform matching by initiator group —
//     exactly the law of 2J distinct agents drawn uniformly without
//     replacement, paired in order);
//  3. the outcome split of each pair type is a multinomial over the
//     kernel's outcome distribution (deterministic pairs consume no draws);
//  4. the one colliding interaction is resolved sequentially — its pair is
//     uniform over ordered agent pairs with at least one touched agent —
//     after which touched agents rejoin the untouched pool and a new round
//     begins.
//
// Every step is an exact decomposition of the sequential scheduler's law,
// so the census at any run() boundary is distribution-identical to the
// agent/census/batched engines (DESIGN.md §8 gives the argument). Work per
// round is O(q^2 + log n) plus O(q) for the collision, i.e.
// O((q^2 + log n)/sqrt(n)) per interaction. Rounds shrink with n (the
// birthday law adapts by itself), and sub-q^2 rounds take a sequential
// per-pair path, so small populations degrade gracefully to exactly the
// census engine's per-interaction cost.
//
// This is sampling law v2 (engine_state_version 2, DESIGN.md §8): every
// draw comes from the engine's one stream, in the order above.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/stats/discrete_sampling.hpp"

namespace ppg {

class multibatch_engine final : public sim_engine {
 public:
  /// Same contract as the batched engine: pair_sampling::distinct only,
  /// and n capped at ~3e9 so pair weights c_u * c_v fit in 64 bits.
  multibatch_engine(const protocol& proto,
                    std::vector<std::uint64_t> initial_counts, rng gen,
                    pair_sampling sampling = pair_sampling::distinct,
                    std::shared_ptr<const kernel_table> kernel = nullptr);

  void step() override;
  void run(std::uint64_t steps) override;

  /// Predicate semantics are per-interaction on every engine, and a round
  /// changes the census mid-aggregate, so run_until steps one interaction
  /// at a time (the base-class loop). Prefer run() with periodic
  /// census checks when aggregation throughput matters.
  using sim_engine::run_until;

  [[nodiscard]] census_view census() const override { return {counts_, n_}; }
  [[nodiscard]] std::uint64_t interactions() const override {
    return interactions_;
  }
  [[nodiscard]] engine_kind kind() const override {
    return engine_kind::multibatch;
  }

  /// Snapshot payload: counts, both touched/untouched pools, the
  /// round/collision counters, and the residual-round carry. "rounds" and
  /// "collisions" count aggregated rounds started and collisions resolved:
  /// the engine's seed-deterministic work metric, read from the snapshot
  /// like every engine counter; interactions / (rounds + collisions) is the
  /// aggregation factor, ~sqrt(n) on any kernel. "pending_free" holds the
  /// collision-free interactions of the current round drawn but not yet
  /// applied because a run() budget truncated the round (the birthday law
  /// is not memoryless, so the remainder carries across run() calls instead
  /// of being redrawn); "collision_pending" is true while the engine is
  /// inside a round — whenever pending_free > 0, and also after the free
  /// run is exhausted but before the collision executes. A checkpoint taken
  /// inside a budget-truncated round resumes the same round, same law, same
  /// draws. restore_state validates the exact key set, the state_version,
  /// the census (checked_census, width and population) and the round-state
  /// relations, and leaves the engine untouched on failure.
  [[nodiscard]] json save_state() const override;
  void restore_state(const json& snapshot) override;

 private:
  void apply_free_sequential(std::uint64_t free);
  /// One joint draw of a `free`-pair run: initiator and responder multisets,
  /// the matching rows, and each pair type's outcome split.
  void apply_free_aggregate(std::uint64_t free);
  /// Draws `draws` agents from the untouched pool into `out` (one
  /// multivariate hypergeometric) and removes them.
  void take_untouched(std::uint64_t draws, std::vector<std::uint64_t>& out);
  void apply_pair_type(agent_state u, agent_state v, std::uint64_t m);
  void resolve_collision();

  std::shared_ptr<const kernel_table> kernel_;
  std::vector<std::uint64_t> counts_;     ///< current census
  std::vector<std::uint64_t> untouched_;  ///< untouched agents by state
  std::vector<std::uint64_t> touched_;    ///< touched agents by current state
  std::uint64_t untouched_total_ = 0;
  std::uint64_t n_;
  rng gen_;
  std::uint64_t interactions_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t collisions_ = 0;
  /// Collision-free interactions of the current round not yet applied; when
  /// it reaches 0 with collision_pending_, the next interaction collides.
  std::uint64_t pending_free_ = 0;
  bool collision_pending_ = false;
  /// Runs below this take the sequential per-pair path (the O(q^2)
  /// aggregate tables would cost more than per-pair sampling).
  std::uint64_t aggregate_threshold_;
  collision_run_sampler birthday_;  ///< grown lazily by sample()
  // Per-round scratch, reused across rounds.
  std::vector<std::uint64_t> initiators_;  ///< the run's initiator census
  std::vector<std::uint64_t> responders_;  ///< the run's responder census
  std::vector<std::uint64_t> row_;         ///< one matching row
  std::vector<double> probs_;              ///< outcome-split probabilities
  std::vector<std::uint64_t> split_;       ///< multinomial outcome counts
};

}  // namespace ppg
