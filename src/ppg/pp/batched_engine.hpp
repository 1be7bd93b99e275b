// The batched engine: census-level execution that advances through runs of
// *identity* interactions — ordered state pairs whose kernel is a point mass
// on the pair itself, so they can never change any state — in a single
// geometric draw, instead of sampling them one by one. Between two census
// changes the census is constant, hence the number of identity interactions
// before the next non-identity one is Geometric(p) with p the current
// probability mass of non-identity pairs; geometric memorylessness makes
// truncating a batch at a step budget lawful. For kernels whose interactions
// are mostly no-ops — e.g. the one-way k-IGT dynamics, where any interaction
// whose initiator is AC or AD is an identity — this executes far less than
// one sampling operation per interaction (DESIGN.md §3).
//
// Non-identity mass is tracked in row-collapsed form: for each initiator
// state u, S_u is the (static, kernel-derived) set of responder states v
// with a non-identity pair (u, v), and R_u = sum of counts over S_u is
// maintained incrementally as agents move; the total non-identity weight is
// updated in the same pass (a delta expansion of the row products). Each
// agent move costs O(1) plus the rows whose responder set contains exactly
// one of its two states — none for a one-way k-IGT level change.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

class batched_engine final : public sim_engine {
 public:
  /// Same contract as census_engine, but restricted to
  /// pair_sampling::distinct (the standard PP scheduler). Population sizes
  /// up to ~3e9 are supported: pair weights c_u * c_v must fit in 64 bits.
  batched_engine(const protocol& proto,
                 std::vector<std::uint64_t> initial_counts, rng gen,
                 pair_sampling sampling = pair_sampling::distinct,
                 std::shared_ptr<const kernel_table> kernel = nullptr);

  void step() override;
  void run(std::uint64_t steps) override;
  std::uint64_t run_until(const census_predicate& converged,
                          std::uint64_t max_steps) override;

  [[nodiscard]] census_view census() const override { return {counts_, n_}; }
  [[nodiscard]] std::uint64_t interactions() const override {
    return interactions_;
  }
  [[nodiscard]] engine_kind kind() const override {
    return engine_kind::batched;
  }

  /// Snapshot payload: counts, the batch counter, and the incrementally
  /// maintained non-identity mass. "batches" counts one geometric draw
  /// (plus at most one non-identity interaction) each: the engine's
  /// seed-deterministic work metric, read from the snapshot like every
  /// engine counter — on dense kernels it approaches interactions().
  /// restore_state re-derives the mass from the restored counts and
  /// cross-checks it against the stored value, so a checkpoint whose census
  /// and mass disagree is rejected instead of silently corrupting the
  /// geometric batch law.
  [[nodiscard]] json save_state() const override;
  void restore_state(const json& snapshot) override;

 private:
  /// Recomputes the responder sums R_u and the total non-identity mass from
  /// counts_ (construction and restore; every other update is incremental).
  void rebuild_row_sums();

  /// Number of ordered agent pairs realizing initiator row u: the weight of
  /// row u is c_u * (R_u - [u in S_u]).
  [[nodiscard]] std::uint64_t row_weight(std::size_t row) const;

  /// Samples and applies one non-identity interaction (conditional on the
  /// current step being one); `active` is the precomputed active_weight().
  void apply_active(std::uint64_t active);

  /// Advances by one batch — the geometric run of identity interactions
  /// plus, if it falls inside `budget`, the next census change — and
  /// returns the interactions consumed (always in (0, budget]). A frozen
  /// census (no non-identity mass) consumes the whole budget.
  [[nodiscard]] std::uint64_t advance_batch(std::uint64_t budget);

  /// 1 iff `responder` is in S_row, i.e. (row, responder) is non-identity.
  [[nodiscard]] std::uint64_t in_row(std::size_t row,
                                     std::size_t responder) const {
    return (responder_column_[responder * mask_words_ + row / 64] >>
            (row % 64)) &
           1u;
  }

  /// Moves one agent from state `from` to `to`, maintaining the counts, the
  /// row responder sums R_u and the total non-identity weight.
  void move_agent(agent_state from, agent_state to);

  std::shared_ptr<const kernel_table> kernel_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_;
  rng gen_;
  std::uint64_t interactions_ = 0;
  std::uint64_t batches_ = 0;
  /// Initiator states with at least one non-identity pair.
  std::vector<agent_state> active_rows_;
  /// 64-bit words per responder column: ceil(q / 64).
  std::size_t mask_words_ = 0;
  /// For each state w, the bitmask of initiator rows u with w in S_u, as
  /// mask_words_ consecutive words (bit u % 64 of word u / 64).
  std::vector<std::uint64_t> responder_column_;
  /// R_u = sum of counts over S_u, maintained incrementally.
  std::vector<std::uint64_t> row_responder_sum_;
  /// Total weight of non-identity pairs, maintained incrementally by
  /// move_agent; the next census change is interaction
  /// Geometric(active_weight_ / (n(n-1))) + 1 from now.
  std::uint64_t active_weight_ = 0;
};

}  // namespace ppg
