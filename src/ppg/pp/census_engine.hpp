// The census engine: simulation state is the per-state count vector only —
// no per-agent array — so memory and per-step cost are O(q) in the number of
// protocol states and independent of the population size n. Each step
// samples an ordered *state* pair directly from the counts, in exactly the
// law induced by the requested pair_sampling discipline over agents, then
// samples the kernel outcome and updates four counts. This unlocks
// populations in the hundreds of millions of agents (DESIGN.md §3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

class census_engine final : public sim_engine {
 public:
  /// `initial_counts[s]` is the number of agents starting in state s; its
  /// length is the census width, which may exceed the protocol's state
  /// count (pp/census.hpp's checked_census states what a valid census is).
  /// A non-null `kernel` is adopted as sim_spec::make_engine describes.
  census_engine(const protocol& proto,
                std::vector<std::uint64_t> initial_counts, rng gen,
                pair_sampling sampling = pair_sampling::distinct,
                std::shared_ptr<const kernel_table> kernel = nullptr);

  void step() override;
  void run(std::uint64_t steps) override;

  [[nodiscard]] census_view census() const override { return {counts_, n_}; }
  [[nodiscard]] std::uint64_t interactions() const override {
    return interactions_;
  }
  [[nodiscard]] engine_kind kind() const override {
    return engine_kind::census;
  }

  /// Snapshot payload: the count vector (the engine's whole state beyond
  /// the shared envelope).
  [[nodiscard]] json save_state() const override;
  void restore_state(const json& snapshot) override;

 private:
  std::shared_ptr<const kernel_table> kernel_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_;
  rng gen_;
  pair_sampling sampling_;
  std::uint64_t interactions_ = 0;
};

}  // namespace ppg
