// The census — the per-state count vector of n anonymous agents — as both
// the initial condition and the observation of every engine. Each engine is
// built from a census, checked once by checked_census below. All
// engine-facing observation — convergence predicates, snapshots, trace
// recording — is phrased against census_view, so it works identically
// whether the executing engine keeps a per-agent array (agent engine) or
// only the counts (census, batched and multibatch engines). See DESIGN.md §3.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ppg/pp/kernel.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

/// Non-owning view of a census: per-state counts and the population size n.
/// Cheap to copy; valid only while the underlying counts vector lives.
class census_view {
 public:
  census_view(const std::vector<std::uint64_t>& counts,
              std::uint64_t population_size);

  /// Number of agents currently in `state`.
  [[nodiscard]] std::uint64_t count(agent_state state) const;

  /// Full census (indexed by state).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return *counts_;
  }

  [[nodiscard]] std::uint64_t population_size() const { return n_; }
  [[nodiscard]] std::size_t num_state_kinds() const { return counts_->size(); }

  /// Census normalized by population size.
  [[nodiscard]] std::vector<double> fractions() const;
  [[nodiscard]] double fraction(agent_state state) const;

 private:
  const std::vector<std::uint64_t>* counts_;
  std::uint64_t n_;
};

/// A convergence predicate over the census — the uniform signature every
/// engine's run_until accepts. (Population-based predicates are gone: the
/// census view carries everything an anonymous-population predicate can
/// lawfully depend on, on every engine.)
using census_predicate = std::function<bool(const census_view&)>;

/// The one census intake: every engine constructor and restore_state, and
/// the sim_spec constructor, decide census validity here. Checks that
/// `counts` is a census of a protocol with `num_states` states — width at
/// least num_states, no agent in a state >= num_states, a total that fits in
/// 64 bits (counts arrive from recipes and snapshots, so a wrapping sum must
/// not pass as a small n), and at least two agents — and returns the
/// population size n. Throws ppg::invariant_error prefixed with `where`.
[[nodiscard]] std::uint64_t checked_census(
    const std::vector<std::uint64_t>& counts, std::size_t num_states,
    const char* where);

/// Sentinel for locate_state's `excluded`: remove no agent.
inline constexpr agent_state no_excluded_state = static_cast<agent_state>(-1);

/// The state holding the `target`-th agent (0-indexed) of `counts` when its
/// agents are ordered by state; `excluded` removes one agent of that state
/// first. The per-pair sampling walk of the census-level engines, inline so
/// each hot loop compiles it in place.
[[nodiscard]] inline agent_state locate_state(
    const std::vector<std::uint64_t>& counts, std::uint64_t target,
    agent_state excluded) {
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const std::uint64_t c = counts[s] - (s == excluded ? 1u : 0u);
    if (target < c) return static_cast<agent_state>(s);
    target -= c;
  }
  PPG_CHECK(false, "census sampling target out of range");
}

/// One census snapshot taken during a run.
struct census_snapshot {
  std::uint64_t interactions = 0;
  std::vector<std::uint64_t> counts;
};

}  // namespace ppg
