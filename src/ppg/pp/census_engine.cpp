#include "ppg/pp/census_engine.hpp"

#include "ppg/util/error.hpp"

namespace ppg {

census_engine::census_engine(const protocol& proto,
                             std::vector<std::uint64_t> initial_counts,
                             rng gen, pair_sampling sampling,
                             std::shared_ptr<const kernel_table> kernel)
    : kernel_(adopt_kernel(proto, std::move(kernel))),
      counts_(std::move(initial_counts)),
      n_(checked_census(counts_, kernel_->num_states(), "census engine")),
      gen_(gen),
      sampling_(sampling) {}

void census_engine::step() {
  if (sampling_ == pair_sampling::with_replacement &&
      gen_.next_below(n_) == 0) {
    // A self-interaction (probability 1/n): the ordered pair lands on one
    // agent twice; only the initiator update applies, mirroring the agent
    // engine's self-pair handling.
    const agent_state u =
        locate_state(counts_, gen_.next_below(n_), no_excluded_state);
    const auto [next_initiator, next_responder] = kernel_->sample(u, u, gen_);
    (void)next_responder;
    --counts_[u];
    ++counts_[next_initiator];
    ++interactions_;
    return;
  }
  // Ordered pair of distinct agents: initiator state u with probability
  // c_u / n, then responder state v with probability (c_v - [v==u]) / (n-1)
  // — the census marginal of a uniform ordered agent pair.
  const agent_state u =
      locate_state(counts_, gen_.next_below(n_), no_excluded_state);
  const agent_state v = locate_state(counts_, gen_.next_below(n_ - 1), u);
  const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen_);
  --counts_[u];
  --counts_[v];
  ++counts_[next_initiator];
  ++counts_[next_responder];
  ++interactions_;
}

json census_engine::save_state() const {
  json snapshot = snapshot_envelope(interactions_, gen_);
  snapshot["counts"] = json_uint_array(counts_);
  return snapshot;
}

void census_engine::restore_state(const json& snapshot) {
  json_require_keys(
      snapshot, {"state_version", "engine", "interactions", "rng", "counts"},
      "census snapshot");
  const auto core = check_snapshot_envelope(snapshot);
  const auto counts =
      json_require_uint_array(snapshot, "counts", "census snapshot");
  PPG_CHECK(counts.size() == counts_.size(),
            "census snapshot: state-space width mismatch");
  PPG_CHECK(checked_census(counts, kernel_->num_states(), "census snapshot") ==
                n_,
            "census snapshot: population size mismatch");
  counts_ = counts;
  interactions_ = core.interactions;
  gen_ = core.gen;
}

// A plain step() loop compiled against the final class: step() dispatches
// statically here, which is worth ~15% on the per-interaction hot path over
// a loop that calls step() through sim_engine (a virtual call per step).
void census_engine::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    step();
  }
}

}  // namespace ppg
