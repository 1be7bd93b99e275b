#include "ppg/pp/census.hpp"

#include <string>

#include "ppg/util/error.hpp"

namespace ppg {

census_view::census_view(const std::vector<std::uint64_t>& counts,
                         std::uint64_t population_size)
    : counts_(&counts), n_(population_size) {
  PPG_CHECK(!counts.empty(), "census needs at least one state kind");
}

std::uint64_t census_view::count(agent_state state) const {
  PPG_CHECK(state < counts_->size(), "state out of range");
  return (*counts_)[state];
}

std::vector<double> census_view::fractions() const {
  std::vector<double> out(counts_->size());
  for (std::size_t s = 0; s < counts_->size(); ++s) {
    out[s] = static_cast<double>((*counts_)[s]) / static_cast<double>(n_);
  }
  return out;
}

double census_view::fraction(agent_state state) const {
  return static_cast<double>(count(state)) / static_cast<double>(n_);
}

std::uint64_t checked_census(const std::vector<std::uint64_t>& counts,
                             std::size_t num_states, const char* where) {
  PPG_CHECK(counts.size() >= num_states,
            std::string(where) +
                ": census state space smaller than the protocol's");
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    PPG_CHECK(s < num_states || counts[s] == 0,
              std::string(where) +
                  ": agents in states outside the protocol's space");
    PPG_CHECK(!__builtin_add_overflow(total, counts[s], &total),
              std::string(where) + ": census total exceeds 2^64 - 1");
  }
  PPG_CHECK(total >= 2,
            std::string(where) + ": a protocol needs at least two agents");
  return total;
}

}  // namespace ppg
