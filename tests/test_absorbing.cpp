// Tests for the absorbing-chain solver: gambler's-ruin closed forms,
// absorption probabilities (equation (25) of the paper), and the leader
// election projection.
#include <gtest/gtest.h>

#include "ppg/markov/absorbing.hpp"
#include "ppg/markov/random_walk.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/protocols/leader_election.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(Absorbing, GamblersRuinTimesMatchClosedForm) {
  for (const auto& params :
       {walk_params{0.25, 0.25}, walk_params{0.3, 0.15},
        walk_params{0.1, 0.4}}) {
    const std::size_t span = 14;
    const auto chain = absorbing_walk_chain(span, params.up, params.down);
    std::vector<bool> absorbing(span + 1, false);
    absorbing[0] = true;
    absorbing[span] = true;
    const auto times = expected_absorption_times(chain, absorbing);
    for (std::size_t start = 0; start <= span; ++start) {
      EXPECT_NEAR(times[start],
                  expected_absorption_time(params,
                                           static_cast<std::int64_t>(span),
                                           static_cast<std::int64_t>(start)),
                  1e-8)
          << "start " << start << " up " << params.up;
    }
  }
}

TEST(Absorbing, AbsorptionProbabilitiesMatchEquation25) {
  // Equation (25): probability of upper absorption for the biased walk.
  const walk_params params{0.3, 0.15};
  const std::size_t span = 10;
  const auto chain = absorbing_walk_chain(span, params.up, params.down);
  std::vector<bool> absorbing(span + 1, false);
  absorbing[0] = true;
  absorbing[span] = true;
  std::vector<bool> upper(span + 1, false);
  upper[span] = true;
  const auto probs = absorption_probabilities(chain, absorbing, upper);
  for (std::size_t start = 0; start <= span; ++start) {
    EXPECT_NEAR(probs[start],
                upper_absorption_probability(
                    params, static_cast<std::int64_t>(span),
                    static_cast<std::int64_t>(start)),
                1e-10);
  }
}

TEST(Absorbing, ComplementaryProbabilitiesSumToOne) {
  const auto chain = absorbing_walk_chain(8, 0.2, 0.3);
  std::vector<bool> absorbing(9, false);
  absorbing[0] = true;
  absorbing[8] = true;
  std::vector<bool> lower(9, false);
  lower[0] = true;
  std::vector<bool> upper(9, false);
  upper[8] = true;
  const auto p_low = absorption_probabilities(chain, absorbing, lower);
  const auto p_high = absorption_probabilities(chain, absorbing, upper);
  for (std::size_t i = 0; i <= 8; ++i) {
    EXPECT_NEAR(p_low[i] + p_high[i], 1.0, 1e-10);
  }
}

TEST(Absorbing, AbsorbingStatesHaveZeroTime) {
  const auto chain = absorbing_walk_chain(5, 0.25, 0.25);
  std::vector<bool> absorbing(6, false);
  absorbing[0] = true;
  absorbing[5] = true;
  const auto times = expected_absorption_times(chain, absorbing);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[5], 0.0);
  EXPECT_GT(times[2], 0.0);
}

TEST(Absorbing, TargetMustBeAbsorbing) {
  const auto chain = absorbing_walk_chain(5, 0.25, 0.25);
  std::vector<bool> absorbing(6, false);
  absorbing[0] = true;
  absorbing[5] = true;
  std::vector<bool> bad_target(6, false);
  bad_target[2] = true;  // transient
  EXPECT_THROW(
      (void)absorption_probabilities(chain, absorbing, bad_target),
      invariant_error);
}

TEST(Absorbing, LeaderCountChainExpectedTimeClosedForm) {
  // From l leaders, the number of interactions to drop to l-1 is geometric
  // with success probability l(l-1)/(n(n-1)), so
  // E[T] = n(n-1) sum_{l=2}^{n} 1/(l(l-1)) = n(n-1)(1 - 1/n).
  const std::size_t n = 40;
  const auto chain = leader_count_chain(n);
  std::vector<bool> absorbing(n, false);
  absorbing[0] = true;  // one leader left
  const auto times = expected_absorption_times(chain, absorbing);
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(times[n - 1], nd * (nd - 1.0) * (1.0 - 1.0 / nd), 1e-6);
}

TEST(Absorbing, LeaderCountChainMatchesAgentSimulation) {
  // The projected chain's expected completion time should match the mean of
  // the agent-level protocol.
  const std::size_t n = 30;
  const auto chain = leader_count_chain(n);
  std::vector<bool> absorbing(n, false);
  absorbing[0] = true;
  const double exact = expected_absorption_times(chain, absorbing)[n - 1];

  std::vector<std::uint64_t> all_leaders(2, 0);
  all_leaders[leader_election_protocol::state_leader] = n;
  running_summary simulated;
  for (int t = 0; t < 60; ++t) {
    const leader_election_protocol proto;
    simulation sim(proto, all_leaders,
                   rng(800 + static_cast<std::uint64_t>(t)));
    const auto steps = sim.run_until(
        leader_election_protocol::has_unique_leader, 100'000'000);
    simulated.add(static_cast<double>(steps));
  }
  EXPECT_NEAR(simulated.mean(), exact, 5.0 * simulated.ci_half_width());
}

TEST(Absorbing, UnreachableAbsorptionThrows) {
  // Two disconnected transient states can never be absorbed.
  finite_chain chain(3);
  chain.add_transition(0, 1, 1.0);
  chain.add_transition(1, 0, 1.0);
  chain.add_transition(2, 2, 1.0);
  std::vector<bool> absorbing(3, false);
  absorbing[2] = true;
  EXPECT_THROW((void)expected_absorption_times(chain, absorbing),
               invariant_error);
}

}  // namespace
}  // namespace ppg
