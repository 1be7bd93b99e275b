// Exact transient-law oracle: a population protocol is exactly a Markov
// chain on censuses (Chatzigiannakis–Spirakis), so for small n that chain
// can be built from the compiled kernel_table and evolved exactly to time
// t. Each engine's empirical distribution of the census after t
// interactions is then chi-square tested against that exact pmf — ground
// truth that does not depend on any engine, and that survives deliberate
// changes of an engine's draw sequence (DESIGN.md §8).
//
// Dense hawk-dove (logit, temperature 0.5), one-way and two-way, at
// n = 1000: the multibatch aggregate threshold is 16 pairs and E[J] ~ 20,
// so most rounds apply their collision-free run on the aggregate path.
// run() advances in chunks of 97, so rounds are routinely truncated and
// carried across calls. The batched engine runs the same chains with every
// pair non-identity (no geometric skips); one-way k-IGT (k = 3) with AC,
// AD and GTFT agents all present exercises its identity-skipping path. The
// census engine is the control, and the agent engine checks its per-agent
// draws from the same kernel_table. Seeds are fixed and the level is
// Bonferroni-corrected over the accepting tests, so the outcome is
// deterministic; temperature-0.6 engines must be rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ppg/core/igt_protocol.hpp"
#include "ppg/ehrenfest/simplex.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/markov/chain.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {
namespace {

using census_vector = std::vector<std::uint64_t>;

/// The census chain of `proto` over populations of `n` agents, with every
/// census of the q-state simplex indexed by its lexicographic rank.
struct census_chain {
  simplex_index index;
  finite_chain chain;
};

/// One interaction of the distinct-pair scheduler: ordered pair (u, v) of
/// distinct agents with probability c_u (c_v - [u = v]) / (n (n - 1)),
/// then the kernel's outcome distribution for that pair.
census_chain build_census_chain(const protocol& proto, std::uint64_t n) {
  const kernel_table kernel(proto);
  const std::size_t q = kernel.num_states();
  simplex_index index(q, n);
  finite_chain chain(index.size());
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  census_vector c = index.first();
  do {
    const std::size_t from = index.rank(c);
    for (std::size_t u = 0; u < q; ++u) {
      for (std::size_t v = 0; v < q; ++v) {
        if (c[u] == 0) continue;
        const std::uint64_t cv = c[v] - (u == v ? 1 : 0);
        if (cv == 0) continue;
        const double weight =
            static_cast<double>(c[u]) * static_cast<double>(cv) / pairs;
        const auto a = static_cast<agent_state>(u);
        const auto b = static_cast<agent_state>(v);
        for (std::size_t k = 0; k < kernel.num_outcomes(a, b); ++k) {
          const outcome o = kernel.outcome_at(a, b, k);
          census_vector next = c;
          --next[u];
          --next[v];
          ++next[o.initiator];
          ++next[o.responder];
          chain.add_transition(from, index.rank(next),
                               weight * o.probability);
        }
      }
    }
  } while (index.next(c));
  return {std::move(index), std::move(chain)};
}

game_protocol hawk_dove(double temperature, revision_discipline discipline) {
  return {hawk_dove_matrix(1.0, 2.0),
          std::make_shared<logit_response_rule>(temperature), discipline};
}

/// Where a replica starts, how far it runs, and the run() chunk it
/// advances by.
struct law_setup {
  census_vector initial;
  std::uint64_t horizon;
  std::uint64_t chunk;
};

constexpr std::uint64_t n = 1000;
// One unit of parallel time from (800, 200); chunks of 97 truncate
// multibatch rounds mid-flight.
const law_setup hawk_dove_setup = {{800, 200}, n, 97};
// One-way 3-IGT over (AC, AD, g1, g2, g3) at n = 24: the AC and AD counts
// never change and the 12 GTFT agents walk the ladder from level 0. The
// horizon makes each GTFT agent the initiator twice in expectation.
const law_setup igt_setup = {{8, 4, 12, 0, 0}, 48, 5};
constexpr std::size_t replicas = 4000;
// Four engines x two hawk-dove disciplines plus three engines on IGT: 11
// accepting tests, so their family-wise level is 11 x 0.00125 = 0.01375.
constexpr double per_test_level = 0.00125;

/// Exact pmf of the census after `setup.horizon` interactions from
/// `setup.initial`.
std::vector<double> exact_pmf(const census_chain& cc, const law_setup& setup) {
  std::vector<double> mu(cc.index.size(), 0.0);
  mu[cc.index.rank(setup.initial)] = 1.0;
  return cc.chain.evolve(std::move(mu), setup.horizon);
}

/// p-value of `replicas` runs of `kind` on `proto` against `pmf`.
double engine_p_value(const protocol& proto, engine_kind kind,
                      const law_setup& setup, const census_chain& cc,
                      const std::vector<double>& pmf, std::uint64_t master) {
  const sim_spec spec(proto, setup.initial);
  std::vector<std::uint64_t> observed(pmf.size(), 0);
  for (std::size_t r = 0; r < replicas; ++r) {
    rng gen = make_stream_rng(master, r);
    const auto engine = spec.make_engine(kind, gen);
    for (std::uint64_t done = 0; done < setup.horizon; done += setup.chunk) {
      engine->run(std::min(setup.chunk, setup.horizon - done));
    }
    EXPECT_EQ(engine->interactions(), setup.horizon);
    const census_view view = engine->census();
    census_vector c(setup.initial.size());
    for (std::size_t s = 0; s < c.size(); ++s) {
      c[s] = view.count(static_cast<agent_state>(s));
    }
    ++observed[cc.index.rank(c)];
  }
  return chi_square_gof(observed, pmf).p_value;
}

TEST(ExactLaw, AggregatePathCarriesMostRounds) {
  // P(J >= 16) = S(15): the share of rounds whose free run reaches the
  // q = 2 aggregate threshold max(16, 4 q^2) before any chunk truncation.
  const collision_run_sampler birthday(n);
  EXPECT_GT(std::exp(birthday.log_survival(15)), 0.5);
}

TEST(ExactLaw, EnginesMatchTheExactCensusChain) {
  for (const auto discipline :
       {revision_discipline::one_way, revision_discipline::two_way}) {
    const game_protocol proto = hawk_dove(0.5, discipline);
    const census_chain cc = build_census_chain(proto, n);
    ASSERT_TRUE(cc.chain.is_stochastic());
    const std::vector<double> pmf = exact_pmf(cc, hawk_dove_setup);
    for (const auto kind : {engine_kind::multibatch, engine_kind::batched,
                            engine_kind::census, engine_kind::agent}) {
      const double p =
          engine_p_value(proto, kind, hawk_dove_setup, cc, pmf, 1301);
      EXPECT_GT(p, per_test_level)
          << engine_kind_name(kind) << " two_way="
          << (discipline == revision_discipline::two_way);
    }
  }
}

TEST(ExactLaw, OneWayIgtMatchesTheExactCensusChain) {
  const igt_protocol proto(3, igt_discipline::one_way);
  const census_chain cc = build_census_chain(proto, 24);
  ASSERT_TRUE(cc.chain.is_stochastic());
  const std::vector<double> pmf = exact_pmf(cc, igt_setup);
  for (const auto kind :
       {engine_kind::batched, engine_kind::census, engine_kind::agent}) {
    const double p = engine_p_value(proto, kind, igt_setup, cc, pmf, 1303);
    EXPECT_GT(p, per_test_level) << engine_kind_name(kind);
  }
}

TEST(ExactLaw, RejectsAnEngineAtTheWrongTemperature) {
  // Power: the same oracle must tell temperature 0.6 from 0.5.
  for (const auto discipline :
       {revision_discipline::one_way, revision_discipline::two_way}) {
    const census_chain cc = build_census_chain(hawk_dove(0.5, discipline), n);
    const std::vector<double> pmf = exact_pmf(cc, hawk_dove_setup);
    const game_protocol wrong = hawk_dove(0.6, discipline);
    for (const auto kind : {engine_kind::multibatch, engine_kind::batched}) {
      const double p =
          engine_p_value(wrong, kind, hawk_dove_setup, cc, pmf, 1302);
      EXPECT_LT(p, per_test_level)
          << engine_kind_name(kind) << " two_way="
          << (discipline == revision_discipline::two_way);
    }
  }
}

}  // namespace
}  // namespace ppg
