#include "ppg/core/igt_protocol.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "ppg/games/strategy.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/table.hpp"

namespace ppg {

std::size_t igt_encoding::level(agent_state s) {
  PPG_CHECK(is_gtft(s), "state is not a GTFT level");
  return s - first_gtft;
}

agent_state igt_encoding::gtft(std::size_t level) {
  return first_gtft + static_cast<agent_state>(level);
}

igt_protocol::igt_protocol(std::size_t k, igt_discipline discipline)
    // Definition 2.1 as a generic compilation: the paper's strategy set
    // (igt_game_matrix keeps the igt_encoding state order and the AC/AD/gj
    // names) under the laddered adjustment rule. The rule is payoff-blind,
    // so the default rd_setting only decorates the matrix with payoffs for
    // callers that inspect game().
    : game_protocol(igt_game_matrix(k),
                    std::make_shared<igt_ladder_rule>(k), discipline),
      k_(k) {}

namespace {

/// P(`col` cooperates in a strict majority of the rounds of one repeated
/// game against `row`). The game ends after round r with probability
/// (1 - delta) delta^(r-1), and the vote there is 2c > r for c column
/// cooperations, so the law of (last joint action, c) is carried round by
/// round through R rounds and renormalized (see igt_action_protocol).
double strict_majority_probability(const repeated_donation_game& rdg,
                                   const memory_one_strategy& row,
                                   const memory_one_strategy& col) {
  // Dropping masses this small loses far less than 2^-60 in total and keeps
  // the program off subnormal arithmetic, which is several times slower.
  constexpr double negligible = 1e-300;
  const double delta = rdg.delta;
  const std::size_t rounds =
      delta > 0.0 ? static_cast<std::size_t>(
                        std::ceil(60.0 * std::log(2.0) / -std::log(delta)))
                  : 1;
  const auto chance = [](double p, action a) {
    return a == action::cooperate ? p : 1.0 - p;
  };
  // mass[s][c]: P(the game reaches this round, played as s, with c column
  // cooperations so far); only c in [lo, hi] may be non-zero. shift[s] is 1
  // iff the column player cooperates in s.
  std::array<std::vector<double>, num_game_states> mass;
  std::array<std::size_t, num_game_states> shift{};
  for (std::size_t s = 0; s < num_game_states; ++s) {
    const auto played = static_cast<game_state>(s);
    shift[s] = col_action(played) == action::cooperate ? 1 : 0;
    mass[s].assign(rounds + 1, 0.0);
    mass[s][shift[s]] = chance(row.initial_cooperation, row_action(played)) *
                        chance(col.initial_cooperation, col_action(played));
  }
  auto next = mass;
  std::size_t lo = 0;
  std::size_t hi = 1;
  double up = 0.0;
  double down = 0.0;
  double stop = 1.0 - delta;  // P(the game ends with this round)
  for (std::size_t round = 1;; ++round, stop *= delta) {
    for (const auto& m : mass) {
      for (std::size_t c = lo; c <= hi; ++c) {
        (2 * c > round ? up : down) += stop * m[c];
      }
    }
    if (round == rounds) return up / (up + down);
    std::size_t next_lo = hi + 1;
    std::size_t next_hi = lo;
    for (std::size_t to = 0; to < num_game_states; ++to) {
      const auto played = static_cast<game_state>(to);
      auto& out = next[to];
      std::fill(out.data() + lo, out.data() + hi + 2, 0.0);
      for (std::size_t from = 0; from < num_game_states; ++from) {
        const auto seen = static_cast<game_state>(from);
        const double p =
            chance(row.response(seen), row_action(played)) *
            chance(col.response(swapped(seen)), col_action(played));
        if (p == 0.0) continue;
        for (std::size_t c = lo; c <= hi; ++c) {
          out[c + shift[to]] += mass[from][c] * p;
        }
      }
      for (std::size_t c = lo; c <= hi + 1; ++c) {
        if (out[c] < negligible) out[c] = 0.0;
        if (out[c] == 0.0) continue;
        next_lo = std::min(next_lo, c);
        next_hi = std::max(next_hi, c);
      }
    }
    std::swap(mass, next);
    lo = next_lo;
    hi = next_hi;
  }
}

}  // namespace

igt_action_protocol::igt_action_protocol(std::size_t k, rd_setting setting,
                                         double g_max)
    : k_(k), setting_(setting), grid_(generosity_grid(k, g_max)) {
  PPG_CHECK(setting_.valid(), "invalid RD setting");
  const std::size_t q = num_states();
  kernel_.resize(q * q);
  for (agent_state i = 0; i < q; ++i) {
    for (agent_state r = 0; r < q; ++r) {
      auto& dist = kernel_[i * q + r];
      if (!igt_encoding::is_gtft(i)) {
        dist.push_back({i, r, 1.0});
        continue;
      }
      const std::size_t level = igt_encoding::level(i);
      const double up = strict_majority_probability(
          setting_.to_game(), strategy_of(i), strategy_of(r));
      const std::size_t higher = std::min(level + 1, k_ - 1);
      const std::size_t lower = level > 0 ? level - 1 : 0;
      if (up > 0.0) dist.push_back({igt_encoding::gtft(higher), r, up});
      if (up < 1.0) dist.push_back({igt_encoding::gtft(lower), r, 1.0 - up});
    }
  }
}

memory_one_strategy igt_action_protocol::strategy_of(
    agent_state state) const {
  if (state == igt_encoding::ac) return always_cooperate();
  if (state == igt_encoding::ad) return always_defect();
  const std::size_t level = igt_encoding::level(state);
  PPG_CHECK(level < k_, "GTFT level out of range");
  return generous_tit_for_tat(grid_[level], setting_.s1);
}

std::vector<outcome> igt_action_protocol::outcome_distribution(
    agent_state initiator, agent_state responder) const {
  const std::size_t q = num_states();
  PPG_CHECK(initiator < q && responder < q, "IGT state out of range");
  return kernel_[initiator * q + responder];
}

std::string igt_action_protocol::state_name(agent_state state) const {
  if (state == igt_encoding::ac) return "AC";
  if (state == igt_encoding::ad) return "AD";
  const std::size_t level = igt_encoding::level(state);
  PPG_CHECK(level < k_, "GTFT level out of range");
  return "g" + std::to_string(level + 1) + "=" + fmt(grid_[level], 3);
}

std::vector<std::uint64_t> igt_initial_counts(const abg_population& pop,
                                              std::size_t k,
                                              std::size_t level) {
  PPG_CHECK(pop.valid(), "invalid population");
  PPG_CHECK(k >= 2, "k-IGT requires k >= 2");
  PPG_CHECK(level < k, "initial level out of range");
  std::vector<std::uint64_t> counts(2 + k, 0);
  counts[igt_encoding::ac] = pop.num_ac;
  counts[igt_encoding::ad] = pop.num_ad;
  counts[igt_encoding::gtft(level)] = pop.num_gtft;
  return counts;
}

std::vector<std::uint64_t> gtft_level_counts(const census_view& agents,
                                             std::size_t k) {
  std::vector<std::uint64_t> counts(k, 0);
  for (std::size_t level = 0; level < k; ++level) {
    counts[level] = agents.count(igt_encoding::gtft(level));
  }
  return counts;
}

}  // namespace ppg
