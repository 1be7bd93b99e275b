// Pins the batched engine's trajectory draw for draw: three kernels, each
// advanced over a fixed run() chunk schedule, must reproduce committed
// save_state() snapshots byte for byte — the RNG position, the census, the
// batch counter and the incrementally maintained non-identity mass. The
// cases cover the paper's one-way k-IGT sweep (the identity-skipping path),
// dense two-way hawk-dove (every pair non-identity, no skips), and two-way IGT
// at k = 70, whose 72 states span two words of a 64-bit row mask. Any
// change to the engine's bookkeeping that is not bit-identical fails here.
//
// The second half checks the incremental mass itself: restore_state
// re-derives the mass from the census and refuses a snapshot whose stored
// value disagrees, so a fresh engine accepting save_state() after every
// chunk proves the incremental updates never drifted.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppg/core/igt_protocol.hpp"
#include "ppg/core/population_config.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/batched_engine.hpp"
#include "ppg/pp/protocols/approximate_majority.hpp"
#include "ppg/pp/protocols/leader_election.hpp"
#include "ppg/pp/protocols/rumor.hpp"
#include "ppg/util/json.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {
namespace {

/// The snapshot after running `chunks` in order from a fresh engine.
std::string run_schedule(batched_engine& engine,
                         const std::vector<std::uint64_t>& chunks) {
  for (const std::uint64_t chunk : chunks) engine.run(chunk);
  return engine.save_state().dump_string(false);
}

// --- Case 1: the igt_sweep recipe (one-way, k = 8, n = 10^6, all GTFT at
// level 0). Non-identity mass is ~5% of pairs, so most interactions are
// skipped geometrically.

constexpr std::size_t igt_k = 8;

std::vector<std::uint64_t> igt_sweep_counts() {
  const auto pop = abg_population::from_fractions(1'000'000, 0.75, 0.2, 0.05);
  std::vector<std::uint64_t> counts(2 + igt_k, 0);
  counts[igt_encoding::ac] = pop.num_ac;
  counts[igt_encoding::ad] = pop.num_ad;
  counts[igt_encoding::gtft(0)] = pop.num_gtft;
  return counts;
}

const std::vector<std::uint64_t> igt_to_mid = {1'000'000, 333'333, 1, 4'097};
const std::vector<std::uint64_t> igt_to_end = {8'388'608, 65'536, 7};

const char* const igt_mid_golden =
    R"({"state_version":2,"engine":"batched","interactions":1337431,)"
    R"("rng":[14947901987067935580,14845663780860010921,)"
    R"(2087780693277792378,12586252492538331761],"counts":[750000,)"
    R"(200000,19550,17545,8876,2999,814,173,36,7],"batches":58403,)"
    R"("active_weight":46084350007})";
const char* const igt_end_golden =
    R"({"state_version":2,"engine":"batched","interactions":9791582,)"
    R"("rng":[12198015275951836902,17929946062412638869,)"
    R"(15552197669754881763,17280756945484594224],"counts":[750000,)"
    R"(200000,679,1477,2672,4333,5864,6901,8918,19156],)"
    R"("batches":428563,"active_weight":34539369156})";

TEST(BatchedLaw, IgtSweepTrajectoryReproducesTheGoldenSnapshots) {
  const igt_protocol proto(igt_k, igt_discipline::one_way);
  batched_engine engine(proto, igt_sweep_counts(), rng(2024));
  EXPECT_EQ(run_schedule(engine, igt_to_mid), igt_mid_golden);
  EXPECT_EQ(run_schedule(engine, igt_to_end), igt_end_golden);
}

TEST(BatchedLaw, IgtMidGoldenResumesToTheFinalGolden) {
  // A fresh RNG seed: the snapshot's RNG position must win.
  const igt_protocol proto(igt_k, igt_discipline::one_way);
  batched_engine engine(proto, igt_sweep_counts(), rng(1));
  engine.restore_state(json::parse(igt_mid_golden));
  EXPECT_EQ(run_schedule(engine, igt_to_end), igt_end_golden);
}

// --- Case 2: two-way hawk-dove under logit 0.5 at n = 10^4. Every pair
// randomizes, so the non-identity mass is n(n-1) and no batch skips.

const char* const hawk_dove_golden =
    R"({"state_version":2,"engine":"batched","interactions":18383,)"
    R"("rng":[5697181008670773041,16287885455280139932,)"
    R"(2682411167040109191,4523413741364987108],"counts":[4946,5054],)"
    R"("batches":18383,"active_weight":99990000})";

TEST(BatchedLaw, DenseHawkDoveTrajectoryReproducesTheGoldenSnapshot) {
  const game_protocol proto(hawk_dove_matrix(1.0, 2.0),
                            std::make_shared<logit_response_rule>(0.5),
                            revision_discipline::two_way);
  constexpr std::uint64_t n = 10'000;
  batched_engine engine(proto, {n / 2, n - n / 2}, rng(2025));
  json start = engine.save_state();
  ASSERT_EQ(start["active_weight"].as_uint64(), n * (n - 1));
  EXPECT_EQ(run_schedule(engine, {1'000, 1, 37, 5'000, 12'345}),
            hawk_dove_golden);
}

// --- Case 3: two-way IGT at k = 70 (q = 72): level changes near the top of
// the ladder move agents between rows on either side of the 64-row word
// boundary.

const char* const igt70_golden =
    R"({"state_version":2,"engine":"batched","interactions":176314,)"
    R"("rng":[18145457091572869850,18062091042177583791,)"
    R"(13689263731713116086,4055906927930554594],"counts":[3000,2000,)"
    R"(0,0,0,0,0,0,2,1,2,1,4,7,12,9,10,18,18,23,27,28,36,45,51,57,46,)"
    R"(41,64,79,61,64,79,76,63,81,77,64,69,64,61,84,55,63,63,68,57,)"
    R"(78,74,74,73,79,75,79,67,72,55,70,83,71,72,71,64,88,72,66,70,)"
    R"(71,98,132,333,1183],"batches":124812,"active_weight":66498694})";

TEST(BatchedLaw, TwoWayIgt70TrajectoryReproducesTheGoldenSnapshot) {
  constexpr std::size_t k = 70;
  const igt_protocol proto(k, igt_discipline::two_way);
  std::vector<std::uint64_t> counts(2 + k, 0);
  counts[igt_encoding::ac] = 3'000;
  counts[igt_encoding::ad] = 2'000;
  for (std::size_t j = 0; j < k; ++j) counts[igt_encoding::gtft(j)] = 70;
  counts[igt_encoding::gtft(0)] += 100;
  batched_engine engine(proto, counts, rng(2026));
  EXPECT_EQ(run_schedule(engine, {10'000, 1, 777, 65'536, 100'000}),
            igt70_golden);
}

// --- Incremental-mass invariant.

/// A q = 70 kernel drawn from a fixed seed: roughly a third of the pairs
/// (self-pairs u = v included) are identities, the rest move one or both
/// agents to up to three random outcomes, so the responder columns of any
/// two states differ on rows in both words of the mask.
class random_kernel_protocol final : public protocol {
 public:
  static constexpr std::size_t q = 70;

  [[nodiscard]] std::size_t num_states() const override { return q; }

  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override {
    rng gen(derive_stream_seed(77, initiator * q + responder));
    if (gen.next_below(3) == 0) return {{initiator, responder, 1.0}};
    const std::uint64_t support = 1 + gen.next_below(3);
    std::vector<outcome> out;
    for (std::uint64_t i = 0; i < support; ++i) {
      out.push_back({static_cast<agent_state>(gen.next_below(q)),
                     static_cast<agent_state>(gen.next_below(q)),
                     1.0 / static_cast<double>(support)});
    }
    return out;
  }
};

/// Runs chunks of 1..7 interactions and, after each, restores the snapshot
/// into a fresh engine, which re-derives the non-identity mass from the
/// census and refuses a mismatch.
void expect_mass_matches_census(const protocol& proto,
                                const std::vector<std::uint64_t>& counts,
                                std::uint64_t seed) {
  const auto kernel = std::make_shared<const kernel_table>(proto);
  batched_engine engine(proto, counts, rng(seed), pair_sampling::distinct,
                        kernel);
  for (std::uint64_t i = 0; i < 700; ++i) {
    engine.run(1 + i % 7);
    batched_engine fresh(proto, counts, rng(seed + 1),
                         pair_sampling::distinct, kernel);
    ASSERT_NO_THROW(fresh.restore_state(engine.save_state()))
        << "after chunk " << i;
  }
}

TEST(BatchedLaw, IncrementalMassMatchesTheCensus) {
  expect_mass_matches_census(approximate_majority_protocol(), {60, 50, 10},
                             11);
  expect_mass_matches_census(rumor_protocol(), {119, 1}, 12);
  expect_mass_matches_census(leader_election_protocol(), {40, 0}, 13);
  std::vector<std::uint64_t> counts(random_kernel_protocol::q, 0);
  for (std::size_t s = 0; s < counts.size(); ++s) counts[s] = s % 5;
  expect_mass_matches_census(random_kernel_protocol(), counts, 14);
}

}  // namespace
}  // namespace ppg
