// Pins the multibatch engine's v1 sampling law (DESIGN.md §8, "The round
// law") draw for draw: a dense hawk-dove trajectory at n = 10^7, advanced
// over a fixed run() chunk schedule, must reproduce committed snapshots
// byte for byte. At this n a round's collision-free run is ~2000 pairs, so
// aggregate applications split into L >= 2 shard sub-draws; the snapshots
// therefore fix the birthday draws, the conditional MVH shard splits, the
// per-shard derived streams, the multinomial outcome splits and the
// collision resolution all at once. Any change to the law — deliberate or
// not — fails here; a deliberate one must also bump engine_state_version.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/json.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {
namespace {

/// Dense two-way hawk-dove: every pair randomizes both sides, so rounds
/// exercise the MVH tables and the multinomial splits.
game_protocol dense_proto() {
  return {hawk_dove_matrix(1.0, 2.0),
          std::make_shared<logit_response_rule>(0.5),
          revision_discipline::two_way};
}

constexpr std::uint64_t golden_n = 10'000'000;
constexpr std::uint64_t golden_seed = 2024;

std::vector<std::uint64_t> half_split(std::uint64_t n) {
  return {n / 2, n - n / 2};
}

/// The chunk schedule up to the mid-round golden snapshot; the last chunk
/// truncates a round and leaves 1425 free pairs pending (>= 1024, so the
/// carried remainder itself splits into two shards).
const std::vector<std::uint64_t> to_mid = {1'000'000, 333'333, 4'001, 1, 300};
/// The chunk schedule from the mid-round golden to the final one.
const std::vector<std::uint64_t> to_end = {123'457, 1, 2'000'000, 65'536};

const char* const mid_golden =
    R"({"state_version":1,"engine":"multibatch","interactions":1337635,)"
    R"("rng":[4701424392026812882,3576801397058540249,)"
    R"(9753317939762626592,92151487212452957],)"
    R"("counts":[5000548,4999452],"untouched":[5000050,4998964],)"
    R"("touched":[498,488],"untouched_total":9999014,"rounds":687,)"
    R"("collisions":686,"pending_free":1425,"collision_pending":true})";

const char* const end_golden =
    R"({"state_version":1,"engine":"multibatch","interactions":3526629,)"
    R"("rng":[9556930251581373774,9131235674036849362,)"
    R"(12114590555751678834,5677357728922747136],)"
    R"("counts":[5002115,4997885],"untouched":[5000845,4996577],)"
    R"("touched":[1270,1308],"untouched_total":9997422,"rounds":1804,)"
    R"("collisions":1803,"pending_free":1314,"collision_pending":true})";

TEST(MultibatchLaw, V1TrajectoryReproducesTheGoldenSnapshots) {
  multibatch_engine engine(dense_proto(), half_split(golden_n),
                           rng(golden_seed));
  for (const std::uint64_t chunk : to_mid) engine.run(chunk);
  ASSERT_TRUE(engine.mid_round());
  ASSERT_GE(engine.residual_free(), 1024u);
  EXPECT_EQ(engine.save_state().dump_string(false), mid_golden);
  for (const std::uint64_t chunk : to_end) engine.run(chunk);
  EXPECT_EQ(engine.save_state().dump_string(false), end_golden);
}

TEST(MultibatchLaw, MidRoundGoldenResumesToTheFinalGolden) {
  // A fresh RNG seed: the snapshot's RNG position must win.
  multibatch_engine engine(dense_proto(), half_split(golden_n), rng(1));
  engine.restore_state(json::parse(mid_golden));
  EXPECT_EQ(engine.save_state().dump_string(false), mid_golden);
  for (const std::uint64_t chunk : to_end) engine.run(chunk);
  EXPECT_EQ(engine.save_state().dump_string(false), end_golden);
}

TEST(ShardLaw, IsAFixedFunctionOfTheRunLength) {
  // q = 2 games have threshold 16 < the 512-pair grain.
  const std::uint64_t thr = 16;
  EXPECT_EQ(multibatch_engine::shard_count(1, thr), 1u);
  EXPECT_EQ(multibatch_engine::shard_count(511, thr), 1u);
  EXPECT_EQ(multibatch_engine::shard_count(1023, thr), 1u);
  EXPECT_EQ(multibatch_engine::shard_count(1024, thr), 2u);
  EXPECT_EQ(multibatch_engine::shard_count(512 * 7, thr), 7u);
  EXPECT_EQ(multibatch_engine::shard_count(512 * 16, thr), 16u);
  EXPECT_EQ(multibatch_engine::shard_count(1u << 30, thr), 16u);
  // A larger aggregate threshold raises the grain with it.
  EXPECT_EQ(multibatch_engine::shard_count(4096, 4096), 1u);
  EXPECT_EQ(multibatch_engine::shard_count(3 * 4096, 4096), 3u);
}

}  // namespace
}  // namespace ppg
