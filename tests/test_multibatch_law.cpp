// Pins the multibatch engine's v2 sampling law (DESIGN.md §8, "The round
// law") draw for draw: a dense hawk-dove trajectory at n = 10^7, advanced
// over a fixed run() chunk schedule, must reproduce committed snapshots
// byte for byte. At this n a round's collision-free run is ~2000 pairs, so
// every application takes the aggregate path; the snapshots therefore fix
// the birthday draws, the joint initiator/responder pool draws, the
// matching rows, the multinomial outcome splits and the collision
// resolution all at once. Any change to the law — deliberate or not —
// fails here; a deliberate one must also bump engine_state_version, and
// snapshots of the old law must then be refused (the last test).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/checkpoint.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/error.hpp"
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
/// truncates a round and leaves 2503 free pairs pending, which the resumed
/// run applies on the aggregate path.
const std::vector<std::uint64_t> to_mid = {1'000'000, 333'333, 4'001, 1, 300};
/// The chunk schedule from the mid-round golden to the final one.
const std::vector<std::uint64_t> to_end = {123'457, 1, 2'000'000, 65'536};

const char* const mid_golden =
    R"({"state_version":2,"engine":"multibatch","interactions":1337635,)"
    R"("rng":[1749236560516943988,2188153624221495376,)"
    R"(16092524463345637712,1832721577036131424],)"
    R"("counts":[4998838,5001162],"untouched":[4998627,5000985],)"
    R"("touched":[211,177],"untouched_total":9999612,"rounds":692,)"
    R"("collisions":691,"pending_free":2503,"collision_pending":true})";

const char* const end_golden =
    R"({"state_version":2,"engine":"multibatch","interactions":3526629,)"
    R"("rng":[14792025223310824631,13715768070091001352,)"
    R"(6553461041837387912,16541461178140352932],)"
    R"("counts":[4997259,5002741],"untouched":[4994452,4999848],)"
    R"("touched":[2807,2893],"untouched_total":9994300,"rounds":1806,)"
    R"("collisions":1805,"pending_free":292,"collision_pending":true})";

/// The mid-round golden of sampling law v1 (up to 16 shard sub-draws per
/// run), which this build must refuse rather than resume under v2.
const char* const v1_mid_golden =
    R"({"state_version":1,"engine":"multibatch","interactions":1337635,)"
    R"("rng":[4701424392026812882,3576801397058540249,)"
    R"(9753317939762626592,92151487212452957],)"
    R"("counts":[5000548,4999452],"untouched":[5000050,4998964],)"
    R"("touched":[498,488],"untouched_total":9999014,"rounds":687,)"
    R"("collisions":686,"pending_free":1425,"collision_pending":true})";

TEST(MultibatchLaw, V2TrajectoryReproducesTheGoldenSnapshots) {
  multibatch_engine engine(dense_proto(), half_split(golden_n),
                           rng(golden_seed));
  for (const std::uint64_t chunk : to_mid) engine.run(chunk);
  const json mid = engine.save_state();
  ASSERT_TRUE(json_require_bool(mid, "collision_pending", "mid snapshot"));
  ASSERT_GT(json_require_uint(mid, "pending_free", "mid snapshot"), 0u);
  EXPECT_EQ(mid.dump_string(false), mid_golden);
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

/// The error text restore raises on `attempt`, or "" when it succeeds.
template <typename Attempt>
std::string restore_error(Attempt attempt) {
  try {
    attempt();
  } catch (const invariant_error& e) {
    return e.what();
  }
  return "";
}

TEST(MultibatchLaw, V1SnapshotsAreRefusedLoudly) {
  // A v1 snapshot describes a trajectory of the shard law; resuming it
  // under v2 would silently continue a different chain.
  multibatch_engine engine(dense_proto(), half_split(golden_n),
                           rng(golden_seed));
  for (const std::uint64_t chunk : to_mid) engine.run(chunk);
  const std::string before = engine.save_state().dump_string(false);
  const std::string state_error = restore_error(
      [&] { engine.restore_state(json::parse(v1_mid_golden)); });
  EXPECT_NE(state_error.find("unsupported state_version 1"),
            std::string::npos)
      << state_error;
  EXPECT_EQ(engine.save_state().dump_string(false), before);

  // The same snapshot inside a checkpoint file for its own recipe.
  const sim_recipe recipe = sim_recipe::from_json(json::parse(
      R"({"protocol": {"name": "matrix-game",
                       "params": {"game": {"name": "hawk-dove",
                                           "value": 1.0, "cost": 2.0},
                                  "rule": {"name": "logit",
                                           "temperature": 0.5},
                                  "discipline": "two_way"}},
          "initial_counts": [5000000, 5000000], "sampling": "distinct"})"));
  rng gen(golden_seed);
  const auto fresh = recipe.spec().make_engine(engine_kind::multibatch, gen);
  json checkpoint = save_checkpoint(recipe, *fresh);
  checkpoint["engine"] = json::parse(v1_mid_golden);
  const std::string checkpoint_error =
      restore_error([&] { (void)restore_checkpoint(checkpoint); });
  EXPECT_NE(checkpoint_error.find("unsupported state_version 1"),
            std::string::npos)
      << checkpoint_error;
  // Only the version stands in the way: the same document stamped v2
  // restores.
  checkpoint["engine"]["state_version"] = engine_state_version;
  EXPECT_NO_THROW((void)restore_checkpoint(checkpoint));
}

}  // namespace
}  // namespace ppg
