#include "ppg/exp/resume.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {

resumable_sweep::resumable_sweep(sim_recipe recipe, engine_kind kind,
                                 std::uint64_t master_seed,
                                 std::size_t replicas, std::uint64_t horizon,
                                 std::size_t threads)
    : recipe_(std::move(recipe)),
      kind_(kind),
      master_seed_(master_seed),
      horizon_(horizon),
      runner_(batch_options{replicas, master_seed, threads}) {
  engines_ = runner_.run([&](const replica_context& /*ctx*/, rng& gen) {
    return recipe_.spec().make_engine(kind_, gen);
  });
}

bool resumable_sweep::advance(std::uint64_t chunk) {
  PPG_CHECK(chunk > 0, "sweep chunk must be positive");
  // Engines are independent, so completion order is irrelevant; each engine
  // carries its own stream, and the replica generator goes unused.
  (void)runner_.run([&](const replica_context& ctx, rng& /*gen*/) {
    auto& engine = *engines_[ctx.index];
    const std::uint64_t done = engine.interactions();
    if (done < horizon_) engine.run(std::min(chunk, horizon_ - done));
    return engine.interactions();
  });
  return !finished();
}

bool resumable_sweep::finished() const {
  for (const auto& engine : engines_) {
    if (engine->interactions() < horizon_) return false;
  }
  return true;
}

const sim_engine& resumable_sweep::replica(std::size_t i) const {
  PPG_CHECK(i < engines_.size(), "replica index out of range");
  return *engines_[i];
}

json resumable_sweep::save() const {
  json doc = json::object();
  doc["schema_version"] = checkpoint_schema_version;
  doc["spec"] = recipe_.to_json();
  doc["kind"] = engine_kind_name(kind_);
  doc["master_seed"] = master_seed_;
  doc["horizon"] = horizon_;
  json snapshots = json::array();
  for (const auto& engine : engines_) {
    snapshots.push_back(engine->save_state());
  }
  doc["replicas"] = std::move(snapshots);
  return doc;
}

resumable_sweep resumable_sweep::restore(const json& doc,
                                         std::size_t threads) {
  const char* where = "sweep checkpoint";
  json_require_keys(
      doc, {"schema_version", "spec", "kind", "master_seed", "horizon",
            "replicas"},
      where);
  const std::uint64_t version =
      json_require_uint(doc, "schema_version", where);
  PPG_CHECK(version == checkpoint_schema_version,
            "sweep checkpoint: unsupported schema_version " +
                std::to_string(version));
  sim_recipe recipe = sim_recipe::from_json(json_require(doc, "spec", where));
  const engine_kind kind =
      engine_kind_from_name(json_require_string(doc, "kind", where));
  const auto& snapshots = json_require_array(doc, "replicas", where);
  PPG_CHECK(!snapshots.empty(), "sweep checkpoint: no replicas");
  resumable_sweep sweep(std::move(recipe), kind,
                        json_require_uint(doc, "master_seed", where),
                        snapshots.size(),
                        json_require_uint(doc, "horizon", where), threads);
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    sweep.engines_[i]->restore_state(snapshots[i]);
  }
  return sweep;
}

}  // namespace ppg
