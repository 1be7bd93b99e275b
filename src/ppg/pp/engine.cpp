#include "ppg/pp/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ppg/pp/batched_engine.hpp"
#include "ppg/pp/census_engine.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

const char* engine_kind_name(engine_kind kind) {
  switch (kind) {
    case engine_kind::agent:
      return "agent";
    case engine_kind::census:
      return "census";
    case engine_kind::batched:
      return "batched";
    case engine_kind::multibatch:
      return "multibatch";
  }
  return "unknown";
}

engine_kind engine_kind_from_name(std::string_view name) {
  for (const auto kind : {engine_kind::agent, engine_kind::census,
                          engine_kind::batched, engine_kind::multibatch}) {
    if (name == engine_kind_name(kind)) return kind;
  }
  PPG_CHECK(false, "unknown engine kind '" + std::string(name) + "'");
}

json sim_engine::snapshot_envelope(std::uint64_t interactions,
                                   const rng& gen) const {
  json snapshot = json::object();
  snapshot["state_version"] = engine_state_version;
  snapshot["engine"] = engine_kind_name(kind());
  snapshot["interactions"] = interactions;
  const auto state = gen.save();
  snapshot["rng"] =
      json_uint_array({state[0], state[1], state[2], state[3]});
  return snapshot;
}

sim_engine::snapshot_core sim_engine::check_snapshot_envelope(
    const json& snapshot) const {
  const char* where = "engine snapshot";
  const std::uint64_t version =
      json_require_uint(snapshot, "state_version", where);
  PPG_CHECK(version == engine_state_version,
            "engine snapshot: unsupported state_version " +
                std::to_string(version) + " (this build reads " +
                std::to_string(engine_state_version) + ")");
  const std::string& name = json_require_string(snapshot, "engine", where);
  PPG_CHECK(name == engine_kind_name(kind()),
            "engine snapshot: kind mismatch — snapshot is '" + name +
                "', restoring engine is '" + engine_kind_name(kind()) + "'");
  snapshot_core core;
  core.interactions = json_require_uint(snapshot, "interactions", where);
  const auto words = json_require_uint_array(snapshot, "rng", where);
  PPG_CHECK(words.size() == 4,
            "engine snapshot: rng state must be 4 words of 64 bits");
  core.gen.restore({words[0], words[1], words[2], words[3]});
  return core;
}

std::uint64_t sim_engine::run_until(const census_predicate& converged,
                                    std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (executed < max_steps && !converged(census())) {
    step();
    ++executed;
  }
  return executed;
}

std::vector<census_snapshot> sim_engine::run_with_snapshots(
    std::uint64_t steps, std::uint64_t snapshot_every) {
  PPG_CHECK(snapshot_every > 0, "snapshot interval must be positive");
  std::vector<census_snapshot> snapshots;
  std::uint64_t done = 0;
  while (done < steps) {
    const std::uint64_t chunk = std::min(snapshot_every, steps - done);
    run(chunk);
    done += chunk;
    snapshots.push_back({interactions(), census().counts()});
  }
  return snapshots;
}

double sim_engine::parallel_time() const {
  const census_view now = census();
  return static_cast<double>(interactions()) /
         static_cast<double>(now.population_size());
}

simulation::simulation(const protocol& proto, population agents, rng gen,
                       pair_sampling sampling,
                       std::shared_ptr<const kernel_table> kernel)
    : kernel_(adopt_kernel(proto, std::move(kernel))),
      agents_(std::move(agents)),
      gen_(gen),
      sampling_(sampling) {
  (void)checked_census(agents_.counts(), kernel_->num_states(), "agent engine");
}

void simulation::step() {
  const interaction pair =
      sampling_ == pair_sampling::distinct
          ? sample_distinct_pair(agents_.size(), gen_)
          : sample_with_replacement_pair(agents_.size(), gen_);
  const agent_state initiator = agents_.state_of(pair.initiator);
  const agent_state responder = agents_.state_of(pair.responder);
  const auto next = kernel_->sample(initiator, responder, gen_);
  // The applications take the debug-checked fast path: the pair indices
  // come from the scheduler and the table's outcomes were range-checked
  // when it was compiled.
  agents_.apply_interaction(pair.initiator, next.first);
  // Self-interactions can occur under with_replacement sampling; applying
  // the responder update second would clobber the initiator's, so skip it.
  if (pair.responder != pair.initiator) {
    agents_.apply_interaction(pair.responder, next.second);
  }
  ++interactions_;
}

void simulation::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    step();
  }
}

json simulation::save_state() const {
  json snapshot = snapshot_envelope(interactions_, gen_);
  std::vector<std::uint64_t> states;
  states.reserve(agents_.size());
  for (const auto state : agents_.states()) {
    states.push_back(state);
  }
  snapshot["states"] = json_uint_array(states);
  return snapshot;
}

void simulation::restore_state(const json& snapshot) {
  json_require_keys(
      snapshot, {"state_version", "engine", "interactions", "rng", "states"},
      "agent snapshot");
  const auto core = check_snapshot_envelope(snapshot);
  const auto raw =
      json_require_uint_array(snapshot, "states", "agent snapshot");
  PPG_CHECK(raw.size() == agents_.size(),
            "agent snapshot: population size mismatch");
  std::vector<agent_state> states;
  states.reserve(raw.size());
  for (const auto state : raw) {
    PPG_CHECK(state < agents_.num_state_kinds(),
              "agent snapshot: state outside the population's space");
    states.push_back(static_cast<agent_state>(state));
  }
  // The population constructor re-derives the census from the states, so a
  // restored engine can never disagree with its own counts; the census is
  // then checked against the protocol like every engine's.
  population restored(std::move(states), agents_.num_state_kinds());
  (void)checked_census(restored.counts(), kernel_->num_states(),
                       "agent snapshot");
  agents_ = std::move(restored);
  interactions_ = core.interactions;
  gen_ = core.gen;
}

namespace {

/// Expands a census of `n` agents into a per-agent state vector, grouped by
/// state. Agents are anonymous, so any ordering induces the same interaction
/// law.
std::vector<agent_state> states_from_counts(
    const std::vector<std::uint64_t>& counts, std::uint64_t n) {
  std::vector<agent_state> states;
  states.reserve(static_cast<std::size_t>(n));
  for (std::size_t s = 0; s < counts.size(); ++s) {
    for (std::uint64_t i = 0; i < counts[s]; ++i) {
      states.push_back(static_cast<agent_state>(s));
    }
  }
  return states;
}

}  // namespace

sim_spec::sim_spec(const protocol& proto, population initial,
                   pair_sampling sampling)
    : proto_(&proto),
      initial_(std::move(initial)),
      initial_counts_(initial_->counts()),
      n_(initial_->size()),
      sampling_(sampling) {
  (void)checked_census(initial_counts_, proto_->num_states(),
                       "population spec");
}

sim_spec::sim_spec(const protocol& proto,
                   std::vector<std::uint64_t> initial_counts,
                   pair_sampling sampling)
    : proto_(&proto),
      initial_counts_(std::move(initial_counts)),
      n_(checked_census(initial_counts_, proto_->num_states(), "census spec")),
      sampling_(sampling) {}

const population& sim_spec::initial() const {
  PPG_CHECK(initial_.has_value(),
            "spec was built from a census; no per-agent initial condition");
  return *initial_;
}

simulation sim_spec::instantiate(
    rng& gen, std::shared_ptr<const kernel_table> kernel) const {
  population agents =
      initial_.has_value()
          ? *initial_
          : population(states_from_counts(initial_counts_, n_),
                       initial_counts_.size());
  return simulation(*proto_, std::move(agents), gen.split(), sampling_,
                    std::move(kernel));
}

std::unique_ptr<sim_engine> sim_spec::make_engine(
    engine_kind kind, rng& gen,
    std::shared_ptr<const kernel_table> kernel) const {
  switch (kind) {
    case engine_kind::agent:
      return std::make_unique<simulation>(instantiate(gen, std::move(kernel)));
    case engine_kind::census:
      return std::make_unique<census_engine>(*proto_, initial_counts_,
                                             gen.split(), sampling_,
                                             std::move(kernel));
    case engine_kind::batched:
      return std::make_unique<batched_engine>(*proto_, initial_counts_,
                                              gen.split(), sampling_,
                                              std::move(kernel));
    case engine_kind::multibatch:
      return std::make_unique<multibatch_engine>(*proto_, initial_counts_,
                                                 gen.split(), sampling_,
                                                 std::move(kernel));
  }
  PPG_CHECK(false, "unknown engine kind");
}

}  // namespace ppg
