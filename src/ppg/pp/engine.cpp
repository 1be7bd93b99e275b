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

simulation::simulation(const protocol& proto,
                       std::vector<std::uint64_t> initial_counts, rng gen,
                       pair_sampling sampling,
                       std::shared_ptr<const kernel_table> kernel)
    : kernel_(adopt_kernel(proto, std::move(kernel))),
      counts_(std::move(initial_counts)),
      n_(checked_census(counts_, kernel_->num_states(), "agent engine")),
      gen_(gen),
      sampling_(sampling) {
  states_.reserve(static_cast<std::size_t>(n_));
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    states_.insert(states_.end(), static_cast<std::size_t>(counts_[s]),
                   static_cast<agent_state>(s));
  }
}

void simulation::move_agent(std::size_t agent, agent_state next) {
  PPG_DCHECK(agent < states_.size(), "agent index out of range");
  PPG_DCHECK(next < counts_.size(), "agent state out of range");
  const agent_state prev = states_[agent];
  if (prev == next) return;
  --counts_[prev];
  ++counts_[next];
  states_[agent] = next;
}

void simulation::step() {
  const interaction pair =
      sampling_ == pair_sampling::distinct
          ? sample_distinct_pair(states_.size(), gen_)
          : sample_with_replacement_pair(states_.size(), gen_);
  const auto next =
      kernel_->sample(states_[pair.initiator], states_[pair.responder], gen_);
  move_agent(pair.initiator, next.first);
  // Self-interactions can occur under with_replacement sampling; applying
  // the responder update second would clobber the initiator's, so skip it.
  if (pair.responder != pair.initiator) {
    move_agent(pair.responder, next.second);
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
  snapshot["states"] = json_uint_array(
      std::vector<std::uint64_t>(states_.begin(), states_.end()));
  return snapshot;
}

void simulation::restore_state(const json& snapshot) {
  json_require_keys(
      snapshot, {"state_version", "engine", "interactions", "rng", "states"},
      "agent snapshot");
  const auto core = check_snapshot_envelope(snapshot);
  const auto raw =
      json_require_uint_array(snapshot, "states", "agent snapshot");
  PPG_CHECK(raw.size() == states_.size(),
            "agent snapshot: population size mismatch");
  // The census is re-derived from the states, so a restored engine can
  // never disagree with its own counts; it is then checked against the
  // protocol like every engine's.
  std::vector<std::uint64_t> counts(counts_.size(), 0);
  std::vector<agent_state> states;
  states.reserve(raw.size());
  for (const auto state : raw) {
    PPG_CHECK(state < counts.size(),
              "agent snapshot: state outside the population's space");
    ++counts[state];
    states.push_back(static_cast<agent_state>(state));
  }
  (void)checked_census(counts, kernel_->num_states(), "agent snapshot");
  counts_ = std::move(counts);
  states_ = std::move(states);
  interactions_ = core.interactions;
  gen_ = core.gen;
}

sim_spec::sim_spec(const protocol& proto,
                   std::vector<std::uint64_t> initial_counts,
                   pair_sampling sampling)
    : proto_(&proto),
      initial_counts_(std::move(initial_counts)),
      n_(checked_census(initial_counts_, proto_->num_states(), "census spec")),
      sampling_(sampling) {}

namespace {

/// Every kind is built from the same arguments and one gen.split().
template <typename Engine>
std::unique_ptr<sim_engine> build_engine(
    const sim_spec& spec, rng& gen,
    std::shared_ptr<const kernel_table> kernel) {
  return std::make_unique<Engine>(spec.proto(), spec.initial_counts(),
                                  gen.split(), spec.sampling(),
                                  std::move(kernel));
}

}  // namespace

std::unique_ptr<sim_engine> sim_spec::make_engine(
    engine_kind kind, rng& gen,
    std::shared_ptr<const kernel_table> kernel) const {
  switch (kind) {
    case engine_kind::agent:
      return build_engine<simulation>(*this, gen, std::move(kernel));
    case engine_kind::census:
      return build_engine<census_engine>(*this, gen, std::move(kernel));
    case engine_kind::batched:
      return build_engine<batched_engine>(*this, gen, std::move(kernel));
    case engine_kind::multibatch:
      return build_engine<multibatch_engine>(*this, gen, std::move(kernel));
  }
  PPG_CHECK(false, "unknown engine kind");
}

}  // namespace ppg
