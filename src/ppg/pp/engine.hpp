// The uniform simulation-engine interface: every execution backend —
// agent-level loop, census-only sampler, batched geometric-skip sampler,
// aggregated multibatch rounds — is built from the same arguments (protocol,
// initial census, rng, pair_sampling, kernel) and exposes the same surface
// (step / run / run_until / run_with_snapshots / census / interactions /
// parallel_time), so drivers and experiments are written once and the
// backend is a runtime choice (sim_spec::make_engine).
// The protocol abstraction itself lives in pp/kernel.hpp.
// See DESIGN.md §3 for the engine architecture.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "ppg/pp/census.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/pp/scheduler.hpp"
#include "ppg/util/json.hpp"

namespace ppg {

/// Which execution backend runs a sim_spec.
enum class engine_kind : std::uint8_t {
  agent,    ///< per-agent state array, one kernel_table draw per step
  census,   ///< count vector only; samples the ordered *state* pair in O(q)
  batched,  ///< census + geometric batches that skip identity interactions
  /// census + aggregated ~sqrt(n)-interaction rounds (exact birthday /
  /// hypergeometric / multinomial law); o(1) work per interaction even on
  /// dense kernels.
  multibatch,
};

[[nodiscard]] const char* engine_kind_name(engine_kind kind);

/// Inverse of engine_kind_name; throws ppg::invariant_error on an unknown
/// name (strict checkpoint parsing).
[[nodiscard]] engine_kind engine_kind_from_name(std::string_view name);

/// Version stamped into every engine snapshot ("state_version"). Additive
/// changes keep the version; anything that changes the meaning of an
/// existing field bumps it, and restore_state rejects versions it does not
/// know. See DESIGN.md §9. Version 2 is the multibatch engine's
/// one-joint-draw round law (DESIGN.md §8); version 1 snapshots are refused.
inline constexpr std::uint64_t engine_state_version = 2;

/// Interface of a running simulation. All engines implement the exact same
/// interaction law for a given (protocol, initial census, pair_sampling)
/// triple — they differ only in state representation and per-interaction
/// cost, so results are exchangeable at the distribution level (engines
/// consume random draws differently, so trajectories are not bitwise equal
/// across kinds; see DESIGN.md §3).
class sim_engine {
 public:
  sim_engine() = default;
  virtual ~sim_engine() = default;

  /// Executes one interaction.
  virtual void step() = 0;

  /// Executes `steps` interactions.
  virtual void run(std::uint64_t steps) = 0;

  /// Runs until `converged(census())` is true or `max_steps` is reached;
  /// returns the number of interactions executed in this call.
  virtual std::uint64_t run_until(const census_predicate& converged,
                                  std::uint64_t max_steps);

  /// Runs `steps` interactions, recording a census every `snapshot_every`
  /// interactions (including one at the end).
  [[nodiscard]] virtual std::vector<census_snapshot> run_with_snapshots(
      std::uint64_t steps, std::uint64_t snapshot_every);

  /// The current census.
  [[nodiscard]] virtual census_view census() const = 0;

  /// Total interactions executed since construction.
  [[nodiscard]] virtual std::uint64_t interactions() const = 0;

  /// Which backend this is.
  [[nodiscard]] virtual engine_kind kind() const = 0;

  /// The engine's *complete* dynamical state as a versioned, JSON-
  /// serializable snapshot: census or per-agent array, interaction counter,
  /// any cross-run() carry (the multibatch residual round), and the full
  /// 256-bit RNG position. Restoring the snapshot into a fresh engine of
  /// the same kind built from the same spec — in this process or another —
  /// continues the trajectory bit-exactly: a run that passes through
  /// save_state()/restore_state() at a run() boundary is indistinguishable,
  /// draw for draw, from one that does not. Protocol identity and the
  /// initial condition are *not* in the snapshot; pair a snapshot with its
  /// spec via pp/checkpoint.hpp's self-describing checkpoint files.
  [[nodiscard]] virtual json save_state() const = 0;

  /// Restores a snapshot produced by save_state() on an engine of the same
  /// kind and spec. Strict: unknown keys, a foreign engine name, a version
  /// this build does not know, or counts inconsistent with the engine's
  /// population all throw ppg::invariant_error and leave the engine
  /// unmodified only up to the first failed check — treat a throwing
  /// restore as fatal for this engine instance and rebuild it.
  virtual void restore_state(const json& snapshot) = 0;

  [[nodiscard]] std::uint64_t population_size() const {
    return census().population_size();
  }

  /// Parallel time: interactions / n (standard PP normalization).
  [[nodiscard]] double parallel_time() const;

 protected:
  /// The snapshot fields every engine shares, in canonical order:
  /// {"state_version", "engine", "interactions", "rng"}. Engine-specific
  /// fields are appended by the caller.
  [[nodiscard]] json snapshot_envelope(std::uint64_t interactions,
                                       const rng& gen) const;

  /// Validates the shared fields of `snapshot` (version known, engine name
  /// == this kind) and returns the restored interaction counter and RNG.
  struct snapshot_core {
    std::uint64_t interactions = 0;
    rng gen;
  };
  [[nodiscard]] snapshot_core check_snapshot_envelope(
      const json& snapshot) const;

  /// Copy/move are protected: concrete engines stay copyable (simulation is
  /// returned by value), but copying or assigning through a sim_engine&
  /// would slice away the derived state.
  sim_engine(const sim_engine&) = default;
  sim_engine(sim_engine&&) = default;
  sim_engine& operator=(const sim_engine&) = default;
  sim_engine& operator=(sim_engine&&) = default;
};

/// The agent-level engine: a per-agent state array, one draw per scheduled
/// pair from the same compiled kernel_table the census-level engines sample.
/// This is the reference implementation every other engine is
/// law-equivalent to.
class simulation final : public sim_engine {
 public:
  /// Same contract as census_engine. The census is expanded into one state
  /// per agent, grouped by ascending state (agent 0 holds the lowest
  /// occupied state); agents are anonymous, so the order never changes the
  /// interaction law.
  simulation(const protocol& proto, std::vector<std::uint64_t> initial_counts,
             rng gen, pair_sampling sampling = pair_sampling::distinct,
             std::shared_ptr<const kernel_table> kernel = nullptr);

  void step() override;
  void run(std::uint64_t steps) override;

  [[nodiscard]] census_view census() const override { return {counts_, n_}; }
  [[nodiscard]] std::uint64_t interactions() const override {
    return interactions_;
  }
  [[nodiscard]] engine_kind kind() const override { return engine_kind::agent; }

  /// Snapshot payload: the per-agent state array, "states" (the census is
  /// derived from it on restore). It is the only read of per-agent state.
  [[nodiscard]] json save_state() const override;
  void restore_state(const json& snapshot) override;

 private:
  /// Moves one agent to `next`, keeping the counts in step. Bounds are
  /// debug-checked only: scheduler indices are below n and the table's
  /// outcomes were range-checked when it was compiled.
  void move_agent(std::size_t agent, agent_state next);

  std::shared_ptr<const kernel_table> kernel_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_;
  std::vector<agent_state> states_;
  rng gen_;
  pair_sampling sampling_;
  std::uint64_t interactions_ = 0;
};

/// A seedless recipe for a simulation: protocol, initial census, and
/// sampling discipline. Replica R of a batch is `make_engine(kind, gen_R)` —
/// every replica starts from the identical initial census and differs only
/// in its RNG stream, which is what the batch engine needs to fan one
/// configuration out across a worker pool. The protocol must outlive the
/// spec; engines keep only its kernel_table.
///
/// The census is the whole initial condition: agents are anonymous, so the
/// law of a run depends on the initial counts alone. The spec never
/// allocates per-agent state, so census-level engines scale to populations
/// far beyond what an agent array can hold; only the agent engine expands
/// the census into agents. The census passes through checked_census
/// (pp/census.hpp), the intake every engine shares, so a spec no engine
/// could run is refused at construction.
class sim_spec {
 public:
  sim_spec(const protocol& proto, std::vector<std::uint64_t> initial_counts,
           pair_sampling sampling = pair_sampling::distinct);

  /// A fresh engine of the requested kind at the initial census. Every kind
  /// is built from the same arguments and seeded from one gen.split(), so it
  /// owns an independent stream: the caller's generator never shares draws
  /// with the engine (two engines made from one generator run *different*
  /// trajectories). Every kind runs every protocol; the batched and
  /// multibatch engines require pair_sampling::distinct.
  ///
  /// A non-null `kernel` hands the engine, of any kind, a precompiled
  /// kernel table instead of compiling one from the protocol — the
  /// ppg-serve warm-cache path; it never changes any draw (the table is
  /// immutable shared data) and must have been compiled from a protocol
  /// with the same canonical form (adopt_kernel checks the state-space
  /// size, the caller owns semantic equality).
  [[nodiscard]] std::unique_ptr<sim_engine> make_engine(
      engine_kind kind, rng& gen,
      std::shared_ptr<const kernel_table> kernel = nullptr) const;

  [[nodiscard]] const std::vector<std::uint64_t>& initial_counts() const {
    return initial_counts_;
  }
  [[nodiscard]] std::uint64_t population_size() const { return n_; }
  [[nodiscard]] std::size_t num_state_kinds() const {
    return initial_counts_.size();
  }

  [[nodiscard]] const protocol& proto() const { return *proto_; }
  [[nodiscard]] pair_sampling sampling() const { return sampling_; }

 private:
  const protocol* proto_;
  std::vector<std::uint64_t> initial_counts_;
  std::uint64_t n_ = 0;
  pair_sampling sampling_;
};

}  // namespace ppg
