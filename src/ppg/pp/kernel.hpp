// The protocol abstraction and its transition kernel. A population protocol
// is described once by its state-pair kernel (outcome_distribution) over
// agent_state indices; the kernel_table below is the flattened, validated
// form every engine samples from, so per-interaction work is independent of
// the population size.
// Execution backends live in pp/engine.hpp. See DESIGN.md §2 for the kernel
// contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ppg/util/rng.hpp"

namespace ppg {

/// An agent's local state: an index into the protocol's state space
/// {0, ..., num_states() - 1}.
using agent_state = std::uint32_t;

/// One support point of a transition kernel: the post-interaction
/// (initiator, responder) states and their probability.
struct outcome {
  agent_state initiator = 0;
  agent_state responder = 0;
  double probability = 1.0;
};

/// A population protocol: a (possibly randomized) transition function over
/// ordered pairs of states, described once by its kernel. Every engine
/// compiles outcome_distribution into a kernel_table once and samples only
/// that table, so a protocol writes no sampler of its own.
class protocol {
 public:
  virtual ~protocol() = default;
  protocol() = default;
  protocol(const protocol&) = default;
  protocol& operator=(const protocol&) = default;

  /// Size of the local state space.
  [[nodiscard]] virtual std::size_t num_states() const = 0;

  /// The finite distribution over post-interaction (q_i', q_r') pairs for an
  /// ordered (initiator, responder) state pair. Probabilities must be
  /// positive and sum to 1.
  [[nodiscard]] virtual std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const = 0;

  /// Human-readable state name (for traces and examples).
  [[nodiscard]] virtual std::string state_name(agent_state state) const;
};

/// Flattened, validated kernel of a protocol over its q = num_states()
/// ordered state pairs — the only sampler of a kernel in the library.
/// Construction checks, for every pair, that outcome states are in range and
/// probabilities are positive and sum to 1 (up to 1e-9), so engines apply
/// sampled states unchecked; deterministic pairs (a single support point)
/// are sampled without consuming random draws.
class kernel_table {
 public:
  explicit kernel_table(const protocol& proto);

  [[nodiscard]] std::size_t num_states() const { return q_; }

  /// Whether the pair's distribution is a point mass on (initiator,
  /// responder) itself — the interaction can never change any state.
  [[nodiscard]] bool identity(agent_state initiator,
                              agent_state responder) const {
    return identity_[index(initiator, responder)];
  }

  /// Whether every pair's distribution has a single support point.
  [[nodiscard]] bool fully_deterministic() const {
    return fully_deterministic_;
  }

  /// Samples (q_i', q_r') for the ordered pair; consumes one uniform draw
  /// only when the pair has more than one support point.
  [[nodiscard]] std::pair<agent_state, agent_state> sample(
      agent_state initiator, agent_state responder, rng& gen) const;

  /// Number of support points of the pair's distribution.
  [[nodiscard]] std::size_t num_outcomes(agent_state initiator,
                                         agent_state responder) const {
    const std::size_t pair = index(initiator, responder);
    return offsets_[pair + 1] - offsets_[pair];
  }

  /// The `k`-th support point of the pair's distribution, with its
  /// (non-cumulative) probability — the enumeration the multibatch engine
  /// draws its per-pair multinomial outcome splits over.
  [[nodiscard]] outcome outcome_at(agent_state initiator,
                                   agent_state responder,
                                   std::size_t k) const;

 private:
  struct entry {
    agent_state initiator = 0;
    agent_state responder = 0;
    double cumulative = 0.0;  ///< inclusive cumulative probability
  };

  [[nodiscard]] std::size_t index(agent_state initiator,
                                  agent_state responder) const {
    return static_cast<std::size_t>(initiator) * q_ +
           static_cast<std::size_t>(responder);
  }

  std::size_t q_;
  std::vector<std::uint32_t> offsets_;  ///< q_*q_ + 1 entry offsets
  std::vector<entry> entries_;
  std::vector<std::uint8_t> identity_;
  bool fully_deterministic_ = true;
};

/// The kernel an engine runs on: `kernel` when non-null (see
/// sim_spec::make_engine), else a table compiled from `proto`. A supplied
/// kernel whose state count differs from the protocol's throws
/// ppg::invariant_error.
[[nodiscard]] std::shared_ptr<const kernel_table> adopt_kernel(
    const protocol& proto, std::shared_ptr<const kernel_table> kernel);

}  // namespace ppg
