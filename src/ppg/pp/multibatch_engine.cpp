#include "ppg/pp/multibatch_engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// The round-state relations a multibatch engine holds between run() calls,
/// over a census and pools of one width: the pools partition the census,
/// untouched_total is the untouched pool's sum, and the residual carry is
/// consistent with the round flag. Returns the first relation violated, or
/// nullptr. Each pool count is checked against its census count before the
/// subtraction, so no side wraps, and hence the pool sum cannot wrap.
const char* round_state_violation(const std::vector<std::uint64_t>& counts,
                                  const std::vector<std::uint64_t>& untouched,
                                  const std::vector<std::uint64_t>& touched,
                                  std::uint64_t untouched_total,
                                  std::uint64_t n, std::uint64_t pending_free,
                                  bool collision_pending) {
  std::uint64_t untouched_sum = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (untouched[s] > counts[s] || touched[s] != counts[s] - untouched[s]) {
      return "pools do not partition the census";
    }
    untouched_sum += untouched[s];
  }
  if (untouched_sum != untouched_total) {
    return "untouched_total disagrees with the pool";
  }
  if (!collision_pending && pending_free != 0) {
    return "residual carry outside a round";
  }
  if (!collision_pending && untouched_total != n) {
    return "touched agents outside a round";
  }
  // The closing collision needs a touched agent; with no free pairs left
  // to apply, none will appear before it.
  if (collision_pending && pending_free == 0 && untouched_total >= n) {
    return "pending collision with no touched agent";
  }
  if (pending_free > untouched_total / 2) {
    return "residual free run exceeds the untouched pool";
  }
  return nullptr;
}

}  // namespace

multibatch_engine::multibatch_engine(const protocol& proto,
                                     std::vector<std::uint64_t> initial_counts,
                                     rng gen, pair_sampling sampling,
                                     std::shared_ptr<const kernel_table> kernel)
    : kernel_(adopt_kernel(proto, std::move(kernel))),
      counts_(std::move(initial_counts)),
      n_(checked_census(counts_, kernel_->num_states(), "multibatch engine")),
      gen_(gen),
      birthday_(n_) {
  PPG_CHECK(sampling == pair_sampling::distinct,
            "multibatch engine supports pair_sampling::distinct only; use "
            "the census engine for with_replacement sampling");
  // Collision-category weights (t*u etc.) must not overflow: n^2 < 2^63.
  PPG_CHECK(n_ <= 3'000'000'000ull, "multibatch engine caps n at 3e9");
  const auto q = static_cast<std::uint64_t>(kernel_->num_states());
  // Below ~4q^2 interactions the aggregate path's O(q^2) hypergeometric
  // table costs more than per-pair O(q) sampling, so short runs (small n:
  // the birthday law scales them as ~sqrt(n)) fall back to the sequential
  // path and the engine degrades to census-engine cost.
  aggregate_threshold_ = std::max<std::uint64_t>(16, 4 * q * q);
  untouched_ = counts_;
  touched_.assign(counts_.size(), 0);
  untouched_total_ = n_;
  initiators_.resize(counts_.size());
  responders_.resize(counts_.size());
  row_.resize(counts_.size());
}

json multibatch_engine::save_state() const {
  json snapshot = snapshot_envelope(interactions_, gen_);
  snapshot["counts"] = json_uint_array(counts_);
  snapshot["untouched"] = json_uint_array(untouched_);
  snapshot["touched"] = json_uint_array(touched_);
  snapshot["untouched_total"] = untouched_total_;
  snapshot["rounds"] = rounds_;
  snapshot["collisions"] = collisions_;
  snapshot["pending_free"] = pending_free_;
  snapshot["collision_pending"] = collision_pending_;
  return snapshot;
}

void multibatch_engine::restore_state(const json& snapshot) {
  // Everything is parsed and validated into locals first, so a rejected
  // snapshot leaves the engine untouched.
  const char* where = "multibatch snapshot";
  json_require_keys(snapshot,
                    {"state_version", "engine", "interactions", "rng",
                     "counts", "untouched", "touched", "untouched_total",
                     "rounds", "collisions", "pending_free",
                     "collision_pending"},
                    where);
  const auto core = check_snapshot_envelope(snapshot);
  auto counts = json_require_uint_array(snapshot, "counts", where);
  auto untouched = json_require_uint_array(snapshot, "untouched", where);
  auto touched = json_require_uint_array(snapshot, "touched", where);
  const std::size_t width = counts_.size();
  PPG_CHECK(counts.size() == width && untouched.size() == width &&
                touched.size() == width,
            "multibatch snapshot: state-space width mismatch");
  const std::uint64_t untouched_total =
      json_require_uint(snapshot, "untouched_total", where);
  const std::uint64_t rounds = json_require_uint(snapshot, "rounds", where);
  const std::uint64_t collisions =
      json_require_uint(snapshot, "collisions", where);
  const std::uint64_t pending_free =
      json_require_uint(snapshot, "pending_free", where);
  const bool collision_pending =
      json_require_bool(snapshot, "collision_pending", where);
  PPG_CHECK(checked_census(counts, kernel_->num_states(), where) == n_,
            "multibatch snapshot: population size mismatch");
  const char* violation =
      round_state_violation(counts, untouched, touched, untouched_total, n_,
                            pending_free, collision_pending);
  PPG_CHECK(violation == nullptr,
            std::string("multibatch snapshot: ") + violation);
  counts_ = std::move(counts);
  untouched_ = std::move(untouched);
  touched_ = std::move(touched);
  untouched_total_ = untouched_total;
  pending_free_ = pending_free;
  collision_pending_ = collision_pending;
  rounds_ = rounds;
  collisions_ = collisions;
  interactions_ = core.interactions;
  gen_ = core.gen;
}

void multibatch_engine::apply_pair_type(agent_state u, agent_state v,
                                        std::uint64_t m) {
  counts_[u] -= m;
  counts_[v] -= m;
  const std::size_t support = kernel_->num_outcomes(u, v);
  if (support == 1) {
    // Deterministic pair: no draws, mirroring every engine's fast path.
    const outcome o = kernel_->outcome_at(u, v, 0);
    counts_[o.initiator] += m;
    counts_[o.responder] += m;
    touched_[o.initiator] += m;
    touched_[o.responder] += m;
    return;
  }
  probs_.resize(support);
  split_.resize(support);
  for (std::size_t k = 0; k < support; ++k) {
    probs_[k] = kernel_->outcome_at(u, v, k).probability;
  }
  sample_multinomial(m, probs_.data(), support, gen_, split_.data());
  for (std::size_t k = 0; k < support; ++k) {
    if (split_[k] == 0) continue;
    const outcome o = kernel_->outcome_at(u, v, k);
    counts_[o.initiator] += split_[k];
    counts_[o.responder] += split_[k];
    touched_[o.initiator] += split_[k];
    touched_[o.responder] += split_[k];
  }
}

void multibatch_engine::take_untouched(std::uint64_t draws,
                                       std::vector<std::uint64_t>& out) {
  sample_multivariate_hypergeometric(untouched_.data(), untouched_.size(),
                                     draws, gen_, out.data());
  for (std::size_t s = 0; s < untouched_.size(); ++s) untouched_[s] -= out[s];
  untouched_total_ -= draws;
}

void multibatch_engine::apply_free_aggregate(std::uint64_t free) {
  // The 2*free distinct agents of the run, drawn jointly: initiators, then
  // responders from what remains.
  take_untouched(free, initiators_);
  take_untouched(free, responders_);
  // Conditioned on the two multisets, the initiator-responder matching is
  // uniform — realized by splitting the responder multiset across initiator
  // groups with sequential conditional MVH rows.
  const std::size_t width = counts_.size();
  for (std::size_t u = 0; u < kernel_->num_states(); ++u) {
    if (initiators_[u] == 0) continue;
    sample_multivariate_hypergeometric(responders_.data(), width,
                                       initiators_[u], gen_, row_.data());
    for (std::size_t v = 0; v < width; ++v) {
      responders_[v] -= row_[v];
      if (row_[v] > 0) {
        apply_pair_type(static_cast<agent_state>(u),
                        static_cast<agent_state>(v), row_[v]);
      }
    }
  }
}

void multibatch_engine::apply_free_sequential(std::uint64_t free) {
  for (std::uint64_t i = 0; i < free; ++i) {
    const agent_state u = locate_state(
        untouched_, gen_.next_below(untouched_total_), no_excluded_state);
    const agent_state v =
        locate_state(untouched_, gen_.next_below(untouched_total_ - 1), u);
    const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen_);
    --untouched_[u];
    --untouched_[v];
    untouched_total_ -= 2;
    ++touched_[next_initiator];
    ++touched_[next_responder];
    --counts_[u];
    --counts_[v];
    ++counts_[next_initiator];
    ++counts_[next_responder];
  }
}

void multibatch_engine::resolve_collision() {
  const std::uint64_t u_total = untouched_total_;
  const std::uint64_t t_total = n_ - u_total;
  // An ordered pair of distinct agents conditioned on >= 1 touched agent:
  // categories touched-touched, touched-untouched, untouched-touched with
  // weights t(t-1), t*u, u*t (their sum is n(n-1) - u(u-1)).
  const std::uint64_t tt = t_total * (t_total - 1);
  const std::uint64_t tu = t_total * u_total;
  const std::uint64_t x = gen_.next_below(tt + 2 * tu);
  agent_state initiator;
  agent_state responder;
  bool initiator_touched;
  bool responder_touched;
  if (x < tt) {
    initiator =
        locate_state(touched_, gen_.next_below(t_total), no_excluded_state);
    responder = locate_state(touched_, gen_.next_below(t_total - 1), initiator);
    initiator_touched = responder_touched = true;
  } else if (x < tt + tu) {
    initiator =
        locate_state(touched_, gen_.next_below(t_total), no_excluded_state);
    responder =
        locate_state(untouched_, gen_.next_below(u_total), no_excluded_state);
    initiator_touched = true;
    responder_touched = false;
  } else {
    initiator =
        locate_state(untouched_, gen_.next_below(u_total), no_excluded_state);
    responder =
        locate_state(touched_, gen_.next_below(t_total), no_excluded_state);
    initiator_touched = false;
    responder_touched = true;
  }
  const auto [next_initiator, next_responder] =
      kernel_->sample(initiator, responder, gen_);
  --(initiator_touched ? touched_ : untouched_)[initiator];
  --(responder_touched ? touched_ : untouched_)[responder];
  untouched_total_ -=
      (initiator_touched ? 0u : 1u) + (responder_touched ? 0u : 1u);
  ++touched_[next_initiator];
  ++touched_[next_responder];
  --counts_[initiator];
  --counts_[responder];
  ++counts_[next_initiator];
  ++counts_[next_responder];
}

void multibatch_engine::step() { run(1); }

void multibatch_engine::run(std::uint64_t steps) {
#ifndef NDEBUG
  // Debug/ASan builds re-check the round state at every run() entry;
  // restore_state enforces the same relations in every build.
  const char* violation =
      round_state_violation(counts_, untouched_, touched_, untouched_total_,
                            n_, pending_free_, collision_pending_);
  PPG_CHECK(violation == nullptr,
            std::string("multibatch invariant: ") + violation);
#endif
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    if (!collision_pending_) {
      // New round: every agent is untouched, so the birthday law starts
      // from the full pool.
      pending_free_ = birthday_.sample(gen_);
      collision_pending_ = true;
      ++rounds_;
    }
    if (pending_free_ > 0) {
      // A run truncated by the step budget stays lawful: the remainder is
      // carried in pending_free_ and continues in the next call, so no
      // redraw is needed (and the birthday law is not memoryless).
      const std::uint64_t free = std::min(pending_free_, remaining);
      if (free < aggregate_threshold_) {
        apply_free_sequential(free);
      } else {
        apply_free_aggregate(free);
      }
      pending_free_ -= free;
      remaining -= free;
      interactions_ += free;
    }
    if (remaining == 0) break;
    resolve_collision();
    ++collisions_;
    ++interactions_;
    --remaining;
    collision_pending_ = false;
    // Touched agents rejoin the untouched pool (anonymity makes the merge
    // pure bookkeeping).
    for (std::size_t s = 0; s < counts_.size(); ++s) {
      untouched_[s] += touched_[s];
      touched_[s] = 0;
    }
    untouched_total_ = n_;
  }
}

}  // namespace ppg
