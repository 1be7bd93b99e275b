#include "ppg/pp/batched_engine.hpp"

#include "ppg/util/error.hpp"

namespace ppg {

batched_engine::batched_engine(const protocol& proto,
                               std::vector<std::uint64_t> initial_counts,
                               rng gen, pair_sampling sampling,
                               std::shared_ptr<const kernel_table> kernel)
    : kernel_(adopt_kernel(proto, std::move(kernel))),
      counts_(std::move(initial_counts)),
      n_(checked_census(counts_, kernel_->num_states(), "batched engine")),
      gen_(gen) {
  PPG_CHECK(sampling == pair_sampling::distinct,
            "batched engine supports pair_sampling::distinct only; use the "
            "census engine for with_replacement sampling");
  // c_u * c_v must not overflow: n^2 < 2^63 keeps every weight and the
  // non-identity mass (at most n(n-1) total) in range.
  PPG_CHECK(n_ <= 3'000'000'000ull, "batched engine caps n at 3e9");
  const std::size_t q = kernel_->num_states();
  mask_words_ = (q + 63) / 64;
  responder_column_.assign(q * mask_words_, 0);
  for (agent_state u = 0; u < q; ++u) {
    bool row_active = false;
    for (agent_state v = 0; v < q; ++v) {
      if (kernel_->identity(u, v)) continue;
      row_active = true;
      const std::uint64_t row_bit = std::uint64_t{1} << (u % 64);
      responder_column_[v * mask_words_ + u / 64] |= row_bit;
    }
    if (row_active) active_rows_.push_back(u);
  }
  rebuild_row_sums();
}

void batched_engine::rebuild_row_sums() {
  const std::size_t q = kernel_->num_states();
  row_responder_sum_.assign(q, 0);
  for (agent_state u = 0; u < q; ++u) {
    for (agent_state v = 0; v < q; ++v) {
      if (in_row(u, v) != 0) {
        row_responder_sum_[u] += counts_[v];
      }
    }
  }
  active_weight_ = 0;
  for (const auto u : active_rows_) {
    active_weight_ += row_weight(u);
  }
}

json batched_engine::save_state() const {
  json snapshot = snapshot_envelope(interactions_, gen_);
  snapshot["counts"] = json_uint_array(counts_);
  snapshot["batches"] = batches_;
  snapshot["active_weight"] = active_weight_;
  return snapshot;
}

void batched_engine::restore_state(const json& snapshot) {
  json_require_keys(snapshot,
                    {"state_version", "engine", "interactions", "rng",
                     "counts", "batches", "active_weight"},
                    "batched snapshot");
  const auto core = check_snapshot_envelope(snapshot);
  const auto counts =
      json_require_uint_array(snapshot, "counts", "batched snapshot");
  PPG_CHECK(counts.size() == counts_.size(),
            "batched snapshot: state-space width mismatch");
  PPG_CHECK(
      checked_census(counts, kernel_->num_states(), "batched snapshot") == n_,
      "batched snapshot: population size mismatch");
  counts_ = counts;
  rebuild_row_sums();
  PPG_CHECK(json_require_uint(snapshot, "active_weight", "batched snapshot") ==
                active_weight_,
            "batched snapshot: stored non-identity mass disagrees with the "
            "census (corrupt checkpoint)");
  batches_ = json_require_uint(snapshot, "batches", "batched snapshot");
  interactions_ = core.interactions;
  gen_ = core.gen;
}

std::uint64_t batched_engine::row_weight(std::size_t row) const {
  return counts_[row] * (row_responder_sum_[row] - in_row(row, row));
}

void batched_engine::move_agent(agent_state from, agent_state to) {
  if (from == to) return;
  // Expanding the row products c_u * (R_u - s_u) around the move gives
  //   d(active) = -(R_from - s_from) + (R_to - s_to)   (the two rows rescale)
  //             + sum_{u in D} d_u * c'_u              (R_u shifts)
  // with the rescale terms read before any shift, D the rows whose
  // responder set holds exactly one of the two states, d_u = +1 when it
  // holds `to`, and c' the post-move counts. Inactive rows have R = s = 0,
  // so their rescale terms vanish. Rows whose responder set holds both
  // states or neither are untouched: a move within one responder class
  // (e.g. a one-way k-IGT level change) costs O(1).
  std::int64_t delta =
      static_cast<std::int64_t>(row_responder_sum_[to] - in_row(to, to)) -
      static_cast<std::int64_t>(row_responder_sum_[from] - in_row(from, from));
  --counts_[from];
  ++counts_[to];
  const std::uint64_t* from_column = &responder_column_[from * mask_words_];
  const std::uint64_t* to_column = &responder_column_[to * mask_words_];
  // Shifts R_u by `sign` for every row u set in `rows`, word `word`.
  const auto shift = [&](std::uint64_t rows, std::size_t word,
                         std::int64_t sign) {
    for (; rows != 0; rows &= rows - 1) {
      const std::size_t u =
          word * 64 + static_cast<std::size_t>(__builtin_ctzll(rows));
      row_responder_sum_[u] += static_cast<std::uint64_t>(sign);
      delta += sign * static_cast<std::int64_t>(counts_[u]);
    }
  };
  for (std::size_t word = 0; word < mask_words_; ++word) {
    shift(to_column[word] & ~from_column[word], word, 1);
    shift(from_column[word] & ~to_column[word], word, -1);
  }
  active_weight_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(active_weight_) + delta);
}

void batched_engine::apply_active(std::uint64_t active) {
  const std::size_t q = kernel_->num_states();
  std::uint64_t target = gen_.next_below(active);
  for (const auto u : active_rows_) {
    const std::uint64_t w = row_weight(u);
    if (target >= w) {
      target -= w;
      continue;
    }
    // Row u holds the interaction. Decompose target = slot * row_sum + r:
    // the remainder r is uniform over the responder slots of the row and
    // independent of the (discarded) initiator-agent slot.
    const std::uint64_t row_sum = row_responder_sum_[u] - in_row(u, u);
    std::uint64_t r = target % row_sum;
    for (agent_state v = 0; v < q; ++v) {
      if (in_row(u, v) == 0) continue;
      const std::uint64_t c = counts_[v] - (v == u ? 1u : 0u);
      if (r >= c) {
        r -= c;
        continue;
      }
      const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen_);
      move_agent(u, next_initiator);
      move_agent(v, next_responder);
      return;
    }
    break;
  }
  PPG_CHECK(false, "active pair sampling target out of range");
}

void batched_engine::step() { run(1); }

std::uint64_t batched_engine::advance_batch(std::uint64_t budget) {
  ++batches_;
  const std::uint64_t active = active_weight_;
  if (active == 0) {
    // Every reachable interaction is an identity: the census is frozen, so
    // the whole budget elapses without a change.
    interactions_ += budget;
    return budget;
  }
  const double total = static_cast<double>(n_) * static_cast<double>(n_ - 1);
  const double p = static_cast<double>(active) / total;
  // Identity interactions before the next census change; geometric
  // memorylessness lets us redraw when a previous batch was truncated at a
  // step budget.
  const std::uint64_t skip = p >= 1.0 ? 0ull : gen_.next_geometric(p);
  if (skip >= budget) {
    interactions_ += budget;
    return budget;
  }
  interactions_ += skip + 1;
  apply_active(active);
  return skip + 1;
}

void batched_engine::run(std::uint64_t steps) {
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    remaining -= advance_batch(remaining);
  }
}

std::uint64_t batched_engine::run_until(const census_predicate& converged,
                                        std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  // The census is unchanged across the skipped identity interactions, so
  // checking the predicate once per batch is exact.
  while (executed < max_steps) {
    if (converged(census())) return executed;
    executed += advance_batch(max_steps - executed);
  }
  return executed;
}

}  // namespace ppg
