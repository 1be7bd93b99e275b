// Empirical distribution of a scalar sample: exact quantiles and CDF
// evaluation. Used by the batch engine to summarize per-replica scalars
// (convergence times, payoffs) beyond mean/CI.
#pragma once

#include <cstddef>
#include <vector>

namespace ppg {

/// Collects raw samples; order of insertion does not affect any query
/// (samples are sorted lazily before the first query after an insertion),
/// so merging is associative and commutative and parallel reductions are
/// bit-stable. add() is amortized O(1); the first query after a batch of
/// insertions pays one O(n log n) sort.
class empirical_cdf {
 public:
  /// Requires x not NaN: NaN has no place in the order that every query
  /// reads.
  void add(double x);

  /// Merges another sample set into this one.
  void merge(const empirical_cdf& other);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  /// F(x) = fraction of samples <= x. Requires at least one sample.
  [[nodiscard]] double cdf(double x) const;

  /// The q-quantile, q in [0, 1], by the inverse-CDF (lower) convention:
  /// the smallest sample s with F(s) >= q. Requires at least one sample.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Samples in ascending order.
  [[nodiscard]] const std::vector<double>& sorted_samples() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace ppg
