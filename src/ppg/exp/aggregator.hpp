// Mergeable aggregators for batch-replication results: per-coordinate
// summaries of censuses, scalar summaries with full empirical distribution
// (convergence times, payoffs), and time-aligned trajectory bands.
//
// All three compose the ppg::stats accumulators and expose an associative
// merge(), so partial aggregates computed anywhere (another thread, another
// process, another machine) can be combined; the batch engine itself folds in
// replica order on one thread so aggregates are thread-count independent.
#pragma once

#include <cstddef>
#include <vector>

#include "ppg/stats/ecdf.hpp"
#include "ppg/stats/summary.hpp"

namespace ppg {

/// Aggregates fixed-length real vectors (censuses, level distributions)
/// coordinate by coordinate. The length is fixed by the first add/merge.
class census_aggregator {
 public:
  /// One replica's census.
  void add(const std::vector<double>& census);

  void merge(const census_aggregator& other);

  /// Replicas aggregated so far.
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::size_t dimensions() const { return coords_.size(); }

  /// Per-coordinate means: the batch estimate of E[census].
  [[nodiscard]] std::vector<double> mean() const;

  /// Per-coordinate normal-approximation CI half-widths across replicas.
  [[nodiscard]] std::vector<double> ci_half_width(double z = 1.96) const;

  [[nodiscard]] const running_summary& coordinate(std::size_t j) const;

 private:
  std::vector<running_summary> coords_;
};

/// Aggregates one scalar per replica (a convergence time, a payoff, a TV
/// distance): mean/CI via Welford plus the exact empirical distribution.
class scalar_aggregator {
 public:
  void add(double value);

  void merge(const scalar_aggregator& other);

  [[nodiscard]] std::size_t count() const { return summary_.count(); }
  [[nodiscard]] double mean() const { return summary_.mean(); }
  [[nodiscard]] double std_error() const { return summary_.std_error(); }
  [[nodiscard]] double ci_half_width(double z = 1.96) const {
    return summary_.ci_half_width(z);
  }
  [[nodiscard]] double min() const { return summary_.min(); }
  [[nodiscard]] double max() const { return summary_.max(); }
  [[nodiscard]] double quantile(double q) const {
    return distribution_.quantile(q);
  }

  [[nodiscard]] const running_summary& summary() const { return summary_; }
  [[nodiscard]] const empirical_cdf& distribution() const {
    return distribution_;
  }

 private:
  running_summary summary_;
  empirical_cdf distribution_;
};

/// Aggregates per-replica trajectories sampled at identical time points
/// (payoff or generosity traces): a mean curve with a CI band. The length is
/// fixed by the first add/merge; every trajectory must match it.
class trajectory_aggregator {
 public:
  void add(const std::vector<double>& trajectory);

  void merge(const trajectory_aggregator& other);

  [[nodiscard]] std::size_t count() const { return curve_.count(); }
  [[nodiscard]] std::size_t points() const { return curve_.dimensions(); }
  [[nodiscard]] std::vector<double> mean_curve() const { return curve_.mean(); }
  [[nodiscard]] std::vector<double> ci_band(double z = 1.96) const {
    return curve_.ci_half_width(z);
  }
  [[nodiscard]] const running_summary& at(std::size_t t) const {
    return curve_.coordinate(t);
  }

 private:
  census_aggregator curve_;
};

}  // namespace ppg
