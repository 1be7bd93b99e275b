#include "ppg/stats/ecdf.hpp"

#include <algorithm>
#include <cmath>

#include "ppg/util/error.hpp"

namespace ppg {

void empirical_cdf::add(double x) {
  PPG_CHECK(!std::isnan(x), "empirical_cdf requires non-NaN samples");
  samples_.push_back(x);
  sorted_ = false;
}

void empirical_cdf::merge(const empirical_cdf& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

void empirical_cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double empirical_cdf::cdf(double x) const {
  PPG_CHECK(!samples_.empty(), "cdf of an empty sample set");
  ensure_sorted();
  const auto above = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(above - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double empirical_cdf::quantile(double q) const {
  PPG_CHECK(!samples_.empty(), "quantile of an empty sample set");
  PPG_CHECK(q >= 0.0 && q <= 1.0, "quantile level must be in [0, 1]");
  ensure_sorted();
  if (q == 0.0) return samples_.front();
  const auto n = static_cast<double>(samples_.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples_[std::min(rank, samples_.size()) - 1];
}

double empirical_cdf::min() const {
  PPG_CHECK(!samples_.empty(), "min of an empty sample set");
  ensure_sorted();
  return samples_.front();
}

double empirical_cdf::max() const {
  PPG_CHECK(!samples_.empty(), "max of an empty sample set");
  ensure_sorted();
  return samples_.back();
}

const std::vector<double>& empirical_cdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

}  // namespace ppg
