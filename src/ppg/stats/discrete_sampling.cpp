#include "ppg/stats/discrete_sampling.hpp"

#include <algorithm>
#include <cmath>

#include "ppg/stats/distributions.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// Distance between stored birthday checkpoints (collision_run_sampler).
constexpr std::uint64_t checkpoint_stride = 16;

/// Inverts a unimodal PMF outward from its mode: accumulates probability at
/// the mode, then alternately one cell up and one cell down, until the
/// uniform draw is covered. `ratio_up(k)` is pmf(k+1)/pmf(k) and
/// `ratio_down(k)` is pmf(k-1)/pmf(k); expected work is O(standard
/// deviation) because the mass within a few sigma of the mode is covered
/// first. `lo_min`/`hi_max` bound the support.
template <typename RatioUp, typename RatioDown>
std::uint64_t invert_from_mode(std::uint64_t mode, double mode_pmf,
                               std::uint64_t lo_min, std::uint64_t hi_max,
                               RatioUp ratio_up, RatioDown ratio_down,
                               rng& gen) {
  const double u = gen.next_double();
  double acc = mode_pmf;
  if (u < acc) return mode;
  std::uint64_t lo = mode;
  std::uint64_t hi = mode;
  double pmf_lo = mode_pmf;
  double pmf_hi = mode_pmf;
  while (lo > lo_min || hi < hi_max) {
    if (hi < hi_max) {
      pmf_hi *= ratio_up(hi);
      ++hi;
      acc += pmf_hi;
      if (u < acc) return hi;
    }
    if (lo > lo_min) {
      pmf_lo *= ratio_down(lo);
      --lo;
      acc += pmf_lo;
      if (u < acc) return lo;
    }
  }
  // Floating-point shortfall: the support sums to 1 up to rounding, so u
  // landed in the ~1e-15 residual; attribute it to the mode.
  return mode;
}

/// Binomial(n, p) by counting successes through geometric skips between
/// them; exact, with expected work O(n*p + 1). Requires p in (0, 1).
std::uint64_t binomial_by_skips(std::uint64_t n, double p, rng& gen) {
  std::uint64_t successes = 0;
  std::uint64_t position = 0;
  while (true) {
    position += gen.next_geometric(p) + 1;
    if (position > n) break;
    ++successes;
  }
  return successes;
}

/// Hypergeometric core: requires 2*marked <= total and 2*draws <= total
/// (callers reduce by symmetry first), so the support is [0, min(m, K)].
std::uint64_t hypergeometric_core(std::uint64_t total, std::uint64_t marked,
                                  std::uint64_t draws, rng& gen) {
  if (marked == 0 || draws == 0) return 0;
  if (draws <= 8) {
    // Sequential sampling without replacement, in exact integer arithmetic:
    // draw i is marked with probability (marked - x) / (total - i).
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < draws; ++i) {
      if (gen.next_below(total - i) < marked - x) ++x;
    }
    return x;
  }
  const double nf = static_cast<double>(total);
  const double kf = static_cast<double>(marked);
  const double mf = static_cast<double>(draws);
  // Any start index with a correctly computed pmf keeps the inversion
  // exact, so computing the mode in doubles is safe against overflow.
  const std::uint64_t hi = std::min(draws, marked);
  const double approx_mode = (mf + 1.0) * (kf + 1.0) / (nf + 2.0);
  const std::uint64_t mode =
      std::min(hi, static_cast<std::uint64_t>(approx_mode));
  const double log_mode_pmf =
      log_binomial_coefficient(marked, mode) +
      log_binomial_coefficient(total - marked, draws - mode) -
      log_binomial_coefficient(total, draws);
  const auto ratio_up = [&](std::uint64_t x) {
    const double xf = static_cast<double>(x);
    return (kf - xf) * (mf - xf) / ((xf + 1.0) * (nf - kf - mf + xf + 1.0));
  };
  const auto ratio_down = [&](std::uint64_t x) {
    const double xf = static_cast<double>(x);
    return xf * (nf - kf - mf + xf) / ((kf - xf + 1.0) * (mf - xf + 1.0));
  };
  return invert_from_mode(mode, std::exp(log_mode_pmf), 0, hi, ratio_up,
                          ratio_down, gen);
}

}  // namespace

std::uint64_t sample_binomial(std::uint64_t n, double p, rng& gen) {
  PPG_CHECK(p >= 0.0 && p <= 1.0, "sample_binomial requires p in [0, 1]");
  if (p == 0.0 || n == 0) return 0;
  if (p == 1.0) return n;
  // Work with q = min(p, 1-p): the skip path costs O(n*q), the
  // mode-inversion path O(sqrt(n*q)) plus a few lgammas — cross over once
  // the expected count outgrows the fixed cost.
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;
  const double expected = static_cast<double>(n) * q;
  std::uint64_t successes;
  if (expected <= 32.0) {
    successes = binomial_by_skips(n, q, gen);
  } else {
    const double nf = static_cast<double>(n);
    const std::uint64_t mode =
        std::min(n, static_cast<std::uint64_t>((nf + 1.0) * q));
    const double log_mode_pmf =
        log_binomial_coefficient(n, mode) +
        static_cast<double>(mode) * std::log(q) +
        static_cast<double>(n - mode) * std::log1p(-q);
    const double odds = q / (1.0 - q);
    const auto ratio_up = [&](std::uint64_t k) {
      const double kf = static_cast<double>(k);
      return (nf - kf) / (kf + 1.0) * odds;
    };
    const auto ratio_down = [&](std::uint64_t k) {
      const double kf = static_cast<double>(k);
      return kf / (nf - kf + 1.0) / odds;
    };
    successes = invert_from_mode(mode, std::exp(log_mode_pmf), 0, n,
                                 ratio_up, ratio_down, gen);
  }
  return flipped ? n - successes : successes;
}

std::uint64_t sample_hypergeometric(std::uint64_t total, std::uint64_t marked,
                                    std::uint64_t draws, rng& gen) {
  PPG_CHECK(marked <= total && draws <= total,
            "sample_hypergeometric requires marked <= total, draws <= total");
  if (total == 0) return 0;
  // Reduce to the small-marked, small-draws quadrant: flipping which class
  // is "marked" maps X to draws - X, and sampling the complement of the
  // drawn set maps X to marked - X.
  std::uint64_t marked2 = marked;
  std::uint64_t draws2 = draws;
  const bool flip_marked = marked2 > total - marked2;
  if (flip_marked) marked2 = total - marked2;
  const bool flip_draws = draws2 > total - draws2;
  if (flip_draws) draws2 = total - draws2;
  std::uint64_t x = hypergeometric_core(total, marked2, draws2, gen);
  if (flip_draws) x = marked2 - x;
  if (flip_marked) x = draws - x;
  return x;
}

void sample_multivariate_hypergeometric(const std::uint64_t* counts,
                                        std::size_t size, std::uint64_t draws,
                                        rng& gen, std::uint64_t* out) {
  PPG_CHECK(size > 0,
            "sample_multivariate_hypergeometric needs a non-empty census");
  std::uint64_t remaining_population = 0;
  for (std::size_t i = 0; i < size; ++i) remaining_population += counts[i];
  PPG_CHECK(draws <= remaining_population,
            "sample_multivariate_hypergeometric: more draws than items");
  for (std::size_t i = 0; i < size; ++i) out[i] = 0;
  std::uint64_t remaining_draws = draws;
  for (std::size_t i = 0; i + 1 < size && remaining_draws > 0; ++i) {
    const std::uint64_t x = sample_hypergeometric(
        remaining_population, counts[i], remaining_draws, gen);
    out[i] = x;
    remaining_draws -= x;
    remaining_population -= counts[i];
  }
  out[size - 1] += remaining_draws;
}

std::vector<std::uint64_t> sample_multivariate_hypergeometric(
    const std::vector<std::uint64_t>& counts, std::uint64_t draws, rng& gen) {
  std::vector<std::uint64_t> out(counts.size(), 0);
  sample_multivariate_hypergeometric(counts.data(), counts.size(), draws, gen,
                                     out.data());
  return out;
}

void sample_multinomial(std::uint64_t m, const double* probs,
                        std::size_t size, rng& gen, std::uint64_t* out) {
  PPG_CHECK(size > 0, "sample_multinomial needs a non-empty support");
  for (std::size_t i = 0; i < size; ++i) out[i] = 0;
  double remaining_prob = 1.0;
  std::uint64_t remaining = m;
  for (std::size_t i = 0; i + 1 < size && remaining > 0; ++i) {
    const double conditional =
        remaining_prob <= 0.0 ? 0.0 : probs[i] / remaining_prob;
    const std::uint64_t draw =
        sample_binomial(remaining, std::min(1.0, std::max(0.0, conditional)),
                        gen);
    out[i] = draw;
    remaining -= draw;
    remaining_prob -= probs[i];
  }
  out[size - 1] += remaining;
}

std::vector<std::uint64_t> sample_multinomial(std::uint64_t m,
                                              const std::vector<double>& probs,
                                              rng& gen) {
  std::vector<std::uint64_t> counts(probs.size(), 0);
  sample_multinomial(m, probs.data(), probs.size(), gen, counts.data());
  return counts;
}

collision_run_sampler::collision_run_sampler(std::uint64_t n)
    : n_(n),
      log_pairs_(std::log(static_cast<double>(n)) +
                 std::log(static_cast<double>(n - 1))),
      checkpoints_(1, 0.0) {
  PPG_CHECK(n >= 2, "the birthday law needs at least two agents");
}

double collision_run_sampler::log_step(std::uint64_t j) const {
  return std::log(static_cast<double>(n_ - 2 * j)) +
         std::log(static_cast<double>(n_ - 2 * j - 1)) - log_pairs_;
}

bool collision_run_sampler::growing() const {
  // The recurrence ends at the support's end (the pool holds at most n/2
  // pairs) or once the survival falls below every level a positive
  // next_double() can produce: the smallest positive 53-bit uniform is
  // 2^-53, log = -36.74, so values below -38 are unreachable by inversion.
  constexpr double log_cutoff = -38.0;
  return reached_ < n_ / 2 && log_s_reached_ >= log_cutoff;
}

void collision_run_sampler::extend() const {
  log_s_reached_ += log_step(reached_);
  ++reached_;
  if (reached_ % checkpoint_stride == 0) {
    checkpoints_.push_back(log_s_reached_);
  }
}

std::uint64_t collision_run_sampler::j_max() const {
  while (growing()) extend();
  return reached_;
}

double collision_run_sampler::log_survival(std::uint64_t j) const {
  while (reached_ < j && growing()) extend();
  PPG_CHECK(j <= reached_, "collision_run_sampler: j beyond the recurrence");
  std::uint64_t at = j - j % checkpoint_stride;
  double ls = checkpoints_[static_cast<std::size_t>(at / checkpoint_stride)];
  for (; at < j; ++at) ls += log_step(at);
  return ls;
}

std::uint64_t collision_run_sampler::sample(rng& gen) const {
  double u = gen.next_double();
  while (u <= 0.0) u = gen.next_double();
  const double log_u = std::log(u);
  // Run the recurrence until it falls below log u or ends. The answer then
  // lies at or before reached_, and the stored checkpoints are a prefix of
  // the complete table's that holds every checkpoint the search can reach.
  while (log_s_reached_ >= log_u && growing()) extend();
  // Last checkpoint with log S >= log u. Checkpoint 0 is log 1 = 0 > log u,
  // and S is non-increasing, so the answer lies in [16k, 16k + 15] (capped
  // at reached_: either S(reached_) < U or reached_ = j_max, past which no
  // log u can reach).
  const auto first_below =
      std::partition_point(checkpoints_.begin(), checkpoints_.end(),
                           [&](double entry) { return entry >= log_u; });
  const auto k =
      static_cast<std::uint64_t>(first_below - checkpoints_.begin()) - 1;
  std::uint64_t j = k * checkpoint_stride;
  const std::uint64_t last = std::min(j + checkpoint_stride - 1, reached_);
  double ls = checkpoints_[static_cast<std::size_t>(k)];
  for (; j < last; ++j) {
    ls += log_step(j);
    if (ls < log_u) break;
  }
  return std::max<std::uint64_t>(j, 1);
}

std::size_t sample_categorical(const std::vector<double>& probs, rng& gen) {
  PPG_CHECK(!probs.empty(), "sample_categorical needs a non-empty support");
  double total = 0.0;
  for (const double p : probs) {
    PPG_CHECK(p >= 0.0, "categorical weights must be non-negative");
    total += p;
  }
  PPG_CHECK(total > 0.0, "categorical weights must have positive sum");
  double u = gen.next_double() * total;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    u -= probs[i];
    if (u < 0.0) return i;
  }
  return probs.size() - 1;  // guard against accumulated rounding
}

}  // namespace ppg
