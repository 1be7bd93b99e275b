// Shared helpers for the engine-agreement suites (test_engines,
// test_game_dynamics): per-replica census statistics across engines and a
// two-sample chi-square homogeneity test for comparing their laws.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/util/rng.hpp"

namespace ppg::testing {

/// Runs `replicas` independent engines of `kind` for `steps` interactions
/// each and collects a scalar census statistic per replica.
inline std::vector<double> replica_statistics(
    const sim_spec& spec, engine_kind kind, std::size_t replicas,
    std::uint64_t steps, std::uint64_t master,
    const std::function<double(const census_view&)>& statistic) {
  std::vector<double> out;
  out.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    rng gen = make_stream_rng(master, r);
    const auto engine = spec.make_engine(kind, gen);
    engine->run(steps);
    out.push_back(statistic(engine->census()));
  }
  return out;
}

/// Two-sample chi-square homogeneity test on scalar samples, with bin edges
/// at the pooled quantiles; returns the upper-tail p-value.
inline double two_sample_p(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t bins) {
  std::vector<double> pooled = a;
  pooled.insert(pooled.end(), b.begin(), b.end());
  std::sort(pooled.begin(), pooled.end());
  std::vector<double> edges;
  for (std::size_t i = 1; i < bins; ++i) {
    const double e = pooled[i * pooled.size() / bins];
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  const auto bin_of = [&](double x) {
    return static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), x) - edges.begin());
  };
  std::vector<double> oa(edges.size() + 1, 0.0);
  std::vector<double> ob(edges.size() + 1, 0.0);
  for (const double x : a) oa[bin_of(x)] += 1.0;
  for (const double x : b) ob[bin_of(x)] += 1.0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double statistic = 0.0;
  double dof = -1.0;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    if (oa[i] + ob[i] == 0.0) continue;
    const double d = std::sqrt(nb / na) * oa[i] - std::sqrt(na / nb) * ob[i];
    statistic += d * d / (oa[i] + ob[i]);
    dof += 1.0;
  }
  if (dof < 1.0) return 1.0;  // all mass in one bin: distributions agree
  return chi_square_tail(statistic, dof);
}

}  // namespace ppg::testing
