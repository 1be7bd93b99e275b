// igt_sweep: the paper's experiment. One-way k-IGT (k = 8) at n = 10^6 in
// the dilute regime, from the all-stingy GTFT corner; R = 8 replicas on the
// batched engine through batch_runner. Each replica burns in for the
// Theorem 2.7 mixing bound, then time-averages GTFT-level occupancy over a
// census read per chunk; the aggregate is checked against the stationary
// law.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/exp/batch_runner.hpp"
#include "ppg/stats/empirical.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ppg::json;

constexpr std::uint64_t population = 1'000'000;
constexpr std::size_t k = 8;
constexpr std::size_t replicas = 8;
constexpr std::uint64_t chunk = std::uint64_t{1} << 20;
constexpr std::uint64_t sample_chunks = 16;

/// What one replica hands back to the sweep.
struct replica_result {
  std::uint64_t interactions = 0;
  std::vector<double> occupancy_sum;  ///< per GTFT level, summed over reads
  std::uint64_t reads = 0;
  std::uint64_t bad_reads = 0;  ///< reads whose census did not sum to n
  double seconds = 0.0;
  samples advance_ms;
  samples read_ms;
};

struct sweep_totals {
  samples advance_ms;
  samples read_ms;
  samples replica_s;
  double wall_s = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t sweeps = 0;
  std::vector<double> occupancy_sum = std::vector<double>(k, 0.0);
  std::uint64_t reads = 0;
  std::uint64_t bad_reads = 0;
};

class igt_sweep {
 public:
  igt_sweep()
      : pop_(ppg::abg_population::from_fractions(population, 0.75, 0.2, 0.05)),
        recipe_(ppg::sim_recipe::from_json(recipe_doc(pop_))),
        burn_(static_cast<std::uint64_t>(ppg::igt_mixing_upper_bound(pop_, k))),
        workers_(fanout_workers()) {}

  [[nodiscard]] const ppg::sim_recipe& recipe() const { return recipe_; }
  [[nodiscard]] const ppg::abg_population& pop() const { return pop_; }
  [[nodiscard]] std::uint64_t burn() const { return burn_; }
  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// One sweep of all replicas, folded into `totals` and `seg`.
  void run(std::uint64_t master_seed, sweep_totals& totals,
           segment& seg) const {
    const ppg::batch_runner runner({replicas, master_seed, workers_});
    span sweep("exp.sweep");
    const std::uint64_t sweep_id = sweep.id();
    const auto results = runner.run(
        [&](const ppg::replica_context&, ppg::rng& gen) {
          return replica(gen, sweep_id);
        });
    const double wall = sweep.stop();
    totals.wall_s += wall;
    seg.wall_s += wall;
    ++totals.sweeps;
    for (const replica_result& r : results) {
      totals.advance_ms.append(r.advance_ms);
      seg.advance_ms.append(r.advance_ms);
      seg.interactions += static_cast<double>(r.interactions);
      seg.ops += static_cast<double>(r.advance_ms.count() + r.read_ms.count());
      totals.read_ms.append(r.read_ms);
      totals.replica_s.add(r.seconds);
      totals.interactions += r.interactions;
      for (std::size_t j = 0; j < k; ++j) {
        totals.occupancy_sum[j] += r.occupancy_sum[j];
      }
      totals.reads += r.reads;
      totals.bad_reads += r.bad_reads;
    }
  }

 private:
  static json recipe_doc(const ppg::abg_population& pop) {
    std::vector<std::uint64_t> counts(2 + k, 0);
    counts[ppg::igt_encoding::ac] = pop.num_ac;
    counts[ppg::igt_encoding::ad] = pop.num_ad;
    counts[ppg::igt_encoding::gtft(0)] = pop.num_gtft;  // all stingy
    json params = json::object();
    params["k"] = static_cast<std::uint64_t>(k);
    params["discipline"] = "one_way";
    return recipe_json("igt", std::move(params), counts);
  }

  replica_result replica(ppg::rng& gen, std::uint64_t sweep_id) const {
    replica_result r;
    r.occupancy_sum.assign(k, 0.0);
    span body("exp.replica", tracer::instance().next_id(), sweep_id);
    auto engine = recipe_.spec().make_engine(ppg::engine_kind::batched, gen);
    const auto advance = [&](std::uint64_t steps) {
      span run("pp.run");
      engine->run(steps);
      const double ms = run.stop() * 1e3;
      r.advance_ms.add(ms);
      r.interactions += steps;
    };
    for (std::uint64_t done = 0; done < burn_; done += chunk) {
      advance(std::min(chunk, burn_ - done));
    }
    for (std::uint64_t c = 0; c < sample_chunks; ++c) {
      advance(chunk);
      span read("igt.read");
      std::vector<std::uint64_t> z;
      {
        span census("pp.census");
        z = ppg::gtft_level_counts(engine->census(), k);
      }
      std::string checkpoint;
      {
        span dump("util.checkpoint_dump");
        checkpoint = ppg::save_checkpoint(recipe_, *engine).dump_string(true);
      }
      r.read_ms.add(read.stop() * 1e3);
      const bool ok = census_total(engine->census().counts()) == population &&
                      !checkpoint.empty();
      r.bad_reads += ok ? 0 : 1;
      for (std::size_t j = 0; j < k; ++j) {
        r.occupancy_sum[j] +=
            static_cast<double>(z[j]) / static_cast<double>(pop_.num_gtft);
      }
      ++r.reads;
    }
    r.seconds = body.stop();
    return r;
  }

  ppg::abg_population pop_;
  ppg::sim_recipe recipe_;
  std::uint64_t burn_;
  std::size_t workers_;
};

}  // namespace

void run_igt_sweep(const bench_args& args, result& out) {
  const igt_sweep sweep;
  std::cout << "igt_sweep: n=" << population << " k=" << k
            << " burn-in=" << sweep.burn() << " interactions/replica, "
            << replicas << " replicas on " << sweep.workers() << " workers\n";

  // Warm-up sweep (threads, page cache, allocator), never timed.
  {
    tracer::instance().enable(false);
    sweep_totals warm;
    segment ignored;
    sweep.run(ppg::derive_stream_seed(args.seed, 9), warm, ignored);
  }

  // Whole sweeps until the time is up, each after one set-up (the recipe's
  // protocol compilation and one ready engine per replica), so the set-up median
  // samples the machine over the same stretch as the sweeps. Traced runs
  // alternate untraced and traced sweeps, so drift cancels out of the
  // tracing overhead.
  samples make_ms;
  std::vector<segment> segs;
  sweep_totals st;
  sweep_totals untraced;
  for (std::uint64_t index = 0;
       index < 4 || st.wall_s + untraced.wall_s < args.seconds; ++index) {
    segment& seg = segs.emplace_back();
    {
      ppg::rng gen(ppg::derive_stream_seed(args.seed, 3));
      span setup("igt.setup");
      const ppg::sim_recipe recipe =
          ppg::sim_recipe::from_json(sweep.recipe().to_json());
      for (std::size_t r = 0; r < replicas; ++r) {
        span make("pp.make_engine");
        auto engine =
            recipe.spec().make_engine(ppg::engine_kind::batched, gen);
        make_ms.add(make.stop() * 1e3);
      }
      seg.setup_s.add(setup.stop());
    }
    const bool traced = args.trace && index % 2 == 1;
    tracer::instance().enable(traced);
    sweep.run(ppg::derive_stream_seed(args.seed, 10 + index),
              args.trace && !traced ? untraced : st, seg);
  }
  tracer::instance().enable(args.trace);
  if (args.trace) {
    const double ips_off =
        static_cast<double>(untraced.interactions) / untraced.wall_s;
    const double ips_on = static_cast<double>(st.interactions) / st.wall_s;
    out.metric("pp.run_ms_p50", st.advance_ms.median(), "ms",
               st.advance_ms.count());
    out.metric("pp.run_ms_p90", st.advance_ms.quantile(0.9), "ms",
               st.advance_ms.count());
    out.metric("pp.ns_per_interaction",
               st.advance_ms.sum() * 1e6 / static_cast<double>(st.interactions),
               "ns",
               st.advance_ms.count());
    out.metric("pp.make_engine_ms", make_ms.median(), "ms", make_ms.count());
    out.metric("trace.overhead_frac", ips_off / ips_on - 1.0, "ratio",
               st.sweeps + untraced.sweeps);
    report_fanout(st.replica_s, st.wall_s, sweep.workers(), out);
    samples reads = st.read_ms;
    reads.append(untraced.read_ms);
    report_latency_layers(segs, reads, out);
  }

  // Correctness: every census sums to n, and the time-averaged GTFT-level
  // occupancy matches the Theorem 2.7 stationary law.
  const std::uint64_t reads = st.reads + untraced.reads;
  out.tally(reads, st.bad_reads + untraced.bad_reads);
  std::vector<double> occupancy(k);
  for (std::size_t j = 0; j < k; ++j) {
    occupancy[j] = (st.occupancy_sum[j] + untraced.occupancy_sum[j]) /
                   static_cast<double>(reads);
  }
  const double tv =
      ppg::total_variation(occupancy, ppg::igt_stationary_probs(sweep.pop(), k));
  std::cout << "igt_sweep: " << st.sweeps + untraced.sweeps << " sweeps, "
            << reads
            << " census reads, TV(occupancy, Theorem 2.7) = " << tv << "\n";
  out.check(tv < 0.01, "GTFT-level occupancy within TV 0.01 of Theorem 2.7");

  if (args.trace) {
    layer_input in;
    in.recipes.push_back(&sweep.recipe());
    in.kind = ppg::engine_kind::batched;
    in.seed = args.seed;
    in.work_dir = args.work_dir;
    run_probes(in, {"fanout"}, out);
    return;
  }
  report_end_to_end(segs, {}, peak_rss_mb(), out);
}

}  // namespace perfbench
