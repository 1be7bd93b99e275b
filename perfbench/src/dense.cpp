// dense_1e8: the multibatch engine on two dense matrix games at n = 10^8
// from the uniform census, one thread, advanced by run(chunk). Nearly every
// interaction changes the census, so the pp round core and the samplers do
// almost all the work.
#include <sched.h>

#include <cmath>
#include <iostream>
#include <memory>

#include "ppg/games/mean_field.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ppg::json;

constexpr std::uint64_t population = 100'000'000;
constexpr std::uint64_t chunk = std::uint64_t{1} << 19;
constexpr int warmup_chunks = 2;

std::vector<std::uint64_t> uniform_census(std::size_t q) {
  std::vector<std::uint64_t> counts(q, population / q);
  counts[0] += population % q;
  return counts;
}

ppg::sim_recipe matrix_game(json game, json rule,
                            const std::vector<std::uint64_t>& counts) {
  json params = json::object();
  params["game"] = std::move(game);
  params["rule"] = std::move(rule);
  params["discipline"] = "one_way";
  return ppg::sim_recipe::from_json(
      recipe_json("matrix-game", std::move(params), counts));
}

/// Hawk-dove (v = 1, c = 2) under the logit response, temperature 0.5.
ppg::sim_recipe hawk_dove(const std::vector<std::uint64_t>& counts) {
  json game = json::object();
  game["name"] = "hawk-dove";
  game["value"] = 1.0;
  game["cost"] = 2.0;
  json rule = json::object();
  rule["name"] = "logit";
  rule["temperature"] = 0.5;
  return matrix_game(std::move(game), std::move(rule), counts);
}

/// Rock-paper-scissors under proportional imitation, rate 0.8.
ppg::sim_recipe rock_paper_scissors(const std::vector<std::uint64_t>& counts) {
  json game = json::object();
  game["name"] = "rock-paper-scissors";
  game["win"] = 1.0;
  game["loss"] = 1.0;
  json rule = json::object();
  rule["name"] = "proportional-imitation";
  rule["rate"] = 0.8;
  return matrix_game(std::move(game), std::move(rule), counts);
}

struct game_run {
  ppg::sim_recipe recipe;
  std::uint64_t seed = 0;
  std::unique_ptr<ppg::sim_engine> engine;
  json warm_snapshot;  ///< save_state() after the warm-up chunks
};

/// Set-up: the recipes (protocol compilation) and one ready engine per
/// game, each from its own seed. Adds the engine-construction times.
std::vector<game_run> set_up(std::uint64_t seed, samples& make_ms) {
  std::vector<game_run> games;
  games.push_back({hawk_dove(uniform_census(2)),
                   ppg::derive_stream_seed(seed, 1), {}, {}});
  games.push_back({rock_paper_scissors(uniform_census(3)),
                   ppg::derive_stream_seed(seed, 2), {}, {}});
  for (game_run& g : games) {
    ppg::rng gen(g.seed);
    span make("pp.make_engine");
    g.engine = g.recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
    make_ms.add(make.stop() * 1e3);
  }
  return games;
}

/// Pins this thread to the `index`-th CPU of `allowed`, round robin. The
/// one-thread loop visits every CPU in turn, so a run's median does not hang
/// on which CPU (and which neighbour on the host) the scheduler kept it on.
/// Segments take CPUs in pairs (index = segment / 2), so in a traced run
/// every CPU runs as many untraced segments as traced ones.
void pin_to_cpu(const cpu_set_t& allowed, int index) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(index) % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

struct loop_stats {
  samples read_ms;  ///< one census + checkpoint read of every game
  samples run_ms;   ///< one chunk of one game (pp.run)
  double wall_s = 0.0;
  std::uint64_t interactions = 0;
  double hawk_sum = 0.0;  ///< hawk share summed over reads past burn-in
  std::uint64_t hawk_reads = 0;
};

/// Steps for `seconds`, adding to `st` and `seg`. A step advances every
/// game by one chunk, then reads every game's census and checkpoint.
void timed_loop(std::vector<game_run>& games, double seconds, loop_stats& st,
                segment& seg, result& out) {
  std::vector<std::vector<std::uint64_t>> counts(games.size());
  std::vector<std::string> checkpoints(games.size());
  const auto start = bench_clock::now();
  while (seconds_since(start) < seconds) {
    span advance("dense.advance");
    for (game_run& g : games) {
      span run("pp.run");
      g.engine->run(chunk);
      st.run_ms.add(run.stop() * 1e3);
      st.interactions += chunk;
      seg.interactions += static_cast<double>(chunk);
    }
    seg.advance_ms.add(advance.stop() * 1e3);

    span read("dense.read");
    for (std::size_t i = 0; i < games.size(); ++i) {
      {
        span census("pp.census");
        counts[i] = games[i].engine->census().counts();
      }
      span dump("util.checkpoint_dump");
      checkpoints[i] =
          ppg::save_checkpoint(games[i].recipe, *games[i].engine)
              .dump_string(true);
    }
    st.read_ms.add(read.stop() * 1e3);
    seg.ops += 2;
    for (std::size_t i = 0; i < games.size(); ++i) {
      out.check(census_total(counts[i]) == population && !checkpoints[i].empty(),
                "dense census sums to n");
    }
    // Hawk share, past one unit of parallel time (the mean-field
    // relaxation from the uniform start is well under that).
    if (games[0].engine->interactions() >= population) {
      st.hawk_sum +=
          static_cast<double>(counts[0][0]) / static_cast<double>(population);
      ++st.hawk_reads;
    }
  }
  const double wall = seconds_since(start);
  st.wall_s += wall;
  seg.wall_s += wall;
}

/// Both games start at their rest point, where a census that never moved
/// would pass the checks above. So an untimed engine of the same game from
/// an off-rest census must follow the mean-field trajectory: its fractions
/// after each of `units` units of parallel time (n interactions each) lie
/// within 1e-3 of the ODE's, ten times the O(n^-1/2) sampling noise.
void check_trajectory(ppg::sim_recipe (*game)(const std::vector<std::uint64_t>&),
                      const std::vector<std::uint64_t>& start,
                      std::uint64_t seed, std::uint64_t units, result& out) {
  constexpr std::uint64_t steps_per_unit = 64;
  const ppg::sim_recipe recipe = game(start);
  std::vector<double> x0;
  for (const std::uint64_t c : start) {
    x0.push_back(static_cast<double>(c) / static_cast<double>(population));
  }
  const ppg::mean_field_trajectory ode = ppg::integrate_mean_field(
      ppg::mean_field_ode(recipe.proto()), x0, 1.0 / steps_per_unit,
      units * steps_per_unit, steps_per_unit);
  ppg::rng gen(seed);
  auto engine = recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
  double worst = 0.0;
  for (std::uint64_t t = 1; t <= units; ++t) {
    engine->run(population);
    const std::vector<std::uint64_t> counts = engine->census().counts();
    for (std::size_t s = 0; s < counts.size(); ++s) {
      worst = std::max(worst, std::abs(static_cast<double>(counts[s]) /
                                           static_cast<double>(population) -
                                       ode.states[t][s]));
    }
  }
  std::cout << "trajectory from " << x0[0] << " (" << x0.size()
            << " strategies): largest gap to the mean-field ODE over " << units
            << " units of parallel time " << worst << "\n";
  out.check(worst < 1e-3, "census follows the mean-field trajectory");
}

}  // namespace

void run_dense(const bench_args& args, result& out) {
  samples make_ms;
  std::vector<game_run> games = set_up(args.seed, make_ms);
  for (game_run& g : games) {
    g.engine->run(warmup_chunks * chunk);
    g.warm_snapshot = g.engine->save_state();
  }

  // The timed phase runs in segments, each on the next CPU and after one
  // more set-up, so the set-ups sample the machine over the same stretch
  // as the rest. Traced runs alternate untraced and traced segments, so
  // drift cancels out of the tracing overhead.
  constexpr int segments = 64;
  std::vector<segment> segs(segments);
  loop_stats st;
  loop_stats untraced;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  for (int i = 0; i < segments; ++i) {
    pin_to_cpu(allowed, i / 2);
    {
      span setup("dense.setup");
      const std::vector<game_run> fresh = set_up(args.seed, make_ms);
      segs[i].setup_s.add(setup.stop());
    }
    const bool traced = args.trace && i % 2 == 1;
    tracer::instance().enable(traced);
    timed_loop(games, args.seconds / segments,
               args.trace && !traced ? untraced : st, segs[i], out);
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  tracer::instance().enable(args.trace);
  if (args.trace) {
    const double ips_off = static_cast<double>(untraced.interactions) /
                           untraced.wall_s;
    const double ips_on = static_cast<double>(st.interactions) / st.wall_s;
    out.metric("pp.run_ms_p50", st.run_ms.median(), "ms", st.run_ms.count());
    out.metric("pp.run_ms_p90", st.run_ms.quantile(0.9), "ms",
               st.run_ms.count());
    out.metric("pp.ns_per_interaction",
               st.run_ms.sum() * 1e6 / static_cast<double>(st.interactions), "ns",
               st.run_ms.count());
    out.metric("pp.make_engine_ms", make_ms.median(), "ms", make_ms.count());
    out.metric("trace.overhead_frac", ips_off / ips_on - 1.0, "ratio",
               st.run_ms.count() + untraced.run_ms.count());
    samples reads = st.read_ms;
    reads.append(untraced.read_ms);
    report_latency_layers(segs, reads, out);
  }

  // Correctness: the hawk share against the mean-field fixed point, and
  // exact replay of the warm-up chunks' round counts from the same seed.
  const ppg::mean_field_ode ode(games[0].recipe.proto());
  const auto fixed = ppg::relax_to_fixed_point(ode, {0.9, 0.1}, 0.02, 1e-12,
                                               2000.0);
  const std::uint64_t hawk_reads = st.hawk_reads + untraced.hawk_reads;
  const double hawk = hawk_reads > 0
                          ? (st.hawk_sum + untraced.hawk_sum) /
                                static_cast<double>(hawk_reads)
                          : std::nan("");
  std::cout << "hawk share: time average " << hawk << " over " << hawk_reads
            << " reads, mean-field fixed point " << fixed.state[0] << "\n";
  out.check(fixed.converged && std::abs(hawk - fixed.state[0]) < 5e-4,
            "hawk share within 5e-4 of the mean-field fixed point");
  check_trajectory(hawk_dove, {population / 10 * 9, population / 10},
                   ppg::derive_stream_seed(args.seed, 3), 3, out);
  check_trajectory(rock_paper_scissors,
                   {population / 2, population / 10 * 3, population / 5},
                   ppg::derive_stream_seed(args.seed, 4), 2, out);
  for (game_run& g : games) {
    ppg::rng gen(g.seed);
    auto twin = g.recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
    twin->run(warmup_chunks * chunk);
    const json snapshot = twin->save_state();
    for (const char* key : {"rounds", "collisions", "counts"}) {
      out.check(*snapshot.find(key) == *g.warm_snapshot.find(key),
                std::string("repeated seed reproduces snapshot ") + key);
    }
  }

  if (args.trace) {
    layer_input in;
    for (const game_run& g : games) in.recipes.push_back(&g.recipe);
    in.kind = ppg::engine_kind::multibatch;
    in.seed = args.seed;
    in.work_dir = args.work_dir;
    run_probes(in, {}, out);
    return;
  }
  report_end_to_end(segs, {}, peak_rss_mb(), out);
}

}  // namespace perfbench
