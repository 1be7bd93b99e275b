#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "ppg/exp/batch_runner.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/serve/client.hpp"
#include "ppg/serve/server.hpp"
#include "ppg/serve/store.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/util/atomic_file.hpp"

namespace perfbench {

using ppg::engine_kind;
using ppg::json;

namespace fs = std::filesystem;

namespace {

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

}  // namespace

// --------------------------------------------------------------- serve mix

serve_mix::serve_mix(std::uint64_t seed, std::uint64_t client)
    : gen_(ppg::derive_stream_seed(seed, 1000 + client)) {}

std::vector<serve_op> serve_mix::next_step() {
  std::vector<serve_op> ops{serve_op::advance, serve_op::census};
  if (gen_.next_below(4) == 0) ops.push_back(serve_op::checkpoint);
  if (gen_.next_below(32) == 0) ops.push_back(serve_op::recreate);
  return ops;
}

json serve_recipe() {
  const std::uint64_t n = 1'000'000;
  const std::uint64_t k = 8;
  std::vector<std::uint64_t> counts(2 + k, 0);
  counts[0] = n / 10;          // AC, alpha = 0.1
  counts[1] = n / 5;           // AD, beta = 0.2
  counts[2] = n - n / 10 - n / 5;  // GTFT level 0, gamma = 0.7
  json params = json::object();
  params["k"] = k;
  params["discipline"] = "one_way";
  return recipe_json("igt", std::move(params), counts);
}

// ---------------------------------------------------------- engine counters

void probe_engine_counters(const layer_input& in, result& out) {
  constexpr std::uint64_t budget = std::uint64_t{1} << 22;
  constexpr std::uint64_t chunk = std::uint64_t{1} << 18;
  for (const engine_kind kind : {engine_kind::multibatch, engine_kind::batched}) {
    const bool multibatch = kind == engine_kind::multibatch;
    double wall_s = 0.0;
    std::uint64_t interactions = 0;
    std::uint64_t units = 0;  // rounds or batches
    std::uint64_t collisions = 0;
    for (std::size_t r = 0; r < in.recipes.size(); ++r) {
      ppg::rng gen(ppg::derive_stream_seed(in.seed, 100 + r));
      span probe(multibatch ? "probe.multibatch" : "probe.batched");
      auto engine = in.recipes[r]->spec().make_engine(kind, gen);
      const auto start = bench_clock::now();
      for (std::uint64_t done = 0; done < budget; done += chunk) {
        span run("pp.run");
        engine->run(chunk);
      }
      wall_s += seconds_since(start);
      const json snapshot = engine->save_state();
      interactions += engine->interactions();
      if (multibatch) {
        units += ppg::json_require_uint(snapshot, "rounds", "probe");
        collisions += ppg::json_require_uint(snapshot, "collisions", "probe");
      } else {
        units += ppg::json_require_uint(snapshot, "batches", "probe");
      }
      out.check(census_total(engine->census().counts()) ==
                    engine->population_size(),
                "engine probe census sums to n");
    }
    const double n_units = static_cast<double>(std::max<std::uint64_t>(units, 1));
    if (multibatch) {
      out.metric("pp.multibatch.rounds", static_cast<double>(units), "count");
      out.metric("pp.multibatch.collisions", static_cast<double>(collisions),
                 "count");
      out.metric("pp.multibatch.aggregation_factor",
                 static_cast<double>(interactions) /
                     static_cast<double>(units + collisions),
                 "ratio");
      out.metric("pp.multibatch.ns_per_round", wall_s * 1e9 / n_units, "ns",
                 units);
    } else {
      out.metric("pp.batched.batches", static_cast<double>(units), "count");
      out.metric("pp.batched.interactions_per_batch",
                 static_cast<double>(interactions) / n_units, "ratio");
      out.metric("pp.batched.ns_per_batch", wall_s * 1e9 / n_units, "ns",
                 units);
    }
  }
}

// ------------------------------------------------------------------ samplers

void probe_samplers(const layer_input& in, result& out) {
  constexpr std::size_t rounds = 4000;
  double birthday_s = 0.0;
  double mvh_s = 0.0;
  double multinomial_s = 0.0;
  std::size_t replayed = 0;
  span replay("stats.round_replay");
  for (std::size_t r = 0; r < in.recipes.size(); ++r) {
    const ppg::sim_recipe& recipe = *in.recipes[r];
    const ppg::kernel_table kernel(recipe.proto());
    const std::vector<std::uint64_t>& census = recipe.spec().initial_counts();
    const std::size_t q = census.size();
    const std::uint64_t n = recipe.spec().population_size();
    const ppg::collision_run_sampler birthday(n);
    ppg::rng gen(ppg::derive_stream_seed(in.seed, 200 + r));

    // 1. Birthday draws: the free-run length of each round.
    std::vector<std::uint64_t> free(rounds);
    {
      span s("stats.birthday");
      for (std::uint64_t& f : free) f = birthday.sample(gen);
      birthday_s += s.stop();
    }

    // 2. Initiator and responder multisets from the census, then the
    //    row-by-row matching of responders to initiator groups.
    std::vector<std::uint64_t> pairs(rounds * q * q, 0);
    {
      std::vector<std::uint64_t> pool(q);
      std::vector<std::uint64_t> init(q);
      std::vector<std::uint64_t> resp(q);
      std::vector<std::uint64_t> row(q);
      span s("stats.mvh");
      for (std::size_t i = 0; i < rounds; ++i) {
        pool = census;
        ppg::sample_multivariate_hypergeometric(pool.data(), q, free[i], gen,
                                                init.data());
        for (std::size_t v = 0; v < q; ++v) pool[v] -= init[v];
        ppg::sample_multivariate_hypergeometric(pool.data(), q, free[i], gen,
                                                resp.data());
        std::uint64_t* table = pairs.data() + i * q * q;
        for (std::size_t u = 0; u < q; ++u) {
          if (init[u] == 0) continue;
          ppg::sample_multivariate_hypergeometric(resp.data(), q, init[u], gen,
                                                  row.data());
          for (std::size_t v = 0; v < q; ++v) {
            resp[v] -= row[v];
            table[u * q + v] = row[v];
          }
        }
      }
      mvh_s += s.stop();
    }

    // 3. Outcome multinomials per pair type with a random outcome.
    std::vector<std::vector<double>> probs(q * q);
    for (std::size_t u = 0; u < q; ++u) {
      for (std::size_t v = 0; v < q; ++v) {
        const auto a = static_cast<ppg::agent_state>(u);
        const auto b = static_cast<ppg::agent_state>(v);
        for (std::size_t k = 0; k < kernel.num_outcomes(a, b); ++k) {
          probs[u * q + v].push_back(kernel.outcome_at(a, b, k).probability);
        }
      }
    }
    {
      std::vector<std::uint64_t> split(q * q + 1);
      span s("stats.multinomial");
      for (std::size_t i = 0; i < rounds; ++i) {
        const std::uint64_t* table = pairs.data() + i * q * q;
        for (std::size_t t = 0; t < q * q; ++t) {
          if (table[t] == 0 || probs[t].size() < 2) continue;
          split.resize(probs[t].size());
          ppg::sample_multinomial(table[t], probs[t].data(), probs[t].size(),
                                  gen, split.data());
        }
      }
      multinomial_s += s.stop();
    }
    replayed += rounds;
  }
  replay.stop();
  const double per_round = 1e9 / static_cast<double>(replayed);
  const double total_ns = (birthday_s + mvh_s + multinomial_s) * per_round;
  out.metric("stats.birthday_ns", birthday_s * per_round, "ns", replayed);
  out.metric("stats.mvh_ns", mvh_s * per_round, "ns", replayed);
  out.metric("stats.multinomial_ns", multinomial_s * per_round, "ns", replayed);
  out.metric("stats.round_replay_ns", total_ns, "ns", replayed);
  out.metric("stats.sampler_share",
             total_ns / out.value("pp.multibatch.ns_per_round"), "ratio");
}

// ------------------------------------------------------------------- fan-out

std::size_t fanout_workers() {
  return std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
}

void report_fanout(const samples& replica_s, double sweep_wall_s,
                   std::size_t workers, result& out) {
  out.metric("exp.replica_s_p50", replica_s.median(), "s", replica_s.count());
  out.metric("exp.replica_s_max", replica_s.max(), "s", replica_s.count());
  out.metric("exp.straggler_ratio", replica_s.max() / replica_s.median(),
             "ratio", replica_s.count());
  out.metric("exp.worker_busy_frac",
             replica_s.sum() / (static_cast<double>(workers) * sweep_wall_s),
             "ratio", replica_s.count());
}

void probe_fanout(const layer_input& in, result& out) {
  constexpr std::uint64_t budget = std::uint64_t{1} << 22;
  constexpr std::uint64_t chunk = std::uint64_t{1} << 20;
  const ppg::sim_recipe& recipe = *in.recipes.front();
  const std::size_t workers = fanout_workers();
  const ppg::batch_runner runner(
      {8, ppg::derive_stream_seed(in.seed, 300), workers});
  span sweep("exp.sweep");
  const std::uint64_t sweep_id = sweep.id();
  const auto times = runner.run([&](const ppg::replica_context&,
                                    ppg::rng& gen) {
    span replica("exp.replica", tracer::instance().next_id(), sweep_id);
    auto engine = recipe.spec().make_engine(in.kind, gen);
    for (std::uint64_t done = 0; done < budget; done += chunk) {
      span run("pp.run");
      engine->run(chunk);
    }
    return replica.stop();
  });
  const double wall = sweep.stop();
  samples replica_s;
  for (const double t : times) replica_s.add(t);
  report_fanout(replica_s, wall, workers, out);
}

// --------------------------------------------------------------------- serve

namespace {

/// Times every spill of the store it wraps: serve.spill spans nest under
/// the serve.handle span of the request that caused them.
class timed_store final : public ppg::session_store {
 public:
  explicit timed_store(std::unique_ptr<ppg::session_store> inner)
      : inner_(std::move(inner)) {}

  bool spill(const ppg::store_file& file, std::string* error) override {
    span s("serve.spill");
    const bool ok = inner_->spill(file, error);
    const double ms = s.stop() * 1e3;
    const std::lock_guard<std::mutex> lock(mu_);
    spill_ms_.add(ms);
    return ok;
  }
  ppg::store_scan scan() override { return inner_->scan(); }
  void remove(const std::string& id) override { inner_->remove(id); }
  bool quarantine(const std::string& id, const std::string& reason) override {
    return inner_->quarantine(id, reason);
  }
  [[nodiscard]] json stats() const override { return inner_->stats(); }

  [[nodiscard]] samples spill_ms() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spill_ms_;
  }

 private:
  std::unique_ptr<ppg::session_store> inner_;
  mutable std::mutex mu_;
  samples spill_ms_;  ///< guarded by mu_
};

/// Sends requests either through serve_app::handle or over a socket, and
/// keeps each session's id current across DELETE + re-create.
class mix_replayer {
 public:
  mix_replayer(const layer_input& in, std::size_t clients)
      : in_(in), clients_(clients) {
    create_body_ = json::object();
    create_body_["recipe"] = in.recipes.front()->to_json();
    create_body_["engine"] = ppg::engine_kind_name(in.kind);
  }

  /// Replays the next `steps` steps of every client's mix, round-robin,
  /// creating the sessions on the first call; `send` returns (status, body)
  /// and the latency it measured, in ms.
  template <typename Send>
  void run(std::size_t steps, Send&& send, result& out) {
    for (std::size_t c = mixes_.size(); c < clients_; ++c) {
      mixes_.emplace_back(in_.seed, c);
      ids_.push_back(create(c, send, out));
    }
    for (std::size_t step = 0; step < steps; ++step) {
      for (std::size_t c = 0; c < clients_; ++c) {
        for (const serve_op op : mixes_[c].next_step()) {
          const std::string base = "/sessions/" + ids_[c];
          if (op == serve_op::advance) {
            const auto [status, body, ms] =
                send("POST", base + "/advance",
                     "{\"interactions\": " + std::to_string(serve_chunk) + "}");
            out.check(status == 200, "replayed advance: HTTP " +
                                         std::to_string(status));
            advance_ms.add(ms);
          } else if (op == serve_op::census) {
            const auto [status, body, ms] = send("GET", base + "/census", "");
            bool ok = status == 200;
            if (ok) {
              const json doc = json::parse(body);
              ok = census_total(ppg::json_require_uint_array(
                       doc, "counts", "census")) ==
                   ppg::json_require_uint(doc, "population", "census");
            }
            out.check(ok, "replayed census sums to n");
            read_ms.add(ms);
          } else if (op == serve_op::checkpoint) {
            const auto [status, body, ms] =
                send("GET", base + "/checkpoint", "");
            out.check(status == 200, "replayed checkpoint");
            read_ms.add(ms);
          } else {
            const auto [status, body, ms] = send("DELETE", base, "");
            out.check(status == 200, "replayed delete");
            other_ms.add(ms);
            ids_[c] = create(c, send, out);
          }
        }
      }
    }
  }

  samples advance_ms;
  samples read_ms;
  samples other_ms;

 private:
  template <typename Send>
  std::string create(std::size_t client, Send&& send, result& out) {
    json body = create_body_;
    body["seed"] = ppg::derive_stream_seed(in_.seed, 400 + client + 64 * creates_++);
    const auto [status, text, ms] =
        send("POST", "/sessions", body.dump_string(false));
    other_ms.add(ms);
    out.check(status == 201, "replayed create: HTTP " + std::to_string(status));
    return status == 201
               ? ppg::json_require_string(json::parse(text), "id", "create")
               : std::string("missing");
  }

  const layer_input& in_;
  std::size_t clients_;
  json create_body_;
  std::uint64_t creates_ = 0;
  std::vector<serve_mix> mixes_;
  std::vector<std::string> ids_;  ///< each client's current session
};

struct reply {
  int status;
  std::string body;
  double ms;
};

/// The direct replay: every request through serve_app::handle.
void replay_handle(ppg::serve_app& app, mix_replayer& replayer,
                   std::size_t steps, result& out) {
  replayer.run(
      steps,
      [&](const char* method, const std::string& target,
          const std::string& body) {
        ppg::http_request request;
        request.method = method;
        request.target = target;
        request.body = body;
        span handle("serve.handle", tracer::instance().next_id());
        ppg::http_response response = app.handle(request);
        const double ms = handle.stop() * 1e3;
        return reply{response.status, std::move(response.body), ms};
      },
      out);
}

}  // namespace

void probe_serve(const layer_input& in, bool native, result& out) {
  constexpr std::size_t clients = 4;
  // serve_mixed's own replay is long enough for a p99 of handle latency.
  const std::size_t steps = native ? 256 : 48;
  const ppg::sim_recipe& recipe = *in.recipes.front();
  ppg::serve_config config;

  // The traced replay runs over the timed store. serve_mixed also replays
  // the mix untraced on a twin app, alternating blocks with the traced one,
  // so drift cancels out of trace.overhead_frac.
  const std::string dir = in.work_dir + "/replay-store";
  fresh_dir(dir);
  auto owned_store = std::make_unique<timed_store>(ppg::make_fs_store(dir));
  timed_store* store = owned_store.get();
  ppg::serve_app app(config, std::move(owned_store));
  mix_replayer replayer(in, clients);
  const std::string untraced_dir = in.work_dir + "/replay-untraced";
  fresh_dir(untraced_dir);
  ppg::serve_app untraced_app(config, ppg::make_fs_store(untraced_dir));
  mix_replayer untraced(in, clients);
  const std::size_t blocks = native ? 8 : 1;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (native) {
      tracer::instance().enable(false);
      replay_handle(untraced_app, untraced, steps / blocks, out);
      tracer::instance().enable(true);
    }
    replay_handle(app, replayer, steps / blocks, out);
  }
  untraced_app.drain();
  const samples spill_ms = store->spill_ms();
  const json stats = json::parse(app.handle({"GET", "/stats", {}, ""}).body);
  const json& cache = ppg::json_require(stats, "kernel_cache", "stats");
  const double hits =
      static_cast<double>(ppg::json_require_uint(cache, "hits", "stats"));
  const double misses =
      static_cast<double>(ppg::json_require_uint(cache, "misses", "stats"));
  app.drain();
  std::uint64_t spill_files = 0;
  std::uint64_t spill_bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      ++spill_files;
      spill_bytes += entry.file_size();
    }
  }

  // Twin engine: the same recipe's chunk, outside the daemon.
  samples engine_ms;
  samples make_ms;
  {
    span twin("serve.engine_twin");
    std::unique_ptr<ppg::sim_engine> engine;
    for (int rep = 0; rep < 5; ++rep) {
      ppg::rng gen(ppg::derive_stream_seed(in.seed, 500));
      span make("pp.make_engine");
      engine = recipe.spec().make_engine(in.kind, gen);
      make_ms.add(make.stop() * 1e3);
    }
    for (std::size_t i = 0; i < replayer.advance_ms.count(); ++i) {
      span run("pp.run");
      engine->run(serve_chunk);
      engine_ms.add(run.stop() * 1e3);
    }
  }

  // The same mix over a loopback socket, for the transport share.
  samples handle_all = replayer.advance_ms;
  handle_all.append(replayer.read_ms);
  samples socket_all;
  ppg::client_stats client_stats;
  {
    const std::string socket_dir = in.work_dir + "/replay-socket";
    fresh_dir(socket_dir);
    ppg::serve_app socket_app(config, ppg::make_fs_store(socket_dir));
    ppg::http_server server(socket_app, config);
    server.start();
    ppg::client_config client_config;
    client_config.port = server.port();
    ppg::serve_client client(client_config);
    mix_replayer socket_replayer(in, clients);
    socket_replayer.run(
        steps,
        [&](const char* method, const std::string& target,
            const std::string& body) {
          span request("serve.request", tracer::instance().next_id());
          ppg::client_response response = client.request(method, target, body);
          const double ms = request.stop() * 1e3;
          return reply{response.status, std::move(response.body), ms};
        },
        out);
    socket_all = socket_replayer.advance_ms;
    socket_all.append(socket_replayer.read_ms);
    client_stats = client.stats();
    server.stop();
    socket_app.drain();
  }

  const double advances = static_cast<double>(replayer.advance_ms.count());
  const double spills_per_advance =
      static_cast<double>(spill_ms.count()) / advances;
  out.metric("serve.handle_ms_p50.advance", replayer.advance_ms.median(), "ms",
             replayer.advance_ms.count());
  out.metric("serve.handle_ms_p99.advance", replayer.advance_ms.quantile(0.99),
             "ms", replayer.advance_ms.count());
  out.metric("serve.handle_ms_p50.read", replayer.read_ms.median(), "ms",
             replayer.read_ms.count());
  out.metric("serve.handle_ms_p99.read", replayer.read_ms.quantile(0.99), "ms",
             replayer.read_ms.count());
  out.metric("serve.transport_ms_p50", socket_all.median() - handle_all.median(),
             "ms", socket_all.count());
  out.metric("serve.spill_ms_p50", spill_ms.median(), "ms", spill_ms.count());
  out.metric("serve.spill_ms_p99", spill_ms.quantile(0.99), "ms",
             spill_ms.count());
  out.metric("serve.spills_per_advance", spills_per_advance, "ratio",
             spill_ms.count());
  out.metric("serve.spill_bytes",
             static_cast<double>(spill_bytes) /
                 static_cast<double>(std::max<std::uint64_t>(spill_files, 1)),
             "bytes", spill_files);
  out.metric("serve.engine_ms_per_advance", engine_ms.median(), "ms",
             engine_ms.count());
  out.metric("serve.handle_other_ms_p50",
             replayer.advance_ms.median() - engine_ms.median() -
                 spills_per_advance * spill_ms.median(),
             "ms", replayer.advance_ms.count());
  out.metric("serve.kernel_cache_hit_ratio", hits / (hits + misses), "ratio",
             static_cast<std::uint64_t>(hits + misses));
  out.metric("serve.client_retries", static_cast<double>(client_stats.retries),
             "count");
  out.metric("serve.client_reconnects",
             static_cast<double>(client_stats.reconnects), "count");
  if (native) {
    out.metric("pp.run_ms_p50", engine_ms.median(), "ms", engine_ms.count());
    out.metric("pp.run_ms_p90", engine_ms.quantile(0.9), "ms",
               engine_ms.count());
    out.metric("pp.ns_per_interaction",
               engine_ms.sum() * 1e6 /
                   (advances * static_cast<double>(serve_chunk)),
               "ns", engine_ms.count());
    out.metric("pp.make_engine_ms", make_ms.median(), "ms", make_ms.count());
    out.metric("trace.overhead_frac",
               replayer.advance_ms.median() / untraced.advance_ms.median() - 1.0,
               "ratio", replayer.advance_ms.count() + untraced.advance_ms.count());
  }
}

// ---------------------------------------------------------------- checkpoint

void probe_checkpoint_io(const layer_input& in, result& out) {
  constexpr int reps = 40;
  const ppg::sim_recipe& recipe = *in.recipes.front();
  ppg::rng gen(ppg::derive_stream_seed(in.seed, 600));
  auto engine = recipe.spec().make_engine(in.kind, gen);
  engine->run(std::uint64_t{1} << 20);

  samples dump_ms;
  samples parse_ms;
  std::string text;
  json checkpoint;
  for (int rep = 0; rep < reps; ++rep) {
    span dump("util.checkpoint_dump");
    checkpoint = ppg::save_checkpoint(recipe, *engine);
    text = checkpoint.dump_string(true);
    dump_ms.add(dump.stop() * 1e3);
  }
  for (int rep = 0; rep < reps; ++rep) {
    span parse("util.checkpoint_parse");
    const ppg::restored_sim restored =
        ppg::restore_checkpoint(json::parse(text));
    parse_ms.add(parse.stop() * 1e3);
    out.check(restored.engine->census().counts() == engine->census().counts(),
              "restored checkpoint reproduces the census");
  }

  const std::string dir = in.work_dir + "/atomic-write";
  fresh_dir(dir);
  const std::string bytes =
      ppg::store_envelope({"probe", 1, in.seed, checkpoint}).dump_string(true);
  samples write_ms;
  for (int rep = 0; rep < reps; ++rep) {
    std::string error;
    span write("util.atomic_write");
    const bool ok =
        ppg::atomic_write_file(dir + "/probe.session.json", bytes, &error);
    write_ms.add(write.stop() * 1e3);
    out.check(ok, "atomic write: " + error);
  }
  out.metric("util.checkpoint_dump_ms", dump_ms.median(), "ms", dump_ms.count());
  out.metric("util.checkpoint_parse_ms", parse_ms.median(), "ms",
             parse_ms.count());
  out.metric("util.checkpoint_bytes", static_cast<double>(text.size()), "bytes");
  out.metric("util.atomic_write_ms_p50", write_ms.median(), "ms",
             write_ms.count());
}

void run_probes(const layer_input& in, const std::vector<std::string>& skip,
                result& out) {
  const auto skipped = [&](const char* name) {
    return std::find(skip.begin(), skip.end(), name) != skip.end();
  };
  probe_engine_counters(in, out);
  probe_samplers(in, out);
  if (!skipped("fanout")) probe_fanout(in, out);
  if (!skipped("serve")) probe_serve(in, false, out);
  probe_checkpoint_io(in, out);
}

void finish_trace(const bench_args& args) {
  const std::string path = args.work_dir + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  tracer::instance().write_jsonl(path);
  tracer::instance().print_self_times(std::cout);
  std::cout << "span file: " << path << "\n";
}

}  // namespace perfbench
