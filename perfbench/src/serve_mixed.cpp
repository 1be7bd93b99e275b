// serve_mixed: a ppg-serve daemon with a durable store, driven by four
// closed-loop clients in this process, each with one connection and one
// igt session on the multibatch engine. Every client loops over a seeded
// mix of advance, census, checkpoint and DELETE + re-create requests.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

#include "ppg/serve/client.hpp"
#include "probes.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using ppg::json;

constexpr std::size_t clients = 4;
constexpr int setup_reps = 7;
constexpr std::size_t verified_pairs_per_client = 16;

/// A ppg-serve child process. The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it.
class daemon_process {
 public:
  daemon_process(const std::string& binary, const std::string& store_dir) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> argv_text{binary, "--port", "0", "--store",
                                       store_dir};
    std::vector<char*> argv;
    for (std::string& arg : argv_text) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
  }
  ~daemon_process() { stop(); }
  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;

  /// Reads the daemon's stdout until it announces its port.
  std::uint16_t wait_for_port() {
    const std::string marker = "listening on 127.0.0.1:";
    std::string text;
    const auto start = bench_clock::now();
    while (seconds_since(start) < 30.0) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buffer[512];
      const ssize_t got = ::read(out_fd_, buffer, sizeof buffer);
      if (got <= 0) break;
      text.append(buffer, static_cast<std::size_t>(got));
      const std::size_t at = text.find(marker);
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        return static_cast<std::uint16_t>(
            std::stoul(text.substr(at + marker.size())));
      }
    }
    throw std::runtime_error("ppg-serve did not report a port: " + text);
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Graceful stop; returns the exit status (or -1 if it had to be killed).
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    int code = -1;
    const auto start = bench_clock::now();
    while (true) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        break;
      }
      if (seconds_since(start) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      drain_output();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::close(out_fd_);
    return code;
  }

 private:
  void drain_output() {
    pollfd p{out_fd_, POLLIN, 0};
    char buffer[512];
    while (::poll(&p, 1, 0) > 0 && ::read(out_fd_, buffer, sizeof buffer) > 0) {
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Spawns a daemon over a fresh store and waits for its first 200 /healthz.
std::unique_ptr<daemon_process> start_daemon(const bench_args& args,
                                             const std::string& store,
                                             double& setup_s,
                                             std::uint16_t& port) {
  std::filesystem::remove_all(store);
  const auto start = bench_clock::now();
  auto daemon = std::make_unique<daemon_process>(args.serve_binary, store);
  port = daemon->wait_for_port();
  ppg::client_config config;
  config.port = port;
  ppg::serve_client client(config);
  while (client.request("GET", "/healthz").status != 200) {
    if (seconds_since(start) > 30.0) {
      throw std::runtime_error("ppg-serve never became healthy");
    }
  }
  setup_s = seconds_since(start);
  return daemon;
}

struct client_report {
  samples advance_ms;
  samples read_ms;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t bad_census = 0;
  std::vector<std::string> errors;
  /// Every timed request, for the per-window segments.
  struct completion {
    double at_s;  ///< completion time, seconds into the run
    double ms;    ///< latency
    bool advance;
  };
  std::vector<completion> completions;
  /// (census body, checkpoint body) read back to back, newest last.
  std::vector<std::pair<std::string, std::string>> pairs;
  ppg::client_stats transport;
};

/// One closed-loop client: its own connection and session; the timed phase
/// starts after two untimed warm-up steps and ends at `deadline`.
void client_loop(std::uint16_t port, std::uint64_t seed, std::size_t index,
                 bench_clock::time_point start,
                 bench_clock::time_point deadline, client_report& report) {
  ppg::client_config config;
  config.port = port;
  config.jitter_seed = seed + index;
  ppg::serve_client client(config);
  json create = json::object();
  create["recipe"] = serve_recipe();
  create["engine"] = "multibatch";
  const std::string advance_body =
      "{\"interactions\": " + std::to_string(serve_chunk) + "}";
  std::uint64_t creates = 0;
  bool timed = false;

  const auto fail = [&](const std::string& what) {
    ++report.failed;
    if (report.errors.size() < 5) report.errors.push_back(what);
  };
  // Sends one request, timing it into `latency` once the warm-up is over.
  const auto send = [&](const char* method, const std::string& target,
                        const std::string& body, int expect,
                        samples* latency) -> std::string {
    if (timed) ++report.requests;
    const auto sent = bench_clock::now();
    try {
      const ppg::client_response response =
          client.request(method, target, body,
                         /*idempotent=*/std::strcmp(method, "GET") == 0);
      const double ms = seconds_since(sent) * 1e3;
      if (timed) {
        if (latency != nullptr) latency->add(ms);
        report.completions.push_back(
            {seconds_since(start), ms, latency == &report.advance_ms});
      }
      if (response.status != expect) {
        fail(std::string(method) + " " + target + ": HTTP " +
             std::to_string(response.status));
        return {};
      }
      return response.body;
    } catch (const std::exception& error) {
      fail(std::string(method) + " " + target + ": " + error.what());
      return {};
    }
  };
  const auto new_session = [&]() -> std::string {
    create["seed"] = ppg::derive_stream_seed(seed, 400 + index + 64 * creates++);
    const std::string body =
        send("POST", "/sessions", create.dump_string(false), 201, nullptr);
    return body.empty() ? std::string()
                        : ppg::json_require_string(json::parse(body), "id",
                                                   "create");
  };

  std::string id = new_session();
  serve_mix mix(seed, index);
  std::string last_census;
  for (int step = 0; !id.empty(); ++step) {
    timed = step >= 2;
    if (timed && bench_clock::now() >= deadline) break;
    for (const serve_op op : mix.next_step()) {
      const std::string base = "/sessions/" + id;
      if (op == serve_op::advance) {
        send("POST", base + "/advance", advance_body, 200,
             &report.advance_ms);
      } else if (op == serve_op::census) {
        last_census = send("GET", base + "/census", "", 200, &report.read_ms);
        if (!last_census.empty()) {
          const json doc = json::parse(last_census);
          if (census_total(ppg::json_require_uint_array(doc, "counts",
                                                        "census")) !=
              ppg::json_require_uint(doc, "population", "census")) {
            ++report.bad_census;
          }
        }
      } else if (op == serve_op::checkpoint) {
        std::string checkpoint =
            send("GET", base + "/checkpoint", "", 200, &report.read_ms);
        if (!checkpoint.empty() && !last_census.empty()) {
          if (report.pairs.size() == verified_pairs_per_client) {
            report.pairs.erase(report.pairs.begin());
          }
          report.pairs.emplace_back(last_census, std::move(checkpoint));
        }
      } else {
        send("DELETE", base, "", 200, nullptr);
        id = new_session();
        last_census.clear();
      }
    }
  }
  report.transport = client.stats();
}

/// The checkpoint restored in-process reproduces the census served with it.
bool pair_matches(const std::pair<std::string, std::string>& pair) {
  const json census = json::parse(pair.first);
  const ppg::restored_sim restored =
      ppg::restore_checkpoint(json::parse(pair.second));
  return restored.engine->census().counts() ==
             ppg::json_require_uint_array(census, "counts", "census") &&
         restored.engine->interactions() ==
             ppg::json_require_uint(census, "interactions", "census");
}

/// What one daemon run measured.
struct daemon_run {
  samples setup_s;
  samples read_ms;
  std::vector<segment> windows;  ///< consecutive half-second windows
  double peak_rss_mb = 0.0;
};

/// Spawns the daemon (several times, for set-up), drives it with the
/// clients for `seconds`, stops it, and checks every client's results.
daemon_run drive_daemon(const bench_args& args, double seconds,
                        result& out) {
  daemon_run run;
  std::unique_ptr<daemon_process> daemon;
  std::uint16_t port = 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (daemon) daemon->stop();
    double setup = 0.0;
    daemon = start_daemon(args, args.work_dir + "/serve-store", setup, port);
    run.setup_s.add(setup);
  }

  std::vector<client_report> reports(clients);
  const auto start = bench_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<bench_clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(client_loop, port, args.seed, c, start, deadline,
                           std::ref(reports[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall = seconds_since(start);
  run.peak_rss_mb = peak_rss_mb(std::to_string(daemon->pid()));
  out.check(daemon->stop() == 0, "ppg-serve drains and exits 0");

  constexpr double window = 0.5;
  run.windows.resize(static_cast<std::size_t>(wall / window));
  for (segment& w : run.windows) w.wall_s = window;
  for (const client_report& r : reports) {
    run.read_ms.append(r.read_ms);
    for (const client_report::completion& c : r.completions) {
      const auto w = static_cast<std::size_t>(c.at_s / window);
      if (w >= run.windows.size()) continue;
      run.windows[w].ops += 1;
      if (c.advance) {
        run.windows[w].interactions += static_cast<double>(serve_chunk);
        run.windows[w].advance_ms.add(c.ms);
      }
    }
    for (const std::string& error : r.errors) {
      std::cout << "serve_mixed client error: " << error << "\n";
    }
    // Each request is one attempted operation; failures are non-2xx
    // replies and client errors.
    out.tally(r.requests, r.failed);
    out.check(r.bad_census == 0, "served censuses sum to n");
    out.check(!r.pairs.empty(), "client fetched a checkpoint");
    for (const auto& pair : r.pairs) {
      out.check(pair_matches(pair),
                "restored checkpoint reproduces the served census");
    }
  }
  return run;
}

}  // namespace

void run_serve_mixed(const bench_args& args, result& out) {
  if (args.trace) {
    // Client-observed latencies come from the daemon itself; the layers
    // below it from in-process replays.
    tracer::instance().enable(false);
    const daemon_run run = drive_daemon(args, args.seconds / 2, out);
    tracer::instance().enable(true);
    report_latency_layers(run.windows, run.read_ms, out);
    const ppg::sim_recipe recipe = ppg::sim_recipe::from_json(serve_recipe());
    layer_input in;
    in.recipes.push_back(&recipe);
    in.kind = ppg::engine_kind::multibatch;
    in.seed = args.seed;
    in.work_dir = args.work_dir;
    probe_serve(in, true, out);
    run_probes(in, {"serve"}, out);
    return;
  }

  const daemon_run run = drive_daemon(args, args.seconds, out);
  report_end_to_end(run.windows, run.setup_s, run.peak_rss_mb, out);
}

}  // namespace perfbench
