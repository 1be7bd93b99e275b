// Shared pieces of the perfbench program: sample statistics, the result
// that every workload fills (metrics + correctness tally), the in-memory
// span tracer, and machine provenance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "ppg/pp/checkpoint.hpp"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(bench_clock::time_point start);

/// Everything a workload receives from the command line.
struct bench_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;      ///< scratch space inside the checkout
  std::string serve_binary;  ///< path of the ppg-serve daemon
  std::string source_rev;    ///< git sha or source digest, for provenance
};

/// A bag of timings (or any values) summarized by interpolated quantiles.
class samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const samples& other);
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

/// One workload run's output: named metrics with units and sample counts,
/// plus the tally of correctness checks that feeds failed_frac.
class result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t sample_count = 1);
  /// Counts one attempted operation or check; a false `ok` is a failure
  /// and `what` is printed (the first few only).
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed);
  [[nodiscard]] double value(const std::string& name) const;

  /// The human table (name, value, unit, samples) and, as the last line,
  /// the one-object JSON summary: {correct, attempted, failed, metrics}.
  void print(std::ostream& out) const;

 private:
  struct entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 1;
  };
  std::vector<entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One stretch of a run's timed phase. The machine this runs on is shared
/// and switches between two speeds, 1.6x apart, every few seconds, so
/// throughput is the 10th percentile of the segments' rates: over fourteen
/// dense_1e8 runs on a 4-vCPU Xeon its spread (IQR / median) was 0.04 to
/// 0.09, against 0.16 to 0.26 for the segments' median.
struct segment {
  double wall_s = 0.0;
  double interactions = 0.0;
  double ops = 0.0;  ///< advances + reads, or requests, completed
  samples advance_ms;
  samples setup_s;  ///< set-ups run just before the segment, if any
};

/// setup_s (the median of `setup_s` and the segments' set-ups), sim_ips and
/// req_per_s (the 10th percentile of the segments' rates), advance_ms_p50
/// (the 90th percentile of the segments' median advances) and peak_rss_mb.
void report_end_to_end(const std::vector<segment>& segments,
                       const samples& setup_s, double peak_rss_mb,
                       result& out);

/// The latencies that did not repeat closely enough to be end-to-end
/// metrics, as per-layer ones: advance_ms_p99, read_ms_p50, read_ms_p99.
void report_latency_layers(const std::vector<segment>& segments,
                           const samples& read_ms, result& out);

/// In-memory span recorder. Spans carry a name, start and end, the span
/// that caused them, and a group id shared by every span of one request or
/// replica. Recording is off unless enabled; timing always happens.
struct span_record {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t group = 0;   ///< request / replica id; 0 = none
};

class tracer {
 public:
  static tracer& instance();

  void enable(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1); }
  [[nodiscard]] std::int64_t now_ns() const;
  void record(const span_record& span);

  [[nodiscard]] std::vector<span_record> spans() const;
  void write_jsonl(const std::string& path) const;
  /// Per span name: count, total and self time (duration minus the union
  /// of its children's intervals), and the median self time.
  void print_self_times(std::ostream& out) const;

 private:
  tracer() : epoch_(bench_clock::now()) {}
  bench_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<span_record> spans_;  ///< guarded by mu_
};

/// Times one call into a layer. With tracing enabled it also records a
/// span whose parent is the innermost open span on this thread (or the
/// explicit `parent`), and whose group is inherited unless given.
class span {
 public:
  explicit span(const char* name, std::uint64_t group = 0,
                std::uint64_t parent = 0);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  /// Ends the span and returns its duration in seconds.
  double stop();
  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  span_record record_;
  bench_clock::time_point start_;
  bool traced_ = false;
  bool open_ = true;
};

/// nproc, CPU model, caches, compiler, build type, source revision, seed.
[[nodiscard]] ppg::json provenance(const bench_args& args);

/// A recipe document for `initial_counts` under a registry protocol.
[[nodiscard]] ppg::json recipe_json(const char* protocol_name,
                                    ppg::json params,
                                    const std::vector<std::uint64_t>& counts);

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), MiB.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

/// Sum of a census vector.
[[nodiscard]] std::uint64_t census_total(const std::vector<std::uint64_t>& c);

}  // namespace perfbench
