#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double seconds_since(bench_clock::time_point start) {
  return std::chrono::duration<double>(bench_clock::now() - start).count();
}

// ---------------------------------------------------------------- samples

void samples::append(const samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double samples::quantile(double p) const {
  if (values_.empty()) return std::nan("");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double samples::max() const {
  if (values_.empty()) return std::nan("");
  return *std::max_element(values_.begin(), values_.end());
}

double samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

// ----------------------------------------------------------------- result

void result::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t sample_count) {
  for (entry& e : metrics_) {
    if (e.name == name) {
      e = {name, value, unit, sample_count};
      return;
    }
  }
  metrics_.push_back({name, value, unit, sample_count});
}

void result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::cout << "CHECK FAILED: " << what << "\n";
}

void result::tally(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double result::value(const std::string& name) const {
  for (const entry& e : metrics_) {
    if (e.name == name) return e.value;
  }
  return std::nan("");
}

namespace {

std::string full_digits(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void result::print(std::ostream& out) const {
  bool finite = true;
  out << std::left << std::setw(36) << "metric" << std::setw(18) << "value"
      << std::setw(8) << "unit" << "samples\n";
  for (const entry& e : metrics_) {
    finite = finite && std::isfinite(e.value);
    std::ostringstream value;
    value << std::setprecision(6) << e.value;
    out << std::left << std::setw(36) << e.name << std::setw(18) << value.str()
        << std::setw(8) << e.unit << e.samples << "\n";
  }
  const double failed_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  out << std::left << std::setw(36) << "failed_frac" << std::setw(18)
      << failed_frac << std::setw(8) << "1" << attempted_ << "\n";
  if (!finite) out << "CHECK FAILED: a metric is not a finite number\n";

  const bool correct = finite && failed_ == 0 && attempted_ > 0;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const entry& e = metrics_[i];
    out << (i == 0 ? "" : ", ") << '"' << e.name << "\": {\"value\": "
        << (std::isfinite(e.value) ? full_digits(e.value) : "null")
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}" << std::endl;
}

// --------------------------------------------------------------- segments

void report_end_to_end(const std::vector<segment>& segments,
                       const samples& setup_s, double peak_rss_mb,
                       result& out) {
  samples sim_ips;
  samples req_per_s;
  samples advance_ms;  ///< each segment's median advance
  std::size_t advances = 0;
  samples setups = setup_s;
  for (const segment& s : segments) {
    if (s.wall_s <= 0.0) continue;
    sim_ips.add(s.interactions / s.wall_s);
    req_per_s.add(s.ops / s.wall_s);
    if (s.advance_ms.count() > 0) advance_ms.add(s.advance_ms.median());
    advances += s.advance_ms.count();
    setups.append(s.setup_s);
  }
  out.metric("setup_s", setups.median(), "s", setups.count());
  // A median of segments drawn from both host speeds jumps between them as
  // the mix changes from run to run; the slowest tenth stays put.
  out.metric("sim_ips", sim_ips.quantile(0.1), "1/s", sim_ips.count());
  out.metric("req_per_s", req_per_s.quantile(0.1), "1/s", req_per_s.count());
  out.metric("advance_ms_p50", advance_ms.quantile(0.9), "ms", advances);
  out.metric("peak_rss_mb", peak_rss_mb, "MB");
}

void report_latency_layers(const std::vector<segment>& segments,
                           const samples& read_ms, result& out) {
  samples advance_ms;
  for (const segment& s : segments) advance_ms.append(s.advance_ms);
  out.metric("advance_ms_p99", advance_ms.quantile(0.99), "ms",
             advance_ms.count());
  out.metric("read_ms_p50", read_ms.median(), "ms", read_ms.count());
  out.metric("read_ms_p99", read_ms.quantile(0.99), "ms", read_ms.count());
}

// ----------------------------------------------------------------- tracer

namespace {

struct open_span {
  std::uint64_t id;
  std::uint64_t group;
};
thread_local std::vector<open_span> open_spans;

}  // namespace

tracer& tracer::instance() {
  static tracer t;
  return t;
}

std::int64_t tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             bench_clock::now() - epoch_)
      .count();
}

void tracer::record(const span_record& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<span_record> tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const span_record& s : spans()) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"group\": " << s.group
        << "}\n";
  }
}

void tracer::print_self_times(std::ostream& out) const {
  const std::vector<span_record> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const span_record*>> children;
  for (const span_record& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  struct row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    samples self_us;
  };
  std::map<std::string, row> rows;
  for (const span_record& s : all) {
    // Union of the children's intervals clipped to the parent: children of
    // a fan-out overlap, children of a sequential caller do not.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    const auto found = children.find(s.id);
    if (found != children.end()) {
      for (const span_record* c : found->second) {
        covered.emplace_back(std::max(c->start_ns, s.start_ns),
                             std::min(c->end_ns, s.end_ns));
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t busy = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        busy += hi - from;
        reach = hi;
      }
    }
    const double self_ns = static_cast<double>(s.end_ns - s.start_ns - busy);
    row& r = rows[s.name];
    ++r.count;
    r.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    r.self_ms += self_ns / 1e6;
    r.self_us.add(self_ns / 1e3);
  }
  out << "per-layer self times (" << all.size() << " spans)\n"
      << std::left << std::setw(30) << "span" << std::setw(10) << "count"
      << std::setw(14) << "total_ms" << std::setw(14) << "self_ms"
      << "self_us_p50\n";
  for (const auto& [name, r] : rows) {
    out << std::left << std::setw(30) << name << std::setw(10) << r.count
        << std::setw(14) << std::setprecision(6) << r.total_ms << std::setw(14)
        << r.self_ms << r.self_us.median() << "\n";
  }
}

span::span(const char* name, std::uint64_t group, std::uint64_t parent) {
  tracer& t = tracer::instance();
  traced_ = t.enabled();
  if (traced_) {
    record_.name = name;
    record_.id = t.next_id();
    const open_span* top = open_spans.empty() ? nullptr : &open_spans.back();
    record_.parent = parent != 0 ? parent : (top ? top->id : 0);
    record_.group = group != 0 ? group : (top ? top->group : 0);
    open_spans.push_back({record_.id, record_.group});
    record_.start_ns = t.now_ns();
  }
  start_ = bench_clock::now();
}

span::~span() {
  if (open_) stop();
}

double span::stop() {
  const auto end = bench_clock::now();
  if (!open_) return 0.0;
  open_ = false;
  if (traced_) {
    tracer& t = tracer::instance();
    record_.end_ns = t.now_ns();
    if (!open_spans.empty() && open_spans.back().id == record_.id) {
      open_spans.pop_back();
    }
    t.record(record_);
  }
  return std::chrono::duration<double>(end - start_).count();
}

// ------------------------------------------------------------- provenance

namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

ppg::json provenance(const bench_args& args) {
  ppg::json p = ppg::json::object();
  p["workload"] = args.workload;
  p["seed"] = args.seed;
  p["seconds"] = args.seconds;
  p["trace"] = args.trace;
  p["nproc"] = static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  std::string model = "unknown";
  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) == 0) {
        model = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  p["cpu_model"] = model;
  ppg::json caches = ppg::json::object();
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string size = first_line(base + "/size");
    if (size.empty()) break;
    caches["L" + first_line(base + "/level") + "_" + first_line(base + "/type")] =
        size;
  }
  p["caches"] = std::move(caches);
  p["compiler"] = std::string("gcc ") + __VERSION__;
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["source_rev"] = args.source_rev;
  return p;
}

ppg::json recipe_json(const char* protocol_name, ppg::json params,
                      const std::vector<std::uint64_t>& counts) {
  ppg::json proto = ppg::json::object();
  proto["name"] = protocol_name;
  proto["params"] = std::move(params);
  ppg::json doc = ppg::json::object();
  doc["protocol"] = std::move(proto);
  doc["initial_counts"] = ppg::json_uint_array(counts);
  doc["sampling"] = "distinct";
  return doc;
}

double peak_rss_mb(const std::string& pid) {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launcher's peak when that was larger.
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return std::nan("");
}

std::uint64_t census_total(const std::vector<std::uint64_t>& c) {
  return std::accumulate(c.begin(), c.end(), std::uint64_t{0});
}

}  // namespace perfbench
