// perfbench: one benchmark program for the ppg library and daemon.
//
//   perfbench --workload dense_1e8|igt_sweep|serve_mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR --serve-binary PATH
//             [--source-rev REV]
//
// Prints provenance, a metric table and, as the last line, one JSON object
// {correct, attempted, failed, metrics}. perfbench/run.py builds and runs it.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --serve-binary PATH "
               "[--source-rev REV]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::bench_args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--serve-binary") {
      args.serve_binary = value;
    } else if (flag == "--source-rev") {
      args.source_rev = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  std::filesystem::create_directories(args.work_dir);

  std::cout << "provenance: " << perfbench::provenance(args).dump_string(false)
            << std::endl;
  perfbench::tracer::instance().enable(args.trace);
  perfbench::result out;
  try {
    if (args.workload == "dense_1e8") {
      perfbench::run_dense(args, out);
    } else if (args.workload == "igt_sweep") {
      perfbench::run_igt_sweep(args, out);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_mixed(args, out);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << args.workload << " failed: " << error.what()
              << "\n";
    return 1;
  }
  if (args.trace) perfbench::finish_trace(args);
  out.print(std::cout);
  return 0;
}
