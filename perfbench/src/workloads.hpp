// The three workloads. Each fills `out` with its end-to-end metrics (or,
// with args.trace, its per-layer metrics) and its correctness tally.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_dense(const bench_args& args, result& out);
void run_igt_sweep(const bench_args& args, result& out);
void run_serve_mixed(const bench_args& args, result& out);

}  // namespace perfbench
