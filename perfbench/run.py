#!/usr/bin/env python3
"""Build and run one workload of the ppg benchmark.

    python3 perfbench/run.py --workload dense_1e8|igt_sweep|serve_mixed \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the ppg library, the ppg-serve
daemon and the perfbench program (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, checks perfbench's sources against APIs
that open ROADMAP items remove, and runs the workload. The last line of
standard output is the JSON result {correct, attempted, failed, metrics}.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_1e8", "igt_sweep", "serve_mixed")

# perfbench must keep compiling when intra-round sharding, the ensemble
# engine and the per-engine counter accessors are deleted (ROADMAP items 1
# and 5), so it may not name them.
FORBIDDEN = [
    (r"\bset_shards\b", "set_shards"),
    (r"\bensemble_engine\b", "ensemble_engine"),
    (r"ensemble_runner", "exp/ensemble_runner.hpp"),
    (r"\bmultibatch_executor\b", "multibatch_executor"),
    (r"multibatch_round", "multibatch_round.hpp"),
    (r"\brun_sharded\b", "thread_pool::run_sharded"),
    (r"(\.|->)\s*(rounds|collisions|batches)\s*\(\s*\)",
     "the multibatch/batched counter accessors"),
    (r"#include\s*\"ppg/pp/(multibatch|batched)_engine\.hpp\"",
     "an engine-specific header (use sim_spec::make_engine)"),
]


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def durability_check():
    """Greps perfbench's C++ sources and build file for removed APIs."""
    sources = [os.path.join(HERE, "CMakeLists.txt")]
    src = os.path.join(HERE, "src")
    sources += [os.path.join(src, f) for f in sorted(os.listdir(src))
                if f.endswith((".cpp", ".hpp"))]
    problems = []
    for path in sources:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                for pattern, what in FORBIDDEN:
                    if re.search(pattern, line):
                        problems.append("%s:%d uses %s" % (
                            os.path.relpath(path, ROOT), number, what))
    if problems:
        fail("durability self-check failed:\n  " + "\n  ".join(problems))


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures once and builds incrementally; output only on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    start = time.monotonic()
    for command in steps:
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("build failed: " + " ".join(command))
    print("build: ok in %.1f s (%s)" % (time.monotonic() - start, build_dir))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "ppg"))):
        fail("no ppg source tree next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src", "ppg"), 2)
    durability_check()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench-release")
    build(build_dir)

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(build_root, "work"),
        "--serve-binary", os.path.join(build_dir, "serve", "ppg-serve"),
        "--source-rev", source_rev(),
    ]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the daemon it spawned. The
    # margin covers set-up, checks and the traced run's probes.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    timer = threading.Timer(args.seconds + 140, os.killpg,
                            (child.pid, signal.SIGKILL))
    timer.start()
    last = ""
    for line in child.stdout:
        sys.stdout.write(line)
        last = line
    code = child.wait()
    timer.cancel()
    if code != 0:
        fail("%s exited with %d" % (args.workload, code))
    check_metrics(json.loads(last), args.trace == "1")


def check_metrics(result, traced):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in bench["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted)),
                 sorted(k for k in set(got) & set(wanted)
                        if got[k] != wanted[k])))


if __name__ == "__main__":
    main()
