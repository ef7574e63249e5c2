#!/usr/bin/env python3
"""Build and run the solver benchmark.

    python3 chcbench/run.py --workload corpus-la|corpus-cegar|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 chcbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark package (chcbench/CMakeLists.txt, which compiles the solver from
../src) under $CARGO_TARGET_DIR, default .bench_build; later runs reuse the
build. Per-run files (per-program or per-request rows, spans, end-to-end
numbers) go to <build dir>/runs/. The last line of standard output is the
benchmark's JSON result; build output goes to standard error. See README.md
for the workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"chcbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"{cmd[0]} failed: {err}")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[:3])} ... exited with {proc.returncode}")


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("solver sources (src/) not found next to chcbench/")
    build_dir = os.path.join(build_root, "chcbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "-j", jobs], timeout=850)
    return os.path.join(build_dir, "chcbench")


def report_overhead(stem):
    """After a traced run, prints traced minus untraced end-to-end numbers
    when an untraced run of the same workload and seed is on file."""
    traced, untraced = stem + "-trace1.e2e.json", stem + "-trace0.e2e.json"
    if not os.path.isfile(untraced):
        return
    with open(traced) as f:
        on = json.load(f)
    with open(untraced) as f:
        off = json.load(f)
    overhead = {name: {"traced": on[name]["value"],
                       "untraced": off[name]["value"],
                       "overhead": on[name]["value"] - off[name]["value"],
                       "unit": on[name]["unit"]}
                for name in on if name in off}
    with open(stem + ".overhead.json", "w") as f:
        json.dump(overhead, f, indent=1)
    for name, row in overhead.items():
        print(f"chcbench: tracing overhead {name}: {row['overhead']:+.6g} "
              f"{row['unit']} ({row['untraced']:.6g} -> {row['traced']:.6g})",
              file=sys.stderr)


def main(argv):
    opts = {}
    selftest = False
    it = iter(argv)
    for flag in it:
        if flag == "--selftest":
            selftest = True
        elif flag in ("--workload", "--seed", "--seconds", "--trace"):
            opts[flag] = next(it, None)
        else:
            fail(f"unknown argument {flag!r}")
    if not selftest and (None in opts.values() or len(opts) != 4):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if selftest:
        sys.exit(subprocess.run([binary, "--selftest"]).returncode)

    out_dir = os.path.join(build_root, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary]
    for flag, value in opts.items():
        cmd += [flag, value]
    cmd += ["--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        fail(f"benchmark exited with {proc.returncode} and no result")
    if proc.returncode == 0 and opts["--trace"] == "1":
        report_overhead(os.path.join(
            out_dir, f"{opts['--workload']}-seed{opts['--seed']}"))
    # A wrong verdict or witness prints the result with "correct": false and
    # exits non-zero.
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
