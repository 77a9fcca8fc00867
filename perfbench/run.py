#!/usr/bin/env python3
"""Wall-clock benchmark of the liferaft library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload drain-io --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the `lrbench` program from source into .bench_build/
(Release), generates the workload's inputs for the seed into .bench_data/
(untimed; reused while the lrbench binary is unchanged), then measures. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Earlier lines give the input fingerprint and the machine context.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(ROOT, ".bench_data")
WORKLOADS = ("drain-io", "drain-join", "serve-mixed")
# Every run must end within this many seconds once the build is done.
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds lrbench; returns its path or None."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(BUILD_DIR, "lrbench")
    return binary if os.path.exists(binary) else None


def inputs_dir(binary, workload, seed, seconds, tiny, deadline):
    """Generates the inputs for (workload, seed) unless already present for
    this build of lrbench; keeps one input set per workload."""
    key = "%s-%d-%g%s" % (workload, seed, seconds, "-tiny" if tiny else "")
    path = os.path.join(DATA_DIR, key)
    st = os.stat(binary)
    stamp = "%d %d" % (st.st_mtime_ns, st.st_size)
    stamp_path = os.path.join(path, "stamp")
    if os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return path
    os.makedirs(DATA_DIR, exist_ok=True)
    for name in os.listdir(DATA_DIR):
        if name.startswith(workload + "-"):
            shutil.rmtree(os.path.join(DATA_DIR, name), ignore_errors=True)
    os.makedirs(path)
    cmd = [binary, "gen", "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--dir", path]
    if tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=sys.stderr,
                          timeout=max(1, deadline - time.monotonic()))
    if proc.returncode != 0:
        shutil.rmtree(path, ignore_errors=True)
        return None
    log("inputs generated in %.1f s" % (time.monotonic() - t0))
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return path


def run_workload(binary, workload, seed, seconds, trace, tiny=False,
                 flags=(), deadline=None):
    """Runs one measurement; returns (result dict or None, stdout lines).
    `flags` are extra lrbench flags (the self-test's perturbations)."""
    if deadline is None:
        deadline = time.monotonic() + RUN_DEADLINE_S
    data = inputs_dir(binary, workload, seed, seconds, tiny, deadline)
    if data is None:
        return None, []
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", "1" if trace else "0",
           "--dir", data]
    if tiny:
        cmd.append("--tiny")
    cmd.extend(flags)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, lines
    return result, lines[:-1]


def self_test(binary):
    """Tiny runs of every workload: they must pass, the traced run must
    agree with the untraced one, and a perturbed reference count must show
    up as failed queries. Also reports whether the real-mode engine clock
    runs ahead of the wall clock when arrivals are spread out."""
    ok = True
    for workload in WORKLOADS:
        for trace, flags in ((False, ()), (True, ()),
                             (False, ("--perturb-reference",))):
            result, _ = run_workload(binary, workload, 1, 1, trace, tiny=True,
                                     flags=flags)
            if result is None:
                passed = False
                detail = "no result"
            elif flags:
                passed = result["failed"] > 0 and not result["correct"]
                detail = "failed=%d of %d" % (result["failed"],
                                              result["attempted"])
            else:
                passed = result["failed"] == 0 and result["correct"]
                detail = "failed=%d of %d, %d metrics" % (
                    result["failed"], result["attempted"],
                    len(result["metrics"]))
            ok = ok and passed
            print("%-4s %-11s trace=%d %-20s %s" % (
                "ok" if passed else "FAIL", workload, trace,
                " ".join(flags) or "-", detail))
    # Informational: SimEngine::Run in real mode jumps its clock to future
    # arrivals instead of waiting, which the makespan <= wall check flags.
    result, _ = run_workload(binary, "drain-join", 1, 1, False, tiny=True,
                             flags=("--spread-arrivals",))
    if result is None:
        ok = False
        print("FAIL spread arrivals: no result")
    else:
        print("info drain-join  trace=0 --spread-arrivals   %s" % (
            "makespan > wall: the engine clock ran ahead of the wall clock"
            if result["failed"] else "the engine waited for every arrival"))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1
    try:
        result, lines = run_workload(binary, args.workload, args.seed,
                                     args.seconds, args.trace == 1)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_DEADLINE_S)
        return 1
    for line in lines:
        print(line)
    if result is None:
        log("run failed")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
