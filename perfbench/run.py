#!/usr/bin/env python3
"""End-to-end benchmark of the SWDUAL search (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the Rust benchmark package in perfbench/ (into $CARGO_TARGET_DIR,
default .bench_build), generates the workload's input files from the seed
before any timing starts, runs the measurement in a fresh process that sees
only those files, and prints its JSON result as the last line of stdout.
Everything it writes stays under the repository root: inputs, the
modelled-makespan ledger and traces go to .bench_work/. Ledger entries are
keyed by a hash of the sources the benchmark builds from, so only runs of
the same code are held to each other's modelled makespan.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_work"
LEDGER = os.path.join(WORK, "modelled-ledger.tsv")
WORKLOADS = ["cpu_bulk", "hybrid_sim", "many_queries", "crash_replan"]
# The sources whose hash identifies the measured code.
CODE = ["crates", os.path.join("perfbench", "src"),
        os.path.join("perfbench", "Cargo.toml"), os.path.join("perfbench", "Cargo.lock")]
# Seconds of each self-test run: room for a full-length run's 12 set-up
# rounds (2.4 s) and several tiny searches.
SELFTEST_SECONDS = 3
# Each run must end within 180 s; leave room for start-up and clean-up.
GEN_TIMEOUT = 60
RUN_TIMEOUT = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo(*args):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", *args, "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("`%s` failed" % " ".join(cmd))
    return os.path.join(target, "release", "swdual-perfbench")


def code_id():
    """A hash of every file under CODE (build outputs skipped)."""
    files = []
    for top in CODE:
        if os.path.isfile(top):
            files.append(top)
        for d, subdirs, names in os.walk(top):
            subdirs[:] = [s for s in subdirs if s != "target"]
            files.extend(os.path.join(d, n) for n in names)
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def call(cmd, timeout):
    """Run one step; its stderr passes through, its stdout is returned."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    if r.returncode != 0:
        raise BenchError("exit %d: %s" % (r.returncode, " ".join(cmd)))
    return r.stdout


def measure(binary, workload, seed, seconds, trace, code, scale="full", ledger=LEDGER):
    """Generate the inputs, run the measurement, return the parsed result."""
    work = os.path.join(WORK, "%s-%s-%d-%d" % (workload, scale, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--scale", scale, "--seed", str(seed), "--dir", work]
    try:
        call([binary, "gen", *common], GEN_TIMEOUT)
        out = call([binary, "run", *common, "--seconds", str(seconds), "--trace", str(trace),
                    "--ledger", ledger, "--code", code, "--trace-out",
                    os.path.join(WORK, "trace-%s-%s-%d.json" % (workload, scale, seed))],
                   RUN_TIMEOUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("no result from %s" % workload)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError("malformed result: %s" % lines[-1])
    return result


def selftest():
    """Unit tests, then a shrunken instance of every workload in both
    modes, checked against BENCHMARK.json, plus a run whose ledger holds a
    wrong modelled makespan for the same code, which must fail, and one
    whose wrong entry is another code's, which must pass."""
    cargo("test")
    binary = cargo("build")
    code = code_id()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from %s" % WORKLOADS)
    ledger = os.path.join(WORK, "selftest-ledger-%d.tsv" % os.getpid())
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                r = measure(binary, workload, 7, SELFTEST_SECONDS, trace, code, "tiny", ledger)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != want[trace]:
                    raise BenchError("%s trace %d: metrics %s, want %s"
                                     % (workload, trace, got, want[trace]))
                if not all(math.isfinite(v["value"]) for v in r["metrics"].values()):
                    raise BenchError("%s trace %d: non-finite metric" % (workload, trace))
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 2:
                    raise BenchError("%s trace %d: %s" % (workload, trace, json.dumps(r)))
                log("selftest: %s trace %d ok (%d searches)" % (workload, trace, r["attempted"]))
        with open(ledger, "a") as f:
            f.write("cpu_bulk/tiny/8/%s %016x\n" % (code, 1))
            f.write("cpu_bulk/tiny/9/%s %016x\n" % ("0" * 16, 1))
        r = measure(binary, "cpu_bulk", 8, SELFTEST_SECONDS, 0, code, "tiny", ledger)
        if r["correct"] or r["failed"] != r["attempted"]:
            raise BenchError("a wrong ledger entry went unnoticed: %s" % json.dumps(r))
        log("selftest: a modelled-makespan mismatch fails every search, as it should")
        r = measure(binary, "cpu_bulk", 9, SELFTEST_SECONDS, 0, code, "tiny", ledger)
        if not r["correct"] or r["failed"] != 0:
            raise BenchError("another code's ledger entry failed this code: %s" % json.dumps(r))
        log("selftest: another code's modelled makespan is not held against this one")
    finally:
        if os.path.exists(ledger):
            os.remove(ledger)
    log("selftest: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    try:
        if a.selftest:
            selftest()
            return 0
        if None in (a.workload, a.seed, a.seconds, a.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        binary = cargo("build")
        result = measure(binary, a.workload, a.seed, a.seconds, a.trace, code_id())
    except (BenchError, ValueError) as e:
        log("run.py: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
