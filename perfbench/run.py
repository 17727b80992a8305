#!/usr/bin/env python3
"""Run one benchmark workload from a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe (untraced
runs) and bench_trace.exe (traced runs) with dune
(the first build of a checkout compiles the whole tree), prints the
run's provenance, relays the benchmark's detail lines, and prints as
the last line the JSON result: correct, attempted, failed and the
metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer
with --trace 1). Exits nonzero, without a result line, when the build
or the run fails or its result is malformed; exits 1 after printing
the result when a correctness check failed.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

EXES = [os.path.join("_build", "default", "perfbench", e) for e in ("bench.exe", "bench_trace.exe")]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


# The running build or benchmark, stopped if this script is.
child = None


def stop_child():
    # Not Popen.wait: this also runs in a signal handler that may have
    # interrupted a Popen.wait, whose lock is not reentrant.
    if child is not None and child.returncode is None:
        try:
            child.kill()
            os.waitpid(child.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def fail(msg):
    stop_child()
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def on_signal(signum, _frame):
    fail("stopped by signal %d" % signum)


def output_of(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the OCaml sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    global child
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % a.workload)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}

    try:
        child = subprocess.Popen(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./perfbench/bench_trace.exe"],
            stdout=sys.stderr, stderr=sys.stderr)
        built = child.wait(timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if built != 0 or not all(os.path.exists(e) for e in EXES):
        fail("build failed")

    # Only this checkout's own repository counts, not one enclosing it.
    top = output_of(["git", "rev-parse", "--show-toplevel"])
    in_git = top is not None and os.path.realpath(top) == os.path.realpath(".")
    provenance = {
        "git_rev": (in_git and output_of(["git", "rev-parse", "HEAD"])) or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", "(unset)"),
        "ocaml": output_of(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
    }
    print("provenance " + json.dumps(provenance), flush=True)

    cmd = [EXES[a.trace], "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    proc = child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    signal.signal(signal.SIGALRM, lambda *_: fail("timed out"))
    signal.alarm(RUN_TIMEOUT_S)
    lines = [line.rstrip("\n") for line in proc.stdout]
    proc.wait()
    signal.alarm(0)
    if not lines:
        fail("no output (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("last line is not a result (exit %d)" % proc.returncode)
    if proc.returncode not in (0, 1):
        fail("benchmark exited %d" % proc.returncode)
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        fail("metrics %s differ from BENCHMARK.json's %s" % (sorted(metrics), sorted(wanted)))
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v) or m.get("unit") != wanted[name]:
            fail("malformed metric %s: %r" % (name, m))
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    print(json.dumps(out), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
