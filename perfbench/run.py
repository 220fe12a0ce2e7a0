#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/main.exe from source with dune (release profile, into
.bench_build/), then runs it several times in a row (PROCESSES, or
TRACE_PROCESSES with --trace 1), each measuring for an equal share of S
seconds on the same inputs. The speed of one process varies with where the
machine places it (on a shared host, set-up time differs by up to 2x and
CPU per value by 20% between back-to-back processes), so a run reports each
metric as the mean of the processes' figures, each of which is a median over
that process's repetitions. The host's speed also drifts over minutes, so
timings of single-domain work are scaled to a nominal host speed, measured
with a fixed reference job around every repetition (perfbench/reference.mli).
Deliveries attempted and failed are summed; the run is correct only if every
process is.

Everything the run writes goes under the checkout: the build in
.bench_build/, the Chrome trace of a traced run and the GC event ring in
.bench_out/. Each process's readable report goes to standard output, and the
last line of standard output is the run's JSON result; build output goes to
standard error. The exit code is not 0, and no result is printed, when the
checkout lacks the program's sources, the build fails, or a process fails or
the run overruns.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGET = "./perfbench/main.exe"
PROCESSES = 5
TRACE_PROCESSES = 2  # per-layer metrics have no bound to hold
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


_running = []


def _kill(child):
    """Kill [child] and everything it started (its own process group)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def _stop(signum, _frame):
    """Stop the running child, and wait for it, if this script is stopped."""
    for child in _running:
        _kill(child)
    sys.exit(128 + signum)


def run_child(cmd, timeout=None, **kwargs):
    """Run [cmd] to completion; return (exit code, its standard output)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                             start_new_session=True, **kwargs)
    _running.append(child)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(child)
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout:.0f} s")
    _running.remove(child)
    return child.returncode, out.decode(errors="replace")


def combine(results):
    """One result from the processes' results: metric means, summed counts."""
    first = results[0]["metrics"]
    metrics = {}
    for name, m in first.items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": sum(values) / len(values), "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full checkout", 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 2)

    env = dict(os.environ)
    # Keep dune's cache and configuration lookups inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, BUILD_DIR, "xdg-cache")
    env["XDG_CONFIG_HOME"] = os.path.join(root, BUILD_DIR, "xdg-config")
    code, log = run_child(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        cwd=root, env=env, stderr=subprocess.STDOUT)
    sys.stderr.write(log)
    if code != 0:
        fail(f"build failed (exit {code})")

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.join(root, OUT_DIR)
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "main.exe")
    processes = TRACE_PROCESSES if args.trace else PROCESSES
    seconds = max(1, round(args.seconds / processes))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reports, results = [], []
    for _ in range(processes):
        code, out = run_child(cmd, timeout=max(1, deadline - time.monotonic()),
                              cwd=root, env=env)
        if code != 0:
            sys.stderr.write(out)
            fail(f"run failed (exit {code})")
        lines = out.rstrip("\n").split("\n")
        reports.append("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))
    if any(set(r["metrics"]) != set(results[0]["metrics"]) for r in results):
        fail("processes reported different metrics")
    print("\n".join(reports))
    print(json.dumps(combine(results)))


if __name__ == "__main__":
    main()
