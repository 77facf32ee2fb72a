"""Sweep benchmark of weylchar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Each sweep runs serially in a fresh
interpreter (``sweep.py``), because users pay a cold start on every CLI
sweep and the character caches are global to the process.  The loop is
closed: the next sweep starts when the previous one has ended.

``--trace 0`` first times SETUP_RUNS set-ups alone, then repeats sweeps
until the next one would end after ``--seconds``, and reports medians of
the end-to-end metrics.  ``--trace 1`` runs one plain sweep and one
traced sweep and reports the per-layer metrics; the difference of their
sweep times is the tracing overhead.  Every sweep's report is checked
against ``expected.json`` (the ``summary``, ``inputs`` and ``layers``
that ``sweep.py --mode trace`` prints, at the default seed); a sweep that
differs or raises counts as failed.  ``--smoke`` swaps in tiny inputs for
testing the benchmark.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy of the
result, with the environment and every sample, goes to
``perfbench/out``.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

SETUP_RUNS = 7
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"sweep_s": "s", "instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = monotonic() + RUN_LIMIT_S
        src = str(workloads.ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0")

    def spawn(self, mode, part=0):
        """Run one child; return (its JSON result or None if it failed, wall seconds)."""
        a = self.args
        started = monotonic()
        cmd = [sys.executable, str(workloads.BENCH_DIR / "sweep.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--part", str(part), "--mode", mode,
               "--spawned", repr(started)]
        if a.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=workloads.ROOT, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} of {a.workload} did not end in time", file=sys.stderr)
            return None, monotonic() - started
        wall = monotonic() - started
        if proc.returncode != 0:
            print(f"perfbench: {mode} of {a.workload} failed:\n{proc.stderr[-4000:]}",
                  file=sys.stderr)
            return None, wall
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for problem in result.get("problems", ()):
            print(f"perfbench: {a.workload} mismatch: {problem}", file=sys.stderr)
        return result, wall


def measure(runner, seconds):
    """Set-ups, then sweeps until the next would overrun ``seconds``."""
    start = monotonic()
    setups = []
    for _ in range(SETUP_RUNS):
        result, _ = runner.spawn("setup")
        if result is None:
            sys.exit("perfbench: the workload could not be set up")
        setups.append(result)
    sweeps, attempted, failed = [], 0, 0
    while True:
        result, wall = runner.spawn("sweep", part=attempted)
        attempted += 1
        if result is None or result["problems"]:
            failed += 1
        if result is None:
            break
        sweeps.append(result)
        if monotonic() - start + wall > seconds:
            break
    if not sweeps:
        sys.exit("perfbench: no sweep completed")
    metrics = {
        "sweep_s": statistics.median(s["sweep_s"] for s in sweeps),
        "instances_per_s": statistics.median(s["checked"] / s["sweep_s"] for s in sweeps),
        "setup_s": statistics.median(s["setup_s"] for s in setups + sweeps),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sweeps),
    }
    samples = {"setups": setups, "sweeps": sweeps}
    return metrics, END_TO_END_UNITS, attempted, failed, samples


def trace(runner):
    """One plain sweep and one traced sweep; per-layer metrics of the traced one."""
    plain, _ = runner.spawn("sweep")
    traced = runner.spawn("trace")[0] if plain is not None else None
    if traced is None:
        sys.exit("perfbench: the traced run did not complete")
    failed = sum(1 for r in (plain, traced) if r["problems"])
    metrics = dict(traced["layers"])
    metrics["trace.untraced_sweep_s"] = plain["sweep_s"]
    metrics["trace.overhead_s"] = traced["sweep_s"] - plain["sweep_s"]
    units = {name: layer_unit(name) for name in metrics}
    return metrics, units, 2, failed, {"sweeps": [plain, traced]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing")
    args = parser.parse_args()
    if not (workloads.ROOT / "src" / "weylchar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no weylchar sources under {workloads.ROOT / 'src'}")

    runner = Runner(args)
    metrics, units, attempted, failed, samples = (
        trace(runner) if args.trace else measure(runner, args.seconds)
    )
    first = samples["sweeps"][0]
    env = {
        "backend": first["backend"],
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "seed_used": first["inputs"]["seed_used"],
        "smoke": args.smoke,
    }
    if "inputs_sha256" in first["inputs"]:
        env["inputs_sha256"] = first["inputs"]["inputs_sha256"]
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print(f"{'mismatch_share':48s} {failed / attempted:>16.6g} ({failed} of {attempted} sweeps)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    out = workloads.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(dict(result, env=env, samples=samples), indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
