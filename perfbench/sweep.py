"""One workload sweep in a fresh interpreter, started by ``run.py``.

    python3 perfbench/sweep.py --workload NAME --seed N --part K \
        --mode setup|sweep|trace --spawned T [--smoke]

``--spawned`` is the CLOCK_MONOTONIC reading taken just before this
process was started, so ``setup_s`` covers interpreter start, imports
and input generation.  ``setup`` stops once the inputs are ready;
``sweep`` also runs and checks the sweep; ``trace`` does the same under
the layer tracer and writes the trace to ``perfbench/out``.  The last
line of standard output is one JSON object.
"""
import argparse
import json
import resource
import time

import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "sweep", "trace"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    sweep, info = workloads.build(args.workload, args.seed, args.part, args.smoke)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    from weylchar._kernels import BACKEND

    result = {"setup_s": setup_s, "backend": BACKEND, "inputs": info}
    if args.mode != "setup":
        layers = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            report, sweep_s = tracer.run(sweep)
            layers = tracer.metrics()
        else:
            start = time.perf_counter()
            report = sweep()
            sweep_s = time.perf_counter() - start
        summary = workloads.summarize(report, info)
        expected = workloads.expected_for(args.workload, args.seed, args.part, args.smoke)
        problems = workloads.check(expected, summary, info, layers)
        if layers is not None:
            if abs(layers["trace.accounted_share"] - 1.0) > 1e-6:
                problems.append(f"self times account for {layers['trace.accounted_share']} of the sweep")
            suffix = "-smoke" if args.smoke else ""
            path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}{suffix}.json"
            workloads.OUT_DIR.mkdir(exist_ok=True)
            with open(path, "w") as handle:
                json.dump(dict(workload=args.workload, seed=args.seed, metrics=layers,
                               **tracer.dump()), handle)
            result["layers"] = layers
        result.update(
            sweep_s=sweep_s,
            checked=report.checked,
            summary=summary,
            problems=problems,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
