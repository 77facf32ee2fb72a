"""Compare the pure-Python kernels against the compiled extension.

The script re-runs itself in subprocesses, once with WEYLCHAR_PURE=1 and
once without, so each backend is measured in a fresh interpreter with
cold caches.  Repeats take the best time per workload.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--json]
"""
import argparse
import json
import os
import random
import subprocess
import sys
import time


def character_sweep_3grid():
    from weylchar.verify import all_diagrams, verify_lower_bound

    report = verify_lower_bound(all_diagrams(3))
    assert report.ok


def dense_character():
    from weylchar.diagrams import diagram
    from weylchar.weyl import dual_character

    chi = dual_character(diagram([(3, 4)] * 4))
    assert not chi.is_zero()


def support_counts_4grid():
    # calls the kernel on every diagram: a sweep would count each column multiset once
    from weylchar.diagrams import rank
    from weylchar.verify import all_diagrams
    from weylchar.weyl import character_support

    for _, d in all_diagrams(4, max_boxes=6).instances():
        assert len(character_support(d)) > rank(d)


def exact_integer_rank():
    from weylchar._kernels import bareiss_rank

    rng = random.Random(11)
    rows = [[rng.randrange(-9, 10) ** 3 for _ in range(12)] for _ in range(12)]
    for _ in range(50):
        bareiss_rank(rows)


def column_determinants():
    from weylchar._kernels import column_det

    for _ in range(200):
        column_det((2, 4, 6, 8), (1, 3, 5, 7))
        column_det((1, 3, 5, 7), (1, 2, 3, 4))


WORKLOADS = [
    ("character sweep, full 3-grid", character_sweep_3grid),
    ("dense character, 4 columns of {3,4}", dense_character),
    ("support counts, 4-grid <= 6 boxes", support_counts_4grid),
    ("exact rank, 12x12 big integers x50", exact_integer_rank),
    ("column determinants x400", column_determinants),
]


def measure_once():
    from weylchar._kernels import BACKEND

    timings = {}
    for name, fn in WORKLOADS:
        start = time.perf_counter()
        fn()
        timings[name] = time.perf_counter() - start
    return {"backend": BACKEND, "timings": timings}


def run_mode(pure: bool, repeat: int):
    env = dict(os.environ)
    if pure:
        env["WEYLCHAR_PURE"] = "1"
    else:
        env.pop("WEYLCHAR_PURE", None)
    best = {}
    backend = None
    for _ in range(repeat):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--measure"],
            env=env, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout)
        backend = result["backend"]
        for name, seconds in result["timings"].items():
            best[name] = min(best.get(name, seconds), seconds)
    return backend, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per backend, best time wins (default 3)")
    parser.add_argument("--json", action="store_true",
                        help="emit the comparison as JSON")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.measure:
        print(json.dumps(measure_once()))
        return 0

    pure_backend, pure = run_mode(pure=True, repeat=args.repeat)
    comp_backend, comp = run_mode(pure=False, repeat=args.repeat)
    if pure_backend != "pure":
        raise RuntimeError("WEYLCHAR_PURE=1 did not select the pure backend")

    if args.json:
        print(json.dumps({
            "pure": pure,
            comp_backend: comp,
            "extension_built": comp_backend == "compiled",
        }, indent=2))
        return 0

    if comp_backend != "compiled":
        print("note: compiled extension not built; comparing pure against pure")
    width = max(len(name) for name, _ in WORKLOADS)
    print(f"{'workload'.ljust(width)}  {'pure':>9}  {comp_backend:>9}  speedup")
    for name, _ in WORKLOADS:
        ratio = pure[name] / comp[name] if comp[name] else float("inf")
        print(
            f"{name.ljust(width)}  {pure[name]:>8.3f}s  {comp[name]:>8.3f}s  "
            f"{ratio:>6.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
