"""Inputs, sweeps and report checks of the sweep benchmark's workloads.

Every workload builds its inputs through the public API only (families,
``diagram``, ``count_below``, ``parse_pattern``) and runs one serial
``verify_*`` sweep.  ``build`` is the set-up phase whose duration the
benchmark reports as ``setup_s``; the returned thunk is the timed sweep.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PATTERN_FILE = ROOT / "patterns" / "multiplicity-witness.txt"
EXPECTED_FILE = BENCH_DIR / "expected.json"

NAMES = ("zero_one_4grid", "dense_5grid", "schubert_7", "support_4grid_ckpt")
SEEDED = frozenset({"dense_5grid"})
DEFAULT_SEED = 1

# The full 4-grid sweep takes over a minute, longer than one benchmark run
# may last.  Every 16th of its 3,876 column multisets, each in all of its
# column orders, keeps the grid's mix of character sizes and its ratio of
# diagrams to distinct multisets (~17) at about a sixteenth of the time.
ORBIT_STRIDE = 16

# dense_5grid draws 5x5 diagrams with 6-10 boxes and keeps DENSE_QUOTA of
# them in each count_below band.  The bands reach up to where the Bareiss
# rank takes about half of the sweep.  A character's cost grows like
# count_below**1.3, so fixed quotas per band keep the drawn work close to
# the same on every seed.  What remains varies by several percent between
# samples, so each sweep of a run draws its own sample (its ``part``) and
# the run reports the median.
DENSE_BOXES = (6, 10)
DENSE_BANDS = ((1400, 2000), (2000, 2800), (2800, 4000), (4000, 5600), (5600, 8000))
DENSE_QUOTA = 6
SMOKE_DENSE_QUOTA = 2


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def orbit_sample_4grid():
    """Every column order of every ORBIT_STRIDE-th column multiset of the 4-grid."""
    from weylchar.diagrams import diagram

    columns = [tuple(i for i in range(1, 5) if mask >> (i - 1) & 1) for mask in range(16)]
    multisets = list(itertools.combinations_with_replacement(range(16), 4))
    orders = {p for m in multisets[::ORBIT_STRIDE] for p in itertools.permutations(m)}
    # ascending box bitmask, the order all_diagrams(4) visits them in
    ordered = sorted(orders, key=lambda p: sum(c << 4 * j for j, c in enumerate(p)))
    return [diagram([columns[c] for c in p], 4) for p in ordered]


def dense_sample_5grid(seed: int, part: int, quota: int):
    """Seeded 5x5 diagrams, ``quota`` per count_below band, no two sharing a column multiset."""
    from weylchar.diagrams import count_below, diagram

    rng = random.Random(f"{seed}/{part}")
    cells = [(i, j) for j in range(1, 6) for i in range(1, 6)]
    left = [quota] * len(DENSE_BANDS)
    seen = set()
    out = []
    while any(left):
        boxes = rng.sample(cells, rng.randint(*DENSE_BOXES))
        cols = [tuple(sorted(i for i, j in boxes if j == c)) for c in range(1, 6)]
        multiset = tuple(sorted(c for c in cols if c))
        if multiset in seen:
            continue
        d = diagram(cols, 5)
        size = count_below(d)
        band = next((b for b, (lo, hi) in enumerate(DENSE_BANDS) if lo <= size < hi), None)
        if band is None or not left[band]:
            continue
        left[band] -= 1
        seen.add(multiset)
        out.append(d)
    return out


def build(name: str, seed: int, part: int, smoke: bool):
    """Set up one workload: returns (sweep thunk, description of the inputs).

    ``part`` numbers the sweeps of one run; only seeded workloads use it.
    """
    from weylchar.diagrams import parse_pattern
    from weylchar.verify import (
        all_diagrams,
        explicit_list,
        verify_lower_bound,
        verify_schubert_identities,
        verify_zero_one_characterization,
    )

    info = {"seed_used": name in SEEDED}
    if name == "zero_one_4grid":
        patterns = [parse_pattern(PATTERN_FILE.read_text())]
        family = all_diagrams(3) if smoke else explicit_list(orbit_sample_4grid())
        return (lambda: verify_zero_one_characterization(family, patterns)), info
    if name == "dense_5grid":
        diagrams = dense_sample_5grid(seed, part, SMOKE_DENSE_QUOTA if smoke else DENSE_QUOTA)
        info["inputs_sha256"] = _digest([d.columns for d in diagrams])
        family = explicit_list(diagrams)
        return (lambda: verify_lower_bound(family)), info
    if name == "schubert_7":
        n = 4 if smoke else 7
        return (lambda: verify_schubert_identities(n, full_character_max_n=n)), info
    if name == "support_4grid_ckpt":
        family = all_diagrams(3 if smoke else 4)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"checkpoint-{os.getpid()}.json"
        if path.exists():
            path.unlink()  # a stale file would be resumed instead of swept
        info["checkpoint_path"] = str(path)
        return (lambda: verify_lower_bound(family, support_only=True, checkpoint_path=str(path))), info
    raise ValueError(f"unknown workload {name!r}")


def summarize(report, info) -> dict:
    """The parts of a report that must repeat exactly, findings reduced to a digest."""
    obj = report.to_json_obj()
    summary = {
        "checked": obj["checked"],
        "violations": len(obj["violations"]),
        "candidates": len(obj["candidates"]),
        "truncated": obj["truncated"],
        "findings_sha256": _digest([obj["violations"], obj["candidates"]]),
    }
    if "checkpoint_path" in info:
        summary["checkpoint_left"] = os.path.exists(info["checkpoint_path"])
    return summary


def expected_for(name: str, seed: int, part: int, smoke: bool) -> dict:
    """Committed expectations that apply to this seed and part.

    Every entry has a ``report`` summary.  A seeded workload checks its
    seed-dependent values, the inputs digest and the traced checksums,
    only on part 0 of DEFAULT_SEED.
    """
    entry = json.loads(EXPECTED_FILE.read_text())["smoke" if smoke else "full"][name]
    if name in SEEDED and (seed, part) != (DEFAULT_SEED, 0):
        entry = {"report": entry["report"]}
    return entry


def check(expected: dict, summary: dict, info: dict, counters: dict | None = None) -> list:
    """Differences between a run and its expectations, one line each."""
    problems = []
    if summary != expected["report"]:
        problems.append(f"report {summary} differs from expected {expected['report']}")
    want = expected.get("inputs_sha256")
    if want is not None and info.get("inputs_sha256") != want:
        problems.append(f"inputs digest {info.get('inputs_sha256')} differs from expected {want}")
    if counters is not None:
        for key, want in expected.get("trace", {}).items():
            if counters[key] != want:
                problems.append(f"{key} {counters[key]} differs from expected {want}")
    return problems
