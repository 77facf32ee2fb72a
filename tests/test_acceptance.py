"""Acceptance gate: one timed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every equality here is integer-exact, and every time limit
holds for the plain-Python kernels.
"""
import itertools
import math
import random
import time
from pathlib import Path

import pytest

from weylchar.diagrams import (
    DEFAULT_CAP,
    count_132,
    count_below,
    diagram,
    diagram_leq,
    enumerate_below,
    parse_pattern,
    rank,
    rank_chain,
    rothe,
    skyline,
    weight_monomial,
)
from weylchar.polynomials import (
    Polynomial,
    divided_difference,
    invlex_less,
    principal_specialization,
)
from weylchar.schubert import key, macdonald_specialization, schubert
from weylchar.verify import (
    all_diagrams,
    verify_equality_iff_unstable,
    verify_lower_bound,
    verify_upper_bound,
    verify_zero_one_characterization,
    verify_zero_one_implication,
)
from weylchar.weyl import dual_character

from test_polynomials import swap_variables

WORKED = diagram([(1, 3), (2, 3), ()])
WITNESS_FILE = Path(__file__).resolve().parent.parent / "patterns" / "multiplicity-witness.txt"


def gate(label, limit_s, elapsed_s, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"{label}: {verdict} ({elapsed_s:.2f}s, limit {limit_s:.0f}s)")
    assert passed, f"{label}: {detail or 'check failed'}"
    assert elapsed_s < limit_s, f"{label}: took {elapsed_s:.2f}s, limit {limit_s}s"


@pytest.fixture(scope="module")
def grid3_reports():
    """The 512-diagram 3-grid sweeps, run once and shared."""
    fam = all_diagrams(3)
    return {
        "lower": verify_lower_bound(fam),
        "equality": verify_equality_iff_unstable(fam),
        "zero_one": verify_zero_one_implication(fam),
        "upper": verify_upper_bound(fam),
    }


def test_worked_example_character():
    start = time.perf_counter()
    # A cap value below the default changes the memo key, forcing a
    # fresh computation so the timing is honest even mid-session.
    chi = dual_character(WORKED, cap=DEFAULT_CAP - 1)
    elapsed = time.perf_counter() - start
    expected = Polynomial.from_terms([
        ((1, 1, 2), 1),
        ((2, 1, 1), 2),
        ((2, 0, 2), 1),
        ((1, 2, 1), 1),
        ((2, 2, 0), 1),
    ])
    passed = chi == expected and principal_specialization(chi) == 6
    gate("worked-example character", 1.0, elapsed, passed)


def test_schubert_matches_rothe_characters():
    start = time.perf_counter()
    ok4 = all(
        schubert(w) == dual_character(rothe(w))
        for w in itertools.permutations(range(1, 5))
    )
    elapsed4 = time.perf_counter() - start
    gate("schubert equals rothe character on degree 4", 30.0, elapsed4, ok4)

    start = time.perf_counter()
    ok5 = all(
        schubert(w) == dual_character(rothe(w))
        for w in itertools.permutations(range(1, 6))
    )
    elapsed5 = time.perf_counter() - start
    gate("schubert equals rothe character on degree 5", 600.0, elapsed5, ok5)


def test_key_matches_skyline_characters():
    start = time.perf_counter()
    compositions = list(itertools.product(range(4), repeat=4))
    ok = all(key(a) == dual_character(skyline(a)) for a in compositions)
    elapsed = time.perf_counter() - start
    gate(
        "key equals skyline character (256 compositions)", 300.0, elapsed,
        ok and len(compositions) == 256,
    )


def test_principal_lower_bound_sweeps(grid3_reports):
    small = grid3_reports["lower"]
    large = verify_lower_bound(all_diagrams(4, max_boxes=7), support_only=True)
    expected_large = sum(math.comb(16, k) for k in range(8))
    passed = (
        small.ok and small.checked == 512
        and large.ok and large.checked == expected_large
    )
    gate(
        "all-ones lower bound (full 3-grid, 4-grid support)", 600.0,
        small.elapsed_s + large.elapsed_s, passed,
        f"small={len(small.violations)} large={len(large.violations)} violations",
    )


def test_equality_iff_unstable_sweep(grid3_reports):
    report = grid3_reports["equality"]
    gate(
        "equality exactly at unstable-pair-free diagrams (3-grid)", 600.0,
        report.elapsed_s, report.ok and report.checked == 512,
        f"{len(report.violations)} violations",
    )


def test_zero_one_implication_sweep(grid3_reports):
    report = grid3_reports["zero_one"]
    gate(
        "equality forces zero-one coefficients (3-grid)", 600.0,
        report.elapsed_s, report.ok and report.checked == 512,
        f"{len(report.violations)} violations",
    )


def test_all_ones_beats_132_count_degree_6():
    start = time.perf_counter()
    perms = list(itertools.permutations(range(1, 7)))
    bound_ok = all(
        macdonald_specialization(w) >= 1 + count_132(w) for w in perms
    )
    rank_ok = all(count_132(w) == rank(rothe(w)) for w in perms)
    elapsed = time.perf_counter() - start
    gate(
        "all-ones value beats the 132-count bound (720 permutations)", 120.0,
        elapsed, bound_ok and rank_ok and len(perms) == 720,
    )


def test_macdonald_matches_schubert_degree_5():
    start = time.perf_counter()
    ok = all(
        macdonald_specialization(w) == principal_specialization(schubert(w))
        for w in itertools.permutations(range(1, 6))
    )
    elapsed = time.perf_counter() - start
    gate("reduced-word evaluation equals coefficient sum (degree 5)", 120.0, elapsed, ok)


def test_trivial_upper_bound_sweep(grid3_reports):
    report = grid3_reports["upper"]
    attained = principal_specialization(dual_character(WORKED))
    passed = (
        report.ok and report.checked == 512
        and attained == count_below(WORKED) == 6
    )
    gate(
        "all-ones value within the ideal size (3-grid, worked example tight)",
        600.0, report.elapsed_s, passed,
    )


def _random_polynomial(rng, nvars=4, terms=6):
    items = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(4) for _ in range(nvars))
        items[exps] = items.get(exps, 0) + rng.randrange(-3, 4)
    return Polynomial.from_terms(items.items())


def _random_diagram(rng, n=4):
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    boxes = rng.sample(cells, k=rng.randrange(7))
    cols = [
        tuple(sorted(i for i, j in boxes if j == jj)) for jj in range(1, n + 1)
    ]
    return diagram(cols, n)


def test_property_suite():
    start = time.perf_counter()
    rng = random.Random(20260817)

    for _ in range(40):
        f = _random_polynomial(rng)
        j = rng.randrange(1, 4)
        once = divided_difference(f, j)
        assert not divided_difference(once, j)
        gap = Polynomial.variable(j) + Polynomial.from_terms([(tuple([0] * j + [1]), -1)])
        assert gap * once + swap_variables(f, j) == f

    for _ in range(40):
        d = _random_diagram(rng)
        mono = weight_monomial(d)
        members = list(enumerate_below(d))
        assert len(members) == count_below(d)
        assert members[-1] == d
        for c in members[:-1]:
            assert invlex_less(weight_monomial(c), mono)
        chain = rank_chain(d)
        assert len(chain) == rank(d) + 1
        assert chain[-1] == d
        for k, step in enumerate(chain):
            assert rank(step) == k
        for lo, hi in zip(chain, chain[1:]):
            assert diagram_leq(lo, hi) and lo != hi

    serial = verify_lower_bound(all_diagrams(3))
    shard_a = verify_lower_bound(all_diagrams(3), workers=2)
    shard_b = verify_lower_bound(all_diagrams(3), workers=2)
    statics = [
        (r.check, r.family, r.checked, r.violations, r.candidates, r.truncated)
        for r in (serial, shard_a, shard_b)
    ]
    assert statics[0] == statics[1] == statics[2]

    elapsed = time.perf_counter() - start
    gate("operator and enumeration property suite", 120.0, elapsed, True)


def test_zero_one_proved_direction_4_grid():
    pattern = parse_pattern(WITNESS_FILE.read_text())
    report = verify_zero_one_characterization(all_diagrams(4), [pattern])
    passed = (
        report.ok
        and report.checked == 65536
        and not report.violations
        and len(report.candidates) == 24173
        and all(f.severity == "candidate" for f in report.candidates)
    )
    gate(
        "flagged configuration forces repeated coefficients (4-grid)",
        600.0, report.elapsed_s, passed,
        f"{len(report.violations)} violations, {len(report.candidates)} candidates",
    )
