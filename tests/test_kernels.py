"""Kernels against independent oracles."""
import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weylchar
from weylchar import _core_py, _kernels
from weylchar.diagrams import Diagram, count_below, enumerate_below, rank, weight_monomial
from weylchar.weyl import dual_character

columns = st.lists(st.integers(1, 6), max_size=4, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
matrices = st.integers(0, 4).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
        max_size=5,
    )
)
# diagrams of at most 4 rows: n columns, each a subset of rows 1..n
diagrams = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        *[st.sets(st.integers(1, n)).map(lambda rows: tuple(sorted(rows)))] * n
    ).map(lambda cols: Diagram(cols, n))
)


def pack(terms):
    """Terms keyed by lists of positions (i, j), one per factor, packed with y_ij in byte j(j - 1)/2 + i - 1."""
    return {sum(1 << 8 * (j * (j - 1) // 2 + i - 1) for i, j in key): coeff for key, coeff in terms.items()}


def brute_column_ideal(col):
    """Reference: filter all strictly increasing tuples bounded by max(col)."""
    k = len(col)
    if k == 0:
        return {()}
    universe = range(1, col[-1] + 1)
    return {
        cand
        for cand in itertools.combinations(universe, k)
        if all(a <= b for a, b in zip(cand, col))
    }


def fraction_rank(rows):
    """Reference rank via Gaussian elimination over exact rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    pr = 0
    for pc in range(len(m[0]) if m else 0):
        piv = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = 1 / m[pr][pc]
        m[pr] = [v * inv for v in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][pc]:
                factor = m[r][pc]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pr])]
        pr += 1
        rank += 1
    return rank


@given(columns)
def test_column_ideal_matches_brute_force(col):
    out = _core_py.column_ideal(col)
    assert set(out) == brute_column_ideal(col)
    assert len(set(out)) == len(out)
    assert _core_py.count_column_ideal(col) == len(out)
    weights = [int.from_bytes(bytes(weight_monomial(Diagram((c,), 6))), "little") for c in out]
    assert _core_py.column_weights(col) == tuple(weights)


@given(columns)
def test_column_ideal_sorted_by_invlex(col):
    out = _core_py.column_ideal(col)
    keys = [c[::-1] for c in out]
    assert keys == sorted(keys)
    if out:
        assert out[-1] == col


def test_weight_support_equals_enumerated_weights():
    cols = ((1, 3), (2, 3), ())
    support = _core_py.weight_support(cols, 10**6)
    groups = _core_py.group_by_weight(cols, 10**6)
    assert support == set(groups)
    assert sum(len(v) for v in groups.values()) == 6


@pytest.mark.parametrize("n, multisets, tight, support_tight", [(3, 120, 120, 70), (4, 3876, 2380, 448)])
def test_sumset_bound_lies_between_rank_and_the_weight_count(n, multisets, tight, support_tight):
    """On every column multiset of the n-grid: rank + 1 <= B(D) <= distinct weights = terms of χ <= diagrams below.

    B(D) = 1 + sum_j (|I(c_j)| - 1).  The rank + 1 sweeps skip the
    multisets where their column tables show B(D) > rank + 1 (or >=, for
    the support count), and call neither the support count nor the
    character there, so both are checked here, with how often B(D) and
    the count meet rank + 1.
    """
    table = [tuple(i for i in range(1, n + 1) if bits >> (i - 1) & 1) for bits in range(1 << n)]
    seen = []
    for columns in itertools.combinations_with_replacement(table, n):
        d = Diagram(columns, n)
        sizes = [_kernels.count_column_ideal(col) for col in columns]
        certificate, below = 1 + sum(sizes) - len(sizes), math.prod(sizes)
        support = len(_kernels.weight_support(columns, below))
        assert rank(d) + 1 <= certificate <= support == len(dual_character(d).terms) <= below == count_below(d), d
        seen.append((certificate == rank(d) + 1, support == rank(d) + 1))
    assert (len(seen), sum(b for b, _ in seen), sum(s for _, s in seen)) == (multisets, tight, support_tight)


def test_caps_raise():
    cols = ((1, 3), (2, 3), ())
    with pytest.raises(_core_py.CapExceeded):
        _core_py.group_by_weight(cols, 5)
    with pytest.raises(_core_py.CapExceeded):
        _core_py.weight_support(cols, 2)
    # the kernels raise the package's own error, so no caller translates
    assert weylchar.CapExceeded is _kernels.CapExceeded is _core_py.CapExceeded


def test_column_det_known_minor():
    # rows {1,2}, columns {1,3} of the generic upper-triangular matrix
    det = _core_py.column_det((1, 3), (1, 2))
    # y21 is below the diagonal, so only the identity term survives
    assert det == pack({((1, 1), (2, 3)): 1})


def test_column_det_full_antidiagonal_sign():
    det = _core_py.column_det((2, 3), (2, 3))
    assert det == pack({((2, 2), (3, 3)): 1})


def test_column_det_mismatch_is_error():
    with pytest.raises(ValueError):
        _core_py.column_det((1, 2), (1,))


def test_column_det_keeps_large_indices_apart():
    assert _core_py.column_det((1024,), (1,)) == pack({((1, 1024),): 1})
    assert _core_py.column_det((1023,), (1,)) != _core_py.column_det((23,), (11,))


def test_column_det_is_the_leibniz_expansion():
    """Every minor of the 5-grid is the signed sum over permutations, its positions packed by ``pack``."""
    cols = [tuple(i for i in range(1, 6) if mask >> (i - 1) & 1) for mask in range(32)]
    minors = 0
    for d in cols:
        for c in cols:
            if len(c) != len(d):
                continue
            expected = {}
            for perm in itertools.permutations(range(len(d))):
                if all(c[a] <= d[b] for a, b in enumerate(perm)):
                    inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
                    expected[tuple((c[a], d[b]) for a, b in enumerate(perm))] = (-1) ** inversions
            assert _core_py.column_det(d, c) == pack(expected), (d, c)
            # nonzero exactly when c lies below d
            assert bool(expected) == (c in _core_py.column_ideal(d))
            minors += bool(expected)
    assert minors == 132


def test_ymul_adds_exponents_and_drops_cancelled_terms():
    # (y11 + y12)(y11 - y12) = y11^2 - y12^2: the cross terms cancel
    a = pack({((1, 1),): 1, ((1, 2),): 1})
    b = pack({((1, 1),): 1, ((1, 2),): -1})
    assert _core_py.ymul(a, b) == pack({((1, 1), (1, 1)): 1, ((1, 2), (1, 2)): -1})
    assert _core_py.ymul(a, {}) == {}
    assert _core_py.ymul(a, {0: 1}) == a


@given(matrices)
def test_bareiss_matches_fraction_rank(rows):
    assert _core_py.bareiss_rank(rows) == fraction_rank(rows)


def test_bareiss_big_integers():
    rng = random.Random(7)
    rows = [[rng.randrange(-10**12, 10**12) for _ in range(6)] for _ in range(6)]
    assert _core_py.bareiss_rank(rows) == fraction_rank(rows)


@given(diagrams)
def test_grouping_matches_enumerated_weights(d):
    """The enumerated weights, packed one byte per row, with one member per multiset of (column, choice) pairs."""
    weights = set()
    expected = {}
    seen = set()
    for below in enumerate_below(d):
        weight = int.from_bytes(bytes(weight_monomial(below)), "little")
        weights.add(weight)
        choices = tuple(sorted(zip(d.columns, below.columns)))
        if choices not in seen:
            seen.add(choices)
            expected.setdefault(weight, []).append(below.columns)
    grouped = _core_py.group_by_weight(d.columns, 10**6)
    assert set(grouped) == weights == _core_py.weight_support(d.columns, 10**6)
    # list values, so each class's member order is compared too
    assert grouped == expected


def test_grouping_caps_the_diagrams_below_not_the_members_listed():
    d = Diagram(((2, 3), (1, 3), (2, 3), (2, 3)), 4)
    below = count_below(d)
    assert below == 3 * 2 * 3 * 3
    members = _core_py.group_by_weight(d.columns, below)
    assert sum(len(v) for v in members.values()) == 10 * 2  # multisets of 3 from 3, times 2
    with pytest.raises(_core_py.CapExceeded):
        _core_py.group_by_weight(d.columns, below - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _core_py.group_by_weight(((1, 3), (2, 3), (2, 4)), 10**6),
        lambda: _core_py.column_det((2, 3, 4), (1, 2, 3)),
        lambda: _core_py.column_ideal.__wrapped__((2, 3, 4)),
        lambda: _core_py.column_weights.__wrapped__((2, 3, 4)),
        lambda: _core_py.weight_support(((1, 3), (2, 3), (2, 4)), 10**6),
    ],
    ids=["group_by_weight", "column_det", "column_ideal", "column_weights", "weight_support"],
)
def test_kernels_leave_no_reference_cycles(call):
    """A kernel's buffers are freed on return, not left for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        call()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
