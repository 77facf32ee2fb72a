"""Kernels against independent oracles."""
import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weylchar
from weylchar import _core_py, _kernels
from weylchar.diagrams import Diagram, count_below, enumerate_below
from weylchar.weyl import column_determinant

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
    weights = [int.from_bytes(bytes(_core_py.weight_of_columns((c,), 6)), "little") for c in out]
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
    support = _core_py.weight_support(cols, 3, 10**6)
    groups = _core_py.group_by_weight(cols, 3, 10**6)
    assert support == set(groups)
    assert sum(len(v) for v in groups.values()) == 6


def test_caps_raise():
    cols = ((1, 3), (2, 3), ())
    with pytest.raises(_core_py.CapExceeded):
        _core_py.group_by_weight(cols, 3, 5)
    with pytest.raises(_core_py.CapExceeded):
        _core_py.weight_support(cols, 3, 2)
    # the kernels raise the package's own error, so no caller translates
    assert weylchar.CapExceeded is _kernels.CapExceeded is _core_py.CapExceeded


def test_column_det_known_minor():
    # rows {1,2}, columns {1,3} of the generic upper-triangular matrix
    det = _core_py.column_det((1, 3), (1, 2))
    # y21 is below the diagonal, so only the identity term survives
    assert det == {((1, 1), (2, 3)): 1}


def test_column_det_full_antidiagonal_sign():
    det = _core_py.column_det((2, 3), (2, 3))
    assert det == {((2, 2), (3, 3)): 1}


def test_column_det_mismatch_is_error():
    with pytest.raises(ValueError):
        _core_py.column_det((1, 2), (1,))


def test_column_det_keeps_large_indices_apart():
    assert _core_py.column_det((1024,), (1,)) == {((1, 1024),): 1}
    assert column_determinant((1023,), (1,)).render() == "y11023"


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
        weight = int.from_bytes(bytes(_core_py.weight_of_columns(below.columns, d.n)), "little")
        weights.add(weight)
        choices = tuple(sorted(zip(d.columns, below.columns)))
        if choices not in seen:
            seen.add(choices)
            expected.setdefault(weight, []).append(below.columns)
    grouped = _core_py.group_by_weight(d.columns, d.n, 10**6)
    assert set(grouped) == weights == _core_py.weight_support(d.columns, d.n, 10**6)
    # list values, so each class's member order is compared too
    assert grouped == expected


def test_grouping_caps_the_diagrams_below_not_the_members_listed():
    d = Diagram(((2, 3), (1, 3), (2, 3), (2, 3)), 4)
    below = count_below(d)
    assert below == 3 * 2 * 3 * 3
    members = _core_py.group_by_weight(d.columns, d.n, below)
    assert sum(len(v) for v in members.values()) == 10 * 2  # multisets of 3 from 3, times 2
    with pytest.raises(_core_py.CapExceeded):
        _core_py.group_by_weight(d.columns, d.n, below - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _core_py.group_by_weight(((1, 3), (2, 3), (2, 4)), 4, 10**6),
        lambda: _core_py.column_det((2, 3, 4), (1, 2, 3)),
        lambda: _core_py.column_ideal.__wrapped__((2, 3, 4)),
        lambda: _core_py.column_weights.__wrapped__((2, 3, 4)),
        lambda: _core_py.weight_support(((1, 3), (2, 3), (2, 4)), 4, 10**6),
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
