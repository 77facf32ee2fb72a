"""Character engine: determinants, ranks of spans, and full characters."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar import weyl
from weylchar.diagrams import (
    DEFAULT_CAP,
    CapExceeded,
    column_multiset,
    count_below,
    diagram,
    enumerate_below,
    weight_monomial,
)
from weylchar.polynomials import Polynomial, principal_specialization, render
from weylchar.verify import all_diagrams
from weylchar.weyl import (
    YPolynomial,
    character_support,
    coefficient_rank,
    column_determinant,
    determinant_product,
    dual_character,
)

WORKED = diagram([(1, 3), (2, 3), ()])


def test_column_determinant_triangular_pruning():
    assert column_determinant((1, 3), (1, 3)).render() == "y11*y33"
    assert column_determinant((2, 3), (1, 2)).render() == "y12*y23 - y13*y22"
    assert column_determinant((), ()).render() == "1"


def test_column_determinant_mismatch():
    with pytest.raises(ValueError):
        column_determinant((1, 2), (1,))


def test_worked_example_determinant_products():
    expected = {
        ((1, 3), (2, 3), ()): "y11*y22*y33^2",
        ((1, 3), (1, 2), ()): "y11*y12*y23*y33 - y11*y13*y22*y33",
        ((1, 3), (1, 3), ()): "y11*y12*y33^2",
        ((1, 2), (2, 3), ()): "y11*y22*y23*y33",
        ((1, 2), (1, 2), ()): "y11*y12*y23^2 - y11*y13*y22*y23",
        ((1, 2), (1, 3), ()): "y11*y12*y23*y33",
    }
    seen = set()
    for c in enumerate_below(WORKED):
        seen.add(c.columns)
        assert determinant_product(WORKED, c).render() == expected[c.columns]
    assert seen == set(expected)


def test_worked_example_character():
    chi = dual_character(WORKED)
    assert render(chi) == "x1*x2*x3^2 + x1^2*x3^2 + x1*x2^2*x3 + 2*x1^2*x2*x3 + x1^2*x2^2"
    assert chi.coefficient((2, 1, 1)) == 2
    assert principal_specialization(chi) == 6


def test_worked_example_repeated_weight_class_rank():
    members = [
        c for c in enumerate_below(WORKED) if weight_monomial(c) == (2, 1, 1)
    ]
    assert len(members) == 2
    spans = [determinant_product(WORKED, c) for c in members]
    assert coefficient_rank(spans) == 2
    assert coefficient_rank(spans + spans) == 2
    assert coefficient_rank(spans[:1]) == 1
    assert coefficient_rank([]) == 0


def test_ypolynomial_product_cancels():
    a = column_determinant((2, 3), (1, 2))
    zero = a * YPolynomial.zero()
    assert zero.is_zero()
    assert zero.render() == "0"


def test_empty_diagram_character_is_one():
    assert dual_character(diagram(())) == Polynomial.one()
    assert character_support(diagram(())) == frozenset({()})


def test_single_column_character():
    # one box in row k, alone in its column: weights x_1 .. x_k each once
    chi = dual_character(diagram([(3,)]))
    assert render(chi) == "x3 + x2 + x1"


def test_top_justified_character_is_single_monomial():
    d = diagram([(1, 2), (1,), (1, 2, 3)])
    chi = dual_character(d)
    assert chi == Polynomial.from_exponents(weight_monomial(d))


def test_character_support_matches_character():
    for cols in [((1, 3), (2, 3), ()), ((2,), (1, 2), ()), ((2, 4), (1, 3), (), ())]:
        d = diagram(cols)
        assert character_support(d) == frozenset(dual_character(d).support())


def test_cap_translates_to_cap_exceeded():
    with pytest.raises(CapExceeded):
        dual_character(WORKED, cap=3)
    with pytest.raises(CapExceeded):
        character_support(diagram([(2,), (2,), (2,)]), cap=1)


@given(
    st.lists(
        st.lists(st.integers(1, 4), max_size=3, unique=True).map(
            lambda xs: tuple(sorted(xs))
        ),
        max_size=3,
    )
)
@settings(max_examples=40, deadline=None)
def test_character_coefficients_count_weight_classes(cols):
    """Each coefficient is at least 1 and at most its weight-class size."""
    d = diagram(cols)
    classes = {}
    for c in enumerate_below(d):
        classes.setdefault(weight_monomial(c), 0)
        classes[weight_monomial(c)] += 1
    chi = dual_character(d)
    assert set(chi.terms) == set(classes)
    for m, coeff in chi.terms.items():
        assert 1 <= coeff <= classes[m]


def test_character_is_invariant_under_column_permutations():
    """Computed afresh in every column order, each 3-grid character agrees."""
    for _, d in all_diagrams(3).instances():
        chi = dual_character(d)
        for columns in set(itertools.permutations(d.columns)):
            assert weyl._character.__wrapped__(columns, d.n, DEFAULT_CAP) == chi, columns


def test_column_orders_share_one_computation(monkeypatch):
    weyl._character.cache_clear()
    calls = []
    group = weyl._kernels.group_by_weight

    def counting(columns, n, cap):
        calls.append(columns)
        return group(columns, n, cap)

    monkeypatch.setattr(weyl._kernels, "group_by_weight", counting)
    d = diagram([(1, 3), (2, 3), (), (2,)])
    chi = dual_character(d)
    assert dual_character(diagram([(2,), (), (2, 3), (1, 3)])) == chi
    assert dual_character(diagram([(), (2, 3), (2,), (1, 3)])) == chi
    assert len(calls) == 1
    # the grid size and the cap stay part of the key
    dual_character(diagram(d.columns, n=5))
    dual_character(d, cap=DEFAULT_CAP - 1)
    assert len(calls) == 3


def test_characters_share_minors(monkeypatch):
    """A minor is expanded once per process, not once per character that reads it."""
    calls = []
    det = weyl._kernels.column_det

    def counting(dcol, ccol):
        calls.append((dcol, ccol))
        return det(dcol, ccol)

    def cold():
        weyl._character.cache_clear()
        weyl._minor.cache_clear()
        calls.clear()

    monkeypatch.setattr(weyl._kernels, "column_det", counting)
    first, second = WORKED, diagram([(1, 3), (2, 3), (2, 3)])
    needed = []
    for d in (first, second):
        cold()
        dual_character(d)
        needed.append(set(calls))
    assert needed[0] & needed[1]
    cold()
    dual_character(first)
    dual_character(second)
    assert sorted(calls) == sorted(needed[0] | needed[1])


def test_determinant_product_is_the_engine_product():
    """Every pair (WORKED, c), c below WORKED, as the engine enumerates and multiplies it."""
    columns = column_multiset(WORKED)
    assert columns + ((),) == WORKED.columns
    pairs = 0
    for members in weyl._kernels.group_by_weight(columns, WORKED.n, DEFAULT_CAP).values():
        for member in members:
            c = diagram(member + ((),), n=WORKED.n)
            expected = YPolynomial({(): 1})
            for dcol, ccol in zip(WORKED.columns, c.columns):
                expected = expected * column_determinant(dcol, ccol)
            assert determinant_product(WORKED, c) == YPolynomial(weyl._product(columns, member)) == expected
            pairs += 1
    assert pairs == count_below(WORKED)


def test_cap_is_checked_in_every_column_order():
    for columns in itertools.permutations([(1, 3), (2, 3), ()]):
        with pytest.raises(CapExceeded):
            dual_character(diagram(columns), cap=5)
        assert principal_specialization(dual_character(diagram(columns), cap=6)) == 6
