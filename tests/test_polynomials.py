"""Polynomial arithmetic, the invlex order, and divided differences."""
import json
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar.polynomials import (
    Polynomial,
    demazure,
    divided_difference,
    invlex_less,
    is_zero_one,
    monomial,
    principal_specialization,
    render,
    render_monomial,
    to_json_obj,
    zero_one_witness,
)

monomials = st.lists(st.integers(0, 4), max_size=5).map(tuple)
coeffs = st.integers(-9, 9)
polys = st.lists(st.tuples(monomials, coeffs), max_size=8).map(Polynomial.from_terms)


def swap_variables(f: Polynomial, j: int) -> Polynomial:
    """s_j f: the transposition of x_j and x_{j+1} applied to every term."""
    out = {}
    for m, c in f.terms.items():
        e = list(m) + [0] * max(0, j + 1 - len(m))
        e[j - 1], e[j] = e[j], e[j - 1]
        out[monomial(e)] = c
    return Polynomial(out)


def test_monomial_canonical_form():
    assert monomial((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert monomial(()) == ()
    assert monomial((0, 0)) == ()
    with pytest.raises(ValueError):
        monomial((1, -1))


def test_invlex_examples():
    assert invlex_less((1,), (0, 1))          # x1 < x2
    assert invlex_less((2, 0, 2), (1, 1, 2))  # ties broken at lower index
    assert invlex_less((), (1,))
    assert not invlex_less((1,), (1,))


@given(monomials, monomials, monomials)
def test_invlex_total_order(a, b, c):
    a, b, c = monomial(a), monomial(b), monomial(c)
    assert (invlex_less(a, b) or invlex_less(b, a)) == (a != b)
    assert not (invlex_less(a, b) and invlex_less(b, a))
    if invlex_less(a, b) and invlex_less(b, c):
        assert invlex_less(a, c)


@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f - f == Polynomial.zero()
    assert f * Polynomial.one() == f


@given(polys, polys)
def test_principal_specialization_is_ring_hom(f, g):
    assert principal_specialization(f + g) == principal_specialization(f) + principal_specialization(g)
    assert principal_specialization(f * g) == principal_specialization(f) * principal_specialization(g)


@given(polys, st.integers(1, 4))
def test_swap_is_involution(f, j):
    assert swap_variables(swap_variables(f, j), j) == f


@given(polys, st.integers(1, 4))
def test_divided_difference_squares_to_zero(f, j):
    assert divided_difference(divided_difference(f, j), j) == Polynomial.zero()


@given(polys, st.integers(1, 4))
def test_divided_difference_reconstruction(f, j):
    """f = (x_j - x_{j+1}) * D_j(f) + s_j(f): pins down D_j exactly."""
    xj = Polynomial.variable(j)
    xj1 = Polynomial.variable(j + 1)
    rebuilt = (xj - xj1) * divided_difference(f, j) + swap_variables(f, j)
    assert rebuilt == f


@given(polys, st.integers(1, 4))
def test_divided_difference_output_is_symmetric(f, j):
    d = divided_difference(f, j)
    assert swap_variables(d, j) == d


@given(polys, st.integers(1, 4))
def test_demazure_is_idempotent(f, i):
    assert demazure(demazure(f, i), i) == demazure(f, i)


def test_divided_difference_kills_symmetric_factors():
    f = Polynomial.from_exponents((2, 1)) + Polynomial.from_exponents((1, 2))
    assert divided_difference(f, 1) == Polynomial.zero()


def test_render_ordering_and_signs():
    f = Polynomial.from_terms([((2, 1), 2), ((1, 2), 1)])
    assert render(f) == "x1*x2^2 + 2*x1^2*x2"
    g = Polynomial.from_terms([((1,), -1), ((), 3)])
    assert render(g) == "-x1 + 3"
    assert render(Polynomial.zero()) == "0"
    assert render_monomial(()) == "1"
    assert render_monomial((0, 3)) == "x2^3"


def test_zero_one_predicates():
    f = Polynomial.from_terms([((1,), 1), ((0, 1), 1)])
    assert is_zero_one(f)
    assert zero_one_witness(f) is None
    g = f + Polynomial.from_exponents((0, 1))
    assert not is_zero_one(g)
    assert zero_one_witness(g) == ((0, 1), 2)


@given(polys)
def test_zero_one_witness_is_first_non_one_descending_term(f):
    # the definition, by a full sort under the pairwise invlex comparison
    order = cmp_to_key(lambda a, b: invlex_less(b[0], a[0]) - invlex_less(a[0], b[0]))
    reference = next(((m, c) for m, c in sorted(f.terms.items(), key=order, reverse=True) if c != 1), None)
    assert zero_one_witness(f) == reference


@given(polys)
def test_json_round_trip(f):
    # to_json_obj loses nothing: its terms, read back as ints, rebuild f
    blob = json.dumps(to_json_obj(f))
    assert Polynomial.from_terms((t["exponents"], int(t["coeff"])) for t in json.loads(blob)) == f


def test_bool_exponents_are_rejected():
    with pytest.raises(ValueError, match="nonnegative integers"):
        monomial([True, 2])
    with pytest.raises(ValueError):
        Polynomial.from_exponents([True, 2])


def test_json_round_trip_prints_integer_exponents():
    f = Polynomial.from_terms([((1, 2), 3), ((1,), 1)])
    blob = json.dumps(to_json_obj(f))
    assert blob == '[{"exponents": [1, 2], "coeff": "3"}, {"exponents": [1], "coeff": "1"}]'


def test_equal_monomials_are_one_object():
    assert monomial([1, 0, 2, 0]) is monomial((1, 0, 2))
    (m,) = Polynomial.variable(2).support()
    assert m is monomial([0, 1, 0])
    f = Polynomial.from_exponents((1, 2)) * Polynomial.from_exponents((0, 1))
    (m,) = f.support()
    assert m is monomial((1, 3))
    (m,) = divided_difference(Polynomial.from_exponents((2, 1)), 2).support()
    assert m is monomial((2,))


@given(polys)
def test_descending_terms_sorted(f):
    terms = f.descending_terms()
    for (a, _), (b, _) in zip(terms, terms[1:]):
        assert invlex_less(b, a)
