"""Dual characters of flagged modules attached to diagrams.

The character of a diagram D is computed from the diagrams below it in
the componentwise order: the coefficient of a weight x^w equals the rank
of the span of certain products of minors of an upper-triangular matrix
of indeterminates, one product per diagram of weight w below D.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

from weylchar import _kernels
from weylchar.diagrams import DEFAULT_CAP, Diagram, check_cap, column_multiset
from weylchar.polynomials import Polynomial, _trim, monomial

__all__ = [
    "YPolynomial",
    "column_determinant",
    "determinant_product",
    "coefficient_rank",
    "character_support",
    "dual_character",
]


class YPolynomial:
    """Integer combination of monomials in indeterminates y_ij, i <= j.

    Terms map a sorted tuple of positions (i, j), one per factor, to a
    nonzero integer coefficient.  This is the public form of a product
    of minors; the character engine itself multiplies packed monomials
    (see ``_packed_product``), so the surface is minimal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    def __eq__(self, other):
        if not isinstance(other, YPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        if not isinstance(other, YPolynomial):
            return NotImplemented
        return YPolynomial(_kernels.ymul(self.terms, other.terms))

    def is_zero(self):
        return not self.terms

    def render(self) -> str:
        """Human form with factors like y12 and terms in ascending key order.

        >>> y = YPolynomial({((1, 1), (2, 3)): 1})
        >>> y.render()
        'y11*y23'
        """
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            pieces = []
            for pair in key:
                if pieces and pieces[-1][0] == pair:
                    pieces[-1][1] += 1
                else:
                    pieces.append([pair, 1])
            factors = "*".join(
                f"y{i}{j}" if e == 1 else f"y{i}{j}^{e}" for (i, j), e in pieces
            )
            factors = factors or "1"
            if not parts:
                lead = "" if coeff == 1 else "-" if coeff == -1 else f"{coeff}*"
                parts.append(f"{lead}{factors}")
            else:
                sign = " + " if coeff > 0 else " - "
                mag = abs(coeff)
                body = factors if mag == 1 else f"{mag}*{factors}"
                parts.append(f"{sign}{body}")
        return "".join(parts)

    def __repr__(self):
        return f"YPolynomial<{self.render()}>"


def column_determinant(dcol, ccol) -> YPolynomial:
    """Minor of the upper-triangular y matrix on rows ``ccol``, columns ``dcol``.

    Both arguments are strictly increasing row-index tuples of equal
    size; a size mismatch is an error.
    """
    return YPolynomial(_kernels.column_det(tuple(dcol), tuple(ccol)))


def determinant_product(d: Diagram, c: Diagram) -> YPolynomial:
    """Product over columns j of the minor pairing column j of ``d`` and of ``c``."""
    if c.n != d.n:
        raise ValueError("diagrams must live on the same grid")
    return YPolynomial(_product(d.columns, c.columns))


# one memo for the whole process; the dict it returns is shared, so never mutate it
@lru_cache(maxsize=4096)
def _minor(dcol, ccol) -> dict:
    return _kernels.column_det(dcol, ccol)


# Packed y-monomials.  Inside a product of m minors a monomial in the
# y_ij, i <= j, is one int: position (i, j) owns a field of ``width``
# bits holding the exponent of y_ij, so multiplying two monomials adds
# their ints.  Each term of a minor is squarefree, so no exponent of the
# product exceeds m, and ``width = m.bit_length()`` never carries into
# the next field.  Fields are numbered column by column, so a position's
# field does not depend on the grid size.

def _field(i, j) -> int:
    """Index of (i, j), i <= j, among the upper-triangular positions numbered column by column."""
    return j * (j - 1) // 2 + i - 1


# one memo for the whole process, shared like ``_minor``'s dicts; the
# layout of a key depends on ``width``, so it is in the memo key
@lru_cache(maxsize=4096)
def _packed_minor(dcol, ccol, width) -> dict:
    terms = {}
    for key, coeff in _minor(dcol, ccol).items():
        packed = 0
        for i, j in key:
            packed += 1 << width * _field(i, j)
        terms[packed] = coeff
    return terms


def _unpack(packed, width) -> tuple:
    """The ``YPolynomial`` key of a packed monomial: its positions, repeated, sorted."""
    mask = (1 << width) - 1
    key = []
    i = j = 1
    while packed:
        key += [(i, j)] * (packed & mask)
        packed >>= width
        i, j = (i + 1, j) if i < j else (1, j + 1)
    return tuple(sorted(key))


def _ymul(a, b) -> dict:
    """Product of two packed polynomials."""
    if len(b) == 1:
        ((kb, vb),) = b.items()
        return {ka + kb: va * vb for ka, va in a.items()}
    out = {}
    get = out.get
    for kb, vb in b.items():
        for ka, va in a.items():
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _packed_product(columns, member, width, prefixes) -> dict:
    """Packed terms of the product over j of the minor pairing ``columns[j]`` with ``member[j]``.

    ``prefixes`` maps proper prefixes of members to their products; the
    longest one already there is extended, and the new ones are added.
    """
    k = len(member)
    assert k < 1 << width, f"{width}-bit exponent fields overflow at {k} factors"
    if not k:
        return {0: 1}
    j = k - 1
    while j > 1 and member[:j] not in prefixes:
        j -= 1
    if j > 1:
        acc = prefixes[member[:j]]
    else:
        acc, j = _packed_minor(columns[0], member[0], width), 1
    for t in range(j, k):
        if t > j:
            prefixes[member[:t]] = acc
        acc = _ymul(acc, _packed_minor(columns[t], member[t], width))
    return acc


def _product(columns, member) -> dict:
    """``_packed_product`` with its keys unpacked to those of ``YPolynomial``."""
    width = len(columns).bit_length()
    packed = _packed_product(columns, member, width, {})
    return {_unpack(key, width): coeff for key, coeff in packed.items()}


def coefficient_rank(polys) -> int:
    """Rank of the integer span of the given y-polynomials.

    Each is a ``YPolynomial`` or a dict of terms whose monomial keys are
    totally ordered.  A sparse fraction-free echelon: shortest first,
    each polynomial is reduced against a basis keyed by least monomial,
    each step an integer combination that cancels the least monomial,
    divided by the gcd of its coefficients.  The rank is the size of
    the basis.
    """
    basis = {}
    for p in sorted((getattr(p, "terms", p) for p in polys), key=len):
        if not p:
            continue
        lead = min(p)
        while lead in basis:
            b = basis[lead]
            a, c = b[lead], p[lead]
            if a == 1 or a == -1:
                q, c = dict(p), c * a
            else:
                q = {k: a * v for k, v in p.items()}
            for k, v in b.items():
                w = q.get(k, 0) - c * v
                if w:
                    q[k] = w
                else:
                    del q[k]
            if not q:
                break
            g = gcd(*q.values())
            p = {k: v // g for k, v in q.items()} if g > 1 else q
            lead = min(p)
        else:
            basis[lead] = p
    return len(basis)


def character_support(d: Diagram, cap: int = DEFAULT_CAP) -> frozenset:
    """Set of weight monomials of the diagrams below ``d``, without ranks."""
    check_cap(cap)
    return frozenset(monomial(w) for w in _kernels.weight_support(d.columns, d.n, cap))


@lru_cache(maxsize=4096)
def _character(columns, n: int, cap: int) -> Polynomial:
    classes = _kernels.group_by_weight(columns, n, cap)
    width = len(columns).bit_length()
    prefixes = {}  # products of proper prefixes of members, for this character only
    terms = {}
    for weight, members in classes.items():
        if len(members) == 1:
            coeff = 1
        else:
            coeff = coefficient_rank(
                [_packed_product(columns, m, width, prefixes) for m in members]
            )
        if coeff < 1:
            raise AssertionError(f"weight {weight} produced rank {coeff}")
        # weights are distinct nonnegative length-n tuples, so their trims are too
        terms[_trim(weight)] = coeff
    return Polynomial(terms)


def dual_character(d: Diagram, cap: int = DEFAULT_CAP) -> Polynomial:
    """Character polynomial of the diagram ``d``.

    Exact integer coefficients in variables x_1..x_n; the empty diagram
    gives the constant 1.  Results are memoized per (column multiset, n,
    cap): the character is a product over the columns of ``d``, so
    reordering columns only reorders the factors of each product of
    minors and leaves every weight class's span unchanged, while an
    empty column contributes the factor 1.  The cap check is order-free
    too, since the member count is the product of the column-ideal sizes.
    """
    check_cap(cap)
    return _character(column_multiset(d), d.n, cap)
