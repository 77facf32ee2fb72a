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
    (see ``_grow``), so the surface is minimal.
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


def _packed_product(columns, member, width) -> dict:
    """Packed terms of the product over j of the minor pairing ``columns[j]`` with ``member[j]``."""
    assert len(member) < 1 << width, f"{width}-bit exponent fields overflow at {len(member)} factors"
    acc = {0: 1}
    for dcol, ccol in zip(columns, member):
        acc = _ymul(acc, _packed_minor(dcol, ccol, width))
    return acc


def _product(columns, member) -> dict:
    """``_packed_product`` with its keys unpacked to those of ``YPolynomial``."""
    width = len(columns).bit_length()
    packed = _packed_product(columns, member, width)
    return {_unpack(key, width): coeff for key, coeff in packed.items()}


def _independent(polys) -> list:
    """The polynomials that stay independent when reduced shortest first.

    ``polys`` are dicts of terms whose monomial keys are totally ordered.
    A sparse fraction-free echelon: shortest first, each polynomial is
    reduced against a basis keyed by least monomial, each step an
    integer combination that cancels the least monomial, divided by the
    gcd of its coefficients.  Returns, unreduced and in that order, the
    inputs that added a basis vector: a basis of the span of all inputs.
    """
    basis = {}
    kept = []
    for original in sorted(polys, key=len):
        p = original
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
            kept.append(original)
    return kept


def coefficient_rank(polys) -> int:
    """Rank of the integer span of the given y-polynomials.

    Each is a ``YPolynomial`` or a dict of terms whose monomial keys are
    totally ordered; the rank is the number of them ``_independent`` keeps.
    """
    return len(_independent([getattr(p, "terms", p) for p in polys]))


def _grow(spaces, col, width, wanted=None) -> dict:
    """Multiply every product in ``spaces`` by each minor of ``col``, grouped by packed weight.

    Weights are packed like y-monomials: row i owns a field of
    ``width`` bits, which holds a count of up to the number of columns.
    With ``wanted``, only the weights in it are kept.
    """
    grown = {}
    for ch in _kernels.column_ideal(col):
        minor = _packed_minor(col, ch, width)
        shift = 0
        for i in ch:
            shift += 1 << width * (i - 1)
        for weight, basis in spaces.items():
            w = weight + shift
            if wanted is not None and w not in wanted:
                continue
            products = grown.get(w)
            if products is None:
                grown[w] = products = []
            products += [_ymul(p, minor) for p in basis]
    return grown


def _weight_spaces(columns, wanted) -> dict:
    """Products of minors spanning each weight space in ``wanted``, built column by column.

    After each column but the last, only a basis of every partial weight
    space is kept, chosen from its products by ``_independent``.  This is
    exact: the next column's products span span(A) * m = span{a * m : a
    in A} for each of its minors m, so a product whose prefix depends on
    the kept ones is a combination of kept products with the same suffix
    and the same weight.  The last column multiplies only into the
    weights in ``wanted``, length-n tuples, by which the result is keyed.
    ``columns`` must not be empty.
    """
    width = len(columns).bit_length()
    packed = {sum(e << width * i for i, e in enumerate(w)): w for w in wanted}
    spaces = {0: [{0: 1}]}
    for col in columns[:-1]:
        spaces = {
            w: ps if len(ps) == 1 else _independent(ps)
            for w, ps in _grow(spaces, col, width).items()
        }
    return {packed[w]: ps for w, ps in _grow(spaces, columns[-1], width, packed).items()}


def character_support(d: Diagram, cap: int = DEFAULT_CAP) -> frozenset:
    """Set of weight monomials of the diagrams below ``d``, without ranks."""
    check_cap(cap)
    return frozenset(monomial(w) for w in _kernels.weight_support(d.columns, d.n, cap))


@lru_cache(maxsize=4096)
def _character(columns, n: int, cap: int) -> Polynomial:
    # one member per multiset of choices; a class of one has coefficient 1
    classes = _kernels.group_by_weight(columns, n, cap)
    multi = [weight for weight, members in classes.items() if len(members) > 1]
    spaces = _weight_spaces(columns, multi) if multi else {}
    terms = {}
    for weight, members in classes.items():
        if len(members) == 1:
            coeff = 1
        else:
            coeff = coefficient_rank(spaces.get(weight, ()))
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
    too: the cap bounds the product of the column-ideal sizes.
    """
    check_cap(cap)
    return _character(column_multiset(d), d.n, cap)
