"""Dual characters of flagged modules attached to diagrams.

The character of a diagram D is computed from the diagrams below it in
the componentwise order: the coefficient of a weight x^w equals the rank
of the span of certain products of minors of an upper-triangular matrix
of indeterminates, one product per diagram of weight w below D.
"""
from __future__ import annotations

from functools import lru_cache

from weylchar import _kernels
from weylchar.diagrams import CapExceeded, DEFAULT_CAP, Diagram, column_multiset
from weylchar.polynomials import Polynomial, monomial

__all__ = [
    "YPolynomial",
    "column_determinant",
    "determinant_product",
    "coefficient_rank",
    "character_support",
    "dual_character",
]


class YPolynomial:
    """Integer combination of squarefree monomials in indeterminates y_ij, i <= j.

    Terms map a sorted tuple of encoded (i, j) positions to a nonzero
    integer coefficient.  Only used inside the character computation and
    in tests, so the surface is minimal.
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

        >>> y = YPolynomial({((1 * 1024 + 1), (2 * 1024 + 3)): 1})
        >>> y.render()
        'y11*y23'
        """
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            pieces = []
            for p in key:
                i, j = _kernels.decode_pair(p)
                if pieces and pieces[-1][0] == (i, j):
                    pieces[-1][1] += 1
                else:
                    pieces.append([(i, j), 1])
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


def _product(columns, member) -> dict:
    """Terms of the product over j of the minor pairing ``columns[j]`` with ``member[j]``."""
    acc = {(): 1}
    for dcol, ccol in zip(columns, member):
        acc = _kernels.ymul(acc, _minor(dcol, ccol))
        if not acc:
            break
    return acc


def coefficient_rank(polys) -> int:
    """Rank of the integer span of the given y-polynomials.

    Builds the coefficient matrix over the union of their monomials and
    runs fraction-free elimination over exact integers.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return 0
    support = sorted({key for p in polys for key in p.terms})
    index = {key: k for k, key in enumerate(support)}
    rows = []
    for p in polys:
        row = [0] * len(support)
        for key, coeff in p.terms.items():
            row[index[key]] = coeff
        rows.append(row)
    return _kernels.bareiss_rank(rows)


def character_support(d: Diagram, cap: int = DEFAULT_CAP) -> frozenset:
    """Set of weight monomials of the diagrams below ``d``, without ranks."""
    try:
        raw = _kernels.weight_support(d.columns, d.n, cap)
    except ValueError:
        raise CapExceeded(f"weight support of {d!r} exceeds cap {cap}", cap) from None
    return frozenset(monomial(w) for w in raw)


@lru_cache(maxsize=4096)
def _character(columns, n: int, cap: int) -> Polynomial:
    try:
        classes = _kernels.group_by_weight(columns, n, cap)
    except ValueError:
        raise CapExceeded(
            f"enumeration below the diagram exceeds cap {cap}", cap
        ) from None
    terms = {}
    for weight, members in classes.items():
        if len(members) == 1:
            coeff = 1
        else:
            coeff = coefficient_rank([YPolynomial(_product(columns, m)) for m in members])
        if coeff < 1:
            raise AssertionError(f"weight {weight} produced rank {coeff}")
        terms[weight] = coeff
    return Polynomial.from_terms(terms.items())


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
    return _character(column_multiset(d), d.n, cap)
