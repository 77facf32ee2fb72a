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
    of minors; the character engine itself keeps products factored (see
    ``_factors``), so the surface is minimal.
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
    product = YPolynomial({(): 1})
    for dcol, ccol in zip(d.columns, c.columns):
        product = product * column_determinant(dcol, ccol)
    return product


# Packed y-monomials.  Inside a product of m minors a monomial in the
# y_ij, i <= j, is one int: position (i, j) owns byte ``_field(i, j)``,
# holding the exponent of y_ij, so multiplying two monomials adds their
# ints.  Each term of a minor is squarefree, so no exponent of the
# product exceeds m, which the weight kernels keep below 256, and no
# byte carries into the next.  Fields are numbered column by column, so
# a position's field does not depend on the grid size.

def _field(i, j) -> int:
    """Index of (i, j), i <= j, among the upper-triangular positions numbered column by column."""
    return j * (j - 1) // 2 + i - 1


# one memo for the whole process; the dict it returns is shared, so never mutate it
@lru_cache(maxsize=4096)
def _packed_minor(dcol, ccol) -> dict:
    terms = {}
    for key, coeff in _kernels.column_det(dcol, ccol).items():
        packed = 0
        for i, j in key:
            packed += 1 << 8 * _field(i, j)
        terms[packed] = coeff
    return terms


# Factored products.  The minor on rows c, columns d, c <= d, is block
# upper triangular wherever c[a + 1] > d[a], since every entry
# y_{c[a'], d[b]} with a' > a >= b is then zero; so it is the product of
# its staircase blocks, and a 1 x 1 block is the variable y_{c[a], d[a]}.
# A product of minors is keyed by (monomial, blocks, lead): the packed
# product of its 1 x 1 blocks, the sorted tuple of its larger blocks as
# (dcol, ccol) pairs, and its packed least monomial.  Equal keys are
# equal polynomials, and since packed ints compare as exponent vectors
# in lex order, a term order, the lead of a product is the sum of its
# factors' leads.

# one memo for the whole process
@lru_cache(maxsize=4096)
def _factors(dcol, ccol) -> tuple:
    """The key of the minor pairing ``dcol`` with ``ccol``, split into its staircase blocks."""
    mono = lead = start = 0
    blocks = []
    last = len(dcol) - 1
    for a in range(last + 1):
        if a < last and ccol[a + 1] <= dcol[a]:
            continue
        if a == start:
            mono += 1 << 8 * _field(ccol[a], dcol[a])
        else:
            block = (dcol[start:a + 1], ccol[start:a + 1])
            blocks.append(block)
            lead += min(_packed_minor(*block))
        start = a + 1
    return mono, tuple(sorted(blocks)), mono + lead


_ONE = (0, (), 0)  # the key of the empty product


def _times(key, factor) -> tuple:
    """The key of the product of the products keyed by ``key`` and ``factor``."""
    mono, blocks, lead = key
    more = factor[1]
    if more:
        blocks = tuple(sorted(blocks + more)) if blocks else more
    return mono + factor[0], blocks, lead + factor[2]


def _expand(key, memo) -> dict:
    """Packed terms of the product keyed by ``key``; ``memo`` keeps the products of its blocks."""
    mono, blocks, _ = key
    terms = memo.get(blocks)
    if terms is None:
        terms = _packed_minor(*blocks[0]) if blocks else {0: 1}
        for dcol, ccol in blocks[1:]:
            terms = _ymul(terms, _packed_minor(dcol, ccol))
        memo[blocks] = terms
    return {k + mono: v for k, v in terms.items()}


def _ymul(a, b) -> dict:
    """Product of two packed polynomials."""
    out = {}
    get = out.get
    for kb, vb in b.items():
        for ka, va in a.items():
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _member_key(columns, member) -> tuple:
    """The key of the product over j of the minor pairing ``columns[j]`` with ``member[j]``."""
    key = _ONE
    for dcol, ccol in zip(columns, member):
        key = _times(key, _factors(dcol, ccol))
    return key


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


def _grow(spaces, col, wanted=None) -> dict:
    """Multiply every product in ``spaces`` by each minor of ``col``, grouped by packed weight.

    ``spaces`` maps packed weights, as the kernels pack them, to keys of
    products.  Each grown weight maps to a dict whose keys are its
    distinct product keys, in the order first made.  With ``wanted``,
    only the weights in it are kept.
    """
    grown = {}
    for ch, shift in zip(_kernels.column_ideal(col), _kernels.column_weights(col)):
        factor = mono, blocks, lead = _factors(col, ch)
        for weight, keys in spaces.items():
            w = weight + shift
            if wanted is not None and w not in wanted:
                continue
            products = grown.get(w)
            if products is None:
                grown[w] = products = {}
            if blocks:
                for key in keys:
                    products[_times(key, factor)] = None
            else:  # the common case, inlined: no blocks to merge
                for m, b, ld in keys:
                    products[m + mono, b, ld + lead] = None
    return grown


def _certified(keys) -> bool:
    """Whether the products keyed by ``keys`` are independent without expanding them.

    One product is, being nonzero; so are products whose least
    monomials are pairwise distinct, being triangular.
    """
    return len(keys) == 1 or len({lead for _, _, lead in keys}) == len(keys)


def _dimensions(columns, wanted) -> dict:
    """Dimension of each weight space in ``wanted``, built column by column.

    After each column but the last, only a basis of every partial weight
    space is kept.  This is exact: the next column's products span
    span(A) * m = span{a * m : a in A} for each of its minors m, so a
    product whose prefix depends on the kept ones is a combination of
    kept products with the same suffix and the same weight.  Products
    are keys (see ``_factors``), deduplicated by key; a class that
    ``_certified`` cannot vouch for is expanded and chosen from, or
    ranked at the last column, by the sparse echelon.  Expansions are
    memoized by their blocks while this call runs.  ``wanted`` is a set
    of packed weights, by which the result is keyed; ``columns`` must not
    be empty, and there must be fewer than 256 of them, as the weight
    kernels check, so that no count carries into the next byte.
    """
    memo = {}
    spaces = {0: [_ONE]}
    for col in columns[:-1]:
        spaces = {w: _basis(keys, memo) for w, keys in _grow(spaces, col).items()}
    dims = {}
    for w, keys in _grow(spaces, columns[-1], wanted).items():
        if _certified(keys):
            dims[w] = len(keys)
        else:
            dims[w] = coefficient_rank([_expand(k, memo) for k in keys])
    return dims


def _basis(keys, memo) -> list:
    """Keys of a basis of the span of the products keyed by ``keys``, chosen among them."""
    if _certified(keys):
        return list(keys)
    polys = [_expand(k, memo) for k in keys]
    key_of = {id(p): k for p, k in zip(polys, keys)}
    return [key_of[id(p)] for p in _independent(polys)]


def character_support(d: Diagram, cap: int = DEFAULT_CAP) -> frozenset:
    """Set of weight monomials of the diagrams below ``d``, without ranks."""
    check_cap(cap)
    weights = _kernels.weight_support(d.columns, d.n, cap)
    return frozenset(monomial(w.to_bytes(d.n, "little")) for w in weights)


@lru_cache(maxsize=4096)
def _character(columns, n: int, cap: int) -> Polynomial:
    # one member per multiset of choices; a class of one has coefficient 1
    classes = _kernels.group_by_weight(columns, n, cap)
    multi = {weight for weight, members in classes.items() if len(members) > 1}
    dims = _dimensions(columns, multi) if multi else {}
    terms = {}
    for weight, members in classes.items():
        exponents = tuple(weight.to_bytes(n, "little"))
        coeff = 1 if len(members) == 1 else dims.get(weight, 0)
        if coeff < 1:
            raise AssertionError(f"weight {exponents} produced rank {coeff}")
        # distinct weights unpack to distinct length-n tuples, so their trims are distinct too
        terms[_trim(exponents)] = coeff
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
