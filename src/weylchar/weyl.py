"""Dual characters of flagged modules attached to diagrams.

The character of a diagram D is computed from the diagrams below it in
the componentwise order: the coefficient of a weight x^w equals the rank
of the span of certain products of minors of an upper-triangular matrix
of indeterminates, one product per diagram of weight w below D.
"""
from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from math import gcd

from weylchar import _kernels
from weylchar.diagrams import DEFAULT_CAP, Diagram, check_cap, column_multiset
from weylchar.polynomials import Polynomial, _trim, monomial

__all__ = [
    "coefficient_rank",
    "character_support",
    "dual_character",
]


# one memo for the whole process; the dict it returns is shared, so never mutate it
@lru_cache(maxsize=4096)
def _minor(dcol, ccol) -> dict:
    """The minor on rows ``ccol``, columns ``dcol``, in packed y-monomials, as ``column_det`` expands it."""
    return _kernels.column_det(dcol, ccol)


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
            mono += 1 << 8 * _kernels.field(ccol[a], dcol[a])
        else:
            block = (dcol[start:a + 1], ccol[start:a + 1])
            blocks.append(block)
            lead += min(_minor(*block))
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
        terms = _minor(*blocks[0]) if blocks else {0: 1}
        for dcol, ccol in blocks[1:]:
            terms = _kernels.ymul(terms, _minor(dcol, ccol))
        memo[blocks] = terms
    return {k + mono: v for k, v in terms.items()}


def coefficient_rank(polys, kept=None) -> int:
    """Rank of the integer span of the given y-polynomials.

    ``polys`` are dicts of terms whose monomial keys are totally ordered,
    such as packed y-monomials.  A sparse fraction-free echelon: shortest
    first, each polynomial is reduced against a basis keyed by least
    monomial, each step an integer combination that cancels the least
    monomial, divided by the gcd of its coefficients.  The rank is the
    number of inputs that added a basis vector.  If a list ``kept`` is
    given, their positions in ``polys`` are appended to it, in that
    order; those inputs are a basis of the span of all of them.
    """
    basis = {}
    for i in sorted(range(len(polys)), key=[len(p) for p in polys].__getitem__):
        p = polys[i]
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
            if kept is not None:
                kept.append(i)
    return len(basis)


def _grow(spaces, col, wanted=None) -> dict:
    """Multiply every product in ``spaces`` by each minor of ``col``, grouped by packed weight.

    ``spaces`` maps packed weights, as the kernels pack them, to keys of
    products.  Each grown weight maps to a dict whose keys are its
    distinct product keys, in the order first made.  With ``wanted``,
    only the weights in it are kept.
    """
    grown = {}
    for ch, shift in zip(_kernels.column_ideal(col), _kernels.column_weights(col)):
        factor = _factors(col, ch)
        for weight, keys in spaces.items():
            w = weight + shift
            if wanted is not None and w not in wanted:
                continue
            products = grown.get(w)
            if products is None:
                grown[w] = products = {}
            for key in keys:
                products[_times(key, factor)] = None
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
    are keys (see ``_factors``), deduplicated by key, and every class,
    the last column's too, is cut to a basis by ``_basis``; at the last
    column only the basis's size is read.  Expansions are memoized by
    their blocks while this call runs.  ``wanted`` is a set of packed
    weights, by which the result is keyed; ``columns`` must not be
    empty, and there must be fewer than 256 of them, as the weight
    kernels check, so that no count carries into the next byte.
    """
    memo = {}
    spaces = {0: [_ONE]}
    for col in columns[:-1]:
        spaces = {w: _basis(keys, memo) for w, keys in _grow(spaces, col).items()}
    return {w: len(_basis(keys, memo)) for w, keys in _grow(spaces, columns[-1], wanted).items()}


# Ranked shapes, one memo for the whole process.  Let a class's keys be
# sorted and m0 be the first one's monomial.  Take two classes whose
# keys agree in their blocks and whose monomials differ from m0 alike,
# by the same ints: the product keyed by (m, blocks, lead) has the terms
# of the blocks' product with m added to each packed monomial, so every
# packed monomial of the second class's products is the matching one of
# the first's plus one constant c.  Adding c maps ints to ints one to
# one and keeps their order, and the echelon only orders and compares
# monomials, so it keeps the same positions in both; c need not be a
# monomial.  Entries are keyed by the shape's hash, so that a miss
# hashes it once, and hold the shape to compare.  They are evicted
# oldest first once they hold more than ``_SHAPE_PRODUCTS`` products: a
# class holds from 2 to about 90 of them, so a count of entries would
# not bound the memory.  Every shape of the Rothe diagrams of S_7 fits,
# in 7,092 products.
_SHAPE_PRODUCTS = 1 << 13


class _Shapes(OrderedDict):
    """By the hash of a class's shape: the shape, and the positions a basis keeps among its sorted keys."""

    products = 0

    def keep(self, h, shape, kept):
        self[h] = shape, kept
        self.products += len(shape[0])
        while self.products > _SHAPE_PRODUCTS:
            self.products -= len(self.popitem(last=False)[1][0][0])

    def clear(self):
        super().clear()
        self.products = 0


_SHAPES = _Shapes()


def _shape(keys) -> tuple:
    """The shape of the class of sorted ``keys``: its monomials less m0, and its blocks."""
    m0 = keys[0][0]
    return tuple([m - m0 for m, _, _ in keys]), tuple([blocks for _, blocks, _ in keys])


def _kept(keys, memo) -> tuple:
    """Positions, among a class's sorted ``keys``, of keys whose products are a basis of its span."""
    shape = _shape(keys)
    h = hash(shape)  # once per lookup, miss or hit: a tuple does not keep its hash
    entry = _SHAPES.get(h)
    if entry is not None and entry[0] == shape:
        return entry[1]
    positions = []
    coefficient_rank([_expand(k, memo) for k in keys], positions)
    kept = tuple(positions)
    if entry is None:  # on a clash of hashes the older shape keeps its entry
        _SHAPES.keep(h, shape, kept)
    return kept


def _basis(keys, memo) -> list:
    """Keys of a basis of the span of the products keyed by ``keys``, chosen among them."""
    if _certified(keys):
        return list(keys)
    keys = sorted(keys)
    return [keys[i] for i in _kept(keys, memo)]


def character_support(d: Diagram, cap: int = DEFAULT_CAP) -> frozenset:
    """Set of weight monomials of the diagrams below ``d``, without ranks."""
    check_cap(cap)
    weights = _kernels.weight_support(d.columns, cap)
    return frozenset(monomial(w.to_bytes(d.n, "little")) for w in weights)


@lru_cache(maxsize=4096)
def _character(columns, n: int, cap: int) -> Polynomial:
    # one member per multiset of choices; a class of one has coefficient 1
    classes = _kernels.group_by_weight(columns, cap)
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

    The worked example of the paper, rows {1, 3} and {2, 3} in the first
    two columns of the 3-grid:

    >>> from weylchar.diagrams import parse_diagram_inline
    >>> from weylchar.polynomials import principal_specialization, render
    >>> chi = dual_character(parse_diagram_inline("1,3;2,3;"))
    >>> render(chi)
    'x1*x2*x3^2 + x1^2*x3^2 + x1*x2^2*x3 + 2*x1^2*x2*x3 + x1^2*x2^2'
    >>> principal_specialization(chi)
    6
    """
    check_cap(cap)
    return _character(column_multiset(d), d.n, cap)
