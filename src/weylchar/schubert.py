"""Schubert polynomials, key polynomials, and reduced-word statistics.

Permutations are one-line tuples acting on positions 1..n.  Both
polynomial families are generated by divided-difference recursions from
their dominant cases and memoized on canonical representatives, so
embedding a permutation into a larger symmetric group (or padding a
composition with zeros) returns the identical polynomial.  Schubert
polynomials recurse on the rightmost ascent into an LRU memo of a few
hundred entries; key polynomials sort the leftmost ascent into an
unbounded memo.
"""
from __future__ import annotations

import math
from functools import lru_cache

from weylchar.diagrams import check_composition, check_permutation, inverse_permutation
from weylchar.polynomials import (
    Polynomial,
    demazure,
    divided_difference,
    monomial,
)

__all__ = [
    "schubert",
    "key",
    "reduced_words",
    "macdonald_specialization",
    "inversions",
]


def _canonical_perm(w) -> tuple:
    """Strip trailing fixed points: (2, 1, 3) and (2, 1) name the same element."""
    w = list(w)
    while w and w[-1] == len(w):
        w.pop()
    return tuple(w)


def inversions(w) -> int:
    """Number of pairs i < j with w(i) > w(j)."""
    w = check_permutation(w)
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def _swap_positions(w, j):
    """Right multiplication by the adjacent transposition at position j."""
    v = list(w)
    v[j - 1], v[j] = v[j], v[j - 1]
    return tuple(v)


# Entries of the Schubert memo.  Sweeps visit permutations in lex
# order, where neighbours share a prefix; the chain up from w along
# rightmost ascents first sorts the suffix after that prefix, so it
# reaches polynomials the previous permutation's chain just built.  Over
# all of S_8 this bound costs 4% more divided differences than an
# unbounded memo, which peaks at 174 MB; along leftmost ascents, even
# 4,096 entries cost three times as many.
_MEMO_SIZE = 256


@lru_cache(maxsize=_MEMO_SIZE)
def _schubert_canonical(w) -> Polynomial:
    n = len(w)
    if n == 0:
        return Polynomial.one()
    if w == tuple(range(n, 0, -1)):
        staircase = tuple(n - k for k in range(1, n + 1))
        return Polynomial.from_exponents(staircase)
    j = next(j for j in range(n - 1, 0, -1) if w[j - 1] < w[j])
    return divided_difference(_schubert_canonical(_swap_positions(w, j)), j)


def schubert(w) -> Polynomial:
    """Schubert polynomial of ``w``.

    Computed down from the x1^(n-1)*x2^(n-2)*... top by divided
    differences along rightmost ascents; any ascent gives the same
    polynomial.

    >>> from weylchar.polynomials import render
    >>> render(schubert((1, 3, 2)))
    'x2 + x1'
    >>> render(schubert((3, 1, 2)))
    'x1^2'
    """
    return _schubert_canonical(_canonical_perm(check_permutation(w)))


@lru_cache(maxsize=None)
def _key_canonical(alpha) -> Polynomial:
    for i in range(len(alpha) - 1):
        if alpha[i] < alpha[i + 1]:
            swapped = list(alpha)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            # the swap can end the composition in a zero, which names the same key
            return demazure(_key_canonical(monomial(swapped)), i + 1)
    return Polynomial({alpha: 1})


def key(alpha) -> Polynomial:
    """Key polynomial of the composition ``alpha``.

    Weakly decreasing compositions give a single monomial; otherwise the
    leftmost ascent is sorted by one isobaric divided difference.

    >>> from weylchar.polynomials import render
    >>> render(key((0, 1)))
    'x2 + x1'
    >>> render(key((2, 0)))
    'x1^2'
    """
    return _key_canonical(monomial(check_composition(alpha)))


@lru_cache(maxsize=None)
def _reduced_words_canonical(w):
    if not w or w == tuple(range(1, len(w) + 1)):
        return ((),)
    inv = inverse_permutation(w)
    words = []
    for j in range(1, len(w)):
        if inv[j - 1] > inv[j]:
            swapped = tuple(
                j + 1 if v == j else j if v == j + 1 else v for v in w
            )
            words.extend((j,) + tail for tail in _reduced_words_canonical(swapped))
    return tuple(words)


def reduced_words(w) -> list:
    """All reduced words of ``w`` in lexicographic order.

    A word (j1, ..., jl) multiplies adjacent transpositions left to
    right.  Peeling the first letter over ascending left descents makes
    the output lexicographically sorted without an explicit sort.

    >>> reduced_words((2, 1, 4, 3))
    [(1, 3), (3, 1)]
    >>> reduced_words((1, 3, 2))
    [(2,)]
    """
    return list(_reduced_words_canonical(_canonical_perm(check_permutation(w))))


@lru_cache(maxsize=None)
def _word_product_sum(w) -> int:
    """Sum over reduced words of the product of the letters."""
    if not w:
        return 1
    total = 0
    found = False
    for j in range(1, len(w)):
        if w[j - 1] > w[j]:
            found = True
            total += j * _word_product_sum(_canonical_perm(_swap_positions(w, j)))
    return total if found else 1


def macdonald_specialization(w) -> int:
    """All-ones value of the Schubert polynomial, via reduced-word products.

    Sums the letter products over all reduced words by a descent
    recursion, then divides by the factorial of the length; the division
    is checked to be exact.

    >>> macdonald_specialization((1, 4, 3, 2))
    5
    """
    w = _canonical_perm(check_permutation(w))
    total = _word_product_sum(w)
    quotient, remainder = divmod(total, math.factorial(inversions(w)))
    if remainder:
        raise ArithmeticError(
            f"word-product sum {total} is not divisible by the length factorial"
        )
    return quotient
