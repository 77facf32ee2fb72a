"""Schubert and key polynomials, reduced words, and the all-ones evaluator."""
import importlib
import itertools
from functools import lru_cache, reduce

import pytest

from weylchar.diagrams import count_132, has_unstable_pair, rothe, skyline
from weylchar.polynomials import (
    Polynomial,
    demazure,
    divided_difference,
    monomial,
    principal_specialization,
    render,
    zero_one_witness,
)
from weylchar.schubert import (
    _schubert_canonical,
    inversions,
    key,
    macdonald_specialization,
    reduced_words,
    schubert,
)
from weylchar.weyl import dual_character

# the module, not the function the package exports under the same name
schubert_module = importlib.import_module("weylchar.schubert")


def test_schubert_base_cases():
    assert render(schubert((3, 2, 1))) == "x1^2*x2"
    assert schubert((1, 2, 3)) == Polynomial.one()
    assert schubert(()) == Polynomial.one()
    assert render(schubert((4, 3, 2, 1))) == "x1^3*x2^2*x3"


def test_schubert_s3_table():
    table = {
        (1, 3, 2): "x2 + x1",
        (2, 1, 3): "x1",
        (2, 3, 1): "x1*x2",
        (3, 1, 2): "x1^2",
        (3, 2, 1): "x1^2*x2",
    }
    for w, expected in table.items():
        assert render(schubert(w)) == expected


def test_schubert_embedding_stability():
    for w in itertools.permutations(range(1, 5)):
        extended = w + (5,)
        assert schubert(extended) == schubert(w)


def _schubert_all_routes(w):
    """Every polynomial reachable by recursing on any ascent choice."""
    n = len(w)
    if w == tuple(range(n, 0, -1)):
        return [schubert(w)]
    results = []
    for j in range(1, n):
        if w[j - 1] < w[j]:
            v = list(w)
            v[j - 1], v[j] = v[j], v[j - 1]
            results.extend(
                divided_difference(s, j) for s in _schubert_all_routes(tuple(v))
            )
    return results


def test_ascent_choice_is_irrelevant():
    for w in itertools.permutations(range(1, 5)):
        routes = _schubert_all_routes(w)
        assert routes
        assert all(poly == schubert(w) for poly in routes)


def _leftmost_reference(w, memo):
    """Schubert polynomial by the leftmost-ascent recursion, memoized in ``memo`` without bound."""
    if w not in memo:
        n = len(w)
        j = next((j for j in range(1, n) if w[j - 1] < w[j]), None)
        if j is None:
            memo[w] = Polynomial.from_exponents(tuple(range(n - 1, -1, -1)))
        else:
            memo[w] = divided_difference(_leftmost_reference(_swap(w, j), memo), j)
    return memo[w]


def _swap(w, j):
    v = list(w)
    v[j - 1], v[j] = v[j], v[j - 1]
    return tuple(v)


def test_schubert_matches_leftmost_ascent_reference_s6():
    memo = {}
    for w in itertools.permutations(range(1, 7)):
        assert schubert(w) == _leftmost_reference(w, memo), w


def test_lex_order_sweep_of_s7_keeps_the_memo_small_and_hitting():
    _schubert_canonical.cache_clear()
    for w in itertools.permutations(range(1, 8)):
        schubert(w)
    info = _schubert_canonical.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize
    # an unbounded memo misses exactly once per permutation, 5,040 times
    assert info.misses <= 1.05 * 5040


def _apply_word(word, n):
    w = list(range(1, n + 1))
    for j in word:
        w[j - 1], w[j] = w[j], w[j - 1]
    return tuple(w)


def brute_reduced_words(w):
    length = inversions(w)
    n = len(w)
    return sorted(
        word
        for word in itertools.product(range(1, n), repeat=length)
        if _apply_word(word, n) == w
    )


def test_reduced_words_brute_force():
    for n in range(1, 5):
        for w in itertools.permutations(range(1, n + 1)):
            assert reduced_words(w) == brute_reduced_words(w)


def test_reduced_words_examples():
    assert reduced_words((3, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    assert reduced_words((2, 1, 4, 3)) == [(1, 3), (3, 1)]
    assert reduced_words((1, 2, 3)) == [()]


def test_reduced_words_lex_sorted():
    for w in itertools.permutations(range(1, 6)):
        words = reduced_words(w)
        assert words == sorted(words)


def test_macdonald_examples():
    assert macdonald_specialization((3, 2, 1)) == 1
    assert macdonald_specialization((1, 2, 3)) == 1
    assert macdonald_specialization((1, 3, 2)) == 2


def test_macdonald_matches_direct_word_sum():
    import math

    for w in itertools.permutations(range(1, 5)):
        words = reduced_words(w)
        total = sum(reduce(lambda acc, a: acc * a, word, 1) for word in words)
        length = inversions(w)
        assert total == macdonald_specialization(w) * math.factorial(length)


def test_macdonald_cross_check_s4():
    for w in itertools.permutations(range(1, 5)):
        assert macdonald_specialization(w) == principal_specialization(schubert(w))


def test_schubert_equals_rothe_character_s4():
    for w in itertools.permutations(range(1, 5)):
        assert schubert(w) == dual_character(rothe(w))


def test_schubert_and_rothe_character_share_their_monomials():
    for w in itertools.permutations(range(1, 5)):
        chi, sigma = dual_character(rothe(w)).terms, schubert(w).terms
        assert chi == sigma
        canonical = {m: m for m in sigma}
        assert all(m is canonical[m] for m in chi), w


# Fink-Meszaros-St. Dizier, "Zero-one Schubert polynomials" (Math. Z. 2021):
# the Schubert polynomial of w is zero-one iff w avoids these twelve
ZERO_ONE_PATTERNS = {
    (1, 2, 5, 4, 3), (1, 3, 2, 5, 4), (1, 3, 5, 2, 4), (1, 3, 5, 4, 2), (2, 1, 5, 4, 3),
    (1, 2, 5, 3, 6, 4), (1, 2, 5, 6, 3, 4), (2, 1, 5, 3, 6, 4), (2, 1, 5, 6, 3, 4),
    (3, 1, 5, 2, 6, 4), (3, 1, 5, 6, 2, 4), (3, 1, 5, 6, 4, 2),
}


def _standardized(values):
    """The permutation of 1..k ordered as ``values``."""
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def _occurrences(w, k):
    """The patterns of the index sets of size ``k`` of ``w``, one per index set."""
    return [_standardized(sub) for sub in itertools.combinations(w, k)]


def test_rothe_statements_of_the_literature_through_s7():
    """Statements on permutations read from nu_w, p_132, Rothe diagrams and Schubert polynomials, with no character.

    (a) The paper: nu_w = 1 + p_132(w) iff rothe(w) has no unstable pair.
    (b) Weigandt ("Schubert polynomials, 132-patterns, and Stanley's
        conjecture", 2018): nu_w >= 1 + p_132(w) + p_1432(w).
    (c) The Schubert polynomial of w is zero-one iff w avoids ZERO_ONE_PATTERNS.
    """
    equalities, zero_ones = [], []
    for n in range(1, 8):
        equal = zero_one = 0
        for w in itertools.permutations(range(1, n + 1)):
            nu, p132 = macdonald_specialization(w), count_132(w)
            assert (nu == 1 + p132) == (has_unstable_pair(rothe(w)) is None), w
            assert nu >= 1 + p132 + _occurrences(w, 4).count((1, 4, 3, 2)), w
            avoids = ZERO_ONE_PATTERNS.isdisjoint(_occurrences(w, 5) + _occurrences(w, 6))
            assert (zero_one_witness(schubert(w)) is None) == avoids, w
            equal += nu == 1 + p132
            zero_one += avoids
        equalities.append(equal)
        zero_ones.append(zero_one)
    assert equalities == [1, 2, 6, 23, 92, 369, 1474]
    assert zero_ones == [1, 2, 6, 24, 115, 605, 3343]


def test_key_base_cases():
    assert render(key((2, 1, 0))) == "x1^2*x2"
    assert render(key((0, 1))) == "x2 + x1"
    assert key(()) == Polynomial.one()
    assert key((0, 0)) == Polynomial.one()
    assert key((2, 1, 0)) == key((2, 1))


def test_key_equals_skyline_character():
    for alpha in itertools.product(range(3), repeat=3):
        assert key(alpha) == dual_character(skyline(alpha))


def _leftmost_key_reference(alpha, memo):
    """Key polynomial by sorting the leftmost ascent, memoized in ``memo`` without stripping zeros."""
    if alpha not in memo:
        i = next((i for i in range(len(alpha) - 1) if alpha[i] < alpha[i + 1]), None)
        if i is None:
            memo[alpha] = Polynomial.from_exponents(monomial(alpha))
        else:
            memo[alpha] = demazure(_leftmost_key_reference(_swap(alpha, i + 1), memo), i + 1)
    return memo[alpha]


def test_key_memo_holds_one_entry_per_composition(monkeypatch):
    compositions = list(itertools.product(range(3), repeat=4))
    keys = set()
    build = schubert_module._key_canonical.__wrapped__

    def recording(alpha):
        keys.add(alpha)
        return build(alpha)

    monkeypatch.setattr(schubert_module, "_key_canonical", lru_cache(maxsize=None)(recording))
    memo = {}
    for alpha in compositions:
        assert key(alpha) == _leftmost_key_reference(alpha, memo), alpha
    distinct = {alpha[:max((k + 1 for k, a in enumerate(alpha) if a), default=0)] for alpha in compositions}
    assert not any(alpha and alpha[-1] == 0 for alpha in keys)
    assert keys == distinct
    assert schubert_module._key_canonical.cache_info().currsize == len(distinct) == 81


def test_key_of_reversed_partition_is_full_homogeneous_piece():
    # kappa over the antidominant rearrangement spans all monomials of
    # the orbit: spot-check the smallest nontrivial case
    k = key((0, 1, 2))
    assert k.coefficient((0, 1, 2)) == 1
    assert k.coefficient((2, 1, 0)) == 1
    assert principal_specialization(k) == 8


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        schubert((1, 1))
    with pytest.raises(ValueError):
        reduced_words((2, 3))
    with pytest.raises(ValueError):
        key((1, -1))
