"""Character engine: determinants, ranks of spans, and full characters."""
import hashlib
import importlib.util
import itertools
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar import _kernels, weyl
from weylchar.cli import main
from weylchar.diagrams import (
    DEFAULT_CAP,
    CapExceeded,
    column_multiset,
    count_below,
    diagram,
    enumerate_below,
    rothe,
    weight_monomial,
)
from weylchar.polynomials import Polynomial, principal_specialization, render
from weylchar.verify import all_diagrams, all_skyline
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
        weyl._packed_minor.cache_clear()
        weyl._factors.cache_clear()
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
    """Every pair (WORKED, c), c below WORKED, as the engine keys, expands and multiplies it."""
    columns = column_multiset(WORKED)
    assert columns + ((),) == WORKED.columns
    pairs = 0
    for members in weyl._kernels.group_by_weight(columns, WORKED.n, DEFAULT_CAP).values():
        for member in members:
            c = diagram(member + ((),), n=WORKED.n)
            expected = YPolynomial({(): 1})
            for dcol, ccol in zip(WORKED.columns, c.columns):
                expected = expected * column_determinant(dcol, ccol)
            key = weyl._member_key(columns, member)
            packed = weyl._expand(key, {})
            assert determinant_product(WORKED, c) == expected
            assert packed == pack(expected.terms)
            assert key[2] == min(packed)
            pairs += 1
    assert pairs == count_below(WORKED)


def test_grown_keys_are_the_member_keys():
    """Unpruned, ``_grow`` keys each weight class by its members' keys, as ``_member_key`` folds them."""
    cases = [column_multiset(WORKED), ((2, 3), (2, 3), (2, 3, 4)), ((2, 4), (1, 3, 4), (2, 3, 4))]
    cases += list(grid_multisets(4))[1::97]
    blocks = 0
    for columns in cases:
        spaces = {0: [weyl._ONE]}
        for col in columns:
            spaces = weyl._grow(spaces, col)
        expected = {}
        for weight, members in _kernels.group_by_weight(columns, 4, DEFAULT_CAP).items():
            expected[weight] = {weyl._member_key(columns, m) for m in members}
        assert {w: set(keys) for w, keys in spaces.items()} == expected, columns
        blocks += sum(len(key[1]) > 1 for keys in expected.values() for key in keys)
    assert blocks > 0  # some products merge blocks from two minors


def test_factored_minors_are_the_minors():
    """Each minor on the 6-grid is its 1 x 1 blocks' monomial times its larger blocks' minors."""
    cells = larger = 0
    for mask in range(1, 2 ** 6):
        d = tuple(i for i in range(1, 7) if mask >> (i - 1) & 1)
        for c in _kernels.column_ideal(d):
            key = mono, blocks, lead = weyl._factors(d, c)
            minor = weyl._packed_minor(d, c)
            assert weyl._expand(key, {}) == minor, (d, c)
            assert minor == pack(_kernels.column_det(d, c))
            assert lead == min(minor)
            assert list(blocks) == sorted(blocks) and all(len(b[0]) > 1 for b in blocks)
            cells += 1
            larger += bool(blocks)
    assert (cells, larger) == (428, 196)


def test_negative_cap_is_a_usage_error():
    with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
        dual_character(WORKED, cap=-1)
    with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
        character_support(WORKED, cap=-1)


def test_cap_is_checked_in_every_column_order():
    for columns in itertools.permutations([(1, 3), (2, 3), ()]):
        with pytest.raises(CapExceeded):
            dual_character(diagram(columns), cap=5)
        assert principal_specialization(dual_character(diagram(columns), cap=6)) == 6


# The engine before packed keys, weight spaces and the sparse echelon,
# kept as the reference: every ordered member's product, keyed by sorted
# tuples of (i, j) positions and multiplied by ``_kernels.ymul``, and
# ranks of the dense coefficient matrix over the union of their
# monomials by ``_kernels.bareiss_rank``.

@lru_cache(maxsize=None)
def reference_minor(dcol, ccol):
    return _kernels.column_det(dcol, ccol)


def reference_product(columns, member):
    acc = {(): 1}
    for dcol, ccol in zip(columns, member):
        acc = _kernels.ymul(acc, reference_minor(dcol, ccol))
    return acc


def pack(terms):
    """Terms keyed by (i, j) positions, packed as the engine packs them: y_ij in byte ``_field(i, j)``."""
    return {sum(1 << 8 * weyl._field(i, j) for i, j in key): coeff for key, coeff in terms.items()}


def reference_rank(polys):
    support = sorted({key for p in polys for key in p})
    index = {key: k for k, key in enumerate(support)}
    rows = []
    for p in polys:
        row = [0] * len(support)
        for key, coeff in p.items():
            row[index[key]] = coeff
        rows.append(row)
    return _kernels.bareiss_rank(rows)


def reference_character(columns, n):
    """Every ordered member below ``columns``, grouped by weight, each class ranked densely."""
    classes = {}
    for member in itertools.product(*(_kernels.column_ideal(c) for c in columns)):
        classes.setdefault(_kernels.weight_of_columns(member, n), []).append(member)
    terms = {
        weight: reference_rank([reference_product(columns, m) for m in members])
        for weight, members in classes.items()
    }
    return Polynomial.from_terms(terms.items())


def grid_multisets(n):
    """Every multiset of n non-empty columns of the n-grid, empty columns dropped."""
    columns = [tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1) for mask in range(2 ** n)]
    for combo in itertools.combinations_with_replacement(columns, n):
        yield tuple(sorted(c for c in combo if c))


def test_characters_match_the_dense_bareiss_reference():
    """3- and 4-grid column multisets, Rothe diagrams up to n = 6, skylines of keys (2, 4)."""
    cases = {(columns, n) for n in (3, 4) for columns in grid_multisets(n)}
    for n in range(1, 7):
        cases |= {(column_multiset(rothe(w)), n) for w in itertools.permutations(range(1, n + 1))}
    cases |= {(column_multiset(d), d.n) for _, d in all_skyline(2, 4).instances()}
    assert len(cases) > 3876 + 873
    for columns, n in sorted(cases):
        assert weyl._character.__wrapped__(columns, n, DEFAULT_CAP) == reference_character(columns, n), (columns, n)


# an engine-free oracle: the coefficient of x^w in the character of D is
# the dimension of the weight-w space of U(n+) . (e_{D_1} (x) ... (x) e_{D_m}),
# where n+, the strictly upper-triangular matrices, is generated as a Lie
# algebra by the raising operators E_{i,i+1}.  Ordered members are the
# coordinates; no minor, product of minors or echelon is used, only ranks
# by ``_kernels.bareiss_rank``.

def raise_row(vector, i):
    """E_{i,i+1} on a tensor vector: row i + 1 becomes row i in one factor at a time.

    The replaced row keeps its place in its increasing column, so no
    sign arises; a factor that already holds row i is killed.
    """
    out = {}
    for member, coeff in vector.items():
        for k, col in enumerate(member):
            if i + 1 in col and i not in col:
                image = member[:k] + (tuple(i if r == i + 1 else r for r in col),) + member[k + 1:]
                out[image] = out.get(image, 0) + coeff
    return {m: c for m, c in out.items() if c}


def independent_vectors(vectors):
    """The vectors, in order, that raise the rank of those kept before them."""
    coordinates = sorted({m for v in vectors for m in v})
    kept, rows = [], []
    for v in vectors:
        row = [v.get(m, 0) for m in coordinates]
        if _kernels.bareiss_rank(rows + [row]) > len(rows):
            rows.append(row)
            kept.append(v)
    return kept


def raising_character(columns, n):
    """Weight-space dimensions of the module the raising operators generate from the columns.

    A weight space is spanned by the raising operators applied to bases
    of the weight spaces one raise lower, so the spaces are built a
    level at a time, each pruned to a basis.
    """
    start = tuple(c for c in columns if c)
    top = tuple(sum(r in c for c in start) for r in range(1, n + 1))
    spaces = {top: [{start: 1}]}
    terms = {}
    while spaces:
        grown = {}
        for w, basis in spaces.items():
            terms[w] = len(basis)
            for i in range(1, n):
                images = [image for image in (raise_row(v, i) for v in basis) if image]
                if images:
                    target = w[:i - 1] + (w[i - 1] + 1, w[i] - 1) + w[i + 1:]
                    grown.setdefault(target, []).extend(images)
        spaces = {w: independent_vectors(vs) for w, vs in grown.items()}
    return Polynomial.from_terms(terms.items())


def test_characters_match_the_raising_operator_oracle():
    """The 3-grid, Rothe diagrams up to n = 5, skylines of keys (2, 4) and every 16th 4-grid multiset."""
    grid3 = [diagram(columns, 3) for columns in grid_multisets(3)]
    cases = grid3 + [rothe(w) for n in range(1, 6) for w in itertools.permutations(range(1, n + 1))]
    cases += [d for _, d in all_skyline(2, 4).instances()]
    cases += [diagram(columns, 4) for columns in list(grid_multisets(4))[::16]]
    assert len(cases) == 120 + 153 + 81 + 243
    for d in cases:
        assert raising_character(d.columns, d.n) == dual_character(d), d
    # the oracle checks multiplicities, not just the support
    assert sum(max(dual_character(d).terms.values()) > 1 for d in grid3) == 22


def load_benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dense_sample_ranks_match_the_dense_bareiss_reference():
    """Every multi-member weight class of the benchmark's dense 5-grid sample, seed 1, part 0."""
    workloads = load_benchmark_workloads()
    classes = 0
    for d in workloads.dense_sample_5grid(1, 0, workloads.SMOKE_DENSE_QUOTA):
        columns = column_multiset(d)
        for members in _kernels.group_by_weight(columns, d.n, DEFAULT_CAP).values():
            if len(members) > 1:
                packed = [weyl._expand(weyl._member_key(columns, m), {}) for m in members]
                expected = reference_rank([reference_product(columns, m) for m in members])
                assert coefficient_rank(packed) == expected, (columns, members)
                classes += 1
    assert classes > 1000


def packed_products(columns, n):
    """Every member's product below ``columns`` as the engine packs it."""
    out = {}
    for members in _kernels.group_by_weight(columns, n, DEFAULT_CAP).values():
        for m in members:
            out[m] = weyl._expand(weyl._member_key(columns, m), {})
    return out


def test_an_exponent_may_reach_the_column_count():
    """m equal columns (1,) multiply y11 m times, filling the exponent field exactly."""
    for m in range(1, 9):
        d = diagram([(1,)] * m)
        assert render(dual_character(d)) == ("x1" if m == 1 else f"x1^{m}")
        assert determinant_product(d, d).render() == ("y11" if m == 1 else f"y11^{m}")
    # every product of minors below three columns (1, 3) has the factor y11^3
    columns = ((1, 3),) * 3
    assert weyl._character.__wrapped__(columns, 3, DEFAULT_CAP) == reference_character(columns, 3)
    for member, product in packed_products(columns, 3).items():
        assert product == pack(reference_product(columns, member))


def test_a_weight_count_fills_its_byte_and_never_carries(capsys):
    """Counts pack one byte per field: 255 equal columns fit, 256 non-empty ones raise rather than carry."""
    columns = ((1,),) * 255
    assert weyl._dimensions(columns, {255}) == {255: 1}
    # y11^255 fills the y11 byte, and nothing carries into y12's
    assert weyl._member_key(columns, columns)[0] == 255
    assert render(dual_character(diagram(columns))) == "x1^255"
    full = diagram([(1,)] * 256)
    for engine in (dual_character, character_support):
        with pytest.raises(ValueError, match="256 non-empty columns"):
            engine(full)
    assert main(["chi", ";".join(["1"] * 256)]) == 2
    assert "256 non-empty columns" in capsys.readouterr().err
    # empty columns do not count
    assert render(dual_character(diagram([(1,)], n=300))) == "x1"


def test_grid_4_characters_keep_their_digest():
    """Every 4-grid column multiset's character, term order included, hashes as it always has."""
    table = [tuple(i for i in range(1, 5) if bits >> (i - 1) & 1) for bits in range(16)]
    grids = itertools.combinations_with_replacement(table, 4)
    characters = [list(dual_character(diagram(columns, 4)).terms.items()) for columns in grids]
    assert len(characters) == 3876
    digest = hashlib.sha256(repr(characters).encode()).hexdigest()
    assert digest == "2295d9472bd09e77bb971f6d243a1114ce9523f980d55955c66590a21ea872b6"


def test_packed_minors_are_shared_across_grid_sizes():
    """The packed layout does not depend on n, so the same multiset at another n packs no minor afresh."""
    weyl._packed_minor.cache_clear()
    columns = ((1, 3), (2, 3))
    packed_products(columns, 3)
    misses = weyl._packed_minor.cache_info().misses
    assert misses > 0
    products = packed_products(columns, 5)
    assert weyl._packed_minor.cache_info().misses == misses
    for member, product in products.items():
        assert product == pack(reference_product(columns, member)), member


GRID4_COLUMNS = [tuple(i for i in range(1, 5) if mask >> (i - 1) & 1) for mask in range(1, 16)]


@given(
    st.lists(st.sampled_from(GRID4_COLUMNS), min_size=2, max_size=4),
    st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_engine_matches_the_reference_with_repeated_columns(drawn, repeat):
    """3-5 columns of the 4-grid drawn with replacement, one of them at least twice."""
    columns = tuple(sorted(drawn + [drawn[repeat % len(drawn)]]))
    assert weyl._character.__wrapped__(columns, 4, DEFAULT_CAP) == reference_character(columns, 4)


@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.integers(-3, 3).filter(bool), max_size=4),
        max_size=8,
    ),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-2, 2)), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_kept_basis_is_independent_and_spans_the_inputs(polys, combos):
    """``_independent`` keeps inputs, unreduced, that are independent and have the rank of them all."""
    for a, b, c in combos:  # add some dependent inputs: p_a + c * p_b
        if a < len(polys) and b < len(polys):
            q = dict(polys[a])
            for k, v in polys[b].items():
                q[k] = q.get(k, 0) + c * v
            polys.append({k: v for k, v in q.items() if v})
    kept = weyl._independent(polys)
    assert all(any(k is p for p in polys) for k in kept)
    assert reference_rank(kept) == len(kept) == reference_rank(polys) == coefficient_rank(polys)
