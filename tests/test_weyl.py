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
    Diagram,
    column_multiset,
    count_below,
    diagram,
    enumerate_below,
    has_unstable_pair,
    rank,
    rothe,
    weight_monomial,
)
from weylchar.polynomials import Polynomial, principal_specialization, render, zero_one_witness
from weylchar.verify import all_diagrams, all_skyline
from weylchar.weyl import character_support, coefficient_rank, dual_character

WORKED = diagram([(1, 3), (2, 3), ()])


def pack(terms):
    """Terms keyed by lists of positions (i, j), one per factor, packed with y_ij in byte j(j - 1)/2 + i - 1."""
    return {sum(1 << 8 * (j * (j - 1) // 2 + i - 1) for i, j in key): coeff for key, coeff in terms.items()}


def _member_key(columns, member) -> tuple:
    """The key of the product over j of the minor pairing ``columns[j]`` with ``member[j]``."""
    key = weyl._ONE
    for dcol, ccol in zip(columns, member):
        key = weyl._times(key, weyl._factors(dcol, ccol))
    return key


def test_column_determinant_triangular_pruning():
    assert _kernels.column_det((1, 3), (1, 3)) == pack({((1, 1), (3, 3)): 1})
    assert _kernels.column_det((2, 3), (1, 2)) == pack({((1, 2), (2, 3)): 1, ((1, 3), (2, 2)): -1})
    assert _kernels.column_det((), ()) == {0: 1}


def test_worked_example_determinant_products():
    """The product of minors of each diagram below the worked example, as the engine keys and expands it."""
    y11, y12, y13, y22, y23, y33 = (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)
    expected = {
        ((1, 3), (2, 3), ()): {(y11, y22, y33, y33): 1},
        ((1, 3), (1, 2), ()): {(y11, y12, y23, y33): 1, (y11, y13, y22, y33): -1},
        ((1, 3), (1, 3), ()): {(y11, y12, y33, y33): 1},
        ((1, 2), (2, 3), ()): {(y11, y22, y23, y33): 1},
        ((1, 2), (1, 2), ()): {(y11, y12, y23, y23): 1, (y11, y13, y22, y23): -1},
        ((1, 2), (1, 3), ()): {(y11, y12, y23, y33): 1},
    }
    seen = set()
    for c in enumerate_below(WORKED):
        seen.add(c.columns)
        key = _member_key(WORKED.columns, c.columns)
        assert weyl._expand(key, {}) == pack(expected[c.columns])
        assert reference_product(WORKED.columns, c.columns) == pack(expected[c.columns])
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
    spans = [reference_product(WORKED.columns, c.columns) for c in members]
    assert coefficient_rank(spans) == 2
    assert coefficient_rank(spans + spans) == 2
    assert coefficient_rank(spans[:1]) == 1
    assert coefficient_rank([]) == 0


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


def test_a_missing_rank_names_its_weight_unpacked(monkeypatch):
    monkeypatch.setattr(weyl, "_dimensions", lambda columns, wanted: {})
    weyl._CORES.clear()
    with pytest.raises(AssertionError, match=r"^weight \(2, 1, 1, 0, 0\) produced rank 0$"):
        weyl._character.__wrapped__(column_multiset(WORKED), 5, DEFAULT_CAP)


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
    """Computed afresh in every column order, empty columns kept, each 3-grid character agrees."""
    for _, d in all_diagrams(3).instances():
        chi = dual_character(d)
        for columns in set(itertools.permutations(d.columns)):
            weyl._CORES.clear()
            assert weyl._character.__wrapped__(columns, d.n, DEFAULT_CAP) == chi, columns


def test_column_orders_share_one_computation(monkeypatch):
    weyl._character.cache_clear()
    calls = []
    group = weyl._kernels.group_by_weight

    def counting(columns, cap):
        calls.append(columns)
        return group(columns, cap)

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
        weyl._CORES.clear()
        weyl._minor.cache_clear()
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
    for members in weyl._kernels.group_by_weight(columns, DEFAULT_CAP).values():
        for member in members:
            key = _member_key(columns, member)
            packed = weyl._expand(key, {})
            assert packed == reference_product(WORKED.columns, member + ((),))
            assert key[2] == min(packed)
            pairs += 1
    assert pairs == count_below(WORKED)


def test_products_are_multiplied_by_the_ymul_kernel(monkeypatch):
    """``_expand`` multiplies the minors of a product's blocks through ``_kernels.ymul``, once per memo."""
    columns = ((2, 3), (2, 3), (2, 3, 4))
    member = ((1, 2), (1, 2), (1, 2, 3))
    key = _member_key(columns, member)
    assert len(key[1]) == 3  # three blocks: two multiplications
    expected = reference_product(columns, member)
    calls = []
    ymul = _kernels.ymul

    def counting(a, b):
        calls.append((a, b))
        return ymul(a, b)

    monkeypatch.setattr(weyl._kernels, "ymul", counting)
    memo = {}
    assert weyl._expand(key, memo) == expected
    assert len(calls) == 2
    assert weyl._expand(key, memo) == expected
    assert len(calls) == 2


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
        for weight, members in _kernels.group_by_weight(columns, DEFAULT_CAP).items():
            expected[weight] = {_member_key(columns, m) for m in members}
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
            minor = weyl._minor(d, c)
            assert weyl._expand(key, {}) == minor, (d, c)
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


@pytest.mark.parametrize("cap", [True, 2.5, 6.0, "7", None])
def test_non_integer_cap_is_a_usage_error(cap):
    for engine in (dual_character, character_support):
        with pytest.raises(ValueError, match="cap must be an integer"):
            engine(WORKED, cap=cap)


def test_cap_is_checked_in_every_column_order():
    for columns in itertools.permutations([(1, 3), (2, 3), ()]):
        with pytest.raises(CapExceeded):
            dual_character(diagram(columns), cap=5)
        assert principal_specialization(dual_character(diagram(columns), cap=6)) == 6


# The engine before factored keys, weight spaces and the sparse echelon,
# kept as the reference: every ordered member's product, the minors
# multiplied whole by ``_kernels.ymul``, and ranks of the dense
# coefficient matrix over the union of their monomials by
# ``_kernels.bareiss_rank``.

@lru_cache(maxsize=None)
def reference_minor(dcol, ccol):
    return _kernels.column_det(dcol, ccol)


def reference_product(columns, member):
    acc = {0: 1}
    for dcol, ccol in zip(columns, member):
        acc = _kernels.ymul(acc, reference_minor(dcol, ccol))
    return acc


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
        classes.setdefault(weight_monomial(Diagram(member, n)), []).append(member)
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


def test_an_initial_column_multiplies_the_character_by_its_monomial():
    """A column {1, ..., k} is the only column below itself, and its minor is y_11...y_kk.

    So emptying it divides the character, and moves its zero-one witness, by
    x_1...x_k, and leaves the rank, the count below, B(D) and whether an
    unstable pair exists as they were.
    Checked on every 3- and 4-grid multiset with such a column: the same
    engine on a different input, not an independent route.
    """
    checked = []
    for n in (3, 4):
        initial = {tuple(range(1, k + 1)) for k in range(1, n + 1)}
        multisets = [columns for columns in grid_multisets(n) if not initial.isdisjoint(columns)]
        for columns in multisets:
            j = next(j for j, col in enumerate(columns) if col in initial)
            d = diagram(columns, n)
            rest = diagram(columns[:j] + ((),) + columns[j + 1:], n)
            x = Polynomial.from_exponents((1,) * len(columns[j]))
            assert dual_character(d) == x * dual_character(rest), columns
            witness = zero_one_witness(dual_character(rest))
            if witness:
                (moved,) = (x * Polynomial.from_exponents(witness[0])).terms
                witness = moved, witness[1]
            assert zero_one_witness(dual_character(d)) == witness, columns
            assert rank(d) == rank(rest) and count_below(d) == count_below(rest), columns
            # so B(D), a sum over the columns' ideal sizes less one, is unchanged too
            assert _kernels.count_column_ideal(columns[j]) == 1, columns
            assert (has_unstable_pair(d) is None) == (has_unstable_pair(rest) is None), columns
        checked.append(len(multisets))
    assert checked == [85, 2511]


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
        for members in _kernels.group_by_weight(columns, DEFAULT_CAP).values():
            if len(members) > 1:
                packed = [weyl._expand(_member_key(columns, m), {}) for m in members]
                expected = reference_rank([reference_product(columns, m) for m in members])
                assert coefficient_rank(packed) == expected, (columns, members)
                classes += 1
    assert classes > 1000


def packed_products(columns):
    """Every member's product below ``columns`` as the engine packs it."""
    out = {}
    for members in _kernels.group_by_weight(columns, DEFAULT_CAP).values():
        for m in members:
            out[m] = weyl._expand(_member_key(columns, m), {})
    return out


def test_an_exponent_may_reach_the_column_count():
    """m equal columns (1,) multiply y11 m times, filling the exponent field exactly."""
    for m in range(1, 9):
        d = diagram([(1,)] * m)
        assert render(dual_character(d)) == ("x1" if m == 1 else f"x1^{m}")
        assert weyl._expand(_member_key(d.columns, d.columns), {}) == pack({((1, 1),) * m: 1})
    # every product of minors below three columns (1, 3) has the factor y11^3
    columns = ((1, 3),) * 3
    assert weyl._character.__wrapped__(columns, 3, DEFAULT_CAP) == reference_character(columns, 3)
    for member, product in packed_products(columns).items():
        assert product == reference_product(columns, member)
        assert all(k & 0xFF == 3 for k in product)  # y11 is byte 0


def test_a_weight_count_fills_its_byte_and_never_carries(capsys):
    """Counts pack one byte per field: 255 equal columns fit, 256 non-empty ones raise rather than carry."""
    columns = ((1,),) * 255
    assert weyl._dimensions(columns, {255}) == {255: 1}
    # y11^255 fills the y11 byte, and nothing carries into y12's
    assert _member_key(columns, columns)[0] == 255
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


S7_ROTHE_DIGEST = "4f7f55f51ff703df81d874a99e3c0a3d381e2f7f79598cb853ddd2ead6581a17"


def cold_engine():
    """Empty every memo the character engine keeps for the process."""
    for memo in (weyl._character, weyl._minor, weyl._factors, _kernels.column_ideal, _kernels.column_weights):
        memo.cache_clear()
    weyl._SHAPES.clear()
    weyl._CORES.clear()


def rothe_characters(perms):
    return [list(dual_character(rothe(w)).terms.items()) for w in perms]


def digest(characters):
    return hashlib.sha256(repr(characters).encode()).hexdigest()


def test_s7_rothe_characters_keep_their_digest(monkeypatch):
    """All of S_7's Rothe characters, term order included, whatever the shape memo holds."""
    perms = list(itertools.permutations(range(1, 8)))
    ranked = []
    rank = weyl.coefficient_rank

    def counting(polys, kept=None):
        ranked.append(len(polys))
        return rank(polys, kept)

    monkeypatch.setattr(weyl, "coefficient_rank", counting)
    cold_engine()
    assert digest(rothe_characters(perms)) == S7_ROTHE_DIGEST
    # each shape is ranked once
    shapes = len(weyl._SHAPES)
    assert 0 < len(ranked) == shapes < 2000
    # the shape memo warmed in reverse order ranks every class the forward order meets
    cold_engine()
    assert digest(rothe_characters(reversed(perms))[::-1]) == S7_ROTHE_DIGEST
    ranked.clear()
    weyl._character.cache_clear()
    weyl._CORES.clear()
    assert digest(rothe_characters(perms)) == S7_ROTHE_DIGEST
    assert ranked == []
    # bounds so small that every insert evicts: every class is ranked afresh
    monkeypatch.setattr(weyl, "_SHAPE_PRODUCTS", 1)
    monkeypatch.setattr(weyl, "_CORE_CLASSES", 0)
    cold_engine()
    assert digest(rothe_characters(perms)) == S7_ROTHE_DIGEST
    assert len(weyl._SHAPES) == weyl._SHAPES.size == len(weyl._CORES) == weyl._CORES.size == 0
    assert len(ranked) > 10 * shapes
    cold_engine()


def initial_column_cases():
    """Every 3- and 4-grid multiset with an initial column, and the Rothe diagrams of S_6: (columns, n)."""
    cases = []
    for n in (3, 4):
        initial = {tuple(range(1, k + 1)) for k in range(1, n + 1)}
        cases += [(columns, n) for columns in grid_multisets(n) if not initial.isdisjoint(columns)]
    cases += [(column_multiset(rothe(w)), 6) for w in itertools.permutations(range(1, 7))]
    return cases


def core(columns):
    return tuple(col for col in columns if col[-1] != len(col))


def test_characters_from_a_cold_core_memo_are_the_memoized_ones():
    """Each character, term order included, whether its core's entry was there or is made for it."""
    cases = initial_column_cases()
    assert len(cases) == 85 + 2511 + 720
    cold_engine()
    warm = [list(weyl._character.__wrapped__(columns, n, DEFAULT_CAP).terms.items()) for columns, n in cases]
    # most cases find their core's entry made by an earlier one
    assert len(weyl._CORES) < len(cases) // 2
    for (columns, n), terms in zip(cases, warm):
        weyl._CORES.clear()
        assert list(weyl._character.__wrapped__(columns, n, DEFAULT_CAP).terms.items()) == terms, columns
    cold_engine()


def test_each_multiset_is_grouped_once_and_each_core_ranked_once(monkeypatch):
    """Over S_6, the grouping kernel runs once per distinct multiset, and ``_dimensions`` at most once per core."""
    grouped, ranked = [], []
    group, dimensions = _kernels.group_by_weight, weyl._dimensions

    def counting_group(columns, cap):
        grouped.append(columns)
        return group(columns, cap)

    def counting_dimensions(columns, wanted):
        ranked.append(columns)
        return dimensions(columns, wanted)

    monkeypatch.setattr(weyl._kernels, "group_by_weight", counting_group)
    monkeypatch.setattr(weyl, "_dimensions", counting_dimensions)
    cold_engine()
    perms = list(itertools.permutations(range(1, 7)))
    for w in perms:
        dual_character(rothe(w))
    multisets = {column_multiset(rothe(w)) for w in perms}
    assert len(grouped) == len(set(grouped)) == len(multisets) == 720
    cores = {core(columns) for columns in multisets}
    assert len(ranked) == len(set(ranked)) and set(ranked) <= cores
    assert 0 < len(ranked) < len(cores) < 720
    cold_engine()


def test_a_small_core_memo_keeps_its_bound(monkeypatch):
    """With room for a few classes, the core memo evicts as it goes and the characters stay the same."""
    cases = initial_column_cases()
    cold_engine()
    expected = [list(dual_character(diagram(columns, n)).terms.items()) for columns, n in cases]
    monkeypatch.setattr(weyl, "_CORE_CLASSES", 40)
    cold_engine()
    stored = set()
    for (columns, n), terms in zip(cases, expected):
        assert list(dual_character(diagram(columns, n)).terms.items()) == terms, columns
        classes = sum(map(len, weyl._CORES.values()))
        assert classes + len(weyl._CORES) == weyl._CORES.size <= 40
        stored |= set(weyl._CORES)
    # far more cores passed through the memo than it holds at the end
    assert len(stored) > len(weyl._CORES) + 100
    cold_engine()


def test_a_shifted_class_shares_its_shape(monkeypatch):
    """The class of x1*x2*x3 below ((2, 3), (3,)), times y11, is that of x1^2*x2*x3 below ((1,), (2, 3), (3,))."""
    first, second = ((2, 3), (3,)), ((1,), (2, 3), (3,))

    def last_class(columns, weight):
        spaces = {0: [weyl._ONE]}
        for col in columns[:-1]:
            spaces = {w: weyl._basis(keys, {}) for w, keys in weyl._grow(spaces, col).items()}
        return sorted(weyl._grow(spaces, columns[-1])[weight])

    keys = last_class(first, 0x010101)
    assert not weyl._certified(keys) and any(blocks for _, blocks, _ in keys)
    assert last_class(second, 0x010102) == [(m + 1, blocks, lead + 1) for m, blocks, lead in keys]
    weyl._SHAPES.clear()
    ranked = []
    rank = weyl.coefficient_rank
    monkeypatch.setattr(weyl, "coefficient_rank", lambda polys, kept=None: ranked.append(polys) or rank(polys, kept))
    assert weyl._dimensions(first, {0x010101}) == {0x010101: 2}
    assert weyl._dimensions(second, {0x010102}) == {0x010102: 2}
    assert len(ranked) == len(weyl._SHAPES) == 1
    for columns, n in ((first, 3), (second, 3)):
        assert weyl._character.__wrapped__(columns, n, DEFAULT_CAP) == reference_character(columns, n)


def test_equal_monomial_differences_share_one_shape(monkeypatch):
    """Monomials {1, y11^255} and {y11, y12} both differ by 255 as ints, though by no common factor.

    Their products are still translates of each other by one int, which
    keeps the order the echelon sees, so one shape and one echelon serve both.
    """
    block = ((2, 3), (1, 2))
    lead = min(weyl._minor(*block))
    first = [(m, (block,), m + lead) for m in (0, 255)]
    second = [(m, (block,), m + lead) for m in (1, 256)]
    assert weyl._shape(first) == weyl._shape(second)
    weyl._SHAPES.clear()
    ranked = []
    rank = weyl.coefficient_rank
    monkeypatch.setattr(weyl, "coefficient_rank", lambda polys, kept=None: ranked.append(polys) or rank(polys, kept))
    assert weyl._kept(first, {}) == weyl._kept(second, {}) == (0, 1)
    assert len(ranked) == len(weyl._SHAPES) == 1
    # the echelon run afresh on the second class keeps the same positions
    positions = []
    rank([weyl._expand(k, {}) for k in second], positions)
    assert positions == [0, 1]
    weyl._SHAPES.clear()


def test_shapes_whose_hashes_clash_are_ranked_apart(monkeypatch):
    """Every shape hashing alike: the first keeps its entry, and the second is ranked afresh."""
    block = ((2, 3), (1, 2))
    lead = min(weyl._minor(*block))
    dependent = [(0, (block,), lead)] * 2
    independent = [(0, (), 0), (0, (block,), lead)]
    monkeypatch.setattr(weyl, "hash", lambda shape: 0, raising=False)
    weyl._SHAPES.clear()
    assert weyl._kept(dependent, {}) == (0,)
    assert weyl._kept(independent, {}) == (0, 1)
    assert weyl._kept(dependent, {}) == (0,)
    assert list(weyl._SHAPES) == [0] and weyl._SHAPES[0] == (weyl._shape(dependent), (0,))
    weyl._SHAPES.clear()


def test_packed_minors_are_shared_across_grid_sizes():
    """The packed layout does not depend on n, so the same multiset at another n packs no minor afresh."""
    weyl._minor.cache_clear()
    weyl._factors.cache_clear()
    weyl._CORES.clear()
    columns = ((1, 3), (2, 3))
    chi = weyl._character.__wrapped__(columns, 3, DEFAULT_CAP)
    misses = weyl._minor.cache_info().misses
    factored = weyl._factors.cache_info()
    assert misses > 0
    # emptied, so that the n = 5 character ranks its core again rather than reading the n = 3 entry
    weyl._CORES.clear()
    assert weyl._character.__wrapped__(columns, 5, DEFAULT_CAP) == chi
    assert weyl._minor.cache_info().misses == misses
    # it read the factored minors again, and factored none afresh
    assert weyl._factors.cache_info().hits > factored.hits
    assert weyl._factors.cache_info().misses == factored.misses
    for member, product in packed_products(columns).items():
        assert product == reference_product(columns, member), member


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
    """``coefficient_rank`` keeps positions of inputs that are independent and have the rank of them all."""
    for a, b, c in combos:  # add some dependent inputs: p_a + c * p_b
        if a < len(polys) and b < len(polys):
            q = dict(polys[a])
            for k, v in polys[b].items():
                q[k] = q.get(k, 0) + c * v
            polys.append({k: v for k, v in q.items() if v})
    positions = []
    coefficient_rank(polys, positions)
    assert len(set(positions)) == len(positions) and set(positions) <= set(range(len(polys)))
    kept = [polys[i] for i in positions]
    assert reference_rank(kept) == len(kept) == reference_rank(polys) == coefficient_rank(polys)
    appended = ["before"]
    assert coefficient_rank(polys, appended) == len(kept)
    assert appended == ["before"] + positions
