"""Diagram construction, orders, statistics, and serialization."""
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar.diagrams import (
    CapExceeded,
    Diagram,
    check_column,
    check_composition,
    check_permutation,
    column_leq,
    count_132,
    count_below,
    diagram,
    diagram_from_text,
    diagram_leq,
    diagram_to_json_obj,
    diagram_to_text,
    enumerate_below,
    has_unstable_pair,
    inverse_permutation,
    is_northwest,
    parse_composition,
    parse_diagram_inline,
    parse_permutation,
    rank,
    rank_box,
    rank_chain,
    rinv_weight,
    rothe,
    skyline,
    weight_monomial,
)

small_columns = st.lists(st.integers(1, 5), max_size=3, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
small_diagrams = st.lists(small_columns, max_size=4).map(diagram)


def test_diagram_factory_normalizes():
    d = diagram([(1, 3)])
    assert d.n == 3
    assert d.columns == ((1, 3), (), ())
    assert diagram([], n=2).columns == ((), ())
    assert diagram([]).n == 0


def test_diagram_factory_validates():
    with pytest.raises(ValueError):
        diagram([(3, 1)])
    with pytest.raises(ValueError):
        diagram([(0,)])
    with pytest.raises(ValueError):
        diagram([(1, 3)], n=2)


# True == 1, so a bool passes an isinstance(int) check and prints as JSON true
def test_check_column_rejects_bools():
    with pytest.raises(ValueError, match="row index"):
        check_column([True])
    assert check_column([1, 2]) == (1, 2)


def test_check_permutation_rejects_bools():
    with pytest.raises(ValueError, match="permutation value True"):
        check_permutation([True, 2])
    assert check_permutation([1, 2]) == (1, 2)


def test_check_composition_rejects_bools():
    with pytest.raises(ValueError, match="nonnegative integers, got False"):
        check_composition([False, 2])
    assert check_composition([0, 2]) == (0, 2)


def test_diagram_json_rejects_bools():
    with pytest.raises(ValueError):
        diagram([], n=True)
    with pytest.raises(ValueError):
        diagram([[True], []], n=2)
    d = diagram(**json.loads(json.dumps(diagram_to_json_obj(diagram([(1,), ()])))))
    assert json.dumps(diagram_to_json_obj(d)) == '{"n": 2, "columns": [[1], []]}'


def test_boxes_and_membership():
    d = diagram([(1, 3), (2, 3), ()])
    assert list(d.boxes()) == [(1, 1), (3, 1), (2, 2), (3, 2)]
    assert sum(map(len, d.columns)) == 4
    assert d.contains_box(3, 2)
    assert not d.contains_box(2, 1)
    assert not d.contains_box(1, 9)


def test_column_order():
    assert column_leq((1, 2), (1, 3))
    assert not column_leq((2,), (1, 3))
    d = diagram([(1, 3), (2, 3), ()])
    assert diagram_leq(diagram([(1, 2), (1, 3), ()]), d)
    assert not diagram_leq(d, diagram([(1, 2), (1, 3), ()]))
    assert diagram_leq(d, d)
    # padding: same columns on a bigger grid compare equal-below
    assert diagram_leq(diagram([(1,)]), diagram([(1,), (), ()]))


@given(small_diagrams)
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_count_and_order(d):
    seen = list(enumerate_below(d))
    assert len(seen) == count_below(d)
    assert len({c.columns for c in seen}) == len(seen)
    assert seen[-1].columns == d.columns
    for c in seen:
        assert diagram_leq(c, d)


def test_enumeration_cap():
    d = diagram([(2,), (2,), (2,)])
    with pytest.raises(CapExceeded):
        list(enumerate_below(d, cap=7))
    assert len(list(enumerate_below(d, cap=8))) == 8


@pytest.mark.parametrize("cap", [-1, True, "7", 2.5])
def test_enumeration_cap_is_validated_at_the_call(cap):
    # the iterator is never advanced: the refusal comes from the call
    with pytest.raises(ValueError, match="cap must be"):
        enumerate_below(diagram([(2,), (2,)]), cap)


def test_rank_examples():
    d = diagram([(1, 3), (2, 3), ()])
    assert rank(d) == 3
    assert rank_box(d, 1, 1) == 0
    assert rank_box(d, 3, 1) == 1
    assert rank_box(d, 2, 2) == 1
    assert rank_box(d, 3, 2) == 1
    with pytest.raises(ValueError):
        rank_box(d, 2, 1)
    assert rank(diagram(())) == 0


@given(small_diagrams)
@settings(max_examples=60, deadline=None)
def test_rank_is_sum_of_box_ranks(d):
    assert rank(d) == sum(rank_box(d, i, j) for i, j in d.boxes())


@given(small_diagrams)
@settings(max_examples=40, deadline=None)
def test_rank_chain_properties(d):
    chain = rank_chain(d)
    assert len(chain) == rank(d) + 1
    assert chain[-1].columns == d.columns
    for k, c in enumerate(chain):
        assert rank(c) == k
    for lower, upper in zip(chain, chain[1:]):
        assert diagram_leq(lower, upper)
        assert lower.columns != upper.columns


def test_weight_monomial_example():
    assert weight_monomial(diagram([(1, 3), (2, 3), ()])) == (1, 1, 2)
    assert weight_monomial(diagram(())) == ()


def test_permutation_parsing():
    assert parse_permutation("31542") == (3, 1, 5, 4, 2)
    assert parse_permutation("3,1,5,4,2") == (3, 1, 5, 4, 2)
    assert inverse_permutation((3, 1, 5, 4, 2)) == (2, 5, 1, 4, 3)
    with pytest.raises(ValueError, match="x"):
        parse_permutation("3x1")
    with pytest.raises(ValueError, match="4"):
        parse_permutation("1,2,4")


def test_rothe_oracle():
    assert rothe((3, 1, 5, 4, 2)).columns == ((1,), (1, 3, 4), (), (3,), ())
    assert rothe((1, 2, 3)).columns == ((), (), ())
    # dominant permutation: top-left staircase
    assert rothe((3, 2, 1)).columns == ((1, 2), (1,), ())


def test_count_132_brute_force():
    def brute(w):
        return sum(
            1
            for i, j, k in itertools.combinations(range(len(w)), 3)
            if w[i] < w[k] < w[j]
        )

    for w in itertools.permutations(range(1, 6)):
        assert count_132(w) == brute(w)
    assert count_132((3, 1, 5, 4, 2)) == 4


def test_132_count_equals_rothe_rank():
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            assert count_132(w) == rank(rothe(w))


def test_rothe_and_skyline_share_their_columns():
    first, second = rothe((3, 1, 5, 4, 2)), rothe((2, 1, 5, 4, 3))
    assert first.columns[0] == second.columns[0] == (1,)
    assert first.columns[0] is second.columns[0]
    assert first.columns[3] is rothe((1, 2, 5, 4, 3)).columns[3]
    assert skyline((2, 1)).columns[0] is skyline((3, 2)).columns[0]
    assert skyline((0, 2)).columns[1] is rothe((1, 3, 2)).columns[1]


def test_composition_parsing_and_skyline():
    assert parse_composition("3,2,0,1,1") == (3, 2, 0, 1, 1)
    assert parse_composition("") == ()
    with pytest.raises(ValueError, match="-1"):
        parse_composition("1,-1")
    assert skyline((3, 2, 0, 1, 1)).columns == ((1, 2, 4, 5), (1, 2), (1,), (), ())
    assert skyline((2,)).columns == ((1,), (1,))
    assert skyline(()).n == 0
    assert skyline((0, 0)).n == 0
    # trailing zeros never change the diagram
    assert skyline((2, 1, 0)).columns == skyline((2, 1)).columns


def test_rinv_weight():
    assert rinv_weight((3, 2, 0, 1, 1)) == 2
    assert rinv_weight((0, 1)) == 1
    assert rinv_weight((3, 2, 1)) == 0
    assert rinv_weight(()) == 0


def test_unstable_pair_examples():
    assert has_unstable_pair(diagram([(1, 3), (2, 3), ()])) == ((3, 1), (2, 2))
    # single positive-rank box: no pair
    assert has_unstable_pair(diagram([(2,)])) is None
    # two rank-1 boxes sharing a column: sum is 2, not unstable
    assert has_unstable_pair(diagram([(2, 3)])) is None
    # rank-2 box plus rank-1 box in one column: sum is 3, unstable
    assert has_unstable_pair(diagram([(3, 4)])) == ((3, 1), (4, 1))
    # two rank-1 boxes in different rows and columns: unstable outright
    assert has_unstable_pair(diagram([(2,), (2,)])) is None  # same row
    assert has_unstable_pair(diagram([(2,), (3,)])) == ((2, 1), (3, 2))
    assert has_unstable_pair(diagram(())) is None


def test_is_northwest():
    assert is_northwest(diagram([(1, 2), (1,), ()]))
    # boxes (2,1) and (1,2) need (1,1)
    assert not is_northwest(diagram([(2,), (1,)]))
    assert is_northwest(diagram([(1, 2), (1,)]))
    assert is_northwest(diagram(()))
    # Rothe diagrams are always northwest
    for w in itertools.permutations(range(1, 5)):
        assert is_northwest(rothe(w))


def _has_unstable_pair_by_box_pairs(d):
    """The unstable-pair search as first written: two ``rank_box`` calls per box."""
    positive = [(i, j, rank_box(d, i, j)) for (i, j) in d.boxes() if rank_box(d, i, j) >= 1]
    for a in range(len(positive)):
        ia, ja, ra = positive[a]
        for b in range(a + 1, len(positive)):
            ib, jb, rb = positive[b]
            if ia == ib or ja == jb:
                if ra + rb >= 3:
                    return ((ia, ja), (ib, jb))
            else:
                return ((ia, ja), (ib, jb))
    return None


def _is_northwest_by_box_pairs(d):
    """The northwest test as first written: every southwest/northeast box pair."""
    boxes = list(d.boxes())
    for (i, j) in boxes:
        for (i2, j2) in boxes:
            if i > i2 and j < j2 and not d.contains_box(i2, j):
                return False
    return True


@pytest.mark.parametrize("n", [3, 4])
def test_column_reads_match_the_box_pair_forms_on_the_full_grid(n):
    """Same unstable pair, witness included, and same northwest verdict on every diagram of the n-grid."""
    columns = [tuple(i for i in range(1, n + 1) if bits >> (i - 1) & 1) for bits in range(1 << n)]
    northwest = 0
    for cols in itertools.product(columns, repeat=n):
        d = Diagram(cols, n)
        assert has_unstable_pair(d) == _has_unstable_pair_by_box_pairs(d), d
        assert is_northwest(d) == _is_northwest_by_box_pairs(d), d
        northwest += is_northwest(d)
    assert 0 < northwest < len(columns) ** n


def test_text_round_trip():
    d = diagram([(1, 3), (2, 3), ()])
    text = diagram_to_text(d)
    assert text == "#..\n.#.\n##."
    assert diagram_from_text(text).columns == d.columns
    assert diagram_from_text("").n == 0
    with pytest.raises(ValueError):
        diagram_from_text("#.\n#")
    with pytest.raises(ValueError):
        diagram_from_text("#?\n..")


def test_json_round_trip():
    d = diagram([(1, 3), (2, 3), ()])
    obj = diagram_to_json_obj(d)
    assert obj == {"n": 3, "columns": [[1, 3], [2, 3], []]}
    assert diagram(**json.loads(json.dumps(obj))).columns == d.columns


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_diagram_inline, "\u0661,\u0663;", "bad row index '\u0661' in column"),
        (parse_diagram_inline, "1,\u00b2;", "bad row index '\u00b2' in column"),
        (parse_permutation, "\u0663\u0661\u0662", "bad permutation token '\u0663' in"),
        (parse_composition, "\u0662,0", "bad composition part '\u0662' in"),
    ],
)
def test_parsers_refuse_non_ascii_digits(parse, text, message):
    # str.isdigit accepts these; int reads Arabic-Indic digits and refuses superscripts
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value).startswith(message)


def test_inline_parsing():
    assert parse_diagram_inline("1,3;2,3;").columns == ((1, 3), (2, 3), ())
    assert parse_diagram_inline("").n == 0
    assert parse_diagram_inline(";;").columns == ((), (), ())
    with pytest.raises(ValueError, match="a"):
        parse_diagram_inline("1,a")


@given(small_diagrams)
@settings(max_examples=60, deadline=None)
def test_serialization_round_trips(d):
    assert diagram_from_text(diagram_to_text(d)).columns == d.columns
    assert diagram(**diagram_to_json_obj(d)).columns == d.columns
