"""Cell-pattern parsing and the row/column selection matcher."""
import itertools
import random
from pathlib import Path

import pytest

from weylchar.diagrams import (
    Cell,
    contains_pattern,
    diagram,
    parse_pattern,
    pattern_grid,
    render_pattern,
)
from weylchar.verify import all_diagrams

WORKED = diagram([(1, 3), (2, 3), ()])

# The worked example's nonempty part as an exact two-column configuration:
# any diagram whose restriction to some rows/columns equals it has a
# repeated coefficient, which makes this a handy synthetic test pattern.
WITNESS_LINES = ["#x", "x#", "##"]


def test_parse_and_render_round_trip():
    text = "columnswap: true\n#x\nx#\n##"
    p = parse_pattern(text)
    assert p.rows == 3 and p.cols == 2
    assert p.column_swap_allowed
    assert p.cells[0] == (Cell.REQUIRED, Cell.FORBIDDEN)
    assert render_pattern(p) == text
    assert parse_pattern(render_pattern(p)) == p


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_pattern("#x\nx#")  # missing header
    with pytest.raises(ValueError):
        parse_pattern("columnswap: maybe\n#x")
    with pytest.raises(ValueError):
        parse_pattern("columnswap: false\n#?")
    with pytest.raises(ValueError):
        pattern_grid([])


def test_matcher_on_worked_example():
    p = pattern_grid(WITNESS_LINES)
    assert contains_pattern(WORKED, p)
    # first two rows only: no row selection yields the bottom ## row
    assert not contains_pattern(diagram([(1,), (2,), ()]), p)


def test_matcher_requires_enough_rows_and_columns():
    p = pattern_grid(["#", "#"])
    assert not contains_pattern(diagram([(1,)]), p)
    assert contains_pattern(diagram([(1, 2)]), p)


def test_free_cells_match_anything():
    free = pattern_grid(["..", ".."])
    assert contains_pattern(diagram([], n=2), free)
    assert contains_pattern(WORKED, free)
    assert not contains_pattern(diagram([(1,)]), free)  # needs two columns


def test_forbidden_cells():
    p = pattern_grid(["x"])
    # a full grid has no absent box to select
    assert not contains_pattern(diagram([(1, 2), (1, 2)]), p)
    assert contains_pattern(diagram([(1,), ()]), p)
    assert contains_pattern(diagram([(1,), (1,)]), p)  # row 2 is vacant


def test_column_swap_variants():
    # required boxes in the anti-diagonal order only matchable after a swap
    p_noswap = pattern_grid(["#x", "x#"])
    p_swap = pattern_grid(["#x", "x#"], column_swap_allowed=True)
    d = diagram([(2,), (1,)])  # boxes (2,1) and (1,2)
    assert not contains_pattern(d, p_noswap)
    assert contains_pattern(d, p_swap)


def test_row_order_is_preserved():
    # rows cannot be reordered: a lone box below an absence differs from above
    p = pattern_grid(["#", "x"])
    assert contains_pattern(diagram([(1,), ()], n=2), p)
    assert not contains_pattern(diagram([(2,)], n=2), p)


def test_adding_free_border_keeps_matches_when_grid_is_big_enough():
    p = pattern_grid(WITNESS_LINES)
    padded = pattern_grid([line + "." for line in WITNESS_LINES] + ["..."])
    big = diagram([(1, 3), (2, 3), (), ()])  # same boxes on a 4x4 grid
    assert contains_pattern(big, p)
    assert contains_pattern(big, padded)


# ---------------------------------------------------------------------------
# The bitmask matcher against the cell-by-cell definition
# ---------------------------------------------------------------------------

WITNESS_FILE = Path(__file__).resolve().parent.parent / "patterns" / "multiplicity-witness.txt"


def reference_matches_at(d, cells, rowsel, colsel):
    for a, i in enumerate(rowsel):
        for b, j in enumerate(colsel):
            cell = cells[a][b]
            if cell is Cell.FREE:
                continue
            if d.contains_box(i, j) != (cell is Cell.REQUIRED):
                return False
    return True


def reference_contains_pattern(d, p):
    """The matcher by definition: every column and row selection, cell by cell."""
    if p.rows > d.n or p.cols > d.n:
        return False
    if p.column_swap_allowed:
        variants = {
            tuple(tuple(row[k] for k in perm) for row in p.cells)
            for perm in itertools.permutations(range(p.cols))
        }
    else:
        variants = {p.cells}
    indices = range(1, d.n + 1)
    for colsel in itertools.combinations(indices, p.cols):
        for rowsel in itertools.combinations(indices, p.rows):
            for cells in variants:
                if reference_matches_at(d, cells, rowsel, colsel):
                    return True
    return False


def random_patterns(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        lines = ["".join(rng.choice("#x.") for _ in range(cols)) for _ in range(rows)]
        out.append(lines)
    return out


@pytest.mark.parametrize("swap", [False, True])
def test_bitmask_matcher_agrees_with_reference_on_3_grid(swap):
    patterns = [pattern_grid(lines, swap) for lines in random_patterns(2021, 12)]
    patterns.append(pattern_grid(WITNESS_LINES, swap))
    hits = 0
    for _, d in all_diagrams(3).instances():
        for p in patterns:
            expected = reference_contains_pattern(d, p)
            assert contains_pattern(d, p) == expected, (d, render_pattern(p))
            hits += expected
    assert 0 < hits < 512 * len(patterns)  # both answers occur


def test_bitmask_matcher_agrees_with_reference_on_4_grid_witness():
    p = parse_pattern(WITNESS_FILE.read_text())
    hits = 0
    for _, d in all_diagrams(4).instances():
        expected = reference_contains_pattern(d, p)
        assert contains_pattern(d, p) == expected, d
        hits += expected
    assert 0 < hits < 1 << 16
