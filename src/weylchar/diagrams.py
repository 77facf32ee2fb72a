"""Diagrams in an n x n grid and their combinatorial statistics.

A diagram is a sequence of n columns, each a strictly increasing tuple
of 1-based row indices bounded by n.  Row indices grow top-to-bottom,
column indices left-to-right, as in a matrix.  The componentwise order
compares equal-size columns by their sorted elements; a diagram is below
another when every column is.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from weylchar import _kernels
from weylchar._kernels import CapExceeded
from weylchar.polynomials import Monomial, monomial

DEFAULT_CAP = 10**7


def check_cap(cap: int) -> None:
    """Refuse a cap that is not an int, or is negative: it is a usage error, not an overflow.

    A bool is refused too, so that a checkpoint never records ``true``
    for the cap, which its own rerun could not read back as a count.
    """
    if type(cap) is not int:
        raise ValueError(f"cap must be an integer, got {cap!r}")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")


# ---------------------------------------------------------------------------
# Columns and the componentwise order
# ---------------------------------------------------------------------------

def check_column(col) -> tuple:
    """Validate one column: strictly increasing positive row indices."""
    c = tuple(col)
    for x in c:
        if type(x) is not int or x < 1:
            raise ValueError(f"row index must be a positive integer, got {x!r}")
    if any(a >= b for a, b in zip(c, c[1:])):
        raise ValueError(f"column must be strictly increasing, got {c!r}")
    return c


def column_leq(left, right) -> bool:
    """Componentwise comparison of equal-size columns.

    >>> column_leq((1, 3), (2, 3))
    True
    >>> column_leq((2, 3), (1, 3))
    False
    >>> column_leq((1,), (1, 2))
    False
    """
    if len(left) != len(right):
        return False
    return all(a <= b for a, b in zip(left, right))


# ---------------------------------------------------------------------------
# Diagram type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagram:
    """A set of boxes in the n x n grid, stored column by column.

    Construct through :func:`diagram`, which validates and pads; direct
    construction assumes the fields are already coherent.
    """

    columns: tuple
    n: int

    def boxes(self):
        """Boxes (i, j) in column-major order."""
        for j, col in enumerate(self.columns, start=1):
            for i in col:
                yield (i, j)

    @property
    def box_count(self) -> int:
        return sum(len(c) for c in self.columns)

    def contains_box(self, i: int, j: int) -> bool:
        if not (1 <= j <= self.n):
            return False
        col = self.columns[j - 1]
        k = bisect_right(col, i)
        return k > 0 and col[k - 1] == i

    def __repr__(self):
        cols = ";".join(",".join(str(i) for i in c) for c in self.columns)
        return f"Diagram({cols!r}, n={self.n})"


def diagram(columns, n: int | None = None) -> Diagram:
    """Checked constructor: normalizes to a square grid.

    The grid size is the maximum of the column count, the largest row
    index, and ``n`` when given; shorter column lists are padded with
    empty columns.
    """
    cols = tuple(check_column(c) for c in columns)
    max_row = max((c[-1] for c in cols if c), default=0)
    size = max(len(cols), max_row)
    if n is not None:
        if type(n) is not int:
            raise ValueError(f"grid size must be an integer, got {n!r}")
        if n < size:
            raise ValueError(
                f"grid size {n} too small for {len(cols)} columns with rows up to {max_row}"
            )
        size = n
    cols = cols + ((),) * (size - len(cols))
    return Diagram(cols, size)


def column_multiset(d: Diagram) -> tuple:
    """The sorted non-empty columns of ``d``, on which its character is memoized.

    >>> column_multiset(diagram([(2, 3), (), (1, 3)]))
    ((1, 3), (2, 3))
    """
    return tuple(sorted(filter(None, d.columns)))


def diagram_leq(c: Diagram, d: Diagram) -> bool:
    """Columnwise componentwise comparison; grids are padded to match."""
    ncols = max(c.n, d.n)
    for j in range(ncols):
        left = c.columns[j] if j < c.n else ()
        right = d.columns[j] if j < d.n else ()
        if not column_leq(left, right):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def diagram_to_text(d: Diagram) -> str:
    """Grid text: n lines of n characters, '#' for a box, '.' otherwise."""
    lines = []
    for i in range(1, d.n + 1):
        lines.append(
            "".join("#" if d.contains_box(i, j) else "." for j in range(1, d.n + 1))
        )
    return "\n".join(lines)


def diagram_from_text(text: str) -> Diagram:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = len(lines)
    cols = [[] for _ in range(n)]
    for i, line in enumerate(lines, start=1):
        row = line.strip()
        if len(row) != n:
            raise ValueError(f"grid must be square: row {i} has {len(row)} of {n} cells")
        for j, ch in enumerate(row, start=1):
            if ch == "#":
                cols[j - 1].append(i)
            elif ch != ".":
                raise ValueError(f"bad grid character {ch!r} at row {i}, column {j}")
    return diagram(cols, n)


def diagram_to_json_obj(d: Diagram) -> dict:
    return {"n": d.n, "columns": [list(c) for c in d.columns]}


def diagram_from_json_obj(obj) -> Diagram:
    if not isinstance(obj, dict) or "n" not in obj or "columns" not in obj:
        raise ValueError("diagram JSON must be an object with 'n' and 'columns'")
    return diagram(obj["columns"], n=obj["n"])


def parse_diagram_inline(text: str) -> Diagram:
    """Parse the compact column-list form, e.g. ``"1,3;2,3;"``.

    Columns are separated by ';', rows inside a column by ','; an empty
    segment is an empty column, and an entirely blank string is the
    empty diagram on a 0 x 0 grid.
    """
    if not text.strip():
        return diagram(())
    cols = []
    for seg in text.split(";"):
        seg = seg.strip()
        if not seg:
            cols.append(())
            continue
        rows = []
        for token in seg.split(","):
            token = token.strip()
            if not token.isdigit():
                raise ValueError(f"bad row index {token!r} in column {seg!r}")
            rows.append(int(token))
        cols.append(tuple(rows))
    return diagram(cols)


# ---------------------------------------------------------------------------
# Enumeration and counting of the order ideal below a diagram
# ---------------------------------------------------------------------------

def enumerate_below(d: Diagram, cap: int = DEFAULT_CAP):
    """Iterate over every diagram below ``d`` exactly once.

    Per-column ideals are ordered by increasing invlex weight and
    combined with the first column varying slowest, so the last diagram
    yielded is ``d`` itself.  The iterator raises :class:`CapExceeded`
    after ``cap`` diagrams; a cap that is not a non-negative int raises
    ``ValueError`` at the call, before any diagram is built.
    """
    check_cap(cap)
    return _enumerate_below(d, cap)


def _enumerate_below(d: Diagram, cap: int):
    ideals = [_kernels.column_ideal(c) for c in d.columns]
    seen = 0
    for combo in itertools.product(*ideals):
        seen += 1
        if seen > cap:
            raise CapExceeded(f"more than {cap} diagrams below {d!r}", cap)
        yield Diagram(combo, d.n)


def count_below(d: Diagram) -> int:
    """Size of the order ideal below ``d``, without enumeration.

    >>> count_below(diagram([(1, 3), (2, 3), ()]))
    6
    """
    total = 1
    for col in d.columns:
        total *= _kernels.count_column_ideal(col)
    return total


# ---------------------------------------------------------------------------
# Rank
# ---------------------------------------------------------------------------

def rank_box(d: Diagram, i: int, j: int) -> int:
    """Vacant rows weakly above box (i, j) in its column."""
    if not d.contains_box(i, j):
        raise ValueError(f"({i}, {j}) is not a box of {d!r}")
    col = d.columns[j - 1]
    return i - bisect_right(col, i)


def rank(d: Diagram) -> int:
    """Sum of the box ranks over all boxes of ``d``.

    >>> rank(diagram([(1, 3), (2, 3), ()]))
    3
    """
    return _kernels.rank_columns(d.columns)


def _lower_rank_once(d: Diagram) -> Diagram:
    """Move one box of the leftmost positive-rank column up one notch."""
    for j, col in enumerate(d.columns):
        m = len(col)
        if sum(col) - m * (m + 1) // 2 == 0:
            continue
        present = set(col)
        k = next(k for k in range(col[-1] - 1, 0, -1) if k not in present)
        a = list(col)
        a[a.index(k + 1)] = k
        cols = d.columns[:j] + (tuple(a),) + d.columns[j + 1:]
        return Diagram(cols, d.n)
    raise ValueError(f"{d!r} has rank 0")


def rank_chain(d: Diagram) -> list:
    """A strictly increasing chain ending at ``d`` whose k-th entry has rank k."""
    chain = [d]
    cur = d
    while rank(cur) > 0:
        cur = _lower_rank_once(cur)
        chain.append(cur)
    chain.reverse()
    return chain


def weight_monomial(d: Diagram) -> Monomial:
    """x^D: the exponent of x_i counts the columns containing row i.

    >>> weight_monomial(diagram([(1, 3), (2, 3), ()]))
    (1, 1, 2)
    """
    return monomial(_kernels.weight_of_columns(d.columns, d.n))


# ---------------------------------------------------------------------------
# Permutations, Rothe diagrams, 132-patterns
# ---------------------------------------------------------------------------

def check_permutation(w) -> tuple:
    """Validate a one-line permutation of [n]."""
    t = tuple(w)
    n = len(t)
    seen = [False] * (n + 1)
    for v in t:
        if type(v) is not int or not (1 <= v <= n) or seen[v]:
            raise ValueError(f"bad one-line permutation value {v!r} in {t!r}")
        seen[v] = True
    return t


def parse_permutation(text: str) -> tuple:
    """Parse one-line notation, either ``"31542"`` or ``"3,1,5,4,2"``."""
    text = text.strip()
    if "," in text:
        tokens = [tok.strip() for tok in text.split(",")]
    else:
        tokens = list(text)
    values = []
    for tok in tokens:
        if not tok.isdigit():
            raise ValueError(f"bad permutation token {tok!r} in {text!r}")
        values.append(int(tok))
    return check_permutation(values)


# Shared column tuples: every column ``rothe`` or ``skyline`` builds maps
# to one tuple object, as ``polynomials._CANONICAL`` does for monomials,
# so the character memo's keys, which hold the columns of every diagram
# they saw, share them.  Its size is bounded by the distinct columns in
# play, at most 2^n for permutations of n.
_COLUMNS: dict = {}


def _shared_column(col: tuple) -> tuple:
    return _COLUMNS.setdefault(col, col)


def inverse_permutation(w) -> tuple:
    inv = [0] * len(w)
    for pos, v in enumerate(w, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def rothe(w) -> Diagram:
    """Boxes (i, j) with i before the row where column j is hit and j left of w(i).

    >>> rothe((3, 1, 5, 4, 2)).columns
    ((1,), (1, 3, 4), (), (3,), ())
    """
    w = check_permutation(w)
    n = len(w)
    winv = inverse_permutation(w)
    cols = tuple(
        _shared_column(tuple(i for i in range(1, n + 1) if i < winv[j - 1] and j < w[i - 1]))
        for j in range(1, n + 1)
    )
    return Diagram(cols, n)


def count_132(w) -> int:
    """Number of index triples i < j < k with w(i) < w(k) < w(j).

    >>> count_132((3, 1, 5, 4, 2))
    4
    """
    w = check_permutation(w)
    n = len(w)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if w[j] <= w[i]:
                continue
            for k in range(j + 1, n):
                if w[i] < w[k] < w[j]:
                    total += 1
    return total


# ---------------------------------------------------------------------------
# Compositions and skyline diagrams
# ---------------------------------------------------------------------------

def check_composition(alpha) -> tuple:
    t = tuple(alpha)
    for a in t:
        if type(a) is not int or a < 0:
            raise ValueError(f"composition parts must be nonnegative integers, got {a!r}")
    return t


def parse_composition(text: str) -> tuple:
    """Parse comma-separated parts, e.g. ``"3,2,0,1,1"``."""
    text = text.strip()
    if not text:
        return ()
    parts = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok.isdigit():
            raise ValueError(f"bad composition part {tok!r} in {text!r}")
        parts.append(int(tok))
    return tuple(parts)


def skyline(alpha) -> Diagram:
    """Row i holds its leftmost alpha_i boxes; the grid is the smallest square fit.

    >>> skyline((3, 2, 0, 1, 1)).columns
    ((1, 2, 4, 5), (1, 2), (1,), (), ())
    """
    alpha = check_composition(alpha)
    last = max((i for i, a in enumerate(alpha, start=1) if a), default=0)
    if last == 0:
        return Diagram((), 0)
    n = max(last, max(alpha[:last]))
    cols = tuple(
        _shared_column(tuple(i for i in range(1, last + 1) if alpha[i - 1] >= j))
        for j in range(1, n + 1)
    )
    return Diagram(cols, n)


def rinv_weight(alpha) -> int:
    """Sum of alpha_j - alpha_i over pairs i < j with alpha_i < alpha_j.

    >>> rinv_weight((3, 2, 0, 1, 1))
    2
    """
    alpha = check_composition(alpha)
    return sum(
        alpha[j] - alpha[i]
        for i in range(len(alpha))
        for j in range(i + 1, len(alpha))
        if alpha[i] < alpha[j]
    )


# ---------------------------------------------------------------------------
# Unstable pairs and the northwest property
# ---------------------------------------------------------------------------

def has_unstable_pair(d: Diagram):
    """First pair of positive-rank boxes that certifies strictness.

    Two distinct boxes qualify outright when they share neither row nor
    column; otherwise their ranks must sum to at least 3.  Returns the
    pair of boxes, or None.
    """
    # the k-th box of a column, at row i, has i - k vacant rows above it
    positive = [
        (i, j, i - k) for j, col in enumerate(d.columns, start=1) for k, i in enumerate(col, start=1) if i > k
    ]
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


def is_northwest(d: Diagram) -> bool:
    """Whether every southwest/northeast box pair closes its northwest corner.

    Read right to left: a column must hold every row above its lowest box
    that some column to its right holds (bit i of a mask is row i).
    """
    right = 0
    for col in reversed(d.columns):
        if col:
            rows = sum(map((1).__lshift__, col))
            if right & ~rows & ((1 << col[-1]) - 1):
                return False
            right |= rows
    return True


# ---------------------------------------------------------------------------
# Cell patterns over row/column selections
# ---------------------------------------------------------------------------

class Cell(Enum):
    REQUIRED = "#"
    FORBIDDEN = "x"
    FREE = "."


@dataclass(frozen=True)
class PatternGrid:
    """An r x c grid of cell constraints matched against row/column selections."""

    rows: int
    cols: int
    cells: tuple
    column_swap_allowed: bool = False

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("pattern must have at least one row and one column")
        if len(self.cells) != self.rows or any(len(r) != self.cols for r in self.cells):
            raise ValueError("cell grid does not match the declared shape")


def pattern_grid(lines, column_swap_allowed: bool = False) -> PatternGrid:
    """Build a pattern from strings of '#' (required), 'x' (forbidden), '.' (free)."""
    cells = []
    for line in lines:
        row = []
        for ch in line:
            try:
                row.append(Cell(ch))
            except ValueError:
                raise ValueError(f"bad pattern character {ch!r} in {line!r}") from None
        cells.append(tuple(row))
    if not cells:
        raise ValueError("pattern needs at least one row")
    return PatternGrid(len(cells), len(cells[0]), tuple(cells), column_swap_allowed)


def parse_pattern(text: str) -> PatternGrid:
    """Parse the pattern file format: a ``columnswap:`` header, then grid lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lower().startswith("columnswap:"):
        raise ValueError("pattern file must start with 'columnswap: true|false'")
    flag = lines[0].split(":", 1)[1].strip().lower()
    if flag not in ("true", "false"):
        raise ValueError(f"bad columnswap value {flag!r}")
    return pattern_grid(lines[1:], column_swap_allowed=(flag == "true"))


def render_pattern(p: PatternGrid) -> str:
    header = f"columnswap: {'true' if p.column_swap_allowed else 'false'}"
    return "\n".join([header] + ["".join(c.value for c in row) for row in p.cells])


@lru_cache(maxsize=None)
def _pattern_masks(p: PatternGrid, n: int) -> tuple:
    """The distinct placements of ``p`` on the rows of an n-row grid, as row masks.

    A placement fixes a row selection and an allowed order of the
    pattern's columns.  Row i is bit i - 1, and each pattern column
    becomes a pair ``(required, care)``: a diagram column with row mask
    ``m`` matches it when ``m & care == required``.
    """
    if p.column_swap_allowed:
        orders = list(itertools.permutations(range(p.cols)))
    else:
        orders = [tuple(range(p.cols))]
    variants = set()
    for rowsel in itertools.combinations(range(n), p.rows):
        columns = []
        for b in range(p.cols):
            required = care = 0
            for row, bit in zip(p.cells, rowsel):
                if row[b] is not Cell.FREE:
                    care |= 1 << bit
                    if row[b] is Cell.REQUIRED:
                        required |= 1 << bit
            columns.append((required, care))
        variants.update(tuple(columns[k] for k in order) for order in orders)
    return tuple(variants)


def contains_pattern(d: Diagram, p: PatternGrid) -> bool:
    """Whether some selection of rows r1<..<rp and columns c1<..<cq matches ``p``.

    When the pattern allows it, matching is attempted against every
    reordering of the pattern's columns.  For a fixed row selection the
    pattern columns are matched left to right, each against the first
    unused diagram column that fits; taking the earliest fit never rules
    out a match.
    """
    if p.rows > d.n or p.cols > d.n:
        return False
    masks = [sum(1 << (i - 1) for i in col) for col in d.columns]
    for variant in _pattern_masks(p, d.n):
        b = 0
        for m in masks:
            required, care = variant[b]
            if m & care == required:
                b += 1
                if b == len(variant):
                    return True
    return False
