"""Kernels for the hot inner loops of the character engine.

Callers reach them through ``weylchar._kernels``.  Everything here works
on plain tuples and ints:

* a column is a strictly increasing tuple of 1-based row indices;
* a weight, as the grouping and support kernels return it, is one int
  with a byte per row: the exponent of row i is byte i - 1, so adding
  two weights adds their exponents, and a weight on ``n`` rows unpacks
  as ``tuple(w.to_bytes(n, "little"))``;
* a product of matrix indeterminates y_ij is a sorted tuple of their
  positions ``(i, j)``, one entry per factor.

Kernels raise ``CapExceeded`` when an enumeration grows past its cap,
and the weight kernels raise ``ValueError`` on 256 or more non-empty
columns, whose counts could carry into the next row's byte.
"""
from functools import lru_cache


class CapExceeded(RuntimeError):
    """An enumeration or support sweep grew past its configured cap."""

    def __init__(self, message, cap):
        super().__init__(message)
        self.cap = cap


@lru_cache(maxsize=4096)
def column_ideal(col):
    """All columns below ``col``: strictly increasing ``s`` with ``s[t] <= col[t]``.

    Returned sorted so that the weights are increasing in inverse
    lexicographic order (for 0/1 weights this is lexicographic order on
    the reversed tuples).  Memoized per column; the result is a tuple of
    tuples, so callers may share it.
    """
    if not col:
        return ((),)
    # prefixes grow a row at a time, each past the one before
    out = [(v,) for v in range(1, col[0] + 1)]
    for top in col[1:]:
        out = [s + (v,) for s in out for v in range(s[-1] + 1, top + 1)]
    out.sort(key=lambda c: c[::-1])
    return tuple(out)


@lru_cache(maxsize=4096)
def column_weights(col):
    """The packed weight of each column in ``column_ideal(col)``, in the same order."""
    return tuple(sum(1 << 8 * (i - 1) for i in ch) for ch in column_ideal(col))


def _check_fields(columns):
    """Refuse 256 or more non-empty columns: a row's count must fit in its byte."""
    boxed = sum(map(bool, columns))
    if boxed > 255:
        raise ValueError(f"{boxed} non-empty columns overflow the one-byte weight fields")


def count_column_ideal(col):
    """Number of columns below ``col``, by prefix-sum DP (no enumeration)."""
    k = len(col)
    if k == 0:
        return 1
    top = col[-1]
    # ways[v] = number of valid prefixes ending exactly at row v
    ways = [0] * (top + 1)
    for v in range(1, col[0] + 1):
        ways[v] = 1
    for t in range(1, k):
        new = [0] * (top + 1)
        run = 0
        for v in range(1, col[t] + 1):
            run += ways[v - 1]
            new[v] = run
        ways = new
    return sum(ways)


def rank_columns(columns):
    """Total number of vacant rows weakly above the boxes, column by column."""
    total = 0
    for col in columns:
        m = len(col)
        total += sum(col) - m * (m + 1) // 2
    return total


def weight_of_columns(columns, n):
    """Exponent vector: entry ``i-1`` counts the columns containing row ``i``."""
    w = [0] * n
    for col in columns:
        for i in col:
            w[i - 1] += 1
    return tuple(w)


def weight_support(columns, n, cap):
    """Set of packed weights of the diagrams below ``columns``, on ``n`` rows.

    Runs a set-valued DP over columns instead of walking the full
    product of column ideals; ``cap`` bounds the intermediate set size.
    """
    _check_fields(columns)
    acc = {0}
    for col in columns:
        if not col:
            continue
        shifts = column_weights(col)
        new = set()
        for w in acc:
            new.update(map(w.__add__, shifts))
            if len(new) > cap:
                raise CapExceeded(f"weight support exceeds cap {cap}", cap)
        acc = new
    return acc


def group_by_weight(columns, n, cap):
    """Group the diagrams below ``columns`` by weight, one per multiset of choices.

    Returns ``{packed weight: [member, ...]}`` where each member is a tuple of
    chosen columns.  Members that differ only by permuting the choices
    made for equal columns have equal weights and equal products of
    minors, so only one of them is listed: along the positions of equal
    columns the choice index never decreases.  Members appear in
    enumeration order (first column varies slowest).  ``cap`` bounds the
    number of diagrams below ``columns``, the product of the ideal sizes,
    and is checked before anything is enumerated.
    """
    _check_fields(columns)
    ideals = [column_ideal(c) for c in columns]
    total = 1
    for ideal in ideals:
        total *= len(ideal)
    if total > cap:
        raise CapExceeded(f"enumeration below the diagram exceeds cap {cap}", cap)
    last = {}
    # a level per column: (weight, member so far), first column slowest
    level = [(0, ())]
    for j, (col, ideal) in enumerate(zip(columns, ideals)):
        options = [((ch,), s) for ch, s in zip(ideal, column_weights(col))]
        b = last.get(col)  # the previous equal column: choose no earlier than it did
        last[col] = j
        if b is None:
            level = [(w + s, m + c) for w, m in level for c, s in options]
        else:
            index = {ch: t for t, ch in enumerate(ideal)}
            level = [(w + s, m + c) for w, m in level for c, s in options[index[m[b]]:]]
    out = {}
    for key, member in level:
        members = out.get(key)
        if members is None:
            out[key] = [member]
        else:
            members.append(member)
    return out


def column_det(dcol, ccol):
    """Determinant of the upper-triangular submatrix with rows ``ccol``, columns ``dcol``.

    Expanded as a signed sum over permutations, skipping structurally
    zero entries (row index above column index).  Keys are sorted tuples
    of positions ``(i, j)``; values are the signs.
    """
    k = len(dcol)
    if len(ccol) != k:
        raise ValueError(f"submatrix is not square: {len(ccol)} rows, {k} columns")
    # a level per row: (pairs so far, bitmask of the columns used, sign);
    # each used column right of the one chosen adds an inversion
    level = [((), 0, 1)]
    for i in ccol:
        level = [
            (pairs + ((i, j),), used | 1 << b, -sign if (used >> b).bit_count() & 1 else sign)
            for pairs, used, sign in level
            for b, j in enumerate(dcol)
            if i <= j and not used >> b & 1
        ]
    # each permutation gives its own key, so no two terms cancel
    return {pairs: sign for pairs, _, sign in level}


def ymul(a, b):
    """Product of two polynomials in the matrix indeterminates."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(sorted(ka + kb))
            c = out.get(key, 0) + va * vb
            out[key] = c
    return {key: v for key, v in out.items() if v}


def bareiss_rank(rows):
    """Exact rank of an integer matrix by fraction-free elimination.

    Pivots on the first nonzero entry in each column; every interior
    division is checked to be exact.
    """
    nr = len(rows)
    if nr == 0:
        return 0
    nc = len(rows[0])
    m = [list(r) for r in rows]
    rank = 0
    prev = 1
    pr = 0
    for pc in range(nc):
        piv = -1
        for r in range(pr, nr):
            if m[r][pc]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        mp = m[pr]
        p = mp[pc]
        for r in range(pr + 1, nr):
            mr = m[r]
            c0 = mr[pc]
            for c in range(pc + 1, nc):
                q, rem = divmod(p * mr[c] - c0 * mp[c], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination produced a non-exact division")
                mr[c] = q
            mr[pc] = 0
        prev = p
        pr += 1
        rank += 1
        if pr == nr:
            break
    return rank
