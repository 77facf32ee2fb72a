"""Kernels for the hot inner loops of the character engine.

Callers reach them through ``weylchar._kernels``.  Everything here works
on plain tuples:

* a column is a strictly increasing tuple of 1-based row indices;
* a weight is a tuple of ``n`` nonnegative exponents;
* a product of matrix indeterminates y_ij is a sorted tuple of their
  positions ``(i, j)``, one entry per factor.

Kernels raise ``CapExceeded`` when an enumeration grows past its cap.
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
    k = len(col)
    if k == 0:
        return ((),)
    out = []
    s = [0] * k

    def walk(t, lo):
        for v in range(lo, col[t] + 1):
            s[t] = v
            if t + 1 == k:
                out.append(tuple(s))
            else:
                walk(t + 1, v + 1)

    walk(0, 1)
    out.sort(key=lambda c: c[::-1])
    return tuple(out)


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
    """Set of weights of the diagrams below ``columns``, as length-``n`` tuples.

    Runs a set-valued DP over columns instead of walking the full
    product of column ideals; ``cap`` bounds the intermediate set size.
    """
    acc = {(0,) * n}
    for col in columns:
        if not col:
            continue
        choices = column_ideal(col)
        new = set()
        for w in acc:
            for ch in choices:
                w2 = list(w)
                for i in ch:
                    w2[i - 1] += 1
                new.add(tuple(w2))
            if len(new) > cap:
                raise CapExceeded(f"weight support exceeds cap {cap}", cap)
        acc = new
    return acc


def group_by_weight(columns, n, cap):
    """Group the diagrams below ``columns`` by weight.

    Returns ``{weight: [member, ...]}`` where each member is a tuple of
    chosen columns.  Members appear in enumeration order (first column
    varies slowest); ``cap`` bounds the total number of members.
    """
    ideals = [column_ideal(c) for c in columns]
    ncols = len(ideals)
    out = {}
    w = [0] * n
    chosen = [()] * ncols
    count = 0

    def walk(j):
        nonlocal count
        if j == ncols:
            count += 1
            if count > cap:
                raise CapExceeded(f"enumeration below the diagram exceeds cap {cap}", cap)
            key = tuple(w)
            members = out.get(key)
            if members is None:
                out[key] = members = []
            members.append(tuple(chosen))
            return
        for ch in ideals[j]:
            chosen[j] = ch
            for i in ch:
                w[i - 1] += 1
            walk(j + 1)
            for i in ch:
                w[i - 1] -= 1

    walk(0)
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
    if k == 0:
        return {(): 1}
    terms = {}
    used = [False] * k
    pairs = [None] * k

    def assign(a, sign):
        if a == k:
            key = tuple(pairs)  # ccol increasing => already sorted
            terms[key] = terms.get(key, 0) + sign
            return
        i = ccol[a]
        for b in range(k):
            if used[b] or i > dcol[b]:
                continue
            swaps = 0
            for b2 in range(b + 1, k):
                if used[b2]:
                    swaps += 1
            used[b] = True
            pairs[a] = (i, dcol[b])
            assign(a + 1, -sign if swaps & 1 else sign)
            used[b] = False

    assign(0, 1)
    return {key: v for key, v in terms.items() if v}


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
