"""Exact sparse polynomials in x1..xn with integer coefficients.

A monomial is a tuple of nonnegative exponents with trailing zeros
stripped, so equal monomials are equal tuples regardless of how many
variables were in play when they were built.  Every monomial the module
builds is canonical in a second sense too: one shared tuple object per
exponent vector (see ``_CANONICAL``).  A polynomial is a mapping from
monomials to nonzero integer coefficients; no floating point is used
anywhere.
"""
from __future__ import annotations

Monomial = tuple  # exponent tuple in canonical form (no trailing zeros)


# Hash-consed monomials: every exponent tuple the module builds maps to
# one shared tuple object, so a Schubert polynomial, the character of its
# Rothe diagram and every memoized intermediate hold the same keys, and
# memory grows with the distinct monomials, not with the terms.  A plain
# dict, never evicted: its size is bounded by the distinct exponent
# vectors in play (5,040 after a sweep of all Schubert identities for
# n = 7, 5,547 with a dense 5-grid sweep too), and an evicting cache
# would drop tuples that live polynomials still use.  Sharing only saves
# memory: equality and lookups stay by value, never by identity.  Only
# plain ints may enter, since True == 1 would otherwise be shared too.
# Rothe and skyline columns share it through ``intern``, so the character
# memo's keys do: at most 2^n tuples, 43 more after that n = 7 sweep.
_CANONICAL: dict = {}


def intern(t: tuple) -> tuple:
    """The one shared tuple equal to ``t``, a tuple of plain ints."""
    return _CANONICAL.setdefault(t, t)


def _trim(t: tuple) -> Monomial:
    """The shared tuple for ``t`` without its trailing zeros; the exponents are not checked."""
    end = len(t)
    while end and t[end - 1] == 0:
        end -= 1
    return intern(t[:end])


def monomial(exponents) -> Monomial:
    """Canonicalize an exponent sequence.

    >>> monomial([1, 0, 2, 0])
    (1, 0, 2)
    >>> monomial([])
    ()
    """
    t = tuple(exponents)
    if any(type(e) is not int or e < 0 for e in t):
        raise ValueError(f"exponents must be nonnegative integers, got {t!r}")
    return _trim(t)


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if len(a) < len(b):
        a, b = b, a
    # the longer factor's last exponent is nonzero, so the product needs no trim
    return intern(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


def invlex_less(a: Monomial, b: Monomial) -> bool:
    """Inverse lexicographic order: compare from the highest variable down.

    >>> invlex_less((1, 2), (2, 2))
    True
    >>> invlex_less((0, 1), (2,))
    False
    >>> invlex_less((2,), (0, 1))
    True
    """
    la, lb = len(a), len(b)
    for i in reversed(range(max(la, lb))):
        av = a[i] if i < la else 0
        bv = b[i] if i < lb else 0
        if av != bv:
            return av < bv
    return False


def _invlex_key(m: Monomial):
    """Invlex sort key of a canonical monomial: without trailing zeros, the longer is larger."""
    return len(m), m[::-1]


class Polynomial:
    """Sparse polynomial with big-integer coefficients.

    The term map never stores zero coefficients, so two polynomials are
    equal exactly when their term maps are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # internal: caller guarantees canonical monomials and no zeros
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): 1})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        """The polynomial x_i (1-based)."""
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        return cls({_trim((0,) * (i - 1) + (1,)): 1})

    @classmethod
    def from_exponents(cls, exponents, coeff: int = 1) -> "Polynomial":
        """Single-term polynomial ``coeff * x^exponents``."""
        if coeff == 0:
            return cls({})
        return cls({monomial(exponents): coeff})

    @classmethod
    def from_terms(cls, items) -> "Polynomial":
        """Build from (exponents, coeff) pairs, collecting duplicates."""
        terms: dict = {}
        for exps, c in items:
            m = monomial(exps)
            c2 = terms.get(m, 0) + c
            if c2:
                terms[m] = c2
            elif m in terms:
                del terms[m]
        return cls(terms)

    def coefficient(self, exponents) -> int:
        return self.terms.get(monomial(exponents), 0)

    def support(self):
        return set(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            c2 = out.get(m, 0) + c
            if c2:
                out[m] = c2
            elif m in out:
                del out[m]
        return Polynomial(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial({})
            return Polynomial({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mul_monomials(ma, mb)
                c = out.get(m, 0) + ca * cb
                if c:
                    out[m] = c
                elif m in out:
                    del out[m]
        return Polynomial(out)

    __rmul__ = __mul__

    def descending_terms(self):
        """Terms sorted by invlex order, largest monomial first."""
        return sorted(self.terms.items(), key=lambda mc: _invlex_key(mc[0]), reverse=True)

    def __repr__(self):
        return f"Polynomial({render(self)!r})"


def divided_difference(f: Polynomial, j: int) -> Polynomial:
    """The operator f -> (f - s_j f) / (x_j - x_{j+1}).

    Computed term by term via the telescoping expansion of a swapped
    monomial pair, so the division is exact by construction.

    >>> render(divided_difference(Polynomial.from_exponents((2, 1)), 2))
    'x1^2'
    >>> render(divided_difference(Polynomial.variable(1), 1))
    '1'
    """
    if j < 1:
        raise ValueError(f"index must be >= 1, got {j}")
    acc: dict = {}
    for m, coeff in f.terms.items():
        p = m[j - 1] if j - 1 < len(m) else 0
        q = m[j] if j < len(m) else 0
        if p == q:
            continue
        if p > q:
            lo, hi, sign = q, p, coeff
        else:
            lo, hi, sign = p, q, -coeff
        # p != q, so m reaches position j and its head has all j - 1 entries
        head, tail = m[:j - 1], m[j + 1:]
        tot = p + q - 1
        for t in range(lo, hi):
            key = _trim(head + (t, tot - t) + tail)
            c = acc.get(key, 0) + sign
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
    return Polynomial(acc)


def demazure(f: Polynomial, i: int) -> Polynomial:
    """The operator f -> divided_difference(x_i * f, i)."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    shifted: dict = {}
    xi = (0,) * (i - 1) + (1,)
    for m, c in f.terms.items():
        shifted[_mul_monomials(m, xi)] = c
    return divided_difference(Polynomial(shifted), i)


def principal_specialization(f: Polynomial) -> int:
    """Evaluate at x1 = x2 = ... = 1, i.e. the coefficient sum."""
    return sum(f.terms.values())


def is_zero_one(f: Polynomial) -> bool:
    """True when every stored coefficient equals 1 (vacuously for 0)."""
    return all(c == 1 for c in f.terms.values())


def zero_one_witness(f: Polynomial):
    """Largest term (invlex) whose coefficient is not 1, or None.

    Found in one pass, without sorting.

    >>> zero_one_witness(Polynomial.from_terms([((1,), 1), ((0, 2), 3)]))
    ((0, 2), 3)
    """
    return max(
        ((m, c) for m, c in f.terms.items() if c != 1),
        key=lambda mc: _invlex_key(mc[0]),
        default=None,
    )


def render_monomial(m: Monomial) -> str:
    """Human-readable form like ``x1*x3^2``; the empty monomial is ``1``."""
    factors = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors) if factors else "1"


def render(f: Polynomial) -> str:
    """Human-readable form like ``x1*x2^2 + 2*x1^2*x2``, invlex-descending.

    >>> render(Polynomial.from_terms([((1, 2), 1), ((2, 1), 2)]))
    'x1*x2^2 + 2*x1^2*x2'
    >>> render(Polynomial.zero())
    '0'
    """
    if not f.terms:
        return "0"
    pieces = []
    for m, c in f.descending_terms():
        factors = render_monomial(m)
        mag = abs(c)
        if factors == "1":
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{mag}*{factors}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def to_json_obj(f: Polynomial) -> list:
    """JSON form: a list of ``{"exponents": [...], "coeff": "<decimal>"}``."""
    return [
        {"exponents": list(m), "coeff": str(c)} for m, c in f.descending_terms()
    ]
