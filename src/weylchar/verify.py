"""Sweep engine checking character bounds and identities over finite families.

Each check runs over a deterministic enumeration, collecting findings
instead of raising: assertion-grade failures ("violation" severity,
statements with proofs) and conjecture-grade ones ("candidate" severity,
open directions where a hit is a discovery, not a bug).  Worker processes
may check batches of runs, but one loop holds the cursor and checkpoint,
so a report is the serial run's at any worker count.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import os
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from weylchar import _kernels
from weylchar.diagrams import (
    CapExceeded,
    DEFAULT_CAP,
    Diagram,
    PatternGrid,
    _grid_columns,
    check_cap,
    contains_pattern,
    count_132,
    count_below,
    has_unstable_pair,
    is_northwest,
    rank,
    render_pattern,
    rinv_weight,
    rothe,
    skyline,
)
from weylchar.polynomials import (
    principal_specialization,
    render_monomial,
    zero_one_witness,
)
from weylchar.schubert import key, macdonald_specialization, schubert
# ``character_support`` is unused here but stays importable as
# ``verify.character_support``: the benchmark's tracer wraps that name
from weylchar.weyl import character_support, dual_character  # noqa: F401

__all__ = [
    "DiagramFamily",
    "all_diagrams",
    "all_rothe",
    "all_skyline",
    "explicit_list",
    "Finding",
    "VerificationReport",
    "verify_lower_bound",
    "verify_equality_iff_unstable",
    "verify_zero_one_implication",
    "verify_zero_one_characterization",
    "verify_upper_bound",
    "verify_schubert_identities",
    "verify_key_identities",
]


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramFamily:
    """A finite, deterministically ordered collection of sweep instances.

    ``kind`` selects the enumeration; only the parameters that kind uses
    are meaningful.  Explicit lists carry their members as (columns, n)
    pairs so the family stays hashable and picklable.
    """

    kind: str
    n: int = 0
    max_boxes: int | None = None
    max_part: int = 0
    max_len: int = 0
    members: tuple = ()

    def _kind(self):
        try:
            return _KINDS[self.kind]
        except KeyError:
            raise ValueError(f"unknown family kind {self.kind!r}") from None

    def describe(self) -> str:
        label, _, _ = self._kind()
        return label.format(f=self, size=len(self.members))

    def size(self) -> int:
        """Number of instances, counted without enumerating them."""
        _, _, size = self._kind()
        return size(self)

    def __post_init__(self):
        for name in ("n", "max_boxes", "max_part", "max_len"):
            value = getattr(self, name)
            if value is None and name == "max_boxes":
                continue
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be at least 0, got {value}")

    def instances(self):
        """Iterate (index, payload) pairs in the family's canonical order."""
        _, payloads, _ = self._kind()
        return enumerate(payloads(self))


def _grid_subsets(family):
    """Subsets of the n x n grid by ascending bitmask; bit (j-1)*n+(i-1) is box (i, j).

    ``product`` varies its last factor fastest, so column 1, the lowest
    bits of the box mask, varies fastest and the masks ascend.  A
    ``max_boxes`` limit is applied to the column sizes, at C speed.
    """
    n = family.n
    grids = itertools.product(_grid_columns(n), repeat=n)
    if family.max_boxes is not None:
        sizes = [bits.bit_count() for bits in range(1 << n)]
        small = map(family.max_boxes.__ge__, map(sum, itertools.product(sizes, repeat=n)))
        grids = itertools.compress(grids, small)
    return map(Diagram, (reversed_columns[::-1] for reversed_columns in grids), itertools.repeat(n))


def _grid_size(family):
    """Subsets of the n x n grid with at most ``max_boxes`` boxes."""
    cells = family.n * family.n
    top = cells if family.max_boxes is None else min(family.max_boxes, cells)
    return sum(math.comb(cells, k) for k in range(top + 1))


def _permutations(family):
    return itertools.permutations(range(1, family.n + 1))


def _compositions(family):
    return itertools.product(range(family.max_part + 1), repeat=family.max_len)


def _factorial(family):
    return math.factorial(family.n)


def _composition_count(family):
    return (family.max_part + 1) ** family.max_len


# kind -> (label, enumerator of payloads, number of payloads); a label is
# formatted with the family as ``f`` and its member count as ``size``.
_KINDS = {
    "all_diagrams": ("AllDiagrams(n={f.n}, max_boxes={f.max_boxes})", _grid_subsets, _grid_size),
    "all_rothe": ("AllRothe(n={f.n})", lambda f: map(rothe, _permutations(f)), _factorial),
    "all_skyline": (
        "AllSkyline(max_part={f.max_part}, max_len={f.max_len})",
        lambda f: map(skyline, _compositions(f)),
        _composition_count,
    ),
    "explicit": (
        "ExplicitList({size} diagrams)",
        lambda f: itertools.starmap(Diagram, f.members),
        lambda f: len(f.members),
    ),
    "permutations": ("Permutations(n={f.n})", _permutations, _factorial),
    "compositions": (
        "Compositions(max_part={f.max_part}, max_len={f.max_len})", _compositions, _composition_count
    ),
}


def all_diagrams(n: int, max_boxes: int | None = None) -> DiagramFamily:
    return DiagramFamily(kind="all_diagrams", n=n, max_boxes=max_boxes)


def all_rothe(n: int) -> DiagramFamily:
    return DiagramFamily(kind="all_rothe", n=n)


def all_skyline(max_part: int, max_len: int) -> DiagramFamily:
    return DiagramFamily(kind="all_skyline", max_part=max_part, max_len=max_len)


def explicit_list(diagrams) -> DiagramFamily:
    members = tuple((d.columns, d.n) for d in diagrams)
    return DiagramFamily(kind="explicit", members=members)


# ---------------------------------------------------------------------------
# Findings and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    """One failed instance: what was compared, on what, with a witness."""

    instance_index: int
    instance: str
    lhs: str
    rhs: str
    witness: str
    severity: str = "violation"

    def to_json_obj(self) -> dict:
        return {
            "instance_index": self.instance_index,
            "instance": self.instance,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "witness": self.witness,
        }


@dataclass
class VerificationReport:
    check: str
    family: str
    checked: int
    violations: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    truncated: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "family": self.family,
            "checked": self.checked,
            "violations": [f.to_json_obj() for f in self.violations],
            "candidates": [f.to_json_obj() for f in self.candidates],
            "truncated": self.truncated,
            "elapsed_s": self.elapsed_s,
        }

    def render(self) -> str:
        lines = [
            f"check: {self.check}",
            f"family: {self.family}",
            f"checked: {self.checked}",
            f"violations: {len(self.violations)}",
            f"candidates: {len(self.candidates)}",
            f"truncated: {str(self.truncated).lower()}",
            f"elapsed_s: {self.elapsed_s:.3f}",
        ]
        for severity, findings in (("violation", self.violations), ("candidate", self.candidates)):
            lines.extend(
                f"  {severity} #{f.instance_index} {f.instance}: {f.lhs} vs {f.rhs} ({f.witness})"
                for f in findings
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Instance serialization for witnesses
# ---------------------------------------------------------------------------

def _show_instance(payload) -> str:
    """A diagram as compact ``diagram_to_json_obj`` JSON, any other payload as comma-separated values."""
    if isinstance(payload, Diagram):
        # rows are plain ints, so a list of row lists prints as its JSON with spaces
        columns = str(list(map(list, payload.columns))).replace(" ", "")
        return f'{{"n":{payload.n},"columns":{columns}}}'
    return ",".join(str(v) for v in payload)


# ---------------------------------------------------------------------------
# Per-instance checks
# ---------------------------------------------------------------------------

class _Verdict:
    """A check's verdict on the diagrams of one run, decided by the first of them that asks.

    They share their column multiset and n.  χ_D is a product over the
    columns, so every column order shares its all-ones value and
    coefficients; rank(D), the distinct-weight count, the number of
    diagrams below and whether an unstable pair exists ignore the order
    too.  What reads column positions (an unstable pair's boxes,
    ``is_northwest``, patterns that keep their column order) is left to
    each order's findings.
    """

    value = None

    def of(self, d, decide, *args):
        """The verdict, from ``decide(d, *args)`` when it has none yet."""
        if self.value is None:
            self.value = decide(d, *args)
        return self.value


def _lower_bound_verdict(d, ctx):
    """The lhs, rhs and witness of each finding: a distinct-weight count, then an all-ones value, below rank + 1.

    With ``support_only`` no character is built.  B(D), from
    ``_kernels.sumset_bound``, is a lower bound on the count, and the
    weights are counted, over the sorted columns, only where B(D) is
    below rank + 1 or the diagrams below outnumber the cap.  The count
    truncates exactly when it passes the cap, since no column shrinks
    the set of weights, so it is skipped only where the diagrams below,
    of which there are at least as many, fit under the cap.  Without
    ``support_only`` the character is built, which truncates where the
    diagrams below outnumber the cap, and the count is its number of
    terms.
    """
    bound = rank(d) + 1
    if ctx.get("support_only"):
        certificate, below = _kernels.sumset_bound(d.columns)
        if certificate >= bound and below <= ctx["cap"]:
            return ()
        support, total = len(_kernels.weight_support(sorted(d.columns), ctx["cap"])), None
    else:
        chi = dual_character(d, ctx["cap"])
        support, total = len(chi.terms), principal_specialization(chi)
    findings = []
    if support < bound:
        findings.append((str(support), str(bound), "distinct weights below the bound"))
    if total is not None and total < bound:
        findings.append((str(total), str(bound), "all-ones value below the bound"))
    return tuple(findings)


def _check_lower_bound(d, ctx, verdict):
    return verdict.of(d, _lower_bound_verdict, ctx)


def _strict(d, bound, cap):
    """Whether χ_D(1) > ``bound`` shows without the character: by B(D), or else by the distinct-weight count.

    Every coefficient of χ_D is at least 1, so χ_D(1) is at least the
    count, which is at least B(D) (``_kernels.sumset_bound``).  The count
    stops once it passes ``bound``.  First of all, this raises
    ``CapExceeded`` where ``dual_character(d, cap)`` would: where the
    diagrams below outnumber the cap.
    """
    certificate, below = _kernels.sumset_bound(d.columns)
    if below > cap:
        raise CapExceeded(f"enumeration below the diagram exceeds cap {cap}", cap)
    if certificate > bound:
        return True
    try:
        _kernels.weight_support(sorted(d.columns), bound)
    except CapExceeded:  # past ``bound`` weights at some column, so at the last
        return True
    return False


def _equality_verdict(d, ctx):
    """rank + 1, the all-ones value, and whether an unstable pair exists.

    Where a pair exists and the value passes rank + 1 without the
    character (``_strict``), no column order has a finding, and the
    value is left as None.
    """
    bound = rank(d) + 1
    unstable = has_unstable_pair(d) is not None
    if unstable and _strict(d, bound, ctx["cap"]):
        return bound, None, True
    return bound, principal_specialization(dual_character(d, ctx["cap"])), unstable


def _check_equality_iff_unstable(d, ctx, verdict):
    bound, total, unstable = verdict.of(d, _equality_verdict, ctx)
    if total == bound and unstable:
        # the pair names box positions, which move with the column order
        return [(str(total), str(bound), f"equality despite unstable pair {has_unstable_pair(d)}")]
    if total != bound and not unstable:
        return [(str(total), str(bound), "strict inequality without an unstable pair")]
    return []


def _implication_verdict(d, ctx):
    """The lhs, rhs and witness of each finding; there is at most one.

    There is none where the all-ones value passes rank + 1 without the
    character (``_strict``); elsewhere the character is built.
    """
    bound = rank(d) + 1
    if _strict(d, bound, ctx["cap"]):
        return ()
    chi = dual_character(d, ctx["cap"])
    total = principal_specialization(chi)
    offender = zero_one_witness(chi) if total == bound else None
    if offender is None:
        return ()
    m, c = offender
    return ((str(total), str(bound), f"coefficient {c} at {render_monomial(m)} despite equality"),)


def _check_zero_one_implication(d, ctx, verdict):
    return verdict.of(d, _implication_verdict, ctx)


def _zero_one_verdict(d, ctx, chi):
    """``(on_hit, on_miss)``: the findings' lhs, rhs, witness and severity if a pattern matches, and if none does.

    Each holds one finding or none.  The witness reads only the character,
    and a swap-allowed pattern, matched in every order of its columns, hits
    all orders of a multiset or none; when one hits, ``on_miss`` is
    ``on_hit``.  With no other pattern left to match, ``on_hit`` is ``on_miss``.
    """
    offender = zero_one_witness(chi)
    if offender is None:
        on_hit = (("zero-one", "pattern hit", "contains a flagged configuration yet has zero-one character",
                   "violation"),)
        on_miss = ()
    else:
        m, c = offender
        on_hit = ()
        on_miss = ((f"coefficient {c} at {render_monomial(m)}", "no pattern hit",
                    "not zero-one yet matches no supplied configuration", "candidate"),)
    if any(contains_pattern(d, p) for p in ctx["patterns"] if p.column_swap_allowed):
        on_miss = on_hit
    elif all(p.column_swap_allowed for p in ctx["patterns"]):
        on_hit = on_miss
    return on_hit, on_miss


def _check_zero_one_characterization(d, ctx, verdict):
    # the character of every instance, though a verdict reads only one per
    # multiset: perfbench/tracer.py sums ``weyl.principal_sum`` over these
    # calls and perfbench/expected.json pins the sum, so reading it only on
    # a miss waits on a declared benchmark change (ROADMAP item 1)
    chi = dual_character(d, ctx["cap"])
    on_hit, on_miss = verdict.of(d, _zero_one_verdict, ctx, chi)
    # patterns that keep their column order are matched against each order
    hit = on_hit != on_miss and any(contains_pattern(d, p) for p in ctx["patterns"] if not p.column_swap_allowed)
    return on_hit if hit else on_miss


def _upper_bound_verdict(d, ctx):
    return principal_specialization(dual_character(d, ctx["cap"])), count_below(d)


def _check_upper_bound(d, ctx, verdict):
    findings = []
    total, below = verdict.of(d, _upper_bound_verdict, ctx)
    if total > below:
        findings.append((str(total), str(below), "all-ones value above the ideal size"))
    equal = total == below
    # the northwest criterion is proved for northwest diagrams; the general one is open
    for name, pattern, severity in (("northwest", ctx.get("northwest_pattern"), "violation"),
                                    ("general", ctx.get("general_pattern"), "candidate")):
        if pattern is None or name == "northwest" and not is_northwest(d):
            continue
        hit = contains_pattern(d, pattern)
        if equal == hit:
            outcome = "equality with a pattern hit" if hit else "strict without a pattern hit"
            findings.append((str(total), str(below), f"{name} equality criterion failed: {outcome}", severity))
    return findings


def _check_schubert(w, ctx, verdict):
    findings = []
    p132 = count_132(w)
    dw = rothe(w)
    r = rank(dw)
    if p132 != r:
        findings.append((str(p132), str(r), "132-count differs from diagram rank"))
    total = macdonald_specialization(w)
    if total < 1 + p132:
        findings.append((str(total), str(1 + p132), "all-ones value below the 132 bound"))
    if len(w) <= ctx["full_character_max_n"]:
        s = schubert(w)
        if s != dual_character(dw, ctx["cap"]):
            findings.append(("schubert(w)", "dual_character(rothe(w))", "polynomials differ"))
        if principal_specialization(s) != total:
            findings.append((str(principal_specialization(s)), str(total),
                             "reduced-word evaluation differs from the polynomial value"))
    return findings


def _check_key(alpha, ctx, verdict):
    findings = []
    k = key(alpha)
    if k != dual_character(skyline(alpha), ctx["cap"]):
        findings.append(("key(alpha)", "dual_character(skyline(alpha))", "polynomials differ"))
    bound = 1 + rinv_weight(alpha)
    total = principal_specialization(k)
    if total < bound:
        findings.append((str(total), str(bound), "all-ones value below the inversion bound"))
    return findings


# Each check maps an instance's payload, the ctx and its run's verdict to the
# fields of its findings there, ``(lhs, rhs, witness)`` or ``(lhs, rhs,
# witness, severity)`` tuples; ``_check_run`` makes them ``Finding``s.  The
# Schubert and key checks, one instance per run, leave the verdict unread.
_CHECKS = {
    "lower_bound": _check_lower_bound,
    "equality_iff_unstable": _check_equality_iff_unstable,
    "zero_one_implication": _check_zero_one_implication,
    "zero_one_characterization": _check_zero_one_characterization,
    "upper_bound": _check_upper_bound,
    "schubert_identities": _check_schubert,
    "key_identities": _check_key,
}


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

# A checkpointed walk rewrites its checkpoint once this many seconds of
# sweep time have passed since it began or last wrote one.  Each write
# serializes every finding so far, so its cost grows with the sweep; a
# fixed interval makes the number of writes follow the sweep's time, not
# its instance count, and a sweep shorter than the interval writes none.
CHECKPOINT_INTERVAL_S = 5.0

BATCH_RUNS = 256  # consecutive runs handed to a worker process at a time


def _fingerprint(ctx) -> dict:
    """Every ctx field except the cap, in JSON form; patterns are rendered."""

    def canonical(value):
        if isinstance(value, PatternGrid):
            return render_pattern(value)
        if isinstance(value, (tuple, list)):
            return [canonical(v) for v in value]
        return value

    return {name: canonical(value) for name, value in sorted(ctx.items()) if name != "cap"}


def _members_digest(family):
    """A digest of an explicit family's members, whose ``describe()`` gives only their count."""
    if not family.members:
        return None
    import hashlib  # here, not at the top: only explicit lists need it, and it slows start-up

    return hashlib.sha256(repr(family.members).encode()).hexdigest()


def _write_checkpoint(path, check_name, family, ctx, cursor, findings, elapsed_s=0.0):
    payload = {
        "check": check_name,
        "family": family.describe(),
        "members": _members_digest(family),
        "ctx": _fingerprint(ctx),
        "cap": ctx["cap"],
        "walk": "column multisets",
        "cursor": cursor,
        "elapsed_s": elapsed_s,
        "findings": [dict(f.to_json_obj(), severity=f.severity) for f in findings],
    }
    import tempfile  # here, not at the top: only checkpointed runs need it

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".checkpoint-")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
            # on disk before the rename, so a crash cannot leave an empty checkpoint
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_FINDING_FIELDS = frozenset(("instance_index", "instance", "lhs", "rhs", "witness"))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_finding(obj) -> bool:
    return (
        isinstance(obj, dict)
        and _FINDING_FIELDS <= obj.keys()
        and obj.get("severity", "violation") in ("violation", "candidate")
    )


def _load_checkpoint(path, check_name, family, ctx):
    """Cursor, findings and seconds so far of a checkpoint written by this same run.

    A checkpoint from a run with a different check, family (an explicit
    list's members included) or ctx field is refused.  So is a resume
    with a smaller cap than the checkpoint's, under which instances
    before the cursor might truncate; a larger cap is fine, since no
    instance before the cursor truncated.  A checkpoint without a time
    reads as 0 seconds, and a ``checked`` field, which checkpoints once
    carried beside the cursor, is ignored.  One with no ``walk`` is
    refused: an older walk's cursor may count instances one by one.  A
    malformed one is refused too: the cap must be a count, the cursor a
    count no larger than the family, the time a finite number of
    seconds, and the findings a list of findings.
    """
    if not path or not os.path.exists(path):
        return 0, [], 0.0
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    if (
        payload.get("check") != check_name
        or payload.get("family") != family.describe()
        or payload.get("members") != _members_digest(family)
        or payload.get("ctx") != _fingerprint(ctx)
    ):
        raise ValueError(f"checkpoint {path} belongs to a different run")
    if not _is_count(payload.get("cap")):
        raise ValueError(f"checkpoint {path}: cap must be a count")
    if payload["cap"] > ctx["cap"]:
        raise ValueError(f"checkpoint {path} belongs to a different run")
    if payload.get("walk") != "column multisets":
        raise ValueError(f"checkpoint {path} is from an older walk and cannot be resumed")
    cursor = payload.get("cursor")
    if not _is_count(cursor):
        raise ValueError(f"checkpoint {path}: cursor must be a count")
    size = family.size()
    if cursor > size:
        raise ValueError(f"checkpoint {path}: cursor {cursor} is past the family's {size} instances")
    elapsed_s = payload.get("elapsed_s", 0.0)
    if not (type(elapsed_s) in (int, float) and 0 <= elapsed_s < float("inf")):
        raise ValueError(f"checkpoint {path}: elapsed_s must be a finite number of seconds")
    found = payload.get("findings")
    if not (isinstance(found, list) and all(map(_is_finding, found))):
        raise ValueError(f"checkpoint {path}: findings must be a list of findings")
    findings = [Finding(**{name: f[name] for name in _FINDING_FIELDS}, severity=f.get("severity", "violation"))
                for f in found]
    return cursor, findings, elapsed_s


def _reads_column_order(check_name, ctx) -> bool:
    """Whether a check must see every column order of a multiset, not only its first.

    The other checks read a diagram only through its column multiset, so
    when the first order has no finding, no order has one.  The patterns
    of ``upper_bound`` read column positions, and so do the ``columnswap:
    false`` ones of ``zero_one_characterization``, which also calls
    ``dual_character`` once per instance for the benchmark's tracer.
    """
    if check_name == "upper_bound":
        return ctx.get("northwest_pattern") is not None or ctx.get("general_pattern") is not None
    return check_name == "zero_one_characterization"


def _grid_index(family):
    """A grid family's instance index as a function of the box mask, or None where it is the mask.

    Under ``max_boxes`` the index is the number of smaller masks with at
    most that many boxes: a set bit ``k`` with ``j`` set bits above it
    counts the masks that agree above ``k``, clear it, and set at most
    ``max_boxes - j`` of the ``k`` bits below.
    """
    if family.max_boxes is None:
        return None
    cells = range(family.n * family.n)
    below = [[sum(math.comb(k, t) for t in range(family.max_boxes - j + 1)) for j in cells] for k in cells]
    return lambda mask: sum(below[k][j] for j, k in enumerate(k for k in reversed(cells) if mask >> k & 1))


def _runs(family):
    """The family's runs as picklable ``(first index, data)`` pairs, and ``instances(first, data)``.

    Runs start at ascending indices, and ``instances`` rebuilds a run's
    (index, payload) pairs in whichever process checks it.  A run of an
    explicit list is the indices of its members with one sorted column
    tuple, empty ones too, by first appearance; that of another non-grid
    family is one instance, with its payload as data.  A grid's run is a
    column multiset, with its column ids as data: a sorted tuple from
    ``combinations_with_replacement``.  Read from column n down, as the
    digits of a box mask, they are the multiset's first instance, the
    order with the smallest mask, and these first instances ascend.  The
    other orders follow by ascending mask; each diagram is built as it is
    reached.
    """
    if family.kind == "explicit":
        runs = {}
        for idx, (columns, _) in enumerate(family.members):
            runs.setdefault(tuple(sorted(columns)), []).append(idx)
        return ((run[0], run) for run in runs.values()), lambda _, run: ((i, Diagram(*family.members[i])) for i in run)
    if family.kind != "all_diagrams":
        return family.instances(), lambda idx, payload: ((idx, payload),)
    n = family.n
    column = _grid_columns(n)
    shifts = [n * k for k in reversed(range(n))]
    index = _grid_index(family)

    def at(ids):  # the index of the order whose column ids, from column n down, are ``ids``
        mask = sum(map(operator.lshift, ids, shifts))
        return mask if index is None else index(mask)

    def instances(idx, ids):
        yield idx, Diagram(tuple(map(column.__getitem__, reversed(ids))), n)
        for order in sorted(set(itertools.permutations(ids)))[1:]:
            yield at(order), Diagram(tuple(map(column.__getitem__, reversed(order))), n)

    multisets = itertools.combinations_with_replacement(range(1 << n), n)
    if family.max_boxes is not None:
        sizes = [bits.bit_count() for bits in range(1 << n)]
        multisets = (ids for ids in multisets if sum(map(sizes.__getitem__, ids)) <= family.max_boxes)
    return ((at(ids), ids) for ids in multisets), instances


def _check_run(check, ctx, every_order, instances):
    """A run's findings, or None when it exceeded the cap.

    It checks its first instance, and the others only when that one has a
    finding or the check reads column order, all with one ``_Verdict``.  A
    cap depends only on the multiset, so a run exceeds it at its first.
    ``check(payload, ctx, verdict)`` returns ``(lhs, rhs, witness)`` or
    ``(lhs, rhs, witness, severity)`` tuples, each made a ``Finding`` of the
    instance's index; an instance with findings is rendered once.
    """
    verdict = _Verdict()
    found = []
    try:
        for idx, payload in instances:
            fields = check(payload, ctx, verdict)
            if fields:
                shown = _show_instance(payload)
                found += [Finding(idx, shown, *f) for f in fields]
            elif not (found or every_order):
                break
    except CapExceeded:
        return None
    return found


def _join_walk(check_name, family, ctx):
    """The pool's initializer: set ``_worker_walk``, sent to each worker process once, not with every batch."""
    global _worker_walk
    _worker_walk = _CHECKS[check_name], ctx, _reads_column_order(check_name, ctx), _runs(family)[1]


def _check_batch(batch):
    check, ctx, every_order, instances = _worker_walk
    return [(first, _check_run(check, ctx, every_order, instances(first, data))) for first, data in batch]


def _checked_in_order(pool, window, runs):
    """Each run's ``(first, findings or None)`` in order, from batches of consecutive runs, ``window`` in flight."""
    batches = iter(lambda: list(itertools.islice(runs, BATCH_RUNS)), [])
    pending = deque(pool.submit(_check_batch, batch) for batch in itertools.islice(batches, window))
    while pending:
        results = pending.popleft().result()
        pending.extend(pool.submit(_check_batch, batch) for batch in itertools.islice(batches, 1))
        yield from results


def run_check(
    check_name: str,
    family: DiagramFamily,
    ctx: dict,
    *,
    workers: int = 1,
    checkpoint_path: str | None = None,
) -> VerificationReport:
    """Run one named check over a family's runs (``_runs``), in order, and assemble the report.

    With ``workers`` above 1, that many processes, but no more than
    ``os.cpu_count()``, check batches of ``BATCH_RUNS`` consecutive runs,
    at most twice as many batches as processes in flight.
    Either way one loop here takes each run's findings in order, up to
    the first run that exceeded the cap, and alone holds the cursor, so
    the report and any checkpoint are the serial run's at any worker
    count.  A run given ``checkpoint_path`` resumes at the first run at or
    past its cursor.  About every ``CHECKPOINT_INTERVAL_S`` seconds, before
    it takes a run, it writes that run's start as the cursor, with the
    findings of every run before it.  A walk cut short by the cap keeps
    the checkpoint, at the run that truncated, for a rerun with a larger
    cap; one that ends removes it.  ``elapsed_s`` spans every resumed run.
    """
    if check_name not in _CHECKS:
        raise ValueError(f"unknown check {check_name!r}")
    check_cap(ctx["cap"])
    if type(workers) is not int:
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if checkpoint_path and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint_path))):
        raise ValueError(f"checkpoint {checkpoint_path}: its directory does not exist")
    check_run = partial(_check_run, _CHECKS[check_name], ctx, _reads_column_order(check_name, ctx))
    start, findings, resumed_s = _load_checkpoint(checkpoint_path, check_name, family, ctx)
    saved = time.perf_counter()
    began = saved - resumed_s

    def save(cursor):
        nonlocal saved
        if checkpoint_path:
            elapsed_s = time.perf_counter() - began
            _write_checkpoint(checkpoint_path, check_name, family, ctx, cursor, findings, elapsed_s)
            saved = time.perf_counter()

    runs, instances = _runs(family)
    runs = itertools.dropwhile(lambda run: run[0] < start, runs)
    pool = None
    # the pool starts all its processes at its first batch, however few batches there are
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        # here, not at the top: importing the pool machinery adds about 25 ms to every start-up
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_join_walk, initargs=(check_name, family, ctx))
        runs = _checked_in_order(pool, 2 * workers, runs)
    stop = family.size()
    try:
        for first, run in runs:
            if checkpoint_path and first > start and time.perf_counter() - saved >= CHECKPOINT_INTERVAL_S:
                save(first)
            found = run if pool else check_run(instances(first, run))
            if found is None:
                stop = first
                break
            findings += found
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    if stop < family.size():
        save(stop)
    elif checkpoint_path and os.path.exists(checkpoint_path):
        os.unlink(checkpoint_path)
    kept = sorted((f for f in findings if f.instance_index < stop), key=lambda f: (f.instance_index, f.witness))
    return VerificationReport(
        check=check_name,
        family=family.describe(),
        checked=stop,
        violations=[f for f in kept if f.severity == "violation"],
        candidates=[f for f in kept if f.severity == "candidate"],
        truncated=stop < family.size(),
        elapsed_s=time.perf_counter() - began,
    )


# ---------------------------------------------------------------------------
# Public check entry points
# ---------------------------------------------------------------------------

def verify_lower_bound(
    family: DiagramFamily,
    *,
    support_only: bool = False,
    cap: int = DEFAULT_CAP,
    **run,
) -> VerificationReport:
    """All-ones value and distinct-weight count both reach rank + 1.

    With ``support_only`` the check builds no character and verifies just
    the weight-count bound, which is what the chain argument needs.  It
    decides by B(D) = 1 + sum_j (|I(c_j)| - 1), a lower bound on the count
    that is at least rank + 1, and counts the weights only where the
    diagrams below outnumber the cap, so a sweep truncates exactly where
    the count does.  Without it, the character is built and both bounds
    are read from it; it truncates where the diagrams below outnumber the
    cap.  See ``_lower_bound_verdict``.
    """
    ctx = {"cap": cap, "support_only": support_only}
    return run_check("lower_bound", family, ctx, **run)


def verify_equality_iff_unstable(
    family: DiagramFamily,
    *,
    cap: int = DEFAULT_CAP,
    **run,
) -> VerificationReport:
    """Equality at rank + 1 holds exactly when no unstable pair exists."""
    return run_check("equality_iff_unstable", family, {"cap": cap}, **run)


def verify_zero_one_implication(
    family: DiagramFamily,
    *,
    cap: int = DEFAULT_CAP,
    **run,
) -> VerificationReport:
    """Equality at rank + 1 forces every coefficient to be 0 or 1."""
    return run_check("zero_one_implication", family, {"cap": cap}, **run)


def verify_zero_one_characterization(
    family: DiagramFamily,
    patterns,
    *,
    cap: int = DEFAULT_CAP,
    **run,
) -> VerificationReport:
    """Pattern hits against zero-one characters, in both directions.

    The proved direction (hit implies a repeated coefficient) reports
    violations; the open converse reports candidates only.
    """
    patterns = tuple(patterns)
    if not patterns:
        raise ValueError("at least one pattern is required")
    ctx = {"cap": cap, "patterns": patterns}
    return run_check("zero_one_characterization", family, ctx, **run)


def verify_upper_bound(
    family: DiagramFamily,
    northwest_pattern: PatternGrid | None = None,
    general_pattern: PatternGrid | None = None,
    *,
    cap: int = DEFAULT_CAP,
    **run,
) -> VerificationReport:
    """All-ones value never exceeds the ideal size; equality criteria optional.

    The northwest biconditional (proved) runs on northwest instances
    when its pattern is supplied; the general biconditional (open) runs
    everywhere when its pattern is supplied, reporting candidates.
    """
    ctx = {"cap": cap, "northwest_pattern": northwest_pattern, "general_pattern": general_pattern}
    return run_check("upper_bound", family, ctx, **run)


def verify_schubert_identities(
    n: int,
    *,
    full_character_max_n: int = 5,
    cap: int = DEFAULT_CAP,
    **run,
) -> VerificationReport:
    """Per permutation of [n]: rank/132 identity, the all-ones lower bound,
    and (up to ``full_character_max_n``) full agreement of the Schubert
    polynomial with the Rothe-diagram character."""
    family = DiagramFamily(kind="permutations", n=n)
    ctx = {"cap": cap, "full_character_max_n": full_character_max_n}
    return run_check("schubert_identities", family, ctx, **run)


def verify_key_identities(
    max_part: int,
    max_len: int,
    *,
    cap: int = DEFAULT_CAP,
    **run,
) -> VerificationReport:
    """Per composition with bounded parts: the key polynomial matches the
    skyline character and its all-ones value meets the inversion bound."""
    family = DiagramFamily(kind="compositions", max_part=max_part, max_len=max_len)
    return run_check("key_identities", family, {"cap": cap}, **run)
