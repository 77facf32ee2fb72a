"""Sweep engine checking character bounds and identities over finite families.

Each check runs over a deterministic enumeration, collecting findings
instead of raising: assertion-grade failures ("violation" severity,
statements with proofs) and conjecture-grade ones ("candidate" severity,
open directions where a hit is a discovery, not a bug).  Families shard
deterministically across worker processes, and serial runs can
checkpoint and resume; either way, a report is the serial run's.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, partial

from weylchar import _kernels
from weylchar.diagrams import (
    CapExceeded,
    DEFAULT_CAP,
    Diagram,
    PatternGrid,
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


def _grid_columns(n):
    """The column table of the n-grid: column id ``bits`` holds the rows of its set bits."""
    return [tuple(i for i in range(1, n + 1) if bits >> (i - 1) & 1) for bits in range(1 << n)]


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


def _finding_from_json(obj, severity) -> Finding:
    return Finding(
        instance_index=obj["instance_index"],
        instance=obj["instance"],
        lhs=obj["lhs"],
        rhs=obj["rhs"],
        witness=obj["witness"],
        severity=severity,
    )


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

_VERDICTS_KEPT = 4096


class _Verdicts(OrderedDict):
    """A diagram's sorted columns -> a check's verdict on every diagram with them, decided once per walk.

    The key holds the column multiset and, through its empty columns, n,
    which a zero-one pattern can match.  χ_D is a product over the
    columns, so every column order shares its all-ones value and
    coefficients; rank(D), the distinct-weight count, the number of
    diagrams below and whether an unstable pair exists ignore the order
    too.  What reads column positions (an unstable pair's boxes,
    ``is_northwest``, patterns that keep their column order) is left to
    each order's findings.  A walk's memo holds at most ``_VERDICTS_KEPT``
    multisets, forgetting the oldest first, and no verdict that raises,
    such as one past the cap.
    """

    def of(self, d, decide, *args):
        """The verdict on ``d``, from ``decide(d, *args)`` when its multiset has none."""
        key = tuple(sorted(d.columns))
        verdict = self.get(key)
        if verdict is None:
            verdict = self[key] = decide(d, *args)
            if len(self) > _VERDICTS_KEPT:
                self.popitem(last=False)
        return verdict


def _lower_bound_verdict(d, ctx):
    """Distinct-weight count, rank + 1, and all-ones value (None when ``support_only``).

    The weights are counted over the sorted columns, which sum faster than
    the grid walk's order, with no monomials built.  Every column ideal is
    non-empty, so a count past the cap is past it in every column order.
    """
    support = len(_kernels.weight_support(sorted(d.columns), ctx["cap"]))
    total = None if ctx.get("support_only") else principal_specialization(dual_character(d, ctx["cap"]))
    return support, rank(d) + 1, total


def _check_lower_bound(idx, d, ctx, verdicts):
    support, bound, total = verdicts.of(d, _lower_bound_verdict, ctx)
    findings = []
    if support < bound:
        findings.append(Finding(idx, _show_instance(d), str(support), str(bound), "distinct weights below the bound"))
    if total is not None and total < bound:
        findings.append(Finding(idx, _show_instance(d), str(total), str(bound), "all-ones value below the bound"))
    return findings


def _equality_verdict(d, ctx):
    return rank(d) + 1, principal_specialization(dual_character(d, ctx["cap"])), has_unstable_pair(d) is not None


def _check_equality_iff_unstable(idx, d, ctx, verdicts):
    bound, total, unstable = verdicts.of(d, _equality_verdict, ctx)
    if total == bound and unstable:
        # the pair names box positions, which move with the column order
        return [Finding(idx, _show_instance(d), str(total), str(bound),
                        f"equality despite unstable pair {has_unstable_pair(d)}")]
    if total != bound and not unstable:
        return [Finding(idx, _show_instance(d), str(total), str(bound), "strict inequality without an unstable pair")]
    return []


def _implication_verdict(d, ctx):
    """The lhs, rhs and witness of the finding, or ``()`` for none."""
    chi = dual_character(d, ctx["cap"])
    total, bound = principal_specialization(chi), rank(d) + 1
    offender = zero_one_witness(chi) if total == bound else None
    if offender is None:
        return ()
    m, c = offender
    return str(total), str(bound), f"coefficient {c} at {render_monomial(m)} despite equality"


def _check_zero_one_implication(idx, d, ctx, verdicts):
    fields = verdicts.of(d, _implication_verdict, ctx)
    return [Finding(idx, _show_instance(d), *fields)] if fields else []


def _zero_one_verdict(d, ctx, chi):
    """``(on_hit, on_miss)``: the finding's lhs, rhs, witness and severity if a pattern matches, and if none does.

    ``()`` is no finding.  The witness reads only the character, and a
    swap-allowed pattern, matched in every order of its columns, hits all
    orders of a multiset or none; when one hits, ``on_miss`` is ``on_hit``.
    With no other pattern left to match, ``on_hit`` is ``on_miss``.
    """
    offender = zero_one_witness(chi)
    if offender is None:
        on_hit = ("zero-one", "pattern hit", "contains a flagged configuration yet has zero-one character", "violation")
        on_miss = ()
    else:
        m, c = offender
        on_hit = ()
        on_miss = (f"coefficient {c} at {render_monomial(m)}", "no pattern hit",
                   "not zero-one yet matches no supplied configuration", "candidate")
    if any(contains_pattern(d, p) for p in ctx["patterns"] if p.column_swap_allowed):
        on_miss = on_hit
    elif all(p.column_swap_allowed for p in ctx["patterns"]):
        on_hit = on_miss
    return on_hit, on_miss


def _check_zero_one_characterization(idx, d, ctx, verdicts):
    # the character of every instance, though a verdict reads only one per
    # multiset: perfbench/tracer.py sums ``weyl.principal_sum`` over these
    # calls and perfbench/expected.json pins the sum, so reading it only on
    # a miss waits on a declared benchmark change (ROADMAP item 1)
    chi = dual_character(d, ctx["cap"])
    on_hit, on_miss = verdicts.of(d, _zero_one_verdict, ctx, chi)
    # patterns that keep their column order are matched against each order
    hit = on_hit != on_miss and any(contains_pattern(d, p) for p in ctx["patterns"] if not p.column_swap_allowed)
    fields = on_hit if hit else on_miss
    return [Finding(idx, _show_instance(d), *fields)] if fields else []


def _upper_bound_verdict(d, ctx):
    return principal_specialization(dual_character(d, ctx["cap"])), count_below(d)


def _check_upper_bound(idx, d, ctx, verdicts):
    findings = []
    total, below = verdicts.of(d, _upper_bound_verdict, ctx)
    if total > below:
        findings.append(Finding(idx, _show_instance(d), str(total), str(below), "all-ones value above the ideal size"))
    equal = total == below
    # the northwest criterion is proved for northwest diagrams; the general one is open
    for name, pattern, severity in (("northwest", ctx.get("northwest_pattern"), "violation"),
                                    ("general", ctx.get("general_pattern"), "candidate")):
        if pattern is None or name == "northwest" and not is_northwest(d):
            continue
        hit = contains_pattern(d, pattern)
        if equal == hit:
            outcome = "equality with a pattern hit" if hit else "strict without a pattern hit"
            findings.append(Finding(idx, _show_instance(d), str(total), str(below),
                                    f"{name} equality criterion failed: {outcome}", severity))
    return findings


def _check_schubert(idx, w, ctx, verdicts):
    findings = []
    p132 = count_132(w)
    dw = rothe(w)
    r = rank(dw)
    if p132 != r:
        findings.append(Finding(idx, _show_instance(w), str(p132), str(r), "132-count differs from diagram rank"))
    total = macdonald_specialization(w)
    if total < 1 + p132:
        findings.append(
            Finding(idx, _show_instance(w), str(total), str(1 + p132), "all-ones value below the 132 bound")
        )
    if len(w) <= ctx["full_character_max_n"]:
        s = schubert(w)
        if s != dual_character(dw, ctx["cap"]):
            findings.append(
                Finding(idx, _show_instance(w), "schubert(w)", "dual_character(rothe(w))", "polynomials differ")
            )
        if principal_specialization(s) != total:
            findings.append(
                Finding(idx, _show_instance(w), str(principal_specialization(s)), str(total),
                        "reduced-word evaluation differs from the polynomial value")
            )
    return findings


def _check_key(idx, alpha, ctx, verdicts):
    findings = []
    k = key(alpha)
    if k != dual_character(skyline(alpha), ctx["cap"]):
        findings.append(
            Finding(idx, _show_instance(alpha), "key(alpha)", "dual_character(skyline(alpha))", "polynomials differ")
        )
    bound = 1 + rinv_weight(alpha)
    total = principal_specialization(k)
    if total < bound:
        findings.append(
            Finding(idx, _show_instance(alpha), str(total), str(bound), "all-ones value below the inversion bound")
        )
    return findings


# Every check takes the walk's verdict memo; the Schubert and key checks,
# whose instances never share a column multiset, leave it unread.
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
    carried beside the cursor, is ignored.  One with a ``shard_cursor``
    is refused: that cursor counted a grid's instances one by one, not
    its column multisets.  A malformed one is refused too: the cap must
    be a count, the cursor a count no larger than the family, the time a
    finite number of seconds, and the findings a list of findings.
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
    if "shard_cursor" in payload:
        raise ValueError(f"checkpoint {path} has a shard_cursor, from an older walk, and cannot be resumed")
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
    findings = [_finding_from_json(f, f.get("severity", "violation")) for f in found]
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


@lru_cache(maxsize=None)
def _later_orders(equal):
    """Getters of every order of a sorted tuple but the first, ascending: pairs of the order and its reverse.

    ``equal[k]`` says whether entries k and k + 1 of the tuple are equal,
    which fixes the distinct orders and how they sort.
    """
    values = list(itertools.accumulate((not e for e in equal), initial=0))
    firsts = {}
    for p in itertools.permutations(range(len(values))):
        firsts.setdefault(tuple(map(values.__getitem__, p)), p)
    return [(operator.itemgetter(*p), operator.itemgetter(*p[::-1])) for _, p in sorted(firsts.items())[1:]]


def _instance_runs(family, check, ctx):
    """Each instance's index, with a thunk that returns its findings."""
    for idx, payload in family.instances():
        yield idx, partial(check, idx, payload, ctx)


def _grid_runs(family, check, ctx, every_order):
    """Each column multiset of a grid family: its first instance's index, with a thunk as ``_instance_runs``.

    A multiset is a sorted tuple from ``combinations_with_replacement``.
    Read as column ids from column n down, that is as the digits of a box
    mask, it is the multiset's first instance, the order with the
    smallest mask, and these first instances ascend.  The thunk checks
    the first instance; it checks the other orders, by ascending mask,
    only when that one has a finding or ``every_order`` is set.  A check
    that reads only the multiset then decides it once, and a cap, which
    also depends only on the multiset, is exceeded at its first instance.
    """
    n = family.n
    column = _grid_columns(n)
    shifts = [n * k for k in reversed(range(n))]
    index = _grid_index(family)

    def findings(idx, ids):
        columns = tuple(map(column.__getitem__, ids))
        found = check(idx, Diagram(columns[::-1], n), ctx)
        if found or every_order:
            for order, reverse in _later_orders(tuple(map(operator.eq, ids, ids[1:]))):
                mask = sum(map(operator.lshift, order(ids), shifts))
                found += check(mask if index is None else index(mask), Diagram(reverse(columns), n), ctx)
        return found

    multisets = itertools.combinations_with_replacement(range(1 << n), n)
    if family.max_boxes is not None:
        sizes = [bits.bit_count() for bits in range(1 << n)]
        multisets = (ids for ids in multisets if sum(map(sizes.__getitem__, ids)) <= family.max_boxes)
    for ids in multisets:
        mask = sum(map(operator.lshift, ids, shifts))
        idx = mask if index is None else index(mask)
        yield idx, partial(findings, idx, ids)


def _walk(check_name, family, ctx, shard, nshards, checkpoint_path):
    """Check every ``nshards``-th run from run ``shard`` on.

    Returns (stop, findings, seconds spent before this walk): ``stop`` is
    the index of the instance that exceeded the cap, or ``family.size()``
    if none did, so every instance of this shard below ``stop`` has been
    checked.  An ``all_diagrams`` family is walked in runs of one column
    multiset (``_grid_runs``), any other in runs of one instance, and the
    check decides each multiset in a ``_Verdicts`` made for this walk.
    Only a serial run, shard 0 of 1, passes a checkpoint path.  It
    resumes at the first run that starts at or past the cursor.  Before
    any later run that starts ``CHECKPOINT_INTERVAL_S`` or more seconds
    after the walk began or the checkpoint was last written, it rewrites
    the checkpoint with that run's start as the cursor.  So every run
    that starts below the cursor is done, with all its findings saved,
    even those past the cursor.  The checkpoint is removed only once the
    family has been walked to the end; a run cut short by the cap keeps
    it, with the cursor at the instance that truncated, so a rerun with
    a larger cap resumes there.
    """
    check = partial(_CHECKS[check_name], verdicts=_Verdicts())
    start, findings, resumed_s = _load_checkpoint(checkpoint_path, check_name, family, ctx)
    saved = time.perf_counter()
    began = saved - resumed_s

    def save(cursor):
        nonlocal saved
        if checkpoint_path:
            elapsed_s = time.perf_counter() - began
            _write_checkpoint(checkpoint_path, check_name, family, ctx, cursor, findings, elapsed_s)
            saved = time.perf_counter()

    if family.kind == "all_diagrams":
        runs = _grid_runs(family, check, ctx, _reads_column_order(check_name, ctx))
    else:
        runs = _instance_runs(family, check, ctx)
    runs = itertools.dropwhile(lambda run: run[0] < start, runs)
    for idx, run in itertools.islice(runs, shard, None, nshards):
        if checkpoint_path and idx > start and time.perf_counter() - saved >= CHECKPOINT_INTERVAL_S:
            save(idx)
        try:
            findings.extend(run())
        except CapExceeded:
            save(idx)
            return idx, findings, resumed_s
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.unlink(checkpoint_path)
    return family.size(), findings, resumed_s


def run_check(
    check_name: str,
    family: DiagramFamily,
    ctx: dict,
    *,
    workers: int = 1,
    checkpoint_path: str | None = None,
) -> VerificationReport:
    """Run one named check over a family and assemble the report.

    ``workers`` processes each walk an interleaved shard of the family's
    runs, so each column multiset of a grid is decided in one worker.
    The report stops at the first instance that exceeded the cap in any
    shard: every shard has checked each of its instances below it, so
    ``checked`` and the findings are the serial run's at any worker
    count.  A serial run given ``checkpoint_path`` resumes from that file
    and rewrites it about every ``CHECKPOINT_INTERVAL_S`` seconds; its
    ``elapsed_s`` spans every resumed segment.
    """
    if check_name not in _CHECKS:
        raise ValueError(f"unknown check {check_name!r}")
    check_cap(ctx["cap"])
    if type(workers) is not int:
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers > 1 and checkpoint_path:
        raise ValueError("checkpointing requires a serial run")
    if checkpoint_path and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint_path))):
        raise ValueError(f"checkpoint {checkpoint_path}: its directory does not exist")
    began = time.perf_counter()
    walk = partial(_walk, check_name, family, ctx, nshards=workers, checkpoint_path=checkpoint_path)
    if workers == 1:
        parts = [walk(0)]
    else:
        # here, not at the top: importing the pool machinery adds about 25 ms to every start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(walk, range(workers)))
    stops, findings, resumed_s = zip(*parts)
    stop = min(stops)
    kept = sorted(
        (f for part in findings for f in part if f.instance_index < stop),
        key=lambda f: (f.instance_index, f.witness),
    )
    return VerificationReport(
        check=check_name,
        family=family.describe(),
        checked=stop,
        violations=[f for f in kept if f.severity == "violation"],
        candidates=[f for f in kept if f.severity == "candidate"],
        truncated=stop < family.size(),
        elapsed_s=sum(resumed_s) + time.perf_counter() - began,
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

    With ``support_only`` the check skips the character entirely and
    verifies just the weight-count bound, which is what the chain
    argument actually needs.
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
