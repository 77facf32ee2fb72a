"""Sweep engine checking character bounds and identities over finite families.

Each check runs over a deterministic enumeration, collecting findings
instead of raising: assertion-grade failures ("violation" severity,
statements with proofs) and conjecture-grade ones ("candidate" severity,
open directions where a hit is a discovery, not a bug).  Families shard
deterministically across worker processes, and serial runs can
checkpoint and resume.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial

from weylchar import _kernels
from weylchar.diagrams import (
    CapExceeded,
    DEFAULT_CAP,
    Diagram,
    PatternGrid,
    check_cap,
    column_multiset,
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
    "merge_reports",
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


def _grid_product(family, table):
    """A grid family's diagrams in index order, each an n-tuple of ``table[id]``, last column first.

    ``product`` varies its last factor fastest, so column 1, the lowest
    bits of the box mask, varies fastest and the masks ascend.  A
    ``max_boxes`` limit is applied to the column sizes, at C speed.
    """
    n = family.n
    grids = itertools.product(table, repeat=n)
    if family.max_boxes is not None:
        sizes = [bits.bit_count() for bits in range(1 << n)]
        small = map(family.max_boxes.__ge__, map(sum, itertools.product(sizes, repeat=n)))
        grids = itertools.compress(grids, small)
    return grids


def _grid_subsets(family):
    """Subsets of the n x n grid by ascending bitmask; bit (j-1)*n+(i-1) is box (i, j)."""
    grids = _grid_product(family, _grid_columns(family.n))
    return map(Diagram, (reversed_columns[::-1] for reversed_columns in grids), itertools.repeat(family.n))


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


def report_from_json_obj(obj) -> VerificationReport:
    return VerificationReport(
        check=obj["check"],
        family=obj["family"],
        checked=obj["checked"],
        violations=[_finding_from_json(f, "violation") for f in obj["violations"]],
        candidates=[_finding_from_json(f, "candidate") for f in obj.get("candidates", [])],
        truncated=obj["truncated"],
        elapsed_s=obj["elapsed_s"],
    )


def _report(check, family, checked, findings, truncated, elapsed_s) -> VerificationReport:
    """A report whose findings are split by severity and sorted by (index, witness)."""

    def sorted_by_severity(severity):
        return sorted(
            (f for f in findings if f.severity == severity),
            key=lambda f: (f.instance_index, f.witness),
        )

    return VerificationReport(
        check=check,
        family=family,
        checked=checked,
        violations=sorted_by_severity("violation"),
        candidates=sorted_by_severity("candidate"),
        truncated=truncated,
        elapsed_s=elapsed_s,
    )


def merge_reports(reports) -> VerificationReport:
    """Combine shard reports for one (check, family) run.

    Commutative and associative: findings are re-sorted by instance
    index, counts add, truncation flags combine by OR.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    if any(r.check != first.check or r.family != first.family for r in reports):
        raise ValueError("cannot merge reports from different runs")
    return _report(
        first.check,
        first.family,
        sum(r.checked for r in reports),
        [f for r in reports for f in r.violations + r.candidates],
        any(r.truncated for r in reports),
        sum(r.elapsed_s for r in reports),
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

@lru_cache(maxsize=4096)
def _support_and_bound(columns, cap) -> tuple:
    """``(len(character_support(d, cap)), rank(d) + 1)`` for any ``d`` with this column multiset.

    The weight set is a Minkowski sum over the columns, so it does not
    depend on their order and an empty column adds nothing.  The cap
    check is order-free too: every column ideal is non-empty, so the
    partial sums never shrink, and the support raises exactly when the
    diagram has a box and the final set exceeds the cap.  Only the count
    is kept, never the set, and a call that raises ``CapExceeded`` is not
    stored.  The weights are counted as the kernel returns them, with
    no monomials built.  The rank is a sum over the columns, so one
    lookup serves the whole lower-bound comparison.
    """
    return len(_kernels.weight_support(columns, cap)), _kernels.rank_columns(columns) + 1


@lru_cache(maxsize=4096)
def _order_free(value, columns, n):
    """``value(d)`` for any ``d`` with this column multiset, for an order-free ``value``.

    ``count_below`` is a product over the columns, and whether
    ``has_unstable_pair`` finds a pair does not read the order of the
    columns either: a box's rank, like whether two boxes share a row or
    a column, survives any reordering.  The pair itself names box
    positions, which do move, so a finding asks ``has_unstable_pair``
    for its own witness and only ``is not None`` is read from here.
    Each miss computes just the one value asked for.
    """
    return value(Diagram(columns + ((),) * (n - len(columns)), n))


def _check_lower_bound(idx, d, ctx):
    findings = []
    support, bound = _support_and_bound(column_multiset(d), ctx["cap"])
    if support < bound:
        findings.append(Finding(idx, _show_instance(d), str(support), str(bound), "distinct weights below the bound"))
    if not ctx.get("support_only"):
        total = principal_specialization(dual_character(d, ctx["cap"]))
        if total < bound:
            findings.append(Finding(idx, _show_instance(d), str(total), str(bound), "all-ones value below the bound"))
    return findings


def _check_equality_iff_unstable(idx, d, ctx):
    bound = rank(d) + 1
    unstable = _order_free(has_unstable_pair, column_multiset(d), d.n) is not None
    total = principal_specialization(dual_character(d, ctx["cap"]))
    if total == bound and unstable:
        return [Finding(idx, _show_instance(d), str(total), str(bound),
                        f"equality despite unstable pair {has_unstable_pair(d)}")]
    if total != bound and not unstable:
        return [Finding(idx, _show_instance(d), str(total), str(bound), "strict inequality without an unstable pair")]
    return []


def _check_zero_one_implication(idx, d, ctx):
    bound = rank(d) + 1
    chi = dual_character(d, ctx["cap"])
    total = principal_specialization(chi)
    if total == bound:
        offender = zero_one_witness(chi)
        if offender is not None:
            m, c = offender
            return [
                Finding(idx, _show_instance(d), str(total), str(bound),
                        f"coefficient {c} at {render_monomial(m)} despite equality")
            ]
    return []


class _ZeroOneVerdicts(dict):
    """(column multiset, n) -> the zero-one verdict of every diagram with them, decided on first lookup.

    A verdict is a pair ``(on_hit, on_miss)``: the lhs, rhs, witness and
    severity of the finding when some pattern matches the diagram, and
    when none does, with ``()`` for no finding.  The witness reads only
    the character, which depends only on the column multiset.  A
    swap-allowed pattern matches regardless of column order, since
    matching tries every order of its columns; ``n`` stays in the key
    because it fixes the number of empty columns, which a column of
    ``x`` and ``.`` cells can match.  When a swap-allowed pattern
    matches, ``on_miss`` is ``on_hit``.  Otherwise the patterns that keep
    their column order are matched against each diagram by ``fixed_hit``.
    """

    def __init__(self, patterns):
        super().__init__()
        self.swap = [p for p in patterns if p.column_swap_allowed]
        self.fixed = [p for p in patterns if not p.column_swap_allowed]

    def decide(self, key, d, chi):
        offender = zero_one_witness(chi)
        if offender is None:
            on_hit = ("zero-one", "pattern hit", "contains a flagged configuration yet has zero-one character",
                      "violation")
            on_miss = ()
        else:
            m, c = offender
            on_hit = ()
            on_miss = (f"coefficient {c} at {render_monomial(m)}", "no pattern hit",
                       "not zero-one yet matches no supplied configuration", "candidate")
        if any(contains_pattern(d, p) for p in self.swap):
            on_miss = on_hit
        verdict = self[key] = on_hit, on_miss
        return verdict

    def fixed_hit(self, d):
        return any(contains_pattern(d, p) for p in self.fixed)


def _check_zero_one_characterization(idx, d, ctx, verdicts):
    # the character of every instance, ahead of the lookup, so that the
    # cap truncates the sweep at the same instance as a check per diagram
    chi = dual_character(d, ctx["cap"])
    key = column_multiset(d), d.n
    on_hit, on_miss = verdicts.get(key) or verdicts.decide(key, d, chi)
    fields = on_hit if on_hit != on_miss and verdicts.fixed_hit(d) else on_miss
    return [Finding(idx, _show_instance(d), *fields)] if fields else []


def _check_upper_bound(idx, d, ctx):
    findings = []
    total = principal_specialization(dual_character(d, ctx["cap"]))
    below = _order_free(count_below, column_multiset(d), d.n)
    if total > below:
        findings.append(Finding(idx, _show_instance(d), str(total), str(below), "all-ones value above the ideal size"))
    equal = total == below
    nw_pattern = ctx.get("northwest_pattern")
    if nw_pattern is not None and is_northwest(d):
        hit = contains_pattern(d, nw_pattern)
        if equal == hit:
            findings.append(
                Finding(idx, _show_instance(d), str(total), str(below),
                        "northwest equality criterion failed: "
                        + ("equality with a pattern hit" if hit else "strict without a pattern hit"))
            )
    general = ctx.get("general_pattern")
    if general is not None:
        hit = contains_pattern(d, general)
        if equal == hit:
            findings.append(
                Finding(idx, _show_instance(d), str(total), str(below),
                        "general equality criterion failed: "
                        + ("equality with a pattern hit" if hit else "strict without a pattern hit"),
                        severity="candidate")
            )
    return findings


def _check_schubert(idx, w, ctx):
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


def _check_key(idx, alpha, ctx):
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


def _write_checkpoint(path, check_name, family, ctx, cursor, checked, findings, elapsed_s=0.0):
    payload = {
        "check": check_name,
        "family": family.describe(),
        "members": _members_digest(family),
        "ctx": _fingerprint(ctx),
        "cap": ctx["cap"],
        "shard_cursor": cursor,
        "checked": checked,
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
    """Cursor, count, findings and seconds so far of a checkpoint written by this same run.

    A checkpoint from a run with a different check, family (an explicit
    list's members included) or ctx field is refused.  So is a resume
    with a smaller cap than the checkpoint's, under which instances
    before the cursor might truncate; a larger cap is fine, since no
    instance before the cursor truncated.  A checkpoint without a time
    reads as 0 seconds.  A malformed one is refused too: the cap must be
    a count, the cursor and the count equal counts, as a serial walk
    writes them, and no larger than the family, the time a finite number
    of seconds, and the findings a list of findings.
    """
    if not path or not os.path.exists(path):
        return 0, 0, [], 0.0
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
    cursor, checked = payload.get("shard_cursor"), payload.get("checked")
    if not (_is_count(cursor) and _is_count(checked) and cursor == checked):
        raise ValueError(f"checkpoint {path}: shard_cursor and checked must be equal counts")
    size = family.size()
    if cursor > size:
        raise ValueError(f"checkpoint {path}: shard_cursor {cursor} is past the family's {size} instances")
    elapsed_s = payload.get("elapsed_s", 0.0)
    if not (type(elapsed_s) in (int, float) and 0 <= elapsed_s < float("inf")):
        raise ValueError(f"checkpoint {path}: elapsed_s must be a finite number of seconds")
    found = payload.get("findings")
    if not (isinstance(found, list) and all(map(_is_finding, found))):
        raise ValueError(f"checkpoint {path}: findings must be a list of findings")
    findings = [_finding_from_json(f, f.get("severity", "violation")) for f in found]
    return cursor, checked, findings, elapsed_s


# A support-only grid sweep reads the checkpoint clock once per this many
# instances of its shard.
CHUNK = 4096


class _SupportVerdicts(dict):
    """Sorted column ids of a grid diagram -> whether it needs its own check, filled on first lookup.

    The ids of empty columns (0) stay in the key, so a key names one
    column multiset.  A diagram needs its check when its support count
    is below rank + 1, or when counting exceeds the cap: its check then
    raises again and truncates the sweep at it.  A miss asks the
    module-level ``_support_and_bound``, once per multiset a sweep meets.
    """

    def __init__(self, column, cap):
        super().__init__()
        self.column, self.cap = column, cap

    def __missing__(self, ids):
        columns = tuple(sorted(self.column[i] for i in ids if i))
        try:
            support, bound = _support_and_bound(columns, self.cap)
            needed = support < bound
        except CapExceeded:
            needed = True
        self[ids] = needed
        return needed


def _instance_runs(family, first, nshards):
    """Runs of one instance each, every ``nshards``-th from index ``first`` on."""
    for idx, payload in itertools.islice(family.instances(), first, None, nshards):
        yield idx, 1, ((idx, payload),)


def _support_grid_runs(family, ctx, first, nshards):
    """Runs of ``CHUNK`` instances of a support-only lower bound on a grid, as ``_instance_runs``.

    The diagrams stream as tuples of column ids through C-level
    itertools, and a run yields only its instances whose column
    multiset ``_SupportVerdicts`` flags, built as diagrams; every other
    instance has no finding and is counted without being built.
    """
    n = family.n
    column = _grid_columns(n)
    needed = _SupportVerdicts(column, ctx["cap"])
    grids = itertools.islice(_grid_product(family, range(1 << n)), first, None, nshards)
    while block := list(itertools.islice(grids, CHUNK)):
        picked = itertools.compress(range(len(block)), map(needed.__getitem__, map(tuple, map(sorted, block))))
        yield first, len(block), _picked_diagrams(block, picked, first, nshards, column, n)
        first += len(block) * nshards


def _picked_diagrams(block, picked, first, nshards, column, n):
    """(index, diagram) of each position ``k`` of ``block`` in ``picked``; ``block`` starts at index ``first``."""
    for k in picked:
        yield first + k * nshards, Diagram(tuple(map(column.__getitem__, block[k][::-1])), n)


def _walk(check_name, family, ctx, shard, nshards, checkpoint_path):
    """Check every ``nshards``-th instance from index ``shard`` on.

    Returns (checked, findings, truncated, seconds spent before this
    walk).  Instances come in runs.  A support-only ``lower_bound`` on
    an ``all_diagrams`` family takes runs of ``CHUNK`` instances from
    ``_support_grid_runs``, which builds and checks only the diagrams
    whose column multiset has a finding or exceeds the cap; every other
    sweep takes runs of one instance.  A zero-one characterization
    decides each column multiset once, in a ``_ZeroOneVerdicts`` that
    lives for this walk.  Only a serial run, shard 0 of 1,
    passes a checkpoint path: it resumes from that checkpoint and
    rewrites it after each run that ends ``CHECKPOINT_INTERVAL_S`` or
    more seconds after the walk began or the checkpoint was last
    written.  The checkpoint is removed only once the family has been
    walked to the end; a run cut short by the cap keeps it, with the
    cursor at the instance that truncated, so a rerun with a larger cap
    resumes there.
    """
    check = _CHECKS[check_name]
    if check_name == "zero_one_characterization":
        check = partial(check, verdicts=_ZeroOneVerdicts(ctx["patterns"]))
    start, checked, findings, resumed_s = _load_checkpoint(checkpoint_path, check_name, family, ctx)
    saved = time.perf_counter()
    began = saved - resumed_s

    def save(cursor):
        nonlocal saved
        if checkpoint_path:
            elapsed_s = time.perf_counter() - began
            _write_checkpoint(checkpoint_path, check_name, family, ctx, cursor, checked, findings, elapsed_s)
            saved = time.perf_counter()

    # this shard's first index at or after the cursor
    origin = start + (shard - start) % nshards
    if check_name == "lower_bound" and ctx.get("support_only") and family.kind == "all_diagrams":
        runs = _support_grid_runs(family, ctx, origin, nshards)
    else:
        runs = _instance_runs(family, origin, nshards)
    for first, size, instances in runs:
        for idx, payload in instances:
            try:
                findings.extend(check(idx, payload, ctx))
            except CapExceeded:
                checked += (idx - first) // nshards
                save(idx)
                return checked, findings, True, resumed_s
        checked += size
        if checkpoint_path and time.perf_counter() - saved >= CHECKPOINT_INTERVAL_S:
            save(first + (size - 1) * nshards + 1)
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.unlink(checkpoint_path)
    return checked, findings, False, resumed_s


def run_check(
    check_name: str,
    family: DiagramFamily,
    ctx: dict,
    *,
    workers: int = 1,
    checkpoint_path: str | None = None,
) -> VerificationReport:
    """Run one named check over a family and assemble the report.

    ``workers`` processes each walk an interleaved shard of the family.
    A serial run given ``checkpoint_path`` resumes from that file and
    rewrites it about every ``CHECKPOINT_INTERVAL_S`` seconds; its
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
    began = time.perf_counter()
    walk = partial(_walk, check_name, family, ctx, nshards=workers, checkpoint_path=checkpoint_path)
    if workers == 1:
        parts = [walk(0)]
    else:
        # here, not at the top: importing the pool machinery adds about 25 ms to every start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(walk, range(workers)))
    checked, findings, truncated, resumed_s = zip(*parts)
    return _report(
        check_name,
        family.describe(),
        sum(checked),
        [f for part in findings for f in part],
        any(truncated),
        sum(resumed_s) + time.perf_counter() - began,
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
