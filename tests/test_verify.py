"""Sweep engine: families, reports, sharding, checkpoints, and the checks.

Where a check's expected outcome is not trivially known, an inline loop
recomputes it from the public math helpers and the engine's report is
compared against that, so the engine machinery (enumeration order,
context passing, severity routing, merging) is what is under test.
"""
import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from weylchar import verify, weyl
from weylchar.diagrams import (
    DEFAULT_CAP,
    CapExceeded,
    Diagram,
    column_multiset,
    contains_pattern,
    count_below,
    diagram,
    diagram_to_json_obj,
    enumerate_below,
    has_unstable_pair,
    is_northwest,
    parse_pattern,
    pattern_grid,
    rank,
    render_pattern,
    rothe,
    weight_monomial,
)
from weylchar.polynomials import principal_specialization, render_monomial, zero_one_witness
from weylchar.verify import (
    DiagramFamily,
    Finding,
    VerificationReport,
    all_diagrams,
    all_rothe,
    all_skyline,
    explicit_list,
    merge_reports,
    report_from_json_obj,
    run_check,
    verify_equality_iff_unstable,
    verify_key_identities,
    verify_lower_bound,
    verify_schubert_identities,
    verify_upper_bound,
    verify_zero_one_characterization,
    verify_zero_one_implication,
)
from weylchar.weyl import character_support, dual_character

WORKED = diagram([(1, 3), (2, 3), ()])
WITNESS = pattern_grid(["#x", "x#", "##"], column_swap_allowed=True)
ALL_FREE_2 = pattern_grid(["..", ".."], column_swap_allowed=False)
MATCH_ANYTHING = pattern_grid(["."], column_swap_allowed=False)

REPORT_KEYS = {
    "check",
    "family",
    "checked",
    "violations",
    "candidates",
    "truncated",
    "elapsed_s",
}


def stable_json(report):
    obj = report.to_json_obj()
    obj["elapsed_s"] = 0.0
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_all_diagrams_family():
    fam = all_diagrams(2)
    members = list(fam.instances())
    assert len(members) == 16
    assert members[0][0] == 0
    assert members[0][1] == Diagram(((), ()), 2)
    assert members[-1][1] == Diagram(((1, 2), (1, 2)), 2)
    assert [idx for idx, _ in members] == list(range(16))


def test_all_diagrams_box_limit():
    fam = all_diagrams(2, max_boxes=1)
    members = [d for _, d in fam.instances()]
    assert len(members) == 5
    assert all(d.box_count <= 1 for d in members)


def _grid_subsets_bit_by_bit(n, max_boxes=None):
    """The grid enumeration as first written: one bit test per cell."""
    limit = n * n if max_boxes is None else max_boxes
    for mask in range(1 << (n * n)):
        if mask.bit_count() > limit:
            continue
        cols = tuple(
            tuple(i for i in range(1, n + 1) if mask >> ((j - 1) * n + (i - 1)) & 1)
            for j in range(1, n + 1)
        )
        yield Diagram(cols, n)


@pytest.mark.parametrize(
    "n, max_boxes",
    [(n, m) for n in range(4) for m in [None, *range(n * n + 2)]] + [(4, None)],
)
def test_grid_subsets_match_bit_by_bit_construction(n, max_boxes):
    """Same diagrams in the same order: column 1 varies fastest, as the low bits of the mask."""
    fam = all_diagrams(n, max_boxes=max_boxes)
    assert [d for _, d in fam.instances()] == list(_grid_subsets_bit_by_bit(n, max_boxes))


@pytest.mark.parametrize(
    "make",
    [
        lambda: all_diagrams(-1),
        lambda: all_diagrams(2, max_boxes=-1),
        lambda: all_rothe(-1),
        lambda: all_skyline(-1, 2),
        lambda: all_skyline(2, -1),
        lambda: verify_schubert_identities(-2),
        lambda: verify_key_identities(2, -1),
    ],
    ids=["n", "max_boxes", "rothe", "max_part", "max_len", "schubert", "key"],
)
def test_negative_family_parameters_are_refused(make):
    with pytest.raises(ValueError, match="must be at least 0"):
        make()


@pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "2"])
@pytest.mark.parametrize("name", ["n", "max_boxes", "max_part", "max_len"])
def test_non_integer_family_parameters_are_refused(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        DiagramFamily(kind="all_diagrams", **{name: value})


@pytest.mark.parametrize("workers", [1, 2])
def test_negative_cap_is_refused_before_the_walk(workers):
    with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
        verify_lower_bound(all_diagrams(2), cap=-1, workers=workers)
    with pytest.raises(ValueError, match="cap must be at least 0, got -3"):
        run_check("schubert_identities", DiagramFamily(kind="permutations", n=2),
                  {"cap": -3, "full_character_max_n": 2}, workers=workers)


@pytest.mark.parametrize("cap", [True, False, 2.5, 2.0, "7", None])
def test_non_integer_cap_is_refused_before_the_walk(tmp_path, cap):
    """A run refuses the cap before it writes a checkpoint that its own rerun could not read."""
    path = tmp_path / "ckpt.json"
    for workers in (1, 2):
        with pytest.raises(ValueError, match="cap must be an integer"):
            verify_lower_bound(all_diagrams(2), cap=cap, workers=workers)
    with pytest.raises(ValueError, match="cap must be an integer"):
        verify_lower_bound(all_diagrams(2), cap=cap, checkpoint_path=str(path))
    assert not path.exists()


def test_rothe_family_matches_permutation_order():
    fam = all_rothe(3)
    expected = [rothe(w) for w in itertools.permutations((1, 2, 3))]
    assert [d for _, d in fam.instances()] == expected
    assert fam.describe() == "AllRothe(n=3)"


def test_skyline_family_size():
    fam = all_skyline(1, 2)
    assert len(list(fam.instances())) == 4
    assert fam.describe() == "AllSkyline(max_part=1, max_len=2)"


def test_explicit_family_round_trip():
    fam = explicit_list([WORKED, diagram([(1,)])])
    payloads = [d for _, d in fam.instances()]
    assert payloads == [WORKED, diagram([(1,)])]
    assert fam.describe() == "ExplicitList(2 diagrams)"


def test_unknown_family_kind_rejected():
    from weylchar.verify import DiagramFamily

    bogus = DiagramFamily(kind="nonsense")
    with pytest.raises(ValueError):
        bogus.describe()
    with pytest.raises(ValueError):
        list(bogus.instances())


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _sample_report():
    return VerificationReport(
        check="lower_bound",
        family="ExplicitList(2 diagrams)",
        checked=2,
        violations=[Finding(0, "d0", "1", "2", "why")],
        candidates=[Finding(1, "d1", "3", "4", "maybe", severity="candidate")],
        truncated=False,
        elapsed_s=0.25,
    )


def test_report_json_schema_and_round_trip():
    report = _sample_report()
    obj = report.to_json_obj()
    assert set(obj) == REPORT_KEYS
    assert obj["violations"][0] == {
        "instance_index": 0,
        "instance": "d0",
        "lhs": "1",
        "rhs": "2",
        "witness": "why",
    }
    back = report_from_json_obj(json.loads(json.dumps(obj)))
    assert back.violations == report.violations
    assert back.candidates == report.candidates
    assert back.candidates[0].severity == "candidate"
    assert back.violations[0].severity == "violation"
    assert not report.ok


def test_report_render_lines():
    text = _sample_report().render()
    assert "check: lower_bound" in text
    assert "violations: 1" in text
    assert "candidates: 1" in text
    assert "violation #0 d0" in text
    assert "candidate #1 d1" in text


def test_merge_reports():
    full = _sample_report()
    left = VerificationReport(
        check=full.check, family=full.family, checked=1,
        violations=list(full.violations), candidates=[], elapsed_s=0.1,
    )
    right = VerificationReport(
        check=full.check, family=full.family, checked=1,
        violations=[], candidates=list(full.candidates), elapsed_s=0.15,
    )
    for ordering in ([left, right], [right, left]):
        merged = merge_reports(ordering)
        assert merged.checked == 2
        assert merged.violations == full.violations
        assert merged.candidates == full.candidates
    assert merge_reports([left, right]).elapsed_s == pytest.approx(0.25)


def test_merge_rejects_mismatch_and_empty():
    a = _sample_report()
    b = _sample_report()
    b.check = "upper_bound"
    with pytest.raises(ValueError):
        merge_reports([a, b])
    with pytest.raises(ValueError):
        merge_reports([])


def test_merge_or_combines_truncation():
    a = _sample_report()
    b = _sample_report()
    b.truncated = True
    assert merge_reports([a, b]).truncated


# ---------------------------------------------------------------------------
# Checks on explicit and exhaustive families
# ---------------------------------------------------------------------------

def test_lower_bound_worked_example():
    report = verify_lower_bound(explicit_list([WORKED]))
    assert report.checked == 1
    assert report.violations == []
    assert report.ok
    support = verify_lower_bound(explicit_list([WORKED]), support_only=True)
    assert support.ok


def test_equality_iff_unstable_explicit_cases():
    strict = WORKED                      # 6 > 4, has an unstable pair
    tight = diagram([(3,)])              # 3 == 3, no unstable pair
    assert has_unstable_pair(strict) is not None
    assert has_unstable_pair(tight) is None
    report = verify_equality_iff_unstable(explicit_list([strict, tight]))
    assert report.checked == 2
    assert report.violations == []


def test_lower_bound_engine_matches_loop():
    fam = all_diagrams(2)
    report = verify_lower_bound(fam)
    expected = 0
    for _, d in fam.instances():
        bound = rank(d) + 1
        if len(character_support(d)) < bound:
            expected += 1
        if principal_specialization(dual_character(d)) < bound:
            expected += 1
    assert report.checked == 16
    assert len(report.violations) == expected == 0


def _column_orders(d):
    return [Diagram(columns, d.n) for columns in sorted(set(itertools.permutations(d.columns)))]


def _support_count(d, cap):
    return verify._support_and_bound(column_multiset(d), cap)[0]


def test_support_count_matches_uncached_count_in_every_column_order():
    verify._support_and_bound.cache_clear()
    for _, d in all_diagrams(3).instances():
        for e in _column_orders(d):
            assert _support_count(e, DEFAULT_CAP) == len(character_support(e, DEFAULT_CAP)), e


def test_support_count_raises_exactly_when_the_uncached_call_does():
    verify._support_and_bound.cache_clear()
    for _, d in all_diagrams(3).instances():
        size = len(character_support(d))
        for cap in range(size + 2):
            for e in _column_orders(d):
                try:
                    expected = len(character_support(e, cap))
                except CapExceeded:
                    with pytest.raises(CapExceeded):
                        _support_count(e, cap)
                else:
                    assert _support_count(e, cap) == expected, (e, cap)


def test_support_count_matches_enumeration_on_the_5_grid():
    """Seeded 5 x 5 diagrams: the count is the number of distinct weights of the diagrams below."""
    rng = random.Random(5)
    cells = [(i, j) for j in range(1, 6) for i in range(1, 6)]
    checked = 0
    while checked < 30:
        boxes = rng.sample(cells, rng.randint(4, 12))
        d = diagram([[i for i, j in sorted(boxes) if j == c] for c in range(1, 6)], 5)
        if count_below(d) > 20000:
            continue
        weights = {weight_monomial(e) for e in enumerate_below(d)}
        assert _support_count(d, DEFAULT_CAP) == len(weights), d
        checked += 1


def test_column_orders_share_one_support_computation(monkeypatch):
    verify._support_and_bound.cache_clear()
    calls = []
    support = weyl._kernels.weight_support

    def counting(columns, cap):
        calls.append(columns)
        return support(columns, cap)

    monkeypatch.setattr(weyl._kernels, "weight_support", counting)
    d = diagram([(1, 3), (2, 3), (), (2,)])
    count = _support_count(d, DEFAULT_CAP)
    assert _support_count(diagram([(2,), (), (2, 3), (1, 3)]), DEFAULT_CAP) == count
    assert _support_count(diagram([(), (2, 3), (2,), (1, 3)]), DEFAULT_CAP) == count
    assert len(calls) == 1
    # the cap stays part of the key; the grid size does not, since packed weights never read it
    assert _support_count(diagram(d.columns, n=5), DEFAULT_CAP) == count
    assert len(calls) == 1
    _support_count(d, DEFAULT_CAP - 1)
    assert len(calls) == 2
    # a miss that raises is not stored, so it is computed again
    for _ in range(2):
        with pytest.raises(CapExceeded):
            _support_count(d, 1)
    assert len(calls) == 4
    # a support-only sweep keys every column order the same way
    verify._support_and_bound.cache_clear()
    report = verify_lower_bound(explicit_list(_column_orders(d)), support_only=True)
    assert report.checked == 24
    assert len(calls) == 5


def _orbit_sample_4grid():
    """Every column order of every 16th column multiset of the 4-grid."""
    columns = [tuple(i for i in range(1, 5) if bits >> (i - 1) & 1) for bits in range(16)]
    for multiset in list(itertools.combinations_with_replacement(columns, 4))[::16]:
        yield from _column_orders(Diagram(multiset, 4))


def test_memoized_values_match_their_per_diagram_functions():
    verify._support_and_bound.cache_clear()
    verify._order_free.cache_clear()
    grid = [d for _, d in all_diagrams(3).instances()]
    for d in grid + list(_orbit_sample_4grid()):
        key = column_multiset(d)
        assert verify._support_and_bound(key, DEFAULT_CAP)[1] == rank(d) + 1, d
        assert verify._order_free(count_below, key, d.n) == count_below(d), d
        unstable = verify._order_free(has_unstable_pair, key, d.n) is not None
        assert unstable == (has_unstable_pair(d) is not None), d


def test_clean_sweep_renders_no_instance(monkeypatch):
    rendered = []
    show = verify._show_instance

    def counting(payload):
        rendered.append(payload)
        return show(payload)

    monkeypatch.setattr(verify, "_show_instance", counting)
    report = verify_lower_bound(all_diagrams(3), support_only=True)
    assert report.checked == 512
    assert report.ok
    assert rendered == []


@pytest.mark.parametrize("support_only", [True, False])
def test_findings_render_their_instance(monkeypatch, support_only):
    support_and_bound = verify._support_and_bound
    monkeypatch.setattr(verify, "_support_and_bound", lambda *key: (support_and_bound(*key)[0], 10 ** 6))
    fam = all_diagrams(2)
    report = verify_lower_bound(fam, support_only=support_only)
    diagrams = dict(fam.instances())
    assert len(report.violations) == (1 if support_only else 2) * len(diagrams)
    for f in report.violations:
        d = diagrams[f.instance_index]
        assert f.instance == json.dumps(diagram_to_json_obj(d), separators=(",", ":"))


def test_instances_render_as_their_compact_json():
    rng = random.Random(5)
    cells = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    samples = [diagram([], 0), diagram([], 3), diagram([(1, 10), (), (7,)], 10)]
    for _ in range(8):
        boxes = rng.sample(cells, rng.randint(0, 25))
        samples.append(diagram([[i for i, j in sorted(boxes) if j == c] for c in range(1, 6)], 5))
    for d in [d for _, d in all_diagrams(3).instances()] + samples:
        assert verify._show_instance(d) == json.dumps(diagram_to_json_obj(d), separators=(",", ":")), d


def test_zero_one_implication_engine_matches_loop():
    fam = all_diagrams(2)
    report = verify_zero_one_implication(fam)
    expected = []
    for idx, d in fam.instances():
        chi = dual_character(d)
        if principal_specialization(chi) == rank(d) + 1:
            if zero_one_witness(chi) is not None:
                expected.append(idx)
    assert [f.instance_index for f in report.violations] == expected == []


def test_zero_one_characterization_requires_patterns():
    with pytest.raises(ValueError):
        verify_zero_one_characterization(all_diagrams(2), [])


def test_zero_one_characterization_all_free_pattern_flags_loop_expected():
    # A pattern every 2x2 diagram contains turns the proved direction into
    # "nothing may be zero-one", so the engine must flag exactly the
    # zero-one instances.
    fam = all_diagrams(2)
    report = verify_zero_one_characterization(fam, [ALL_FREE_2])
    expected = []
    for idx, d in fam.instances():
        assert contains_pattern(d, ALL_FREE_2)
        if zero_one_witness(dual_character(d)) is None:
            expected.append(idx)
    assert [f.instance_index for f in report.violations] == expected
    assert expected
    assert not report.ok
    assert report.candidates == []


def test_zero_one_characterization_witness_pattern_clean_on_3_grid():
    fam = all_diagrams(3)
    report = verify_zero_one_characterization(fam, [WITNESS])
    expected_candidates = []
    for idx, d in fam.instances():
        offender = zero_one_witness(dual_character(d))
        hit = contains_pattern(d, WITNESS)
        if hit:
            assert offender is not None, d
        if offender is not None and not hit:
            expected_candidates.append(idx)
    assert report.checked == 512
    assert report.violations == []
    assert [f.instance_index for f in report.candidates] == expected_candidates
    assert all(f.severity == "candidate" for f in report.candidates)
    assert report.ok


# ---------------------------------------------------------------------------
# Zero-one verdicts: decided once per column multiset and grid size
# ---------------------------------------------------------------------------

FIXED_CORNER = pattern_grid(["#x", "x#"], column_swap_allowed=False)
# a box with an empty cell beside it in either order: its ``x`` column can
# match an empty column, so its hits depend on the grid size
SWAP_BESIDE_EMPTY = pattern_grid(["#x"], column_swap_allowed=True)


def _random_pattern_grids(seed, count):
    """Grids of up to 3 x 3 cells; every third has a first column of only ``x`` and ``.`` cells."""
    rng = random.Random(seed)
    grids = []
    for k in range(count):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        grid = [[rng.choice("#x.") for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 0:
            for row in grid:
                row[0] = rng.choice("x.")
        grids.append(["".join(row) for row in grid])
    return grids


def _order_mismatches(patterns):
    """How many (column multiset, pattern) pairs of the 3-grid disagree on containment across column orders."""
    orbits = {}
    for _, d in all_diagrams(3).instances():
        orbits.setdefault(column_multiset(d), []).append(d)
    return sum(len({contains_pattern(d, p) for d in orbit}) > 1 for orbit in orbits.values() for p in patterns)


def test_swap_allowed_patterns_match_every_column_order():
    grids = _random_pattern_grids(19, 48)
    assert any(all(line[0] in "x." for line in grid) for grid in grids)
    swap = [pattern_grid(grid, column_swap_allowed=True) for grid in grids]
    assert _order_mismatches(swap + [WITNESS, SWAP_BESIDE_EMPTY]) == 0
    # in a fixed column order, containment depends on the order, so those
    # patterns are matched against each diagram
    assert _order_mismatches([pattern_grid(grid) for grid in grids]) > 0


def _force_some_witnesses(monkeypatch):
    """A witness on every character whose number of terms is not a multiple of 5, none on the others."""
    monkeypatch.setattr(
        verify, "zero_one_witness", lambda chi: max(chi.terms.items()) if len(chi.terms) % 5 else None
    )


def _zero_one_reference(fam, patterns, cap, shard, nshards):
    """One shard of the zero-one characterization, decided per instance: (checked, findings, truncated)."""
    checked, findings = 0, []
    for idx, d in itertools.islice(fam.instances(), shard, None, nshards):
        try:
            chi = dual_character(d, cap)
        except CapExceeded:
            return checked, findings, True
        offender = verify.zero_one_witness(chi)
        hit = any(contains_pattern(d, p) for p in patterns)
        instance = json.dumps(diagram_to_json_obj(d), separators=(",", ":"))
        if hit and offender is None:
            findings.append((idx, instance, "zero-one", "pattern hit",
                             "contains a flagged configuration yet has zero-one character", "violation"))
        if offender is not None and not hit:
            m, c = offender
            findings.append((idx, instance, f"coefficient {c} at {render_monomial(m)}", "no pattern hit",
                             "not zero-one yet matches no supplied configuration", "candidate"))
        checked += 1
    return checked, findings, False


def _merged_reference(fam, patterns, cap=DEFAULT_CAP, workers=1):
    parts = [_zero_one_reference(fam, patterns, cap, shard, workers) for shard in range(workers)]
    return sum(p[0] for p in parts), sorted(f for p in parts for f in p[1]), any(p[2] for p in parts)


def _as_reference(report):
    findings = sorted(dataclasses.astuple(f) for f in report.violations + report.candidates)
    return report.checked, findings, report.truncated


MIXED_GRID_SIZES = explicit_list([
    diagram([(1,)], 2),
    diagram([(1,)], 1),
    diagram([(), (1,)], 2),
    diagram([(1,)], 3),
    diagram([(1,), (2,)], 2),
    diagram([(2,), (1,)], 2),
    diagram([(2,), (), (1,)], 3),
    diagram([(1, 3), (2, 3), ()]),
    diagram([(2, 3), (1, 3), ()]),
    diagram([(2, 3), (), (1, 3)]),
])


@pytest.mark.parametrize("patterns", [
    [WITNESS],
    [FIXED_CORNER],
    [WITNESS, FIXED_CORNER],
    [FIXED_CORNER, SWAP_BESIDE_EMPTY, pattern_grid(["x", "#"])],
], ids=["swap", "fixed", "swap-fixed", "fixed-swap-fixed"])
@pytest.mark.parametrize("fam", [all_diagrams(3), MIXED_GRID_SIZES], ids=["3-grid", "mixed-n"])
@pytest.mark.parametrize("workers", [1, 2])
def test_zero_one_verdicts_match_a_check_per_instance(monkeypatch, patterns, fam, workers):
    _force_some_witnesses(monkeypatch)
    expected = _merged_reference(fam, patterns, workers=workers)
    _, findings, _ = expected
    assert {f[-1] for f in findings} == {"violation", "candidate"}
    assert _as_reference(verify_zero_one_characterization(fam, patterns, workers=workers)) == expected


def test_zero_one_sweep_decides_each_multiset_once(monkeypatch):
    calls = []

    def counting(d, p):
        calls.append(p)
        return contains_pattern(d, p)

    monkeypatch.setattr(verify, "contains_pattern", counting)
    fam = all_diagrams(3)
    multisets = len({column_multiset(d) for _, d in fam.instances()})
    verify_zero_one_characterization(fam, [WITNESS])
    assert len(calls) == multisets == 120
    calls.clear()
    verify_zero_one_characterization(fam, [WITNESS, FIXED_CORNER])
    # the fixed pattern is matched against each diagram whose swap-allowed verdict did not hit
    assert calls.count(WITNESS) == 120
    assert 0 < calls.count(FIXED_CORNER) < 512


@pytest.mark.parametrize("cap", [6, 10, 20])
def test_zero_one_verdicts_truncate_and_resume_where_a_check_per_instance_does(tmp_path, monkeypatch, cap):
    _force_some_witnesses(monkeypatch)
    fam, patterns = all_diagrams(3), [WITNESS, FIXED_CORNER]
    checked, findings, truncated = _merged_reference(fam, patterns, cap)
    assert truncated
    # some multiset has orders on both sides of the cut, so its verdict is
    # decided before the cut and needed again after it
    orders = {}
    for idx, d in fam.instances():
        orders.setdefault(column_multiset(d), []).append(idx)
    assert any(indices[0] < checked < indices[-1] for indices in orders.values())
    for workers in (1, 2):
        report = verify_zero_one_characterization(fam, patterns, cap=cap, workers=workers)
        assert _as_reference(report) == _merged_reference(fam, patterns, cap, workers)
    path = tmp_path / "cut.json"
    verify_zero_one_characterization(fam, patterns, cap=cap, checkpoint_path=str(path))
    saved = json.loads(path.read_text())
    assert saved["shard_cursor"] == saved["checked"] == checked
    fields = ("instance_index", "instance", "lhs", "rhs", "witness", "severity")
    assert sorted(tuple(f[k] for k in fields) for f in saved["findings"]) == findings
    resumed = verify_zero_one_characterization(fam, patterns, checkpoint_path=str(path))
    assert _as_reference(resumed) == _merged_reference(fam, patterns)
    assert not path.exists()


def test_upper_bound_trivial_holds_on_2_grid():
    fam = all_diagrams(2)
    report = verify_upper_bound(fam)
    for _, d in fam.instances():
        assert principal_specialization(dual_character(d)) <= count_below(d)
    assert report.checked == 16
    assert report.violations == []
    assert report.candidates == []


def test_upper_bound_wrong_pattern_is_flagged_not_hidden():
    # The criterion says equality holds exactly when the pattern is
    # absent.  A match-anything pattern therefore misclassifies every
    # equality instance; the engine must surface those, proving the
    # harness does not swallow criterion failures.
    fam = all_diagrams(2)
    report = verify_upper_bound(fam, northwest_pattern=MATCH_ANYTHING)
    expected = []
    for idx, d in fam.instances():
        if not is_northwest(d):
            continue
        if principal_specialization(dual_character(d)) == count_below(d):
            expected.append(idx)
    assert [f.instance_index for f in report.violations] == expected
    assert expected


def test_upper_bound_general_pattern_reports_candidates():
    fam = all_diagrams(2)
    report = verify_upper_bound(fam, general_pattern=MATCH_ANYTHING)
    expected = []
    for idx, d in fam.instances():
        if principal_specialization(dual_character(d)) == count_below(d):
            expected.append(idx)
    assert report.violations == []
    assert [f.instance_index for f in report.candidates] == expected
    assert expected
    assert report.ok


def test_schubert_identities_small():
    report = verify_schubert_identities(3)
    assert report.check == "schubert_identities"
    assert report.family == "Permutations(n=3)"
    assert report.checked == 6
    assert report.violations == []
    skip_characters = verify_schubert_identities(3, full_character_max_n=0)
    assert skip_characters.violations == []


def test_key_identities_small():
    report = verify_key_identities(1, 2)
    assert report.family == "Compositions(max_part=1, max_len=2)"
    assert report.checked == 4
    assert report.violations == []


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------

def test_run_check_validation():
    with pytest.raises(ValueError):
        run_check("nonsense", all_diagrams(2), {})
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_check("lower_bound", all_diagrams(2), {"cap": 10}, workers=0)
    for workers in ("2", 1.5, 2.0, True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_check("lower_bound", all_diagrams(2), {"cap": 10}, workers=workers)
    for cap in ("7", 2.5, True, None):
        with pytest.raises(ValueError, match="cap must be an integer"):
            run_check("lower_bound", all_diagrams(2), {"cap": cap})


def test_importing_the_package_starts_no_pool_machinery():
    """The process pool is imported only by a run with workers, so start-up skips it."""
    probe = (
        "import sys; before = set(sys.modules); import weylchar; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_serial_runs_are_deterministic():
    fam = all_diagrams(2)
    first = verify_zero_one_characterization(fam, [ALL_FREE_2])
    second = verify_zero_one_characterization(fam, [ALL_FREE_2])
    assert stable_json(first) == stable_json(second)


def test_worker_parity_clean_run():
    fam = all_diagrams(2)
    serial = verify_lower_bound(fam)
    sharded = verify_lower_bound(fam, workers=2)
    assert stable_json(serial) == stable_json(sharded)


def test_worker_parity_with_findings():
    fam = all_diagrams(2)
    serial = verify_zero_one_characterization(fam, [ALL_FREE_2])
    sharded = verify_zero_one_characterization(fam, [ALL_FREE_2], workers=3)
    assert stable_json(serial) == stable_json(sharded)
    assert sharded.violations


def test_checkpoint_resume_matches_full_run(tmp_path):
    fam = all_diagrams(2)
    full = verify_zero_one_characterization(fam, [ALL_FREE_2])
    cursor = 8
    prefix = [f for f in full.violations if f.instance_index < cursor]
    path = tmp_path / "resume.json"
    path.write_text(json.dumps({
        "check": "zero_one_characterization",
        "family": fam.describe(),
        "ctx": {"patterns": [render_pattern(ALL_FREE_2)]},
        "cap": DEFAULT_CAP,
        "shard_cursor": cursor,
        "checked": cursor,
        "findings": [dict(f.to_json_obj(), severity=f.severity) for f in prefix],
    }))
    resumed = verify_zero_one_characterization(
        fam, [ALL_FREE_2], checkpoint_path=str(path)
    )
    assert stable_json(resumed) == stable_json(full)
    assert not path.exists()


def test_checkpoint_for_other_run_rejected(tmp_path):
    fam = all_diagrams(2)
    path = tmp_path / "stale.json"
    path.write_text(json.dumps({
        "check": "lower_bound",
        "family": "AllDiagrams(n=9, max_boxes=None)",
        "shard_cursor": 4,
        "checked": 4,
        "findings": [],
    }))
    with pytest.raises(ValueError):
        verify_lower_bound(fam, checkpoint_path=str(path))
    path.write_text(json.dumps({
        "check": "upper_bound",
        "family": fam.describe(),
        "shard_cursor": 4,
        "checked": 4,
        "findings": [],
    }))
    with pytest.raises(ValueError):
        verify_lower_bound(fam, checkpoint_path=str(path))


def test_checkpoint_from_other_parameters_rejected(tmp_path):
    fam = all_diagrams(3)
    path = tmp_path / "params.json"
    ctx = {"cap": DEFAULT_CAP, "support_only": True}  # as verify_lower_bound builds it
    verify._write_checkpoint(str(path), "lower_bound", fam, ctx, 64, 64, [])
    with pytest.raises(ValueError):
        verify_lower_bound(fam, support_only=False, checkpoint_path=str(path))
    with pytest.raises(ValueError):
        verify_lower_bound(fam, support_only=True, cap=DEFAULT_CAP - 1, checkpoint_path=str(path))
    assert path.exists()
    resumed = verify_lower_bound(
        fam, support_only=True, cap=DEFAULT_CAP + 1, checkpoint_path=str(path)
    )
    assert stable_json(resumed) == stable_json(verify_lower_bound(fam, support_only=True))
    assert not path.exists()


def test_checkpoint_from_another_explicit_list_rejected(tmp_path):
    wide = diagram([(3,), (3,), (3,)])
    first = explicit_list([diagram([(1,)]), wide, diagram([(2,)])])
    other = explicit_list([diagram([(2,)]), diagram([(1, 2)]), diagram([(1,), (2,)])])
    assert first.describe() == other.describe() == "ExplicitList(3 diagrams)"
    path = tmp_path / "explicit.json"
    # ``wide`` has 27 diagrams below it, so cap 5 interrupts the run there
    cut = verify_lower_bound(first, cap=5, checkpoint_path=str(path))
    assert cut.truncated and cut.checked == 1
    with pytest.raises(ValueError, match="different run"):
        verify_lower_bound(other, checkpoint_path=str(path))
    resumed = verify_lower_bound(first, checkpoint_path=str(path))
    assert stable_json(resumed) == stable_json(verify_lower_bound(first))


def test_checkpoint_is_on_disk_before_it_is_renamed(tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        calls.append("fsync")
        fsync(fd)

    def spy_replace(src, dst):
        calls.append("replace")
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    path = tmp_path / "durable.json"
    verify._write_checkpoint(str(path), "lower_bound", all_diagrams(2), {"cap": DEFAULT_CAP}, 4, 4, [])
    assert calls == ["fsync", "replace"]
    assert json.loads(path.read_text())["shard_cursor"] == 4


def test_checkpoint_fingerprint_covers_patterns(tmp_path):
    fam = all_diagrams(2)
    path = tmp_path / "patterns.json"
    full = verify_zero_one_characterization(fam, [ALL_FREE_2])
    # the first instance's character exceeds cap 0, so the run truncates at once
    verify_zero_one_characterization(fam, [ALL_FREE_2], cap=0, checkpoint_path=str(path))
    assert json.loads(path.read_text())["ctx"] == {"patterns": [render_pattern(ALL_FREE_2)]}
    with pytest.raises(ValueError):
        verify_zero_one_characterization(fam, [WITNESS], checkpoint_path=str(path))
    resumed = verify_zero_one_characterization(fam, [ALL_FREE_2], checkpoint_path=str(path))
    assert stable_json(resumed) == stable_json(full)


def test_truncated_run_keeps_its_checkpoint(tmp_path):
    fam = all_diagrams(3)
    path = tmp_path / "truncated.json"
    full = verify_lower_bound(fam)
    # instance 36, boxes (3, 1) and (3, 2), is the first with more than 6 diagrams below
    cut = verify_lower_bound(fam, cap=6, checkpoint_path=str(path))
    assert cut.truncated and cut.checked == 36
    saved = json.loads(path.read_text())
    assert saved["shard_cursor"] == 36 and saved["cap"] == 6
    assert saved["elapsed_s"] > 0
    resumed = verify_lower_bound(fam, checkpoint_path=str(path))
    assert not path.exists()
    assert stable_json(resumed) == stable_json(full)
    assert resumed.elapsed_s > saved["elapsed_s"]


def test_resumed_report_counts_earlier_segments(tmp_path):
    fam = all_diagrams(2)
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({
        "check": "lower_bound",
        "family": fam.describe(),
        "ctx": {"support_only": False},
        "cap": DEFAULT_CAP,
        "shard_cursor": 8,
        "checked": 8,
        "elapsed_s": 1000.0,
        "findings": [],
    }))
    resumed = verify_lower_bound(fam, checkpoint_path=str(path))
    assert resumed.checked == 16
    assert resumed.elapsed_s >= 1000.0


# One small family per check, with ctx that turns up findings where a
# pattern makes that possible.  A cap of CUT truncates each of them partway.
CUT = 10
SWEEPS = {
    "lower_bound": lambda **run: verify_lower_bound(all_diagrams(3), **run),
    "equality_iff_unstable": lambda **run: verify_equality_iff_unstable(all_diagrams(3), **run),
    "zero_one_implication": lambda **run: verify_zero_one_implication(all_diagrams(3), **run),
    "zero_one_characterization": (
        lambda **run: verify_zero_one_characterization(all_diagrams(3), [WITNESS], **run)
    ),
    "upper_bound": (
        lambda **run: verify_upper_bound(all_diagrams(3), MATCH_ANYTHING, MATCH_ANYTHING, **run)
    ),
    "schubert_identities": lambda **run: verify_schubert_identities(5, **run),
    "key_identities": lambda **run: verify_key_identities(2, 4, **run),
}


@pytest.mark.parametrize("check", sorted(verify._CHECKS))
def test_serial_sharded_and_resumed_runs_agree(check, tmp_path):
    sweep = SWEEPS[check]
    path = tmp_path / "cut.json"
    serial = sweep()
    sharded = sweep(workers=2)
    cut = sweep(cap=CUT, checkpoint_path=str(path))
    assert cut.truncated and 0 < cut.checked < serial.checked
    assert path.exists()
    resumed = sweep(checkpoint_path=str(path))
    assert not path.exists()
    assert stable_json(serial) == stable_json(sharded) == stable_json(resumed)


def test_checkpoint_requires_serial_run(tmp_path):
    with pytest.raises(ValueError):
        verify_lower_bound(
            all_diagrams(2), workers=2, checkpoint_path=str(tmp_path / "x.json")
        )


def spy_on_checkpoint_writes(monkeypatch):
    """Record the cursor of every checkpoint write, and still write it."""
    cursors = []
    write = verify._write_checkpoint

    def spy(path, check_name, family, ctx, cursor, *rest):
        cursors.append(cursor)
        write(path, check_name, family, ctx, cursor, *rest)

    monkeypatch.setattr(verify, "_write_checkpoint", spy)
    return cursors


def test_checkpoint_written_and_cleared(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "CHECKPOINT_INTERVAL_S", 0)
    cursors = spy_on_checkpoint_writes(monkeypatch)
    path = tmp_path / "steps.json"
    report = verify_lower_bound(all_diagrams(2), checkpoint_path=str(path))
    assert report.checked == 16
    assert cursors == list(range(1, 17))
    assert not path.exists()


def test_interrupted_run_resumes_from_its_last_instance(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "CHECKPOINT_INTERVAL_S", 0)
    fam = all_diagrams(2)
    full = verify_zero_one_characterization(fam, [ALL_FREE_2])
    path = tmp_path / "interrupted.json"
    k = 9
    check = verify._CHECKS["zero_one_characterization"]

    def crash_at_k(idx, d, ctx, **walk_state):
        if idx == k:
            raise RuntimeError("interrupted")
        return check(idx, d, ctx, **walk_state)

    with monkeypatch.context() as patched:
        patched.setitem(verify._CHECKS, "zero_one_characterization", crash_at_k)
        with pytest.raises(RuntimeError):
            verify_zero_one_characterization(fam, [ALL_FREE_2], checkpoint_path=str(path))
    saved = json.loads(path.read_text())
    assert saved["shard_cursor"] == saved["checked"] == k
    assert saved["findings"]
    resumed = verify_zero_one_characterization(fam, [ALL_FREE_2], checkpoint_path=str(path))
    assert not path.exists()
    assert stable_json(resumed) == stable_json(full)


def test_checkpoint_interval_bounds_the_writes(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "CHECKPOINT_INTERVAL_S", float("inf"))
    cursors = spy_on_checkpoint_writes(monkeypatch)
    path = tmp_path / "rare.json"
    fam = all_diagrams(3)
    complete = verify_lower_bound(fam, checkpoint_path=str(path))
    assert complete.checked == 512 and cursors == []
    assert not path.exists()
    # instance 36 is the first with more than 6 diagrams below
    cut = verify_lower_bound(fam, cap=6, checkpoint_path=str(path))
    assert cut.truncated and cursors == [36]
    assert path.exists()


def test_cap_exhaustion_truncates_report():
    wide = diagram([(3,), (3,), (3,)])
    report = verify_lower_bound(explicit_list([wide]), cap=5)
    assert report.truncated
    assert not report.ok
    assert report.checked == 0
    # only the second shard meets the wide diagram
    sharded = verify_lower_bound(explicit_list([diagram([(1,)]), wide]), cap=5, workers=2)
    assert sharded.truncated and sharded.checked == 1


# ---------------------------------------------------------------------------
# Malformed checkpoints
# ---------------------------------------------------------------------------

def _valid_checkpoint(fam):
    return {
        "check": "lower_bound",
        "family": fam.describe(),
        "ctx": {"support_only": True},
        "cap": DEFAULT_CAP,
        "shard_cursor": 8,
        "checked": 8,
        "elapsed_s": 0.5,
        "findings": [],
    }


GOOD_FINDING = {"instance_index": 3, "instance": "{}", "lhs": "1", "rhs": "2", "witness": "w"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("shard_cursor", "3"),
        ("shard_cursor", -1),
        ("shard_cursor", True),
        ("shard_cursor", 8.0),
        ("shard_cursor", 99),
        ("shard_cursor", None),
        ("checked", -5),
        ("checked", "8"),
        ("checked", False),
        ("checked", 9),
        ("elapsed_s", -1.0),
        ("elapsed_s", float("nan")),
        ("elapsed_s", float("inf")),
        ("elapsed_s", "0.5"),
        ("elapsed_s", True),
        ("findings", None),
        ("findings", {}),
        ("findings", ["violation"]),
        ("findings", [{k: v for k, v in GOOD_FINDING.items() if k != "witness"}]),
        ("findings", [dict(GOOD_FINDING, severity="warning")]),
        ("cap", "5"),
        ("cap", None),
        ("cap", True),
        ("cap", -1),
        ("cap", 5.0),
    ],
)
@pytest.mark.parametrize("support_only", [True, False], ids=["grid-runs", "instance-runs"])
def test_malformed_checkpoint_is_refused(tmp_path, field, value, support_only):
    fam = all_diagrams(2)
    payload = _valid_checkpoint(fam)
    payload["ctx"]["support_only"] = support_only
    payload[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=field.replace("shard_cursor", "shard_cursor and checked")):
        verify_lower_bound(fam, support_only=support_only, checkpoint_path=str(path))
    assert path.exists()


FAMILIES = [
    all_diagrams(2),
    all_diagrams(3, max_boxes=2),
    all_rothe(3),
    all_skyline(1, 3),
    explicit_list([diagram([(1,)]), diagram([(1, 2)])]),
    verify.DiagramFamily(kind="permutations", n=4),
    verify.DiagramFamily(kind="compositions", max_part=2, max_len=2),
]


def test_family_size_counts_its_instances():
    for fam in FAMILIES:
        assert fam.size() == sum(1 for _ in fam.instances()), fam


@pytest.mark.parametrize(
    "check, fam, ctx",
    [
        ("lower_bound", all_diagrams(2), {"cap": DEFAULT_CAP, "support_only": True}),
        ("upper_bound", all_diagrams(2), {"cap": DEFAULT_CAP, "northwest_pattern": None, "general_pattern": None}),
        ("lower_bound", all_diagrams(3, max_boxes=2), {"cap": DEFAULT_CAP, "support_only": True}),
        ("lower_bound", all_rothe(3), {"cap": DEFAULT_CAP, "support_only": False}),
        ("lower_bound", all_skyline(1, 3), {"cap": DEFAULT_CAP, "support_only": False}),
        ("lower_bound", FAMILIES[4], {"cap": DEFAULT_CAP, "support_only": False}),
    ],
    ids=["grid-runs", "instance-runs", "max-boxes", "rothe", "skyline", "explicit"],
)
def test_checkpoint_cursor_past_the_family_is_refused(tmp_path, check, fam, ctx):
    """A cursor past the family's end is refused before the walk; one at its end resumes to the full report."""
    path = tmp_path / "cursor.json"
    size = fam.size()
    verify._write_checkpoint(str(path), check, fam, ctx, size + 1, size + 1, [])
    with pytest.raises(ValueError, match=f"shard_cursor {size + 1} is past the family's {size} instances"):
        run_check(check, fam, ctx, checkpoint_path=str(path))
    assert path.exists()
    verify._write_checkpoint(str(path), check, fam, ctx, size, size, [])
    resumed = run_check(check, fam, ctx, checkpoint_path=str(path))
    assert resumed.checked == size and not resumed.truncated
    assert not path.exists()


def test_well_formed_checkpoint_fields_are_accepted(tmp_path):
    fam = all_diagrams(2)
    path = tmp_path / "good.json"
    payload = _valid_checkpoint(fam)
    payload["elapsed_s"] = 2  # an int number of seconds is a number
    payload["findings"] = [dict(GOOD_FINDING, severity="candidate")]
    path.write_text(json.dumps(payload))
    resumed = verify_lower_bound(fam, support_only=True, checkpoint_path=str(path))
    assert resumed.checked == 16 and len(resumed.candidates) == 1
    payload.pop("elapsed_s")  # a checkpoint without a time reads as 0 seconds
    path.write_text(json.dumps(payload))
    assert verify_lower_bound(fam, support_only=True, checkpoint_path=str(path)).checked == 16


def test_checkpoint_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="not a JSON object"):
        verify_lower_bound(all_diagrams(2), support_only=True, checkpoint_path=str(path))


# ---------------------------------------------------------------------------
# Support-only grid sweeps: runs of CHUNK instances, decided per multiset
# ---------------------------------------------------------------------------

def _flag_some_multisets(monkeypatch):
    """Raise the bound on every multiset of an odd number of boxes, so those instances are violations."""
    support_and_bound = verify._support_and_bound

    def forced(columns, cap):
        support, bound = support_and_bound(columns, cap)
        return support, bound + 10 ** 6 * (sum(map(len, columns)) % 2)

    monkeypatch.setattr(verify, "_support_and_bound", forced)


def _as_explicit(fam):
    """The same diagrams in the same order, swept one instance at a time."""
    return explicit_list([d for _, d in fam.instances()])


def _outcome(report):
    obj = json.loads(stable_json(report))
    del obj["family"]
    return obj


def test_support_grid_sweep_reads_no_family_instances(monkeypatch):
    def refuse(family):
        raise AssertionError("instances() was iterated")

    monkeypatch.setattr(DiagramFamily, "instances", refuse)
    assert verify_lower_bound(all_diagrams(3), support_only=True).checked == 512
    with pytest.raises(AssertionError):
        verify_lower_bound(all_diagrams(2), support_only=False)


@pytest.mark.parametrize("max_boxes", [None, 0, 4, 9])
@pytest.mark.parametrize("workers", [1, 2])
def test_support_grid_findings_match_instance_runs(monkeypatch, max_boxes, workers):
    monkeypatch.setattr(verify, "CHUNK", 37)
    _flag_some_multisets(monkeypatch)
    fam = all_diagrams(3, max_boxes=max_boxes)
    grid = verify_lower_bound(fam, support_only=True, workers=workers)
    one_by_one = verify_lower_bound(_as_explicit(fam), support_only=True, workers=workers)
    assert _outcome(grid) == _outcome(one_by_one)
    assert grid.checked == sum(1 for _ in fam.instances())
    expected = [idx for idx, d in fam.instances() if d.box_count % 2]
    assert [f.instance_index for f in grid.violations] == expected
    for f in grid.violations:
        assert f.instance == verify._show_instance(dict(fam.instances())[f.instance_index])


@pytest.mark.parametrize("workers", [1, 2])
def test_support_grid_truncates_where_instance_runs_do(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(verify, "CHUNK", 37)
    _flag_some_multisets(monkeypatch)
    fam = all_diagrams(3)
    for cap in (0, 3, 6, 10):
        grid = verify_lower_bound(fam, support_only=True, cap=cap, workers=workers)
        one_by_one = verify_lower_bound(_as_explicit(fam), support_only=True, cap=cap, workers=workers)
        assert grid.truncated and one_by_one.truncated
        assert _outcome(grid) == _outcome(one_by_one), cap
    cursors = {}
    for name, sweep_fam in (("grid", fam), ("explicit", _as_explicit(fam))):
        path = tmp_path / f"{name}.json"
        cut = verify_lower_bound(sweep_fam, support_only=True, cap=6, checkpoint_path=str(path))
        saved = json.loads(path.read_text())
        assert saved["shard_cursor"] == saved["checked"] == cut.checked
        cursors[name] = saved["shard_cursor"]
        resumed = verify_lower_bound(sweep_fam, support_only=True, checkpoint_path=str(path))
        assert _outcome(resumed) == _outcome(verify_lower_bound(sweep_fam, support_only=True))
    assert cursors["grid"] == cursors["explicit"] > 0


def test_support_grid_resumes_from_every_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "CHECKPOINT_INTERVAL_S", 0)
    monkeypatch.setattr(verify, "CHUNK", 37)
    _flag_some_multisets(monkeypatch)
    fam = all_diagrams(3)
    full = verify_lower_bound(fam, support_only=True)
    snapshots = []
    write = verify._write_checkpoint

    def keep(path, *rest):
        write(path, *rest)
        with open(path) as handle:
            snapshots.append(handle.read())

    with monkeypatch.context() as patched:
        patched.setattr(verify, "_write_checkpoint", keep)
        path = tmp_path / "every.json"
        assert stable_json(verify_lower_bound(fam, support_only=True, checkpoint_path=str(path))) == stable_json(full)
    cursors = [json.loads(s)["shard_cursor"] for s in snapshots]
    assert cursors == [*range(37, 512, 37), 512]
    for snapshot in snapshots:
        saved = json.loads(snapshot)
        assert [f["instance_index"] for f in saved["findings"]] == [
            f.instance_index for f in full.violations if f.instance_index < saved["shard_cursor"]
        ]
        path.write_text(snapshot)
        resumed = verify_lower_bound(fam, support_only=True, checkpoint_path=str(path))
        assert stable_json(resumed) == stable_json(full)
        assert not path.exists()


FULL_4_GRID_SUPPORT_DIGEST = "3660f54bbf54ea15bca3af67124efecfa656000e669e27e84358ee13e9cd2c21"


def _digest(report):
    import hashlib

    obj = report.to_json_obj()
    del obj["elapsed_s"]
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_full_4_grid_support_digest_serial_sharded_and_resumed(tmp_path, monkeypatch):
    fam = all_diagrams(4)
    assert _digest(verify_lower_bound(fam, support_only=True)) == FULL_4_GRID_SUPPORT_DIGEST
    assert _digest(verify_lower_bound(fam, support_only=True, workers=2)) == FULL_4_GRID_SUPPORT_DIGEST
    monkeypatch.setattr(verify, "CHECKPOINT_INTERVAL_S", 0)
    path = tmp_path / "half.json"
    write = verify._write_checkpoint

    def interrupt_at_half(path, check_name, family, ctx, cursor, *rest):
        write(path, check_name, family, ctx, cursor, *rest)
        if cursor >= 1 << 15:
            raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(verify, "_write_checkpoint", interrupt_at_half)
        with pytest.raises(KeyboardInterrupt):
            verify_lower_bound(fam, support_only=True, checkpoint_path=str(path))
    assert json.loads(path.read_text())["shard_cursor"] == 1 << 15
    resumed = verify_lower_bound(fam, support_only=True, checkpoint_path=str(path))
    assert _digest(resumed) == FULL_4_GRID_SUPPORT_DIGEST
    assert not path.exists()


FULL_4_GRID_ZERO_ONE_DIGEST = "7e3cd7d014fd0d4ac3d626d1cf5169465fa2d7c4fbb371f116d89e8f81351ac2"
WITNESS_FILE = Path(__file__).resolve().parent.parent / "patterns" / "multiplicity-witness.txt"


def test_full_4_grid_zero_one_patterns_digest_serial_sharded_and_resumed(tmp_path, monkeypatch):
    fam, patterns = all_diagrams(4), [parse_pattern(WITNESS_FILE.read_text())]
    assert _digest(verify_zero_one_characterization(fam, patterns)) == FULL_4_GRID_ZERO_ONE_DIGEST
    assert _digest(verify_zero_one_characterization(fam, patterns, workers=2)) == FULL_4_GRID_ZERO_ONE_DIGEST
    path = tmp_path / "half.json"
    write = verify._write_checkpoint

    def interrupt_at_half(path, check_name, family, ctx, cursor, *rest):
        # this walk takes runs of one instance: writing each would serialize
        # every finding so far 32,768 times
        if cursor >= 1 << 15:
            write(path, check_name, family, ctx, cursor, *rest)
            raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(verify, "CHECKPOINT_INTERVAL_S", 0)
        patched.setattr(verify, "_write_checkpoint", interrupt_at_half)
        with pytest.raises(KeyboardInterrupt):
            verify_zero_one_characterization(fam, patterns, checkpoint_path=str(path))
    assert json.loads(path.read_text())["shard_cursor"] == 1 << 15
    resumed = verify_zero_one_characterization(fam, patterns, checkpoint_path=str(path))
    assert _digest(resumed) == FULL_4_GRID_ZERO_ONE_DIGEST
    assert not path.exists()
