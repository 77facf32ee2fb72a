"""Sweep engine: families, reports, sharding, checkpoints, and the checks.

Where a check's expected outcome is not trivially known, an inline loop
recomputes it from the public math helpers and the engine's report is
compared against that, so the engine machinery (enumeration order,
context passing, severity routing, merging) is what is under test.
"""
import itertools
import json

import pytest

from weylchar import verify
from weylchar.diagrams import (
    DEFAULT_CAP,
    Diagram,
    contains_pattern,
    count_below,
    diagram,
    has_unstable_pair,
    is_northwest,
    pattern_grid,
    rank,
    render_pattern,
    rothe,
)
from weylchar.polynomials import principal_specialization, zero_one_witness
from weylchar.verify import (
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
    with pytest.raises(ValueError):
        run_check("lower_bound", all_diagrams(2), {"cap": 10}, workers=0)
    with pytest.raises(ValueError):
        run_check("lower_bound", all_diagrams(2), {"cap": 10}, checkpoint_every=0)


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
    cut = verify_lower_bound(fam, cap=6, checkpoint_path=str(path), checkpoint_every=5)
    assert cut.truncated and cut.checked == 36
    saved = json.loads(path.read_text())
    assert saved["shard_cursor"] == 36 and saved["cap"] == 6
    assert saved["elapsed_s"] > 0
    resumed = verify_lower_bound(fam, checkpoint_path=str(path), checkpoint_every=5)
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
    cut = sweep(cap=CUT, checkpoint_path=str(path), checkpoint_every=7)
    assert cut.truncated and 0 < cut.checked < serial.checked
    assert path.exists()
    resumed = sweep(checkpoint_path=str(path), checkpoint_every=7)
    assert not path.exists()
    assert stable_json(serial) == stable_json(sharded) == stable_json(resumed)


def test_checkpoint_requires_serial_run(tmp_path):
    with pytest.raises(ValueError):
        verify_lower_bound(
            all_diagrams(2), workers=2, checkpoint_path=str(tmp_path / "x.json")
        )


def test_checkpoint_written_and_cleared(tmp_path):
    path = tmp_path / "steps.json"
    report = verify_lower_bound(
        all_diagrams(2), checkpoint_path=str(path), checkpoint_every=4
    )
    assert report.checked == 16
    assert not path.exists()


def test_cap_exhaustion_truncates_report():
    wide = diagram([(3,), (3,), (3,)])
    report = verify_lower_bound(explicit_list([wide]), cap=5)
    assert report.truncated
    assert not report.ok
    assert report.checked == 0
    # only the second shard meets the wide diagram
    sharded = verify_lower_bound(explicit_list([diagram([(1,)]), wide]), cap=5, workers=2)
    assert sharded.truncated and sharded.checked == 1
