"""Tests of the sweep benchmark itself, on tiny inputs.

    python3 -m pytest perfbench

The smoke runs use ``--smoke``: the 3-grid, Schubert n=4 and a
10-diagram dense sample.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(workloads.ROOT / "src"))
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, section):
    proc = run_bench(workloads.ROOT, "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if section == "end_to_end":
            assert m["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "schubert_7", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_dense_sample_is_seeded_and_never_repeats_a_multiset():
    first = workloads.dense_sample_5grid(7, 0, 3)
    columns = [d.columns for d in first]
    assert columns == [d.columns for d in workloads.dense_sample_5grid(7, 0, 3)]
    assert columns != [d.columns for d in workloads.dense_sample_5grid(8, 0, 3)]
    assert columns != [d.columns for d in workloads.dense_sample_5grid(7, 1, 3)]
    multisets = {tuple(sorted(c for c in d.columns if c)) for d in first}
    assert len(first) == len(multisets) == 3 * len(workloads.DENSE_BANDS)


def test_a_differing_report_is_a_mismatch():
    expected = {"report": {"checked": 4, "violations": 0}, "trace": {"weyl.principal_sum": 9}}
    assert workloads.check(expected, {"checked": 4, "violations": 0}, {}, {"weyl.principal_sum": 9}) == []
    assert workloads.check(expected, {"checked": 3, "violations": 0}, {}) != []
    assert workloads.check(expected, {"checked": 4, "violations": 0}, {}, {"weyl.principal_sum": 8}) != []
