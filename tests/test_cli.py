"""Command-line interface: output formats, file inputs, and exit codes."""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import venv
from pathlib import Path

import pytest

from weylchar.cli import main
from weylchar.diagrams import (
    diagram,
    diagram_from_text,
    diagram_to_json_obj,
    diagram_to_text,
    rothe,
    skyline,
)
from weylchar.polynomials import from_json_obj
from weylchar.schubert import schubert
from weylchar.weyl import dual_character

WORKED_INLINE = "1,3;2,3;"
WORKED = diagram([(1, 3), (2, 3), ()])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_worked_example(capsys):
    code, out, err = run_cli(capsys, "chi", WORKED_INLINE)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == (
        "x1*x2*x3^2 + x1^2*x3^2 + x1*x2^2*x3 + 2*x1^2*x2*x3 + x1^2*x2^2"
    )
    assert lines[1] == "principal: 6"


def test_chi_json(capsys):
    code, out, _ = run_cli(capsys, "chi", WORKED_INLINE, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["principal"] == 6
    assert from_json_obj(payload["character"]) == dual_character(WORKED)


def test_chi_grid_file_input(capsys, tmp_path):
    grid = tmp_path / "worked.txt"
    grid.write_text(diagram_to_text(WORKED) + "\n")
    code, from_file, _ = run_cli(capsys, "chi", f"@{grid}")
    assert code == 0
    code, inline, _ = run_cli(capsys, "chi", WORKED_INLINE)
    assert code == 0
    assert from_file == inline


def test_rank_and_count_below(capsys):
    assert run_cli(capsys, "rank", WORKED_INLINE) == (0, "3\n", "")
    assert run_cli(capsys, "rank", "") == (0, "0\n", "")
    assert run_cli(capsys, "count-below", WORKED_INLINE) == (0, "6\n", "")
    code, out, _ = run_cli(capsys, "rank", WORKED_INLINE, "--json")
    assert code == 0 and json.loads(out) == {"rank": 3}
    code, out, _ = run_cli(capsys, "count-below", WORKED_INLINE, "--json")
    assert code == 0 and json.loads(out) == {"count_below": 6}


def test_schubert_command(capsys):
    assert run_cli(capsys, "schubert", "321") == (0, "x1^2*x2\n", "")
    code, compact, _ = run_cli(capsys, "schubert", "31542")
    code2, commas, _ = run_cli(capsys, "schubert", "3,1,5,4,2")
    assert code == code2 == 0
    assert compact == commas


def test_key_command(capsys):
    assert run_cli(capsys, "key", "0,1") == (0, "x2 + x1\n", "")
    assert run_cli(capsys, "key", "2,1") == (0, "x1^2*x2\n", "")


def test_rothe_round_trip(capsys):
    code, out, _ = run_cli(capsys, "rothe", "31542")
    assert code == 0
    assert diagram_from_text(out) == rothe((3, 1, 5, 4, 2))
    code, out, _ = run_cli(capsys, "rothe", "31542", "--json")
    assert json.loads(out) == diagram_to_json_obj(rothe((3, 1, 5, 4, 2)))


def test_skyline_round_trip(capsys):
    code, out, _ = run_cli(capsys, "skyline", "1,2")
    assert code == 0
    assert diagram_from_text(out) == skyline((1, 2))


def test_malformed_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "rank", "3x1")
    assert code == 2
    assert "3x1" in err
    code, _, err = run_cli(capsys, "schubert", "1,1")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "key", "1,-1")
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cap_exceeded_exit_3(capsys):
    code, _, err = run_cli(capsys, "chi", "3;3;3", "--cap", "5")
    assert code == 3
    assert "cap exceeded" in err


def test_negative_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "chi", WORKED_INLINE, "--cap", "-1")
    assert (code, out) == (2, "")
    assert err == "error: cap must be at least 0, got -1\n"
    code, out, err = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "2", "--cap", "-5"
    )
    assert (code, out) == (2, "")
    assert err == "error: cap must be at least 0, got -5\n"
    # a zero cap is legal, and every diagram exceeds it
    code, _, err = run_cli(capsys, "chi", WORKED_INLINE, "--cap", "0")
    assert code == 3 and "cap exceeded" in err


def test_sweep_clean_run(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "2"
    )
    assert code == 0
    assert "violations: 0" in out
    assert "checked: 16" in out


def test_sweep_empty_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "0"
    )
    assert code == 0
    assert "checked: 1" in out


def test_sweep_negative_n_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "-1"
    )
    assert code == 2 and "n must be at least 0" in err


def test_sweep_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "lower_bound"
    assert payload["checked"] == 16
    assert payload["violations"] == []


def test_sweep_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "sweep", "equality-unstable", "--family", "explicit",
        "--diagram", WORKED_INLINE, "--json", "-o", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_sweep_explicit_family_and_upper_bound(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "upper-bound", "--family", "explicit",
        "--diagram", WORKED_INLINE,
    )
    assert code == 0
    assert "checked: 1" in out
    assert "violations: 0" in out


def test_sweep_wrong_pattern_exits_1(capsys, tmp_path):
    pattern = tmp_path / "everything.txt"
    pattern.write_text("columnswap: false\n.\n")
    code, out, _ = run_cli(
        capsys, "sweep", "upper-bound", "--family", "all-diagrams", "--n", "2",
        "--patterns", str(pattern),
    )
    assert code == 1
    assert "violations: 0" not in out


def test_sweep_zero_one_patterns(capsys, tmp_path):
    pattern = tmp_path / "witness.txt"
    pattern.write_text("columnswap: true\n#x\nx#\n##\n")
    code, out, _ = run_cli(
        capsys, "sweep", "zero-one-patterns", "--family", "all-diagrams",
        "--n", "3", "--patterns", str(pattern),
    )
    assert code == 0
    assert "violations: 0" in out


def test_sweep_pattern_errors(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "zero-one-patterns", "--family", "all-diagrams", "--n", "2",
    )
    assert code == 2 and "pattern" in err
    files = []
    for k in range(3):
        path = tmp_path / f"p{k}.txt"
        path.write_text("columnswap: false\n.\n")
        files.append(str(path))
    code, _, err = run_cli(
        capsys, "sweep", "upper-bound", "--family", "all-diagrams", "--n", "2",
        "--patterns", *files,
    )
    assert code == 2 and "two pattern" in err


SWEEP_ARGS = {
    "lower-bound": ["--family", "all-diagrams", "--n", "2"],
    "equality-unstable": ["--family", "all-diagrams", "--n", "2"],
    "zero-one-implication": ["--family", "all-diagrams", "--n", "2"],
    "zero-one-patterns": ["--family", "all-diagrams", "--n", "2"],
    "upper-bound": ["--family", "all-diagrams", "--n", "2"],
    "schubert": ["--n", "3"],
    "key": ["--max-part", "1", "--max-len", "2"],
}


@pytest.mark.parametrize(
    "check, flag",
    [(check, "--support-only") for check in SWEEP_ARGS if check != "lower-bound"]
    + [
        (check, "--patterns")
        for check in SWEEP_ARGS
        if check not in ("zero-one-patterns", "upper-bound")
    ],
)
def test_sweep_rejects_flags_the_check_ignores(capsys, tmp_path, check, flag):
    pattern = tmp_path / "witness.txt"
    pattern.write_text("columnswap: true\n#x\nx#\n##\n")
    patterns = ["--patterns", str(pattern)]
    base = ["sweep", check, *SWEEP_ARGS[check]]
    if check == "zero-one-patterns":
        base += patterns
    assert run_cli(capsys, *base)[0] == 0
    code, out, err = run_cli(capsys, *base, *(patterns if flag == "--patterns" else [flag]))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and flag in err


FAMILY_SWEEPS = {
    "all-diagrams": ["lower-bound", "--family", "all-diagrams", "--n", "2"],
    "all-rothe": ["lower-bound", "--family", "all-rothe", "--n", "3"],
    "all-skyline": ["lower-bound", "--family", "all-skyline", "--max-part", "1", "--max-len", "2"],
    "explicit": ["lower-bound", "--family", "explicit", "--diagram", WORKED_INLINE],
    "schubert": ["schubert", "--n", "3"],
    "key": ["key", "--max-part", "1", "--max-len", "2"],
}


@pytest.mark.parametrize(
    "family, flag, value",
    [
        ("all-diagrams", "--diagram", "1;"),
        ("all-diagrams", "--max-part", "3"),
        ("all-diagrams", "--max-len", "2"),
        ("all-rothe", "--max-boxes", "1"),
        ("all-rothe", "--diagram", "1;"),
        ("all-skyline", "--n", "2"),
        ("all-skyline", "--max-boxes", "1"),
        ("explicit", "--max-boxes", "0"),
        ("explicit", "--n", "5"),
        ("explicit", "--max-part", "1"),
        ("schubert", "--family", "explicit"),
        ("schubert", "--max-part", "1"),
        ("schubert", "--diagram", "1;"),
        ("key", "--family", "all-diagrams"),
        ("key", "--n", "2"),
        ("key", "--max-boxes", "1"),
    ],
)
def test_sweep_rejects_flags_the_family_ignores(capsys, family, flag, value):
    base = ["sweep", *FAMILY_SWEEPS[family]]
    assert run_cli(capsys, *base)[0] == 0
    code, out, err = run_cli(capsys, *base, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and flag in err


def test_sweep_missing_family_arguments(capsys):
    code, _, err = run_cli(capsys, "sweep", "lower-bound")
    assert code == 2 and "--family" in err
    code, _, err = run_cli(capsys, "sweep", "lower-bound", "--family", "all-diagrams")
    assert code == 2 and "--n" in err
    code, _, err = run_cli(capsys, "sweep", "schubert")
    assert code == 2 and "--n" in err


def test_sweep_truncation_exits_3(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "lower-bound", "--family", "explicit",
        "--diagram", "3;3;3", "--cap", "5",
    )
    assert code == 3
    assert "truncated: true" in out


def test_truncated_sweep_report_is_the_same_with_workers(capsys):
    argv = ["sweep", "upper-bound", "--family", "all-diagrams", "--n", "3", "--cap", "6", "--json"]
    reports = []
    for extra in ([], ["--workers", "2"]):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 3
        report = json.loads(out)
        del report["elapsed_s"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["checked"] == 36 and reports[0]["truncated"]


def test_checkpoint_in_a_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "3",
        "--checkpoint", str(path),
    )
    assert (code, out) == (2, "")
    assert "directory does not exist" in err
    assert not path.parent.exists()


def test_sweep_schubert_and_key(capsys):
    code, out, _ = run_cli(capsys, "sweep", "schubert", "--n", "3")
    assert code == 0 and "checked: 6" in out
    code, out, _ = run_cli(
        capsys, "sweep", "key", "--max-part", "1", "--max-len", "2"
    )
    assert code == 0 and "checked: 4" in out


def _can_build_wheel(setuptools):
    # setuptools bundles bdist_wheel from 70.1 on; before that it needs `wheel`.
    version = tuple(int(part) for part in setuptools.__version__.split(".")[:2])
    return version >= (70, 1) or importlib.util.find_spec("wheel") is not None


def test_console_script_installed(tmp_path):
    """Install a copy of the project into a throwaway venv and run its script.

    Checks the packaging metadata (the ``[project.scripts]`` entry point and
    ``src/`` package discovery), and that ``main``'s return value becomes
    the process exit code. Works offline and writes only under tmp_path.
    """
    setuptools = pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parent.parent
    project = tmp_path / "project"
    shutil.copytree(
        root / "src", project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "build"),
    )
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(root / name, project / name)

    venv_dir = tmp_path / "venv"
    venv.create(venv_dir, system_site_packages=True, with_pip=False)
    # The "venv" scheme (Python >= 3.11) is the layout venv itself uses; a
    # distribution may patch the default scheme to point elsewhere.
    names = sysconfig.get_scheme_names()
    scheme = "venv" if "venv" in names else sysconfig.get_default_scheme()
    scripts = sysconfig.get_path("scripts", scheme, {"base": str(venv_dir)})
    python = shutil.which("python", path=scripts)
    assert python is not None

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if _can_build_wheel(setuptools):
        install = [python, "-m", "pip", "install", "--no-index",
                   "--no-build-isolation", "--no-deps", str(project)]
    else:
        install = [python, "setup.py", "develop"]
    installed = subprocess.run(
        install, cwd=project, env=env, capture_output=True, text=True, timeout=300
    )
    assert installed.returncode == 0, installed.stdout + installed.stderr

    exe = shutil.which("weylchar", path=scripts)
    assert exe is not None
    result = subprocess.run(
        [exe, "schubert", "321"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "x1^2*x2\n"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "weylchar.cli", "count-below", WORKED_INLINE],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout == "6\n"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"cursor": "3"}, "cursor must be a count"),
        ({"cursor": -5}, "cursor must be a count"),
        ({"cursor": 99}, "cursor 99 is past the family's 16 instances"),
        ({"cap": "5"}, "cap must be a count"),
        ({"cap": None}, "cap must be a count"),
    ],
    ids=["string-cursor", "negative-count", "cursor-past-the-end", "string-cap", "null-cap"],
)
def test_malformed_checkpoint_exits_2(capsys, tmp_path, fields, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "check": "lower_bound",
        "family": "AllDiagrams(n=2, max_boxes=None)",
        "ctx": {"support_only": True},
        "cap": 200000,
        "cursor": 8,
        "findings": [],
        **fields,
    }))
    code, out, err = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "2",
        "--support-only", "--checkpoint", str(path),
    )
    assert (code, out) == (2, "")
    assert message in err



def test_checkpoint_of_an_older_walk_exits_2(capsys, tmp_path):
    """A checkpoint with a ``shard_cursor`` counted instances, not column multisets, so it is refused."""
    path = tmp_path / "old.json"
    payload = {
        "check": "lower_bound",
        "family": "AllDiagrams(n=2, max_boxes=None)",
        "ctx": {"support_only": True},
        "cap": 200000,
        "shard_cursor": 9,
        "findings": [],
    }
    path.write_text(json.dumps(payload))
    argv = ["sweep", "lower-bound", "--family", "all-diagrams", "--n", "2", "--support-only", "--checkpoint", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "shard_cursor" in err and "cannot be resumed" in err
    assert json.loads(path.read_text()) == payload
