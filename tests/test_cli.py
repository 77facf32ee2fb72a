"""Command-line interface: output formats, file inputs, and exit codes."""
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
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
from weylchar.polynomials import to_json_obj
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
    assert payload["character"] == to_json_obj(dual_character(WORKED))


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


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("rank", "\u0661,\u0663;", "error: bad row index"),
        ("rank", "1,\u00b2;", "error: bad row index"),
        ("schubert", "\u0663\u0661\u0662", "error: bad permutation token"),
        ("key", "\u0662,0", "error: bad composition part"),
    ],
)
def test_non_ascii_digits_exit_2(capsys, command, text, message):
    code, out, err = run_cli(capsys, command, text)
    assert (code, out) == (2, "")
    assert err.startswith(message)


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


@pytest.mark.parametrize("argv", [
    ["rank", WORKED_INLINE],
    ["count-below", WORKED_INLINE],
    ["schubert", "321"],
    ["key", "0,1"],
    ["rothe", "31542"],
    ["skyline", "1,2"],
], ids=lambda argv: argv[0])
def test_cap_is_refused_where_nothing_reads_it(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--cap", "5")
    assert (code, out) == (2, "")
    assert "--cap" in err


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
    # a new file, then a longer file that the report replaces
    for before in (None, "x" * 10000):
        if before:
            out_path.write_text(before)
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


@pytest.mark.parametrize("argv, missing", [
    (["lower-bound", "--family", "all-rothe"], ["--n"]),
    (["lower-bound", "--family", "all-skyline"], ["--max-part", "--max-len"]),
    (["lower-bound", "--family", "all-skyline", "--max-len", "2"], ["--max-part"]),
    (["lower-bound", "--family", "explicit"], ["--diagram"]),
    (["key"], ["--max-part", "--max-len"]),
    (["key", "--max-part", "1"], ["--max-len"]),
    (["zero-one-patterns", "--family", "all-diagrams", "--n", "2"], ["--patterns"]),
    (["zero-one-patterns", "--family", "all-skyline"], ["--patterns", "--max-part", "--max-len"]),
], ids=["all-rothe", "all-skyline", "all-skyline-max-len", "explicit", "key", "key-max-part",
        "zero-one-patterns", "zero-one-patterns-all-skyline"])
def test_sweep_names_every_missing_argument(capsys, argv, missing):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    flags = ("--n", "--max-part", "--max-len", "--diagram", "--patterns")
    assert [flag for flag in flags if flag in err] == sorted(missing, key=flags.index)


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


def test_output_in_a_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "sweep", "lower-bound", "--family", "all-diagrams", "--n", "3", "-o", str(path),
    )
    assert (code, out) == (2, "")
    assert "directory does not exist" in err
    assert not path.parent.exists()


def test_output_that_cannot_be_written_exits_2_before_the_sweep(capsys, tmp_path):
    """The report file is opened first, so a directory in its place stops the sweep before it prints."""
    path = tmp_path / "dir"
    path.mkdir()
    code, out, err = run_cli(
        capsys, "sweep", "lower-bound", "--family", "explicit", "--diagram", "3;3;3", "--cap", "5",
        "-o", str(path),
    )
    assert (code, out) == (2, "")
    assert "Is a directory" in err
    assert path.is_dir() and not any(path.iterdir())


def test_a_sweep_that_fails_leaves_no_output_behind(capsys, tmp_path):
    """A sweep that exits 2 removes the report file it created, and leaves one that was there as it was."""
    checkpoint = tmp_path / "other.json"
    checkpoint.write_text(json.dumps({"check": "upper_bound"}))
    argv = ["sweep", "lower-bound", "--family", "all-diagrams", "--n", "2", "--checkpoint", str(checkpoint)]
    new = tmp_path / "new.json"
    code, out, err = run_cli(capsys, *argv, "-o", str(new))
    assert (code, out) == (2, "")
    assert "belongs to a different run" in err
    assert not new.exists()
    old = tmp_path / "old.json"
    old.write_text("kept\n")
    assert run_cli(capsys, *argv, "-o", str(old))[:2] == (2, "")
    assert old.read_text() == "kept\n"


def test_a_checkpoint_with_workers_resumes_from_the_cli(capsys, tmp_path):
    """``--workers 2 --checkpoint`` leaves the serial run's checkpoint at the cap, and resumes to its report."""
    path = tmp_path / "ck.json"
    argv = ["sweep", "upper-bound", "--family", "all-diagrams", "--n", "3", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    serial = json.loads(out)
    saved = []
    for workers in ("1", "2"):
        code, _, _ = run_cli(capsys, *argv, "--cap", "6", "--workers", workers, "--checkpoint", str(path))
        assert code == 3
        saved.append(json.loads(path.read_text()))
        del saved[-1]["elapsed_s"]
    assert saved[0] == saved[1] and saved[0]["cursor"] == 36
    code, out, _ = run_cli(capsys, *argv, "--workers", "2", "--checkpoint", str(path))
    assert code == 0 and not path.exists()
    resumed = json.loads(out)
    del serial["elapsed_s"], resumed["elapsed_s"]
    assert resumed == serial


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
        "walk": "column multisets",
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
    """A checkpoint with no ``walk`` is refused: its cursor may count instances, not column multisets."""
    from weylchar.verify import _members_digest, explicit_list

    common = {"check": "lower_bound", "ctx": {"support_only": True}, "cap": 200000, "findings": []}
    sweeps = [
        # a grid walk's shard_cursor
        (["--family", "all-diagrams", "--n", "2"],
         dict(common, family="AllDiagrams(n=2, max_boxes=None)", shard_cursor=9)),
        # an explicit list's cursor, which counted its members one by one
        (["--family", "explicit", "--diagram", WORKED_INLINE, "--diagram", "2,3;1,3;"],
         dict(common, family="ExplicitList(2 diagrams)", cursor=1,
              members=_members_digest(explicit_list([WORKED, diagram([(2, 3), (1, 3), ()])])))),
    ]
    for family_args, payload in sweeps:
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        argv = ["sweep", "lower-bound", *family_args, "--support-only", "--checkpoint", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert "older walk" in err and "cannot be resumed" in err
        assert json.loads(path.read_text()) == payload


WITNESS = str(Path(__file__).resolve().parent.parent / "patterns" / "multiplicity-witness.txt")


def test_an_interrupted_sweep_exits_130_with_one_line(capsys, monkeypatch):
    """Ctrl-C in a sweep: exit code 130, one line on stderr, and SIGINT's handler as it was."""
    from weylchar import verify

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "dual_character", interrupt)
    before = signal.getsignal(signal.SIGINT)
    code, out, err = run_cli(capsys, "sweep", "upper-bound", "--family", "all-diagrams", "--n", "2")
    assert (code, out, err) == (130, "", "interrupted\n")
    assert signal.getsignal(signal.SIGINT) is before


def test_an_interrupted_sweep_names_its_checkpoint_which_resumes(capsys, monkeypatch, tmp_path):
    """Interrupted after a checkpoint write, the sweep names the file, and resuming from it gives the full report."""
    from weylchar import verify

    argv = ["sweep", "upper-bound", "--family", "all-diagrams", "--n", "3", "--json", "--patterns", WITNESS, WITNESS]
    code, full, _ = run_cli(capsys, *argv)
    assert code == 1
    path = tmp_path / "ck.json"
    write = verify._write_checkpoint

    def interrupt_at_half(path, check_name, family, ctx, cursor, *rest):
        if cursor >= 256:
            write(path, check_name, family, ctx, cursor, *rest)
            raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(verify, "CHECKPOINT_INTERVAL_S", 0)
        patched.setattr(verify, "_write_checkpoint", interrupt_at_half)
        code, out, err = run_cli(capsys, *argv, "--checkpoint", str(path))
    assert (code, out, err) == (130, "", f"interrupted: resume with --checkpoint {path}\n")
    assert 256 <= json.loads(path.read_text())["cursor"] < 512
    code, resumed, _ = run_cli(capsys, *argv, "--checkpoint", str(path))
    assert code == 1 and not path.exists()
    full, resumed = json.loads(full), json.loads(resumed)
    full.pop("elapsed_s")
    resumed.pop("elapsed_s")
    assert resumed == full


SWEEP_5 = ["sweep", "upper-bound", "--family", "all-diagrams", "--n", "5"]


def interrupt_sweep(argv, ready):
    """Run the CLI with ``argv`` as a process group, SIGINT the group once ``ready(pid)``: (code, stderr).

    It checkpoints before every run.  Afterwards no process of the group
    is left.
    """
    script = "import sys; from weylchar import cli, verify; verify.CHECKPOINT_INTERVAL_S = 0; sys.exit(cli.main())"
    with subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            deadline = time.monotonic() + 60
            while not ready(proc.pid):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, err


@pytest.mark.parametrize("workers", [1, 2])
def test_sigint_to_a_sweep_exits_130_and_leaves_no_process(tmp_path, workers):
    """SIGINT to the process group of a 5-grid sweep, as Ctrl-C sends it, once the sweep is under way.

    The first checkpoint to appear shows that the command's handler is in
    place and, with workers, that the pool has checked a batch.  Every
    process of the group ends: the workers stop at their next run, and
    the parent shuts the pool down, ignoring any later SIGINT, and prints
    one line, with no traceback.
    """
    path = tmp_path / "sweep.json"
    argv = [*SWEEP_5, "--workers", str(workers), "--checkpoint", str(path)]
    code, err = interrupt_sweep(argv, lambda pid: path.exists())
    assert (code, err) == (130, f"interrupted: resume with --checkpoint {path}\n")


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"), reason="needs /proc children")
def test_sigint_as_the_first_worker_starts_exits_130():
    """SIGINT the moment the pool has started its first worker, before the worker can have set its handler.

    The worker starts with SIGINT blocked and takes it once its handler
    is in place.  Were it to raise KeyboardInterrupt while starting, the
    pool would wait for it forever.
    """

    def has_worker(pid):
        with open(f"/proc/{pid}/task/{pid}/children") as children:
            return bool(children.read().split())

    assert interrupt_sweep([*SWEEP_5, "--workers", "2"], has_worker) == (130, "interrupted\n")
