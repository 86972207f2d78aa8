"""Command line behaviour: exit codes, JSON schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from octoweyl.cli import EXIT_CLOSED_PIPE, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_text(capsys):
    code, out, _ = run(capsys, "describe", "--weights", "2,3,7")
    assert code == 0
    assert "chi_A = -1/42" in out
    assert "star radical rank 0" in out
    assert "cuspidal" in out


def test_describe_json(capsys):
    code, out, _ = run(capsys, "describe", "--weights", "3,3,3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["chi"] == "0"
    assert blob["class"] == "elliptic"
    assert blob["star"]["radical_rank"] == 1
    assert blob["octopus"]["delta"] == [-1] + [0] * 6 + [1]
    assert blob["tool"]["name"] == "octoweyl"


def test_verify_json_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--weights", "2,2,2", "--suite", "presentations",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    assert blob["weights"] == [2, 2, 2]
    assert blob["seed"] == 1729
    assert blob["bounds"]["cap"] == 500_000
    assert blob["suites"][0]["name"] == "presentations"
    assert all(d["holds"] for d in blob["suites"][0]["details"])


def test_verify_text_and_json_agree(capsys):
    code_t, out_t, _ = run(capsys, "verify", "--weights", "2,2,3", "--suite", "twists")
    code_j, out_j, _ = run(
        capsys, "verify", "--weights", "2,2,3", "--suite", "twists",
        "--format", "json",
    )
    assert code_t == code_j == 0
    assert "PASS twists[2,2,3]" in out_t
    assert json.loads(out_j)["pass"] is True


def test_verify_invalid_weights_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--weights", "2,2", "--suite", "presentations")
    assert code == 2
    assert "3 arms" in err


def test_verify_failing_suite_exit_1(capsys):
    # budget 1 cannot dominate generic points: an honest failed check
    code, out, _ = run(
        capsys,
        "verify", "--weights", "2,2,2", "--suite", "cone", "--budget", "1",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_json_is_bit_for_bit_reproducible(capsys):
    args = ("verify", "--weights", "2,2,2", "--suite", "mutations", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_roots_window(capsys):
    code, out, _ = run(
        capsys,
        "roots", "--weights", "2,2,2", "--kind", "octopus",
        "--depth", "24", "--n-bound", "3", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["window_count"] == 168


def test_capped_root_closure_names_its_depth(capsys):
    # Sizes after 3 and 4 rounds are 98 and 153: the cap breaks round 4.
    code, out, err = run(
        capsys, "roots", "--weights", "4,4,4,4", "--depth", "8", "--cap", "100"
    )
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0] == "error: root closure exceeded cap 100 at depth 3"


@pytest.mark.parametrize("depth", ["0", "1", "3"])
@pytest.mark.parametrize("kind, size", [("star", 4), ("octopus", 5)])
def test_basis_past_cap_fails_at_every_depth(capsys, kind, size, depth):
    # The simple roots alone do not fit a cap of 1, whatever the depth.
    code, out, err = run(
        capsys, "roots", "--weights", "2,2,2", "--kind", kind, "--depth", depth, "--cap", "1"
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: root closure basis of {size} roots exceeds cap 1"]


def test_coxeter_subcommand(capsys):
    code, out, _ = run(capsys, "coxeter", "--weights", "2,2,2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["order"] == 6
    assert blob["serre_identity"] is True


def test_mutate_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "mutate", "--weights", "2,2,2", "--word", "b1,e2,B1", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["numerically_exceptional"] is True
    assert blob["full"] is True


def test_custom_lambda_threads_through(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--weights", "2,2,2,2", "--lambda", "inf,0,1,-7/3",
        "--suite", "presentations", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["lambda"] == "inf,0,1,-7/3"
    assert blob["pass"] is True


def test_lambda_without_weights_exit_2(capsys):
    code, _, err = run(
        capsys, "verify", "--lambda", "inf,0,1", "--suite", "presentations"
    )
    assert code == 2
    assert "ambiguous" in err


def test_wrong_lambda_length_exit_2(capsys):
    code, _, err = run(
        capsys, "describe", "--weights", "2,2,2", "--lambda", "inf,0,1,2"
    )
    assert code == 2
    assert "lambda" in err or "points" in err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--weights", "2,2,2", "--suite", "bogus"])
    assert exc.value.code == 2


def test_missing_weights_for_describe(capsys):
    code, _, err = run(capsys, "describe")
    assert code == 2
    assert "--weights" in err


def test_catalog_run_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop44", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["suites"]) == 11
    assert blob["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--weights", "2,2,2", "--depth", "-1"),
        ("verify", "--weights", "2,2,2", "--suite", "cone", "--budget", "0"),
        ("verify", "--weights", "2,2,2", "--suite", "translations", "--samples", "-5"),
        ("verify", "--weights", "2,2,2", "--suite", "roots-decomposition", "--n-bound", "-1"),
        ("verify", "--weights", "2,2,2", "--suite", "cone", "--n-bound", "-1"),
        ("verify", "--weights", "2,2,2", "--suite", "cone", "--cap", "0"),
        ("verify", "--weights", "2,2,2", "--suite", "cone", "--depth", "-1"),
        ("roots", "--weights", "2,2,2", "--cap", "0"),
        ("mutate", "--weights", "2,2,2", "--word", "b99"),
        ("mutate", "--weights", "2,2,2", "--word", "xyz"),
        ("coxeter", "--weights", "2,2,2", "--cap", "0"),
        ("roots", "--weights", "2,2,2", "--kind", "octopus", "--n-bound", "-1"),
        ("roots", "--weights", "2,2,2", "--limit", "-3"),
        ("roots", "--weights", "2,2,2", "--n-bound", "3"),
    ],
    ids=[
        "roots-negative-depth",
        "cone-zero-budget",
        "translations-negative-samples",
        "roots-decomposition-negative-n-bound",
        "cone-negative-n-bound",
        "cone-zero-cap",
        "cone-negative-depth",
        "roots-zero-cap",
        "mutate-braid-index-out-of-range",
        "mutate-unparsable-token",
        "coxeter-zero-cap",
        "roots-negative-n-bound",
        "roots-negative-limit",
        "roots-n-bound-on-star",
    ],
)
def test_invalid_bound_is_one_line_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("lam", ["inf,0,1/0", "inf,0,1/x", "inf,0,abc"])
def test_malformed_lambda_entry_is_one_line_exit_2(lam):
    argv = ["coxeter", "--weights", "2,2,2", "--lambda", lam]
    proc = subprocess.run(
        [sys.executable, "-m", "octoweyl.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # The message names the bad entry.
    assert repr(lam.split(",")[-1]) in lines[0]


def test_closed_stdout_ends_quietly():
    # The reader of the pipe is gone before the report is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["verify", "--weights", "2,2,2", "--suite", "presentations", "--format", "json"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "octoweyl.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.returncode == EXIT_CLOSED_PIPE
