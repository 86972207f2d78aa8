"""Command line behaviour: exit codes, JSON schema, determinism."""

import json

import pytest

from octoweyl.cli import main


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
    ],
    ids=["roots-negative-depth", "cone-zero-budget", "translations-negative-samples"],
)
def test_invalid_bound_is_one_line_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
