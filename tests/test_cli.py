import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicsmith
from padicsmith.cli import main
from padicsmith.exact import IntMatrix

from conftest import HEPTA, SKEWED, TRIDENT


def write_matrix(tmp_path, rows, name="m.txt"):
    path = tmp_path / name
    path.write_text(IntMatrix.from_rows(rows).to_text())
    return str(path)


def test_analyze_correspondent_exits_zero(tmp_path, capsys):
    code = main(["analyze", write_matrix(tmp_path, TRIDENT), "-p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p-characterized: yes" in out
    assert "p-correspondent: yes" in out
    assert "newton polygon slopes: 0 x1, 1 x1, 2 x1" in out


def test_analyze_noncorrespondent_exits_one(tmp_path, capsys):
    code = main(["analyze", write_matrix(tmp_path, SKEWED), "-p", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "4/3 x3" in out


def test_analyze_json(tmp_path, capsys):
    code = main(["analyze", write_matrix(tmp_path, TRIDENT), "-p", "3", "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0
    assert obj["profile"] == [0, 1, 2]


def test_analyze_stdin(monkeypatch, capsys):
    text = IntMatrix.from_rows(TRIDENT).to_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["analyze", "-", "-p", "3"]) == 0
    capsys.readouterr()


def test_analyze_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n")
    assert main(["analyze", str(bad), "-p", "3"]) == 2
    assert main(["analyze", str(tmp_path / "missing.txt"), "-p", "3"]) == 2
    ok = write_matrix(tmp_path, TRIDENT)
    assert main(["analyze", ok, "-p", "4"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_density_csv_golden(capsys):
    assert main(["density", "-p", "2", "-m", "1", "-n", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("p,m,n,")
    assert out[1] == "2,1,2,56.25,81.25,33.33,16,9,13"


def test_density_json_parses(capsys):
    assert main(["density", "-p", "3", "-m", "1", "-n", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pct_corr_2dec"] == "90.12"


def test_density_respects_budget(capsys):
    assert main(["density", "-p", "2", "-m", "9", "-n", "3", "--budget", str(2**20)]) == 2
    assert "exceeds budget" in capsys.readouterr().err


def test_density_det_filtered(capsys):
    assert (
        main(["density", "-p", "2", "-m", "1", "-n", "2", "--convention", "det-filtered"]) == 0
    )
    out = capsys.readouterr().out
    assert "(2/6)" in out


def test_transform_seeded(tmp_path, capsys):
    path = write_matrix(tmp_path, HEPTA)
    assert main(["transform", path, "-p", "7", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "seed: 42" in out
    assert "p-correspondent: yes" in out


def test_transform_logs_generated_seed(tmp_path, capsys):
    path = write_matrix(tmp_path, HEPTA)
    assert main(["transform", path, "-p", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed:" in out


def test_transform_json_round_trips(tmp_path, capsys):
    path = write_matrix(tmp_path, HEPTA)
    assert main(["transform", path, "-p", "7", "--seed", "42", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["seed"] == 42
    assert obj["report"]["p_correspondent"] is True


def test_transform_rejects_bad_bound(tmp_path, capsys):
    path = write_matrix(tmp_path, HEPTA)
    assert main(["transform", path, "-p", "7", "--bound", "10"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "theorem1", "--p", "2", "--m", "1", "--n", "2"],
        ["verify", "--suite", "gl-ratio", "--p", "2", "--m", "1", "--n", "2"],
        ["verify", "--suite", "rem-stability", "--trials", "5", "--seed", "3"],
        ["verify", "--suite", "lemma33", "--trials", "60", "--seed", "1"],
        ["verify", "--suite", "orbit"],
    ],
)
def test_verify_suites_pass(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("suite", ["theorem1", "gl-ratio"])
def test_verify_suites_pass_with_asserts_stripped(suite):
    # python -O drops assert statements; the checks guarding results must survive
    env = dict(os.environ)
    src = str(Path(padicsmith.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "padicsmith.cli", "verify", "--suite", suite],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
