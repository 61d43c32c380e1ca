import ast
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

from conftest import CONVEXED, HEPTA, SKEWED, TRIDENT


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


# Full analyze output, pinned byte for byte: (name, rows, p, exit code,
# text stdout, JSON object whose indent=2 rendering is the JSON stdout).
ANALYZE_GOLDEN = [
    (
        "trident", TRIDENT, 3, 0,
        "p = 3, n = 3, rank = 3\n"
        "  i  val(f_i)  val(delta_i)  e_i\n"
        "  1         0             0    0\n"
        "  2         1             1    1\n"
        "  3         3             3    2\n"
        "newton polygon slopes: 0 x1, 1 x1, 2 x1\n"
        "eigenvalue valuations: 0, 1, 2 (zero eigenvalues: 0)\n"
        "p-characterized: yes\n"
        "p-correspondent: yes\n",
        {"p": 3, "n": 3, "rank": 3, "f_vals": [0, 1, 3], "delta_vals": [0, 1, 3],
         "profile": [0, 1, 2],
         "eig_vals": {"p": 3, "values": ["0/1", "1/1", "2/1"], "zero_count": 0},
         "p_characterized": True, "p_correspondent": True, "degenerate": False},
    ),
    (
        "skewed", SKEWED, 2, 1,
        "p = 2, n = 4, rank = 4\n"
        "  i  val(f_i)  val(delta_i)  e_i\n"
        "  1         0             0    0\n"
        "  2         4             1    1\n"
        "  3         3             2    1\n"
        "  4         4             4    2\n"
        "newton polygon slopes: 0 x1, 4/3 x3\n"
        "eigenvalue valuations: 0, 4/3, 4/3, 4/3 (zero eigenvalues: 0)\n"
        "p-characterized: no\n"
        "p-correspondent: no\n",
        {"p": 2, "n": 4, "rank": 4, "f_vals": [0, 4, 3, 4], "delta_vals": [0, 1, 2, 4],
         "profile": [0, 1, 1, 2],
         "eig_vals": {"p": 2, "values": ["0/1", "4/3", "4/3", "4/3"], "zero_count": 0},
         "p_characterized": False, "p_correspondent": False, "degenerate": False},
    ),
    (
        "convexed", CONVEXED, 3, 0,
        "p = 3, n = 4, rank = 4\n"
        "  i  val(f_i)  val(delta_i)  e_i\n"
        "  1         0             0    0\n"
        "  2         2             1    1\n"
        "  3         2             2    1\n"
        "  4         4             4    2\n"
        "newton polygon slopes: 0 x1, 1 x2, 2 x1\n"
        "eigenvalue valuations: 0, 1, 1, 2 (zero eigenvalues: 0)\n"
        "p-characterized: no\n"
        "p-correspondent: yes\n",
        {"p": 3, "n": 4, "rank": 4, "f_vals": [0, 2, 2, 4], "delta_vals": [0, 1, 2, 4],
         "profile": [0, 1, 1, 2],
         "eig_vals": {"p": 3, "values": ["0/1", "1/1", "1/1", "2/1"], "zero_count": 0},
         "p_characterized": False, "p_correspondent": True, "degenerate": False},
    ),
    (
        # charpoly x^2 - 3x: the polygon is built on the truncation x - 3
        "truncated", [[0, 1], [0, 3]], 3, 1,
        "p = 3, n = 2, rank = 1\n"
        "  i  val(f_i)  val(delta_i)  e_i\n"
        "  1         1             0    0\n"
        "newton polygon slopes: 1 x1\n"
        "eigenvalue valuations: 1 (zero eigenvalues: 1)\n"
        "p-characterized: no\n"
        "p-correspondent: no\n",
        {"p": 3, "n": 2, "rank": 1, "f_vals": [1], "delta_vals": [0], "profile": [0],
         "eig_vals": {"p": 3, "values": ["1/1"], "zero_count": 1},
         "p_characterized": False, "p_correspondent": False, "degenerate": False},
    ),
    (
        # charpoly x^2: no polygon, so no slopes line
        "nilpotent", [[0, 1], [0, 0]], 3, 1,
        "p = 3, n = 2, rank = 1\n"
        "  i  val(f_i)  val(delta_i)  e_i\n"
        "  1       inf             0    0\n"
        "eigenvalue valuations: (none) (zero eigenvalues: 2)\n"
        "p-characterized: no\n"
        "p-correspondent: no\n",
        {"p": 3, "n": 2, "rank": 1, "f_vals": ["inf"], "delta_vals": [0], "profile": [0],
         "eig_vals": {"p": 3, "values": [], "zero_count": 2},
         "p_characterized": False, "p_correspondent": False, "degenerate": True},
    ),
    (
        "zero", [[0, 0, 0]] * 3, 2, 0,
        "p = 2, n = 3, rank = 0\n"
        "eigenvalue valuations: (none) (zero eigenvalues: 3)\n"
        "p-characterized: yes\n"
        "p-correspondent: yes\n",
        {"p": 2, "n": 3, "rank": 0, "f_vals": [], "delta_vals": [], "profile": [],
         "eig_vals": {"p": 2, "values": [], "zero_count": 3},
         "p_characterized": True, "p_correspondent": True, "degenerate": False},
    ),
]


@pytest.mark.parametrize(
    "rows,p,code,text,obj", [case[1:] for case in ANALYZE_GOLDEN], ids=[c[0] for c in ANALYZE_GOLDEN]
)
def test_analyze_output_golden(tmp_path, capsys, rows, p, code, text, obj):
    path = write_matrix(tmp_path, rows)
    assert main(["analyze", path, "-p", str(p)]) == code
    assert capsys.readouterr().out == text
    assert main(["analyze", path, "-p", str(p), "--format", "json"]) == code
    assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


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


def test_package_has_no_assert_statements():
    # python -O drops every assert, so a check that guards a result must raise
    package = Path(padicsmith.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("suite", ["theorem1", "gl-ratio", "rem-stability", "lemma33", "orbit"])
def test_verify_rejects_nonpositive_flags(suite, capsys):
    # an explicit 0 used to read as "flag not given" and run the defaults
    for flag in ("--p", "--m", "--n", "--bound", "--trials", "--threads"):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", suite, flag, value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {flag}: must be a positive integer, got {value}" in captured.err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_counts_are_usage_errors(tmp_path, capsys, value):
    # --max-attempts 0 used to make no attempt and exit 1
    path = write_matrix(tmp_path, HEPTA)
    for argv in (
        ["density", "-p", "2", "-m", "1", "-n", "2", "--threads"],
        ["transform", path, "-p", "7", "--max-attempts"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-1]}: must be a positive integer, got {value}" in captured.err


def test_verify_theorem1_threads_match_serial(capsys):
    argv = ["verify", "--suite", "theorem1", "--p", "3", "--m", "2", "--n", "2"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert serial == "PASS theorem1 p=3 m=2 n=2: 6561 matrices, 0 characterized-but-not-correspondent\n"
    assert main(argv + ["--threads", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
