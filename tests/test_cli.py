import ast
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import padicsmith
from padicsmith.cli import main
from padicsmith.exact import _PRIME_LIMIT, IntMatrix
from padicsmith.newton import EigenvalueValuations

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


def test_analyze_decides_a_large_prime_and_refuses_past_the_limit(tmp_path, capsys):
    ok = write_matrix(tmp_path, TRIDENT)
    assert main(["analyze", ok, "-p", "1000000000000000003"]) == 0
    assert "p = 1000000000000000003, n = 3, rank = 3" in capsys.readouterr().out
    assert main(["analyze", ok, "-p", str(_PRIME_LIMIT)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: primality is decided only below {_PRIME_LIMIT}, got {_PRIME_LIMIT}\n"


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


@pytest.mark.parametrize("suite", ["theorem1", "gl-ratio", "orbit"])
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


def _assertion_error_raises(node, func=None):
    """Name of the enclosing function of each `raise AssertionError` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _assertion_error_raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield func
        yield from _assertion_error_raises(child, func)


def test_package_has_no_assert_statements():
    # python -O drops every assert, so a check that guards a result must raise
    package = Path(padicsmith.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []
    # a check the CLI can report returns a verdict instead; the raises left
    # are the theorem check and the density engine's own invariants
    raises = sorted(
        (name, func) for name, tree in trees.items() for func in _assertion_error_raises(tree)
    )
    assert raises == [
        ("classify.py", "_predicates"),
        ("density.py", "_corank_one_keys"),
        ("density.py", "enumerate_density"),
    ]


def _imported_modules(path):
    """The package-relative or absolute module names a source file imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            yield ("." * node.level) + (node.module or "")
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_kernel_and_classify_do_not_import_the_enumerator():
    # analyze needs the minor kernel, not the density walk, and the kernel
    # needs neither
    package = Path(padicsmith.__file__).resolve().parent
    forbidden = {
        "classify.py": {"density"},
        "kernel.py": {"density", "classify"},
    }
    for name, modules in forbidden.items():
        for imported in _imported_modules(package / name):
            assert imported.rsplit(".", 1)[-1] not in modules, f"{name} imports {imported}"


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "-p", "3", "-m", "2000", "-n", "3"],
        ["verify", "--suite", "theorem1", "--p", "3", "--m", "2000", "--n", "3"],
    ],
)
def test_a_box_too_large_to_print_is_refused_with_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration space (p^m)^(n^2) = 3^18000 exceeds budget 1073741824\n"


def _plant_gl_order_off_by_one(monkeypatch):
    import padicsmith.density as density

    real = density.gl_order
    monkeypatch.setattr(density, "gl_order", lambda p, m, n: real(p, m, n) + 1)


def test_verify_gl_ratio_reports_a_count_mismatch(monkeypatch, capsys):
    _plant_gl_order_off_by_one(monkeypatch)
    assert main(["verify", "--suite", "gl-ratio", "--p", "2", "--m", "1", "--n", "2"]) == 1
    assert capsys.readouterr().out == (
        "FAIL gl-ratio p=2 m=1 n=1: ratio=1 (exhaustive+closed-form), exhaustive count 1 != closed form 2\n"
        "FAIL gl-ratio p=2 m=1 n=2: ratio=16/7 (exhaustive+closed-form), exhaustive count 6 != closed form 7\n"
    )


def test_verify_orbit_reports_a_class_size_not_dividing_gl_squared(monkeypatch, capsys):
    _plant_gl_order_off_by_one(monkeypatch)
    assert main(["verify", "--suite", "orbit"]) == 1
    assert capsys.readouterr().out == (
        "FAIL orbit p=2 m=1 e=[0, 0]: class size 6, 49/6 pairs per member\n"
        "FAIL orbit p=3 m=1 e=[0, 0]: class size 48, 2401/48 pairs per member\n"
        "FAIL orbit p=2 m=2 e=[0, 1]: class size 72, 9409/72 pairs per member\n"
    )


def test_verify_orbit_reports_a_wrong_class_size_from_the_engine(monkeypatch, capsys):
    import padicsmith.density as density

    real = density.enumerate_density

    def one_too_many(*args, **kwargs):
        row = real(*args, **kwargs)
        grown = {
            diag: cell._replace(size=cell.size + 1)
            for diag, cell in row.partitions.items()
        }
        return row._replace(partitions=grown)

    monkeypatch.setattr(density, "enumerate_density", one_too_many)
    assert main(["verify", "--suite", "orbit"]) == 1
    # the pairs still hit 6, 48 and 72 members, each |GL|^2 / that many times
    assert capsys.readouterr().out == (
        "FAIL orbit p=2 m=1 e=[0, 0]: class size 7, 36/7 pairs per member\n"
        "FAIL orbit p=3 m=1 e=[0, 0]: class size 49, 2304/49 pairs per member\n"
        "FAIL orbit p=2 m=2 e=[0, 1]: class size 73, 9216/73 pairs per member\n"
    )


@pytest.mark.parametrize("suite", ["theorem1", "gl-ratio", "rem-stability", "lemma33", "orbit"])
def test_verify_rejects_nonpositive_flags(suite, capsys):
    # an explicit 0 used to read as "flag not given" and run the defaults
    for flag in ("--p", "--m", "--n", "--bound", "--trials"):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", suite, flag, value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {flag}: must be a positive integer, got {value}" in captured.err
    # the worker count belongs to density only
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


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


def test_verify_theorem1_pinned_line(capsys):
    assert main(["verify", "--suite", "theorem1", "--p", "3", "--m", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "PASS theorem1 p=3 m=2 n=2: 6561 matrices, 0 characterized-but-not-correspondent\n"


@pytest.mark.parametrize(
    "p, m, n, total",
    [
        (2, 1, 1, 2),
        (7, 3, 1, 343),
        (5, 2, 1, 25),
        (2, 3, 2, 4096),
        (5, 1, 2, 625),
        (7, 1, 2, 2401),
        (2, 1, 3, 512),
        (3, 1, 3, 19683),
        (2, 1, 4, 65536),
        (2, 2, 3, 262144),
    ],
)
def test_verify_theorem1_pinned_lines(capsys, p, m, n, total):
    # the PASS line counts every matrix of the box, not its representatives
    assert main(["verify", "--suite", "theorem1", "--p", str(p), "--m", str(m), "--n", str(n)]) == 0
    assert capsys.readouterr().out == (
        f"PASS theorem1 p={p} m={m} n={n}: {total} matrices, 0 characterized-but-not-correspondent\n"
    )


def test_verify_theorem1_classifies_representatives_not_matrices(monkeypatch, capsys):
    # (2,2,3) has 262144 matrices; the walk classifies only the
    # representatives with non-decreasing row keys, each through the
    # signature kernel, and never runs analyze or Berkowitz
    import padicsmith.classify as classify
    import padicsmith.cli as cli
    import padicsmith.density as density

    def never(*args):
        pytest.fail("per-matrix route called by theorem1")

    for module, name in ((cli, "analyze"), (classify, "analyze"), (classify, "char_poly")):
        monkeypatch.setattr(module, name, never)
    real, classified = density._signatures, []

    def counting(n):
        sigs = real(n)

        def counted(prefix, lasts, vt):
            out = sigs(prefix, lasts, vt)
            classified.append(len(out))
            return out

        return counted

    monkeypatch.setattr(density, "_signatures", counting)
    assert main(["verify", "--suite", "theorem1", "--p", "2", "--m", "2", "--n", "3"]) == 0
    assert "262144 matrices" in capsys.readouterr().out
    assert sum(classified) == density._representative_count(4, 3) == 47344


def test_verify_theorem1_names_the_failing_valuations(monkeypatch, capsys):
    # a wrong Newton hull makes a characterized matrix non-correspondent;
    # the FAIL line names the valuations the walk decided and p
    import padicsmith.classify as classify

    @lru_cache(maxsize=None)
    def wrong(vals, p):
        return EigenvalueValuations(p=p, values=(Fraction(1),) * len(vals), zero_count=0)

    monkeypatch.setattr(classify, "_eigenvalue_valuations", wrong)
    assert main(["verify", "--suite", "theorem1", "--p", "2", "--m", "1", "--n", "2"]) == 1
    # the zero matrix, of rank 0, is the first characterized one walked
    assert capsys.readouterr().out == (
        "FAIL theorem1 p=2 m=1 n=2: counterexample found (characterized-but-not-correspondent "
        "matrix encountered; this contradicts the implication the package is built on: "
        "v(f_k) (INFINITY, INFINITY), Smith exponents () at p=2)\n"
    )


def test_verify_theorem1_refuses_a_box_over_budget(monkeypatch, capsys):
    import padicsmith.density as density

    def never(*args):
        pytest.fail("the box walked although it is over budget")

    monkeypatch.setattr(density, "_box_tally", never)
    argv = ["verify", "--suite", "theorem1", "--p", "2", "--m", "3", "--n", "3", "--budget", "1000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds budget 1000" in captured.err


def test_verify_theorem1_refuses_n_past_six_before_the_walk(monkeypatch, capsys):
    # the box 2^49 fits the budget, but the signature kernel stops at n = 6
    import padicsmith.density as density

    def never(*args):
        pytest.fail("the walk started on a box past n = 6")

    monkeypatch.setattr(density, "_blocks", never)
    argv = ["verify", "--suite", "theorem1", "--p", "2", "--m", "1", "--n", "7", "--budget", str(2**50)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the signature kernel is limited to n <= 6, got 7\n"


def test_verify_lemma33_rejects_p_one():
    # det(A) % 1 is always 0, so the search for a matrix invertible mod p
    # must not start before p is known to be prime
    env = dict(os.environ)
    src = str(Path(padicsmith.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "padicsmith.cli", "verify", "--suite", "lemma33", "--p", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "p must be prime" in proc.stderr


def test_cold_analyze_imports_neither_density_nor_transform(tmp_path):
    # a one-shot analyze pays for the modules it runs and no others
    matrix = tmp_path / "a.txt"
    matrix.write_text("2\n1 2\n3 4\n")
    env = dict(os.environ)
    src = str(Path(padicsmith.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from padicsmith.cli import main\n"
        f"status = main(['analyze', {str(matrix)!r}, '-p', '3'])\n"
        "print(status, [m for m in ('padicsmith.density', 'padicsmith.transform') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_verify_lemma33_refuses_a_vacuous_floor(capsys):
    # at p <= n^2 + 3n the floor 1 - (n^2+3n)/p is <= 0 and no rate can fail it
    assert main(["verify", "--suite", "lemma33", "--p", "5", "--trials", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-13/5 is vacuous at p=5, n=3" in captured.err


@pytest.mark.parametrize("flag", ["--p", "--m", "--n"])
def test_verify_orbit_refuses_cell_flags(flag, capsys):
    # the suite runs ORBIT_CELLS; a flag it would ignore is a usage error
    assert main(["verify", "--suite", "orbit", flag, "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the orbit suite does not read {flag}\n"


@pytest.mark.parametrize(
    "suite, argv",
    [
        ("theorem1", ["--bound", "4"]),
        ("theorem1", ["--trials", "4"]),
        ("theorem1", ["--seed", "0"]),
        ("gl-ratio", ["--budget", "1"]),
        ("gl-ratio", ["--seed", "3"]),
        ("rem-stability", ["--m", "2"]),
        ("rem-stability", ["--budget", "1"]),
        ("lemma33", ["--budget", "1"]),
        ("orbit", ["--trials", "4"]),
    ],
)
def test_verify_refuses_flags_its_suite_does_not_read(suite, argv, capsys):
    # gl-ratio --budget 1 used to run the suite, ignore the flag and PASS
    assert main(["verify", "--suite", suite, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the {suite} suite does not read {argv[0]}\n"


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
