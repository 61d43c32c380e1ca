"""Smoke tests for scripts/: each runs as a subprocess and must exit 0.

They catch a script importing a name the package no longer has.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicsmith
from padicsmith.density import CSV_HEADER, enumerate_density

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def spawn_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(padicsmith.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_script(*argv: str) -> str:
    proc = spawn_script(*argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_scripts_import_only_public_names():
    # a script is a user of the package, so it goes through its public surface
    private = []
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                parts = node.module.split(".")
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [part for alias in node.names for part in alias.name.split(".")]
                names = []
            else:
                continue
            if parts[0] == "padicsmith":
                private += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in parts[1:] + names
                    if name.startswith("_")
                ]
    assert private == []


@pytest.mark.parametrize(
    "argv",
    [
        ["worked_examples.py"],
        ["transform_success_rates.py", "--primes", "101", "--trials", "50"],
    ],
)
def test_script_exits_zero(argv):
    assert run_script(*argv)


def test_density_table_script_matches_library():
    lines = run_script("reproduce_density_table.py", "--csv").splitlines()
    assert lines[0] == CSV_HEADER
    cells = [tuple(int(x) for x in line.split(",")[:3]) for line in lines[1:]]
    assert len(cells) == 14
    assert lines[1:] == [enumerate_density(*cell).csv_row() for cell in cells]
    assert run_script("reproduce_density_table.py", "--csv", "--threads", "2").splitlines() == lines


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_density_table_script_rejects_non_positive_threads(threads):
    proc = spawn_script("reproduce_density_table.py", "--csv", "--threads", threads)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "must be a positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr
