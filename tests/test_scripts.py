"""Smoke tests of the scripts under scripts/: each runs to completion and
prints its summary."""

import importlib
import subprocess
import sys
from pathlib import Path

import panelcollapse

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# The directory holding the panelcollapse package this process imported, so
# the child interpreter runs the same copy of the code as the in-process tests.
PACKAGE_ROOT = Path(panelcollapse.__file__).resolve().parents[1]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(PACKAGE_ROOT),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_figures(tmp_path):
    lines = run_script("run_figures.py", "--out", str(tmp_path))
    for expected in [
        "== single panel of the solid cube ==",
        "result: (8, 10, 3) (Euler 1)",
        "== cube down to a tree ==",
        "tree: V=8 E=7",
        "== conflicting panel pair on a square ==",
        "tree: V=4 E=3",
        "diagonal edges: [('00', '11')]",
        f"DOT files in {tmp_path}/",
    ]:
        assert expected in lines
    dots = sorted(p.name for p in tmp_path.iterdir())
    assert dots == ["cube_strip.dot", "cube_tree.dot", "square_diagonal.dot"]


def test_descent_experiment():
    lines = run_script("descent_experiment.py", "--runs", "3", "--seed", "1")
    assert lines[0] == "seed=1 runs=3"
    assert sum(line.startswith("run ") for line in lines) == 3
    assert lines[-4:] == [
        "dimensions: {2: 3}",
        "group orders: {1: 3}",
        "step histogram: {1: 1, 2: 2}",
        "diagonal edges created: 0",
    ]


def test_tracer_targets_exist(monkeypatch):
    # the benchmark's tracer wraps these attributes by name; a rename must
    # fail here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    tracer = importlib.import_module("tracer")
    for owner, attr, _, _ in tracer.TARGETS:
        assert callable(vars(owner).get(attr)), (owner, attr)
