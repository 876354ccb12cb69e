"""Smoke tests of the scripts under scripts/: each runs to completion and
prints its summary, and bad arguments exit 1 with an error line."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import panelcollapse
from panelcollapse import complex as complex_module

from conftest import DATA

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# The directory holding the panelcollapse package this process imported, so
# the child interpreter runs the same copy of the code as the in-process tests.
PACKAGE_ROOT = Path(panelcollapse.__file__).resolve().parents[1]


def start_script(name, *args, env=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(PACKAGE_ROOT),
            "PYTHONDONTWRITEBYTECODE": "1",
            **(env or {}),
        },
    )


def run_script(name, *args):
    proc = start_script(name, *args)
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



@pytest.mark.parametrize(
    "args, env",
    [
        (["--runs", "-1"], None),
        (["--max-vertices", "0"], None),
        (["--seed", "x"], None),
        (["--runs", "1"], {"PANELCOLLAPSE_SEED": "abc"}),
        # no draw fits in one vertex, so the generator gives up
        (["--runs", "1", "--max-vertices", "1"], None),
    ],
    ids=["negative-runs", "no-vertices", "bad-seed", "bad-env-seed", "no-draw-fits"],
)
def test_descent_experiment_bad_input_is_user_error(args, env):
    proc = start_script("descent_experiment.py", *args, env=env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_recogniser_sweep():
    lines = run_script("recogniser_sweep.py", "--seed", "3", "--count", "60")
    assert lines[-2] == "naive median reference on 38 of 60 graphs (at most 30 vertices)"
    assert lines[-1].startswith("seed=3 graphs=60 ")
    assert lines[-1].endswith(" disagreements=0")


def test_recogniser_sweep_reference_is_naive_on_small_graphs(monkeypatch):
    # up to NAIVE_LIMIT vertices the reference never asks the median scan
    # that validate_graph runs on a rejected graph
    monkeypatch.syspath_prepend(str(SCRIPTS))
    sweep = importlib.import_module("recogniser_sweep")
    scan = sweep._median_scan

    def large_only(adj):
        assert len(adj) > sweep.NAIVE_LIMIT, "the reference scanned a small graph"
        return scan(adj)

    monkeypatch.setattr(sweep, "_median_scan", large_only)
    verdicts, wrong = sweep.sweep(3, 60)
    assert not wrong and verdicts["naive"] == 38
    # so a scan that names a wrong triple disagrees with it (K2,3 on 0..4)
    monkeypatch.setattr(complex_module, "_median_scan", lambda adj: (False, (0, 1, 2)))
    k23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    _, diff = sweep.compare(list(range(5)), k23)
    assert diff == {"median_violation": ((0, 1, 2), (2, 3, 4))}


def test_recogniser_sweep_exits_1_on_a_disagreement(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    sweep = importlib.import_module("recogniser_sweep")
    monkeypatch.setattr(sweep, "compare", lambda vs, es: (None, {"median": (True, False)}))
    monkeypatch.setattr(sys, "argv", ["recogniser_sweep.py", "--seed", "0", "--count", "2"])
    assert sweep.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graph 0: median True, reference False"
    assert lines[-1].endswith(" disagreements=2")


def test_recogniser_sweep_bad_input_is_user_error():
    proc = start_script("recogniser_sweep.py", "--seed", "1", "--count", "-1")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("error: ")


def test_family_sweep():
    lines = run_script("family_sweep.py", str(DATA / "cube3.cc"))
    assert lines == ["0 of 286 families fail"]


def test_family_sweep_bad_input_is_user_error(tmp_path):
    proc = start_script("family_sweep.py", str(tmp_path / "missing.cc"))
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("error: ")


def test_tracer_targets_exist(monkeypatch):
    # the benchmark's tracer wraps these attributes by name; a rename must
    # fail here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    tracer = importlib.import_module("tracer")
    for owner, attr, _, _ in tracer.TARGETS:
        assert callable(vars(owner).get(attr)), (owner, attr)
