"""Byte-identical output and trace files across runs, including under
different hash seeds."""

import subprocess
import sys
from pathlib import Path

import pytest

import panelcollapse
from conftest import DATA

GOLDEN = DATA / "golden"

# The directory holding the panelcollapse package this process imported, so
# the child interpreter runs the same copy of the code as the in-process tests.
PACKAGE_ROOT = Path(panelcollapse.__file__).resolve().parents[1]

CASES = [
    (["run", str(DATA / "cube3.cc"), str(DATA / "trivial.act")], "cube3_run.txt"),
    (["stallings", str(DATA / "crossing2.ws")], "crossing2_stallings.txt"),
    (["collapse", str(DATA / "cube3.cc"), "--auto"], "cube3_collapse.txt"),
    # dualize echoes its argument, so the path is relative to DATA
    (["dualize", "crossing2.ws"], "crossing2_dualize.txt"),
    # a symmetry inverting a wall: the run goes through the subdivision
    (["stallings", str(DATA / "inverted.ws")], "inverted_stallings.txt"),
    # non-abelian actions on the 3-cube: S3 permuting the coordinates, and
    # B3, which adds a reflection inverting a wall and so subdivides
    (["stallings", str(DATA / "cube3_s3.ws")], "cube3_s3_stallings.txt"),
    (["stallings", str(DATA / "cube3_b3.ws")], "cube3_b3_stallings.txt"),
    # the listings and summaries that no other test runs in these modes
    (["hyperplanes", str(DATA / "cube3.cc"), "--json"], "cube3_hyperplanes.json"),
    (["panels", str(DATA / "cube3.cc"), "--json"], "cube3_panels.json"),
    (["stats", str(DATA / "cube3.cc")], "cube3_stats.txt"),
    (["stats", str(DATA / "cube3.cc"), "--json"], "cube3_stats.json"),
    # appended, not interleaved, so the earlier cases keep their ids
    (["hyperplanes", str(DATA / "cube3.cc")], "cube3_hyperplanes.txt"),
    (["hyperplanes", str(DATA / "tree.cc"), "--json"], "tree_hyperplanes.json"),
    # every pair of walls of the 3-cube is extremal on both sides; the two
    # cubes of the fuzz witness have pairs extremal on one side only
    (["panels", str(DATA / "defects" / "witness20.cc"), "--json"], "witness20_panels.json"),
]


def _run(argv, hashseed):
    return subprocess.run(
        [sys.executable, "-m", "panelcollapse.cli", *argv],
        capture_output=True,
        cwd=DATA,
        env={
            "PYTHONHASHSEED": str(hashseed),
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(PACKAGE_ROOT),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )


def run_subprocess(argv, hashseed):
    proc = _run(argv, hashseed)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


@pytest.mark.parametrize("argv,golden", CASES)
def test_outputs_match_golden_files(argv, golden):
    expected = (GOLDEN / golden).read_bytes()
    for hashseed in (0, 1, 12345):
        assert run_subprocess(argv, hashseed) == expected, (
            f"output differs from {golden} under PYTHONHASHSEED={hashseed} "
            f"for argv {argv}"
        )


TRACE_CASES = [
    (["run", "cube3.cc", "trivial.act"], "cube3_run_trace.json"),
    (["stallings", "crossing2.ws"], "crossing2_stallings_trace.json"),
    (["stallings", "inverted.ws"], "inverted_stallings_trace.json"),
    (["stallings", "cube3_s3.ws"], "cube3_s3_stallings_trace.json"),
    (["stallings", "cube3_b3.ws"], "cube3_b3_stallings_trace.json"),
]


@pytest.mark.parametrize("argv,golden", TRACE_CASES)
def test_traces_match_golden_files(argv, golden, tmp_path):
    expected = (GOLDEN / golden).read_bytes()
    for hashseed in (0, 1, 12345):
        trace = tmp_path / f"{hashseed}.json"
        run_subprocess([*argv, "--trace", str(trace)], hashseed)
        assert trace.read_bytes() == expected, (
            f"--trace output differs from {golden} under "
            f"PYTHONHASHSEED={hashseed} for argv {argv}"
        )


# Inputs the CLI refuses, as (command, file text); the message names sets of
# points, whose order must not come from the hash seed.
ERROR_CASES = {
    "wall that misses a point": (
        ["stallings"],
        "wallspace v1\npoint a\npoint b\npoint c\npoint d\nwall a,b | c\n",
    ),
    "second wall that misses a point": (
        ["stallings"],
        "wallspace v1\npoint a\npoint b\npoint c\npoint d\n"
        "wall a,b,c | d\nwall a | b,c\n",
    ),
    # K2,3: a, b and c have the two medians x and y
    "graph that is not median": (
        ["validate"],
        "cubecomplex v1\n"
        + "".join(f"vertex {v}\n" for v in "abcxy")
        + "".join(f"edge {u} {v}\n" for u in "abc" for v in "xy"),
    ),
}


@pytest.mark.parametrize("name", ERROR_CASES)
def test_errors_match_across_hash_seeds(name, tmp_path):
    command, text = ERROR_CASES[name]
    path = tmp_path / "input"
    path.write_text(text)
    outputs = set()
    for hashseed in (0, 1, 12345):
        proc = _run([*command, str(path)], hashseed)
        assert proc.returncode == 1, proc.stderr.decode(errors="replace")
        outputs.add((proc.stdout, proc.stderr))
    assert len(outputs) == 1, outputs
