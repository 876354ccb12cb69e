#!/usr/bin/env python3
"""Run a catalogue of one-line mutants of the package against its tests.

    python3 scripts/mutants.py

Each mutant replaces one line of a file under ``src/``, its anchor, with
another line.  An anchor is a whole line, indentation included, and must
equal exactly one line of the Python files under ``src/``, so that a
refactor that moves or rewrites it disarms no mutant silently (the tests
check every anchor).  For each mutant the script copies the checkout into
a temporary directory, replaces the anchor there and runs the mutant's test
files with pytest.  The tests kill a mutant when pytest reports a failure
(exit status 1); a mutant survives when every test passes.  Any other
status means the tests could not run.

Prints one line per mutant and a summary, and exits 1 when a mutant
survives or its tests could not run, 0 when every mutant is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from panelcollapse.cli import _Parser  # noqa: E402


class Mutant(NamedTuple):
    name: str
    anchor: str  # one whole line of a file under src/
    replacement: str
    tests: tuple  # test files, relative to the checkout


GUARDS = ("tests/test_guards.py",)
LOOP = ("tests/test_symmetry.py",)
FACING = ("tests/test_panels.py", "tests/test_collapse.py", "tests/test_symmetry.py")

MUTANTS = (
    # each guard that raises InternalInvariantError on a breach, deleted
    Mutant("inversion-introduced", "        if new_inv:", "        if False:", GUARDS),
    Mutant("maximal-cube-internal", "        if status == INTERNAL:", "        if False:", GUARDS),
    Mutant("no-internal-edges", "    if panels and not internal:", "    if False:", GUARDS),
    Mutant("empty-persistent-subcube", "    if ones & zeros:", "    if False:", GUARDS),
    Mutant("image-panel-not-extremal",
           "            except PreconditionError as exc:",
           "            except ArithmeticError as exc:", GUARDS),
    Mutant("no-extremal-panel",
           "    if panel is None and any(cx._crossing):", "    if False:", GUARDS),
    Mutant("step-reads-no-crossing-sets",
           "        result.wall_crossings  # checks one crossing set per output wall",
           "        pass", GUARDS),
    Mutant("dual-wall-flips-several", "        if len(flips) != 1:", "        if False:", GUARDS),
    Mutant("symmetry-leaves-component", "        if image not in vertex_of:",
           "        if False:", GUARDS),
    Mutant("median-not-a-vertex",
           "            return self._order[self._vertex_of[a & b | a & c | b & c]]",
           "            return self._order[self._vertex_of.get(a & b | a & c | b & c, 0)]",
           GUARDS),
    Mutant("principal-outside-component", "        if pm not in vertex_of:",
           "        if False:", GUARDS),
    Mutant("mixed-crossing-sets", "            if len(flips) != 1:", "            if False:",
           GUARDS),
    Mutant("empty-crossing-set", "            if not flip:", "            if False:", GUARDS),
    # the guards pinned by the tests of their own modules
    Mutant("recogniser-names-no-witness", "        if violation is None:",
           "        if False:", ("tests/test_complex.py",)),
    Mutant("collapse-fails-validation", "    except InvalidComplexError as exc:",
           "    except ArithmeticError as exc:", ("tests/test_collapse.py",)),
    Mutant("orbit-has-facing-panels", "        except PreconditionError as exc:",
           "        except ArithmeticError as exc:", LOOP),
    # the one handler of transfer's StructuralError that is unique in src/ is
    # its message line: the replacement makes the guard re-raise that error
    Mutant("action-does-not-survive",
           '                f"action does not survive onto the collapsed complex: {exc}"',
           '                "") if False else (exc', LOOP),
    Mutant("carried-complexity-differs",
           "        if full.entries != step.complexity_after.entries:", "        if False:",
           LOOP),
    Mutant("origin-walls-not-carried",
           "            if walls[t] != {first_row[h][0] for h in walls[w]}:",
           "            if False:", ("tests/test_pocset.py",)),
    # the guards of the step loop, iter_steps and equivariant_collapse_step
    Mutant("strict-descent", "        if not after < before:", "        if False:", LOOP),
    Mutant("termination-bound", "            if number > limit:", "            if False:", LOOP),
    Mutant("stopped-short-of-a-tree", "                if not cx.is_tree():",
           "                if False:", LOOP),
    # operator flips
    Mutant("strict-descent-flip", "        if not after < before:",
           "        if not after <= before:", LOOP),
    Mutant("facing-disjoint-flip", "        if p._vertex_mask & q._vertex_mask:",
           "        if p._vertex_mask | q._vertex_mask:", FACING),
    Mutant("facing-crossing-flip",
           "        if all(crossing[h] >> e & 1 for h, e in pairs):",
           "        if any(crossing[h] >> e & 1 for h, e in pairs):", FACING),
    # the recogniser's check 2, the quadrangle condition, deleted
    Mutant("quadrangle-check",
           "            if missing := walls & ~p & ~down_walls[x]:",
           "            if False:", ("tests/test_complex.py",)),
)


def anchor_lines(src: Path, anchor: str) -> list:
    """Every ``(path, line index)`` under ``src`` whose line is ``anchor``."""
    return [
        (path, i)
        for path in sorted(src.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines())
        if line == anchor
    ]


def run(mutant: Mutant) -> str:
    """``killed by`` the failing tests, ``survived`` or ``could not run``:
    the tests of the mutant on a copy of the checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_runs",
        ))
        [(path, i)] = anchor_lines(copy / "src", mutant.anchor)
        lines = path.read_text().splitlines(keepends=True)
        lines[i] = mutant.replacement + "\n"
        path.write_text("".join(lines))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
        )
    if proc.returncode == 1:
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return "killed by " + " ".join(failed)
    return "survived" if proc.returncode == 0 else "could not run"


def main():
    _Parser(description=__doc__.splitlines()[0]).parse_args()
    outcomes = {}
    for mutant in MUTANTS:
        outcomes[mutant.name] = run(mutant)
        print(f"{mutant.name}: {outcomes[mutant.name]}", flush=True)
    bad = [name for name, outcome in outcomes.items() if not outcome.startswith("killed")]
    print(f"mutants={len(outcomes)} killed={len(outcomes) - len(bad)} "
          f"not killed={len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
