#!/usr/bin/env python3
"""Collapse every facing-free family of extremal panels of one complex.

    python3 scripts/family_sweep.py FILE

Reads a cube complex file, lists its extremal panels in canonical order and
collapses every family of 1 to 4 of them that has no facing panels, which is
every family that ``collapse`` accepts.  Prints each family whose collapse
raises ``InternalInvariantError``, as its panels ``hH,hE,side`` and the
message, then ``N of M families fail``.  Exits 1 when
any family fails, or with an error line on bad arguments or an unreadable
file.
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from panelcollapse.cli import _load_complex, _Parser
from panelcollapse.collapse import collapse
from panelcollapse.errors import InternalInvariantError, UserInputError
from panelcollapse.panels import extremal_panels, no_facing_panels

# every known failing family has four panels
MAX_PANELS = 4


def sweep(cx):
    """The number of facing-free families of 1 to ``MAX_PANELS`` extremal
    panels, and the failing ones as ``(family, message)``."""
    panels = extremal_panels(cx)
    count, failures = 0, []
    for k in range(1, MAX_PANELS + 1):
        for family in itertools.combinations(panels, k):
            if not no_facing_panels(cx, family):
                continue
            count += 1
            try:
                collapse(cx, family)
            except InternalInvariantError as exc:
                failures.append((family, str(exc)))
    return count, failures


def main():
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("file")
    args = parser.parse_args()
    try:
        count, failures = sweep(_load_complex(args.file))
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for family, message in failures:
        panels = " ".join(f"h{p.abutting},h{p.extremalising},{p.side}" for p in family)
        print(f"{panels}: {message}")
    print(f"{len(failures)} of {count} families fail")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
