#!/usr/bin/env python3
"""Reproduce the three worked collapse examples and emit DOT renderings.

1. single panel of a solid cube: deletion to a strip of three squares;
2. full reduction of the cube to a tree on its eight vertices;
3. a square with two conflicting panels under an order-2 symmetry,
   collapsing to a tree with one diagonal edge.

Writes DOT files next to the chosen output directory (default ./figures).
"""

import argparse
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from panelcollapse.collapse import collapse
from panelcollapse.complex import CubeComplex
from panelcollapse.dot import export_dot
from panelcollapse.panels import build_panel, find_extremal_panel
from panelcollapse.symmetry import GroupAction, iter_steps, run_to_tree


def hypercube(d):
    vs = ["".join(b) for b in itertools.product("01", repeat=d)]
    es = [
        (u, v)
        for u, v in itertools.combinations(vs, 2)
        if sum(a != b for a, b in zip(u, v)) == 1
    ]
    return CubeComplex(vs, es)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures", help="output directory")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cube = hypercube(3)
    panel = find_extremal_panel(cube)
    res = collapse(cube, [panel])
    print("== single panel of the solid cube ==")
    print(f"panel: h{panel.abutting} extremalised by h{panel.extremalising} "
          f"side {panel.side}, internal edges {sorted(panel.internal_edges)}")
    print(f"result: {res.output_complex.cube_counts} "
          f"(Euler {res.output_complex.euler_characteristic})")
    (out / "cube_strip.dot").write_text(
        export_dot(res.output_complex, res.edge_provenance)
    )

    print("\n== cube down to a tree ==")
    trace = run_to_tree(cube, GroupAction(cube, []))
    for line in trace.lines():
        print(line)
    (out / "cube_tree.dot").write_text(export_dot(trace.final_complex))

    print("\n== conflicting panel pair on a square ==")
    square = hypercube(2)
    action = GroupAction(
        square, [{"00": "00", "11": "11", "01": "10", "10": "01"}]
    )
    sq_trace = run_to_tree(square, action)
    for line in sq_trace.lines():
        print(line)
    res3 = next(iter_steps(square, action)).result
    print(f"diagonal edges: {sorted(res3.diagonal_edges)}")
    (out / "square_diagonal.dot").write_text(
        export_dot(res3.output_complex, res3.edge_provenance)
    )
    print(f"\nDOT files in {out}/")


if __name__ == "__main__":
    main()
