#!/usr/bin/env python3
"""Differential sweep of the median recogniser against a reference.

    python3 scripts/recogniser_sweep.py --seed N --count K

Draws K seeded graphs near median ones: the 3-, 4- and 5-cubes and boxes of
unit cubes with three sides of 1 to 3, each with up to two vertices and two
edges dropped and up to two pendant vertices added, and its vertices renamed
at random so that a random vertex roots the recogniser's search.  For each it
compares ``validate_graph``'s ``connected``, ``median``, ``median_violation``
and ``cube_counts`` with a reference that decides them from the definitions:
connectivity by search, and the cubes by trying every set of a vertex's
neighbours as the edges of an induced cube at that corner.  On a graph of at
most NAIVE_LIMIT vertices, medianness and the first violating triple come
from counting, for every triple of vertices, the vertices on geodesics
between each two of them, over distances found by search (the tests'
``oracle.py``); on a larger graph they come from the package's own median
scan, so there only connectivity and the cubes are checked independently.

On every graph it also runs the package's recogniser beside the earlier
two-pass one kept in the tests' ``oracle.py``, ``recogniser_differences``:
the two must agree on whether the graph is connected and median, and on a
median graph on every table, the squares in any order.  On every median
graph it checks the tables a collapse step reads against the derivations a
step once made, ``oracle.step_reads``: the squares, the crossing pairs, the
walk over extremal panels and the maximal cubes across each wall.

Prints one line per disagreement, how many graphs had the naive median
reference and a summary, and exits 1 when any graph disagrees.
"""

import itertools
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

from panelcollapse.cli import _int_at_least, _Parser
from panelcollapse.complex import CubeComplex, _median_scan, _structural_pass
from panelcollapse.errors import InternalInvariantError

from oracle import bfs_distances, first_median_violation, recogniser_differences, step_reads

FIELDS = ("connected", "median", "median_violation", "cube_counts")
# the naive median count tests about n**4 / 6 (triple, vertex) pairs
NAIVE_LIMIT = 30


def _hypercube(d):
    vs = list(range(1 << d))
    return vs, [(u, u | 1 << i) for u in vs for i in range(d) if not u >> i & 1]


def _box(sides):
    vs = list(itertools.product(*(range(a + 1) for a in sides)))
    es = [
        (p, p[:i] + (p[i] + 1,) + p[i + 1:])
        for p in vs
        for i, a in enumerate(sides)
        if p[i] < a
    ]
    return vs, es


def damaged_graph(rng):
    """One graph of the sweep, on the vertices 0..n-1."""
    if rng.random() < 0.5:
        vs, es = _hypercube(rng.randint(3, 5))
    else:
        vs, es = _box([rng.randint(1, 3) for _ in range(3)])
    for _ in range(rng.randint(0, 2)):
        if len(vs) > 1:
            gone = vs.pop(rng.randrange(len(vs)))
            es = [e for e in es if gone not in e]
    for _ in range(rng.randint(0, 2)):
        if es:
            es.pop(rng.randrange(len(es)))
    for k in range(rng.randint(0, 2)):
        pendant = ("pendant", k)
        es.append((rng.choice(vs), pendant))
        vs.append(pendant)
    names = list(range(len(vs)))
    rng.shuffle(names)
    rename = dict(zip(vs, names))
    return sorted(names), [(rename[u], rename[v]) for u, v in es]


def _induced_cubes(adj):
    """The number of induced cubes of each dimension.  At a corner b, d
    neighbours span a cube when each larger subset of them is named by a new
    common neighbour of the vertices naming its one-smaller subsets, and the
    2**d vertices are adjacent exactly when their subsets differ in one
    element.  Only median graphs are counted, where two vertices have at
    most two common neighbours and three at most one, so the vertex naming
    a subset is unique when it exists."""
    found = set()
    for b, near in enumerate(adj):
        for d in range(len(near) + 1):
            for nbrs in itertools.combinations(near, d):
                named = {0: b, **{1 << i: x for i, x in enumerate(nbrs)}}
                for t in sorted(range(1 << d), key=int.bit_count)[d + 1:]:
                    below = [named[t ^ 1 << i] for i in range(d) if t >> i & 1]
                    common = set.intersection(*(adj[x] for x in below))
                    common -= set(named.values())
                    if len(common) != 1:
                        break
                    named[t] = common.pop()
                else:
                    if all(
                        (named[s] in adj[named[t]]) == ((s ^ t).bit_count() == 1)
                        for s, t in itertools.combinations(named, 2)
                    ):
                        found.add(frozenset(named.values()))
    by_dim = Counter(len(c).bit_length() - 1 for c in found)
    return tuple(by_dim[d] for d in range(len(by_dim)))


def reference_report(vs, es):
    """The four compared fields, from the definitions, for a graph on the
    vertices 0..n-1 listed in order."""
    adj = [set() for _ in vs]
    for u, v in es:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) < len(vs):
        return dict(connected=False, median=None, median_violation=None, cube_counts=())
    if len(vs) <= NAIVE_LIMIT:
        violation = first_median_violation(bfs_distances(adj))
        median = violation is None
    else:
        median, violation = _median_scan(adj)
    if not median:
        return dict(connected=True, median=False, median_violation=violation,
                    cube_counts=())
    return dict(connected=True, median=True, median_violation=None,
                cube_counts=_induced_cubes(adj))


def compare(vs, es):
    """The recogniser's report, None when it raised, and the fields on which
    it differs from the reference, as ``{field: (report, reference)}``; also
    the recogniser's tables that differ from the earlier recogniser's, and
    on a median graph the step's tables that differ from their
    derivations."""
    expected = reference_report(vs, es)
    order, _, int_edges = _structural_pass(vs, es)
    try:
        report, tables = recogniser_differences(order, int_edges)
    except InternalInvariantError as exc:
        return None, {"error": (str(exc), None)}
    got = {field: getattr(report, field) for field in FIELDS}
    diff = {f: (got[f], expected[f]) for f in FIELDS if got[f] != expected[f]}
    if tables:
        diff["tables of the earlier recogniser"] = (tables, [])
    if report.median:
        cx = CubeComplex(vs, es)
        walls = [1 << h for h in range(len(cx._wall_edges))]
        reads = step_reads(cx, walls).items()
        diff.update((name, pair) for name, pair in reads if pair[0] != pair[1])
    return report, diff


def sweep(seed, count):
    """Run the sweep: the number of connected and of median graphs and of
    graphs with the naive median reference, and the disagreeing graphs as
    ``(index, fields)``."""
    rng = random.Random(seed)
    verdicts = Counter()
    wrong = []
    for i in range(count):
        vs, es = damaged_graph(rng)
        verdicts["naive"] += len(vs) <= NAIVE_LIMIT
        report, diff = compare(vs, es)
        if diff:
            wrong.append((i, diff))
        elif report.connected:
            verdicts["connected"] += 1
            verdicts["median"] += report.median
    return verdicts, wrong


def main():
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=_int_at_least(0), required=True)
    args = parser.parse_args()
    verdicts, wrong = sweep(args.seed, args.count)
    for i, diff in wrong:
        print(f"graph {i}: " + "; ".join(
            f"{field} {got!r}, reference {want!r}" for field, (got, want) in diff.items()
        ))
    print(f"naive median reference on {verdicts['naive']} of {args.count} graphs "
          f"(at most {NAIVE_LIMIT} vertices)")
    print(f"seed={args.seed} graphs={args.count} connected={verdicts['connected']} "
          f"median={verdicts['median']} disagreements={len(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
