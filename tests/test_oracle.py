"""Main fundament algorithm against the literal brute-force oracle.

Runs over every no-facing-panels family on single cubes of dimension up to 3
and compares the resulting fundaments cell by cell after normalization.
"""

import functools
import itertools
import time

from panelcollapse.collapse import (
    COMPLETELY_EXTERNAL,
    INTERNAL,
    classify,
    fundament,
)
from panelcollapse.panels import build_panel

import oracle
from conftest import hypercube_complex


def nfp_families(d):
    panels = oracle.all_panels(d)
    out = []
    for r in range(len(panels) + 1):
        for family in itertools.combinations(panels, r):
            if oracle.no_facing(d, family):
                out.append(family)
    return out


def bits_name(v):
    return "".join(map(str, v))


def axis_dictionary(cx, d):
    """Library wall id for each bitstring position, to pin the encoding."""
    mapping = {}
    for h in cx.hyperplanes():
        u, v = next(iter(h.edges))
        axis = next(i for i in range(d) if u[i] != v[i])
        mapping[axis] = h.id
    return mapping


def library_panels(cx, d, family):
    mapping = axis_dictionary(cx, d)
    out = []
    for h, e, side in family:
        out.append(build_panel(cx, mapping[h], mapping[e], "+" if side else "-"))
    return out


def test_axis_encoding():
    for d in (2, 3):
        cx = hypercube_complex(d)
        mapping = axis_dictionary(cx, d)
        planes = cx.hyperplanes()
        assert sorted(mapping) == list(range(d))
        assert sorted(mapping.values()) == list(range(d))
        for axis, wall in mapping.items():
            # the plus side holds digit 1 (vertex 0...0 is canonically first)
            plus = planes[wall].plus
            assert all(v[axis] == "1" for v in plus)


def library_normalized(cx, cls, cube):
    f = fundament(cls, cube)
    ordinary = set(f.ordinary_cubes)
    pairs = set(f.diagonal_pairs())
    return ordinary, pairs


def to_name_sets(ordinary, pairs, axis_map):
    return (
        {frozenset(bits_name(v) for v in s) for s in ordinary},
        {
            (
                frozenset(bits_name(v) for v in pair),
                frozenset(axis_map[a] for a in sep),
            )
            for pair, sep in pairs
        },
    )


# run once per session: test_acceptance.py makes the same two sweeps, and
# every assertion inside still runs once; each caller checks the count, and
# the sweep's own time is returned so that a time budget holds whichever
# caller ran it first
@functools.cache
def run_dimension(d):
    """The number of subcubes checked on the d-cube, and the sweep's seconds."""
    start = time.perf_counter()
    cx = hypercube_complex(d)
    axis_map = axis_dictionary(cx, d)
    checked = 0
    for family in nfp_families(d):
        world = oracle.OracleWorld(d, family)
        lib_panels = library_panels(cx, d, family)
        cls = classify(cx, lib_panels)
        for sub in world.all_subcubes:
            named = frozenset(bits_name(v) for v in sub)
            # statuses agree
            lib_status = cls.status(named)
            assert world.is_internal(sub) == (lib_status == INTERNAL)
            assert world.is_completely_external(sub) == (
                lib_status == COMPLETELY_EXTERNAL
            )
            f = fundament(cls, named)
            assert f.d_connected == world.deletion_connected(sub)
            if lib_status != INTERNAL:
                # persistent subcubes agree (hull of corners vs face meet)
                assert f.persistent == frozenset(
                    bits_name(v) for v in world.persistent_subcube(sub)
                )
                h, hbar, separators, _ = world.salient_data(sub)
                assert f.salient == frozenset(bits_name(v) for v in hbar)
                assert f.separators == frozenset(
                    axis_map[a] for a in separators
                )
            # fundaments agree after normalization
            o_ord, o_pairs = to_name_sets(
                *world.normalize(world.fundament(sub)), axis_map
            )
            l_ord, l_pairs = library_normalized(cx, cls, named)
            assert o_ord == l_ord, (family, sorted(named))
            assert o_pairs == l_pairs, (family, sorted(named))
            checked += 1
    return checked, time.perf_counter() - start


def test_oracle_dimension_two():
    assert run_dimension(2)[0] == 9 * 9  # 9 families, 9 subcubes each


def test_oracle_dimension_three():
    checked, _ = run_dimension(3)
    assert checked == 343 * 27  # 343 admissible families, 27 subcubes


def test_oracle_low_dimensions_trivial():
    # no panels exist below dimension 2: the fundament is the cube itself
    for d in (0, 1):
        cx = hypercube_complex(d)
        cls = classify(cx, [])
        whole = frozenset(cx.vertices)
        f = fundament(cls, whole)
        assert whole in f.ordinary_cubes and not f.diagonals
