import importlib.abc
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from panelcollapse.complex import CubeComplex
from panelcollapse.fileio import parse_wallspace
from panelcollapse.pocset import Wallspace, dualize_details, symmetry_automorphism
from panelcollapse.randgen import GeneratorConfig, cyclic_wallspace, random_wallspace
from panelcollapse.symmetry import GroupAction


class _NoNumpy(importlib.abc.MetaPathFinder):
    """Refuses to import numpy or any of its submodules."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"import of {name} halted", name=name)


# The suite can run with numpy made unimportable by `sys.modules["numpy"] =
# None`.  hypothesis reads that key as numpy loaded and imports numpy.random,
# so the key gives way to a finder that keeps refusing the import.
if "numpy" in sys.modules and sys.modules["numpy"] is None:
    del sys.modules["numpy"]
    sys.meta_path.insert(0, _NoNumpy())

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"


@st.composite
def wallspaces(draw, max_points=6, max_walls=5):
    """Random finite wallspaces; their duals realize arbitrary small
    CAT(0) cube complexes."""
    n = draw(st.integers(min_value=2, max_value=max_points))
    points = [f"p{i}" for i in range(n)]
    k = draw(st.integers(min_value=1, max_value=max_walls))
    walls = []
    seen = set()
    for _ in range(k):
        bits = draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda bs: any(bs) and not all(bs)
            )
        )
        side = frozenset(p for p, b in zip(points, bits) if b)
        other = frozenset(points) - side
        key = min(
            (tuple(sorted(side)), tuple(sorted(other))),
            (tuple(sorted(other)), tuple(sorted(side))),
        )
        if key not in seen:
            seen.add(key)
            walls.append((side, other))
    return Wallspace.from_data(points, walls)


def six_point_walls(*sides):
    """The points p0..p5 and one wall per side, given by its point digits."""
    points = [f"p{i}" for i in range(6)]
    walls = [
        ({f"p{c}" for c in side}, {p for p in points if p[1] not in side})
        for side in sides
    ]
    return points, walls


def pairwise_crossing_walls(k):
    """The points z, e_i and e_i_j (i < j < k) and k walls, wall i holding
    the points whose name contains i on one side: every two walls cross, so
    all 2**k orientations are consistent."""
    indices = {"z": ()}
    indices.update((f"e_{i}", (i,)) for i in range(k))
    indices.update(
        (f"e_{i}_{j}", (i, j)) for i, j in itertools.combinations(range(k), 2)
    )
    walls = [
        ({p for p, ix in indices.items() if i in ix},
         {p for p, ix in indices.items() if i not in ix})
        for i in range(k)
    ]
    return list(indices), walls


# The integer tables of a complex: two builds of one graph, by any
# constructor, must agree on every one of them.
COMPLEX_TABLES = (
    "_order",
    "_int_edges",
    "_masks",
    "_vertex_of",
    "_down",
    "_wall_edges",
    "_crossing",
    "validation_report",
)


def assert_same_tables(built, reference):
    for table in COMPLEX_TABLES:
        assert getattr(built, table) == getattr(reference, table), table


def mixed_wallspaces(seed, per_class):
    """``per_class`` seeded wallspaces of at most three walls of each input
    class of the ``wallspace_mix`` bench workload, as ``(wallspace, rotation
    or None)``: plain or closed under a cyclic point rotation, the rotation
    inverting a wall or not, and dual dimension 1, 2 or 3."""
    rng, cfg = random.Random(seed), GeneratorConfig(max_walls=3)
    room = {
        (symmetric, inverting, dim): per_class
        for symmetric in (False, True)
        for inverting in (False, True)
        for dim in (1, 2, 3)
        if symmetric or not inverting
    }
    out = []
    for draw in range(20000):
        if not any(room.values()):
            return out
        symmetric = draw % 2 == 1
        ws, rotate = (cyclic_wallspace if symmetric else random_wallspace)(rng, cfg)
        if ws.wall_count > 3:
            continue
        info = dualize_details(ws)
        inverting = symmetric and not GroupAction(
            info.complex, [symmetry_automorphism(info, rotate)]
        ).is_inversion_free
        key = (symmetric, inverting, info.complex.dimension)
        if room.get(key):
            room[key] -= 1
            out.append((ws, rotate if symmetric else None))
    raise AssertionError(f"classes left unfilled: {room}")


def data_wallspace(name):
    """The wallspace of a file in ``tests/data`` and its symmetry mappings."""
    points, walls, syms = parse_wallspace((DATA / name).read_text())
    return Wallspace.from_data(points, walls), syms


# the 3-cube's points under S3 permuting the coordinates (order 6, inverting
# no wall) and under B3, which adds a reflection (order 48, inverting all)
NONABELIAN_WS = ("cube3_s3.ws", "cube3_b3.ws")


def coordinate_swap(cx, i, j) -> dict:
    """The transposition of coordinates i and j of tuple- or string-named
    vertices."""

    def swap(v):
        w = list(v)
        w[i], w[j] = w[j], w[i]
        return tuple(w) if isinstance(v, tuple) else "".join(w)

    return {v: swap(v) for v in cx.vertices}


def rotation(n: int, shift: int) -> dict:
    return {f"p{i}": f"p{(i + shift) % n}" for i in range(n)}


# Seven walls on six points whose dual is the 7-cube; the rotation by one
# inverts a wall, so the pipeline subdivides into 3^7 = 2187 vertices.
SEVEN_CUBE_SIDES = ("013", "014", "023", "024", "025", "034", "035")


def hypercube_complex(d: int) -> CubeComplex:
    """The d-cube with vertices named by their coordinate bitstrings."""
    if d == 0:
        return CubeComplex(["0"], [])
    vs = ["".join(b) for b in itertools.product("01", repeat=d)]
    es = [
        (u, v)
        for u, v in itertools.combinations(vs, 2)
        if sum(a != b for a, b in zip(u, v)) == 1
    ]
    return CubeComplex(vs, es)


def grid_complex(w: int, h: int) -> CubeComplex:
    """The w-by-h grid of squares."""
    vs = [(i, j) for i in range(w + 1) for j in range(h + 1)]
    es = [((i, j), (i + 1, j)) for i in range(w) for j in range(h + 1)]
    es += [((i, j), (i, j + 1)) for i in range(w + 1) for j in range(h)]
    return CubeComplex(vs, es)


def path_complex(n_edges: int) -> CubeComplex:
    vs = list(range(n_edges + 1))
    return CubeComplex(vs, [(i, i + 1) for i in range(n_edges)])


def box_complex(*sides: int) -> CubeComplex:
    """Product of paths: a solid box of cubes with the given side lengths."""
    vs = list(itertools.product(*(range(s + 1) for s in sides)))
    es = []
    for v in vs:
        for axis in range(len(sides)):
            if v[axis] < sides[axis]:
                w = v[:axis] + (v[axis] + 1,) + v[axis + 1 :]
                es.append((v, w))
    return CubeComplex(vs, es)


@pytest.fixture(scope="session")
def cube3():
    return hypercube_complex(3)


@pytest.fixture(scope="session")
def cube4():
    return hypercube_complex(4)


@pytest.fixture(scope="session")
def square():
    return hypercube_complex(2)


@pytest.fixture(scope="session")
def domino():
    return grid_complex(2, 1)


@pytest.fixture(scope="session")
def strip3():
    return grid_complex(3, 1)


@pytest.fixture(scope="session")
def tree4():
    return CubeComplex(["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("b", "c")])
