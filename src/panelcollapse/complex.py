"""Finite CAT(0) cube complexes represented by their median 1-skeleta.

A finite cube complex is CAT(0) exactly when its 1-skeleton is a median graph
and every induced hypercube subgraph is filled in, so the canonical
representation here is just (vertices, edges).  A constructed ``CubeComplex``
is immutable and always validated: connected, simple and median.  The median
condition already implies the flag condition and contractibility, so those
are not re-checked per build; the test suite checks them against a
brute-force reference.

A graph is recognised as median by local checks around one breadth-first
search from the first vertex.  Chepoi (2000, "Graphs of some CAT(0)
complexes") shows that a graph is median exactly when its square complex is
simply connected, it has no induced K2,3 and it satisfies the 3-cube
condition (three squares that pairwise share an edge and all share a vertex
lie in a 3-cube).  On a bipartite graph the quadrangle condition at one root
makes the square complex simply connected: the farthest vertex of any closed
walk can be pushed across a square towards the root.  Every median graph
satisfies that condition, so the checks in ``_median_squares`` decide
medianness exactly.  Only a rejected graph pays for the all-triples median
scan, which names the first violating triple.

Once a graph is accepted, every derived fact comes from its squares and wall
masks:

* the walls are the Djoković-Winkler classes of edges, the classes of the
  transitive closure of being opposite in a square;
* a vertex's mask is the set of walls separating it from the first vertex,
  read along any shortest path to it; the distance between two vertices is
  the number of walls in which their masks differ, and the median of three
  is the vertex whose mask is their bitwise majority;
* every cube has a unique corner farthest from the first vertex, and at each
  vertex every set of edges leading towards the first vertex spans a cube, so
  the cubes are enumerated exactly once each, together with their walls.

A build keeps only integer tables: the masks, each wall's edges, the cubes
and the square counts of crossing pairs.  An edge's wall is the one bit in
which its ends' masks differ.  Inside the package
a cube is the pair ``(base, axes)`` of the AND of its vertex masks and the
mask of its walls; its vertices are the masks ``base | s`` for the subsets
``s`` of ``axes``.  Signs, crossing sets, corner maps and convex hulls are
read off the masks.  The ``Hyperplane`` objects with their two sides, the
vertex-by-wall sign matrix, the ``Cube`` objects and the cubes' vertex sets
are built on first use and cached.  numpy serves only the sign matrix of
``vertex_signs()`` and the median scan of a rejected graph, and is imported
there, so a build never loads it.

Conventions used throughout the package:

* vertices are opaque hashable identifiers, ordered canonically (natural sort
  when comparable, by ``repr`` otherwise);
* an edge key is the pair ``(u, v)`` with ``u`` before ``v`` canonically;
* the public API identifies a cube by the frozenset of its vertices (in a
  median graph an induced hypercube is determined by its vertex set), which
  ``CubeComplex._key`` turns into the internal ``(base, axes)`` pair;
* walls are numbered by their canonically-first edge;
* each hyperplane splits the vertex set into a ``minus`` side (the one
  containing the canonically-first vertex of the complex) and a ``plus`` side.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    InternalInvariantError,
    InvalidComplexError,
    PreconditionError,
    StructuralError,
)

__all__ = [
    "Cube",
    "CubeComplex",
    "Hyperplane",
    "ValidationReport",
    "validate_graph",
]

# A rejected graph is handed to the median scan, which holds n * n * ceil(n / 8)
# bytes of interval bitsets, about 420 MB at this many vertices; larger graphs
# are refused before any table is allocated.
MAX_VERTICES = 1500


def canonical_vertex_order(vertices):
    """Sort opaque vertex ids: natural order when possible, else by repr."""
    vs = list(vertices)
    try:
        return sorted(vs)
    except TypeError:
        return sorted(vs, key=repr)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the CAT(0) checks on a finite graph.

    Only connectivity and the median condition are tested.  For a median
    graph the flag condition and Euler characteristic 1 follow, so
    ``flag_filled`` is True exactly when ``median`` is; ``cube_counts`` and
    ``euler_characteristic`` describe the cubes of a median graph and are
    ``()`` and ``None`` for any graph that is disconnected or not median.
    """

    vertex_count: int
    edge_count: int
    simple: bool
    connected: bool
    median: bool | None = None
    median_violation: tuple | None = None
    flag_filled: bool | None = None
    cube_counts: tuple[int, ...] = ()
    euler_characteristic: int | None = None

    @property
    def passed(self) -> bool:
        return (
            self.simple
            and self.connected
            and bool(self.median)
            and bool(self.flag_filled)
            and self.euler_characteristic == 1
        )

    def summary(self) -> str:
        if self.passed:
            return "valid"
        if not self.connected:
            return "graph is not connected"
        if self.median is False:
            return f"median check fails on triple {self.median_violation}"
        if self.euler_characteristic != 1:
            return f"Euler characteristic is {self.euler_characteristic}, not 1"
        return "invalid"


@dataclass(frozen=True)
class Hyperplane:
    """A wall: an equivalence class of edges under the opposite-in-a-square
    relation, together with the two halfspaces it separates."""

    id: int
    edges: frozenset
    minus: frozenset
    plus: frozenset
    _complex: "CubeComplex" = field(repr=False, compare=False)

    def side(self, sign: str) -> frozenset:
        return self.plus if sign == "+" else self.minus

    @property
    def carrier(self) -> tuple[frozenset, ...]:
        """All cubes (as vertex sets) containing an edge dual to this wall."""
        return self._complex.carrier(self.id)


@dataclass(frozen=True)
class Cube:
    """A single cube, with its corner map.

    ``corners[i]`` is the vertex whose signs on the cube's axes (crossing
    hyperplanes, ascending id) read off the binary digits of ``i``, most
    significant digit first, with 1 meaning the plus side.
    """

    vertices: frozenset
    axes: tuple[int, ...]
    corners: tuple

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def corner(self, bits) -> object:
        bits = tuple(bits)
        if len(bits) != len(self.axes):
            raise ValueError(f"expected {len(self.axes)} bits, got {len(bits)}")
        index = 0
        for b in bits:
            index = (index << 1) | (1 if b else 0)
        return self.corners[index]


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _structural_pass(vertices, edges):
    """Canonicalize raw data; raise StructuralError on malformed input."""
    order = canonical_vertex_order(vertices)
    if not order:
        raise StructuralError("vertex set is empty")
    seen = set()
    for v in order:
        if v in seen:
            raise StructuralError(f"duplicate vertex {v!r}")
        seen.add(v)
    ix = {v: i for i, v in enumerate(order)}
    edge_set = set()
    int_edges = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise StructuralError(f"edge {e!r} is not a pair") from None
        if u not in ix or v not in ix:
            raise StructuralError(f"edge {e!r} references an unknown vertex")
        if u == v:
            raise StructuralError(f"self-loop at vertex {u!r}")
        a, b = ix[u], ix[v]
        if a > b:
            a, b = b, a
        if (a, b) in edge_set:
            raise StructuralError(f"duplicate edge {u!r} {v!r}")
        edge_set.add((a, b))
    int_edges = sorted(edge_set)
    return tuple(order), ix, int_edges


def _distances(n, adj):
    """All-pairs BFS distances; -1 marks unreachable pairs."""
    import numpy as np

    dist = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] < 0:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
    return dist


def _median_scan(dist):
    """Check that every triple of vertices has exactly one median.

    Vectorized over the third coordinate: for each pair (u, v) the boolean
    matrix rows give interval membership, and a single numpy reduction counts
    medians for all w at once.  Interval rows are bit-packed when numpy
    supports popcounting.  Returns (ok, violating_triple_indices).
    """
    import numpy as np

    n = dist.shape[0]
    if n <= 2:
        return True, None
    d = dist.astype(np.int32)
    packed = hasattr(np, "bitwise_count")
    # interval[u][v, x] == True iff x lies on a geodesic from u to v
    intervals = []
    for u in range(n):
        rows = d[u][None, :] + d == d[u][:, None]
        intervals.append(np.packbits(rows, axis=1) if packed else rows)
    for u in range(n - 2):
        A_u = intervals[u]
        for v in range(u + 1, n - 1):
            row = A_u[v]
            block = A_u[v + 1 :] & intervals[v][v + 1 :] & row[None, :]
            if packed:
                counts = np.bitwise_count(block).sum(axis=1)
            else:
                counts = block.sum(axis=1)
            bad = np.nonzero(counts != 1)[0]
            if bad.size:
                return False, (u, v, v + 1 + int(bad[0]))
    return True, None


def _bfs(adj):
    """Breadth-first search from vertex 0: each vertex's level (-1 when
    unreachable), the vertices in the order reached, and each reached
    vertex's parent."""
    level = [-1] * len(adj)
    parent = [-1] * len(adj)
    level[0] = 0
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if level[w] < 0:
                level[w] = level[u] + 1
                parent[w] = u
                queue.append(w)
    return level, queue, parent


def _median_squares(adj, level, int_edges):
    """Decide by local checks whether a connected graph is median.

    With ``down[v]`` the neighbours of v one level nearer vertex 0, the graph
    is median exactly when

    1. every edge joins adjacent levels (it is bipartite);
    2. any two vertices of ``down[v]`` have exactly one common neighbour in
       their own ``down`` sets, which records a square with top v;
    3. no two vertices lie under two tops, and no vertex reaches a vertex two
       levels down along three paths (given 1 and 2, this excludes an
       induced K2,3);
    4. whenever three neighbours of a vertex c pairwise span squares with c,
       the three vertices opposite c have a common neighbour (the 3-cube
       condition).

    Returns the squares as ``(top, x, y, bottom)`` tuples, or None as soon as
    a check fails.
    """
    n = len(adj)
    if any(level[a] == level[b] for a, b in int_edges):
        return None
    down = [{w for w in adj[v] if level[w] < level[v]} for v in range(n)]
    squares = []
    tops = set()
    for v, below in enumerate(down):
        # the down-edges at a vertex of a median graph span a cube
        if 1 << len(below) > n:
            return None
        bottoms = set()
        for x, y in itertools.combinations(below, 2):
            common = down[x] & down[y]
            if len(common) != 1:
                return None
            (z,) = common
            pair = (x, y) if x < y else (y, x)
            # a second top over the pair, or a second pair over z, closes a K2,3
            if pair in tops or z in bottoms:
                return None
            tops.add(pair)
            bottoms.add(z)
            squares.append((v, x, y, z))
    # link[c][p][q] is the vertex opposite c in the square through p, c, q
    link = [{} for _ in range(n)]
    for t, x, y, b in squares:
        for c, p, q, o in ((t, x, y, b), (b, x, y, t), (x, t, b, y), (y, t, b, x)):
            link[c].setdefault(p, {})[q] = o
            link[c].setdefault(q, {})[p] = o
    for spans in link:
        for x, xs in spans.items():
            for y, o_xy in xs.items():
                if y < x:
                    continue
                ys = spans[y]
                for z, o_xz in xs.items():
                    if z > y and z in ys and not adj[o_xy] & adj[o_xz] & adj[ys[z]]:
                        return None
    return squares


def _walls_and_masks(order, int_edges, squares, queue, parent):
    """Walls and vertex masks of a median graph from its squares.

    The walls are the classes of edges under the transitive closure of being
    opposite in a square, numbered by their first edge.  Each vertex's mask
    is its parent's with the bit of the wall of the edge between them, so it
    holds the walls separating the vertex from vertex 0.  Returns the wall id
    of each edge, in ``int_edges`` order, the masks and the vertex of each
    mask; raises InternalInvariantError unless the masks are distinct and
    each edge's ends differ in exactly its wall's bit.
    """
    edge_index = {e: i for i, e in enumerate(int_edges)}
    root = list(range(len(int_edges)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    def index(a, b):
        return edge_index[(a, b) if a < b else (b, a)]

    for t, x, y, b in squares:
        root[find(index(t, x))] = find(index(y, b))
        root[find(index(t, y))] = find(index(x, b))
    ids = {}
    edge_wall = [ids.setdefault(find(i), len(ids)) for i in range(len(int_edges))]
    masks = [0] * len(order)
    for v in queue[1:]:
        u = parent[v]
        masks[v] = masks[u] | 1 << edge_wall[index(u, v)]
    for (a, b), h in zip(int_edges, edge_wall):
        if masks[a] ^ masks[b] != 1 << h:
            raise InternalInvariantError(
                f"edge {order[a]!r} {order[b]!r} does not cross exactly its wall {h}"
            )
    vertex_of = {m: x for x, m in enumerate(masks)}
    if len(vertex_of) != len(masks):
        raise InternalInvariantError("two vertices have the same wall mask")
    return edge_wall, masks, vertex_of


def _cubes(level, int_edges, edge_wall, masks):
    """Every cube of a median graph, once, as its ``(base, axes)`` pair.

    A cube is found at its corner ``top`` farthest from vertex 0: the edges
    there that lead towards vertex 0 cross distinct walls, and any subset s
    of them spans the cube ``(top & ~s, s)``.  Returns one list per
    dimension, by top vertex, and each vertex's mask of those down-walls.
    """
    down = [0] * len(masks)
    for (a, b), h in zip(int_edges, edge_wall):
        down[b if level[a] < level[b] else a] |= 1 << h
    by_dim = [[] for _ in range(max(map(int.bit_count, down)) + 1)]
    for top, walls in zip(masks, down):
        for s in _subsets(walls):
            by_dim[s.bit_count()].append((top & ~s, s))
    return by_dim, down


def _bits(mask):
    """The positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subsets(mask):
    """Every submask of a mask, ascending."""
    out = [0]
    for h in _bits(mask):
        out += [s | 1 << h for s in out]
    return out


def _faces(cube, dim=None):
    """The faces of a ``(base, axes)`` cube, itself included, optionally of
    one dimension: each subset f of the axes, with the other axes fixed
    either way."""
    base, axes = cube
    for free in _subsets(axes):
        if dim is None or free.bit_count() == dim:
            for fixed in _subsets(axes ^ free):
                yield base | fixed, free


def _same_complex(a, b) -> bool:
    """Whether two complexes are one: the same object, or the same vertices
    and edges in the same order, which give the same tables."""
    return a is b or (a._order == b._order and a._int_edges == b._int_edges)


def _sign_matrix(masks, width):
    """The masks as a vertex-by-wall int8 matrix: +1 on a wall's plus side,
    -1 on its minus side."""
    import numpy as np

    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    bits = np.unpackbits(packed, axis=1, count=width, bitorder="little")
    return 2 * bits.astype(np.int8) - 1


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------


def validate_graph(vertices, edges) -> ValidationReport:
    """Run the CAT(0) battery on a raw graph and report the outcome.

    Structural defects (duplicates, self-loops, unknown endpoints) raise
    :class:`StructuralError`; everything else is reported, not raised.
    """
    order, ix, int_edges = _structural_pass(vertices, edges)
    return _analyze(order, int_edges)[0]


def _analyze(order, int_edges):
    n = len(order)
    if n > MAX_VERTICES:
        raise PreconditionError(
            f"graph has {n} vertices; the limit is {MAX_VERTICES}"
        )
    adj_sets = [set() for _ in range(n)]
    for a, b in int_edges:
        adj_sets[a].add(b)
        adj_sets[b].add(a)
    sizes = dict(vertex_count=n, edge_count=len(int_edges), simple=True)
    level, queue, parent = _bfs(adj_sets)
    if len(queue) < n:
        return ValidationReport(**sizes, connected=False), None
    squares = _median_squares(adj_sets, level, int_edges)
    if squares is None:
        # name the first triple without exactly one median
        median_ok, violation = _median_scan(_distances(n, adj_sets))
        if median_ok:
            raise InternalInvariantError(
                "the local median checks reject a graph the median scan accepts"
            )
        report = ValidationReport(
            **sizes,
            connected=True,
            median=False,
            median_violation=tuple(order[i] for i in violation),
        )
        return report, None
    edge_wall, masks, vertex_of = _walls_and_masks(
        order, int_edges, squares, queue, parent
    )
    cubes, down = _cubes(level, int_edges, edge_wall, masks)
    cube_counts = tuple(map(len, cubes))
    report = ValidationReport(
        **sizes,
        connected=True,
        median=True,
        flag_filled=True,
        cube_counts=cube_counts,
        euler_characteristic=sum((-1) ** d * c for d, c in enumerate(cube_counts)),
    )
    return report, (adj_sets, edge_wall, masks, vertex_of, cubes, down)


class CubeComplex:
    """A validated finite CAT(0) cube complex, immutable once built.

    Besides the public views, a complex keeps integer tables that the panel,
    collapse and symmetry modules read: ``_masks[i]`` is the bitmask of walls
    with vertex ``i`` on their plus side (``_vertex_of`` maps each mask back
    to its vertex index), ``_down[i]`` is the mask of the walls of i's edges
    towards vertex 0, ``_wall_edges[h]`` lists the index pairs of wall
    ``h``'s edges (an edge's wall, ``_wall_of``, is read off its ends'
    masks), ``_cubes[d]`` lists the d-cubes as ``(base, axes)`` pairs
    in table order, and ``_square_counts`` maps each crossing pair
    ``(h, e)``, ``h < e``, to the number of squares dual to both walls
    (``_crossing_pairs`` lists those pairs in order).  The public
    views take and return cubes as vertex sets, converted by ``_key`` and
    ``_vertex_set``; they, the ``Hyperplane`` objects, the sign matrix and
    the maximal cubes are built on first use.
    """

    def __init__(self, vertices, edges):
        order, ix, int_edges = _structural_pass(vertices, edges)
        report, internals = _analyze(order, int_edges)
        if not report.passed:
            raise InvalidComplexError(report)
        self._order = order
        self._ix = ix
        self._int_edges = int_edges
        (self._adj_int, edge_wall, masks, self._vertex_of, self._cubes,
         self._down) = internals
        self.validation_report = report
        self._masks = masks
        self._compute_hyperplanes(edge_wall)
        squares = self._cubes[2] if len(self._cubes) > 2 else ()
        self._square_counts = Counter(sorted(tuple(_bits(axes)) for _, axes in squares))
        self._crossing_pairs = tuple(self._square_counts)
        self._hyperplanes = None
        self._signs = None
        self._maximal = None
        self._vertex_sets = {}
        self._cube_objects = {}

    def _compute_hyperplanes(self, edge_wall):
        """The wall table: each wall's edges as index pairs, in edge order."""
        self._wall_edges = [[] for _ in range(max(edge_wall, default=-1) + 1)]
        for e, h in zip(self._int_edges, edge_wall):
            self._wall_edges[h].append(e)

    def _wall_of(self, a: int, b: int) -> int:
        """The wall of the edge between vertex indices a and b: the one bit
        in which their masks differ."""
        return (self._masks[a] ^ self._masks[b]).bit_length() - 1

    # -- basic structure ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._order

    @property
    def n(self) -> int:
        return len(self._order)

    @property
    def edges(self) -> tuple:
        return tuple((self._order[a], self._order[b]) for a, b in self._int_edges)

    @property
    def dimension(self) -> int:
        return len(self._cubes) - 1

    @property
    def cube_counts(self) -> tuple[int, ...]:
        return self.validation_report.cube_counts

    @property
    def euler_characteristic(self) -> int:
        return self.validation_report.euler_characteristic

    def index(self, v) -> int:
        try:
            return self._ix[v]
        except KeyError:
            raise StructuralError(f"unknown vertex {v!r}") from None

    def __contains__(self, v) -> bool:
        return v in self._ix

    def neighbors(self, v) -> frozenset:
        return frozenset(self._order[w] for w in self._adj_int[self.index(v)])

    def edge_key(self, u, v) -> tuple:
        """Canonical form of the edge {u, v}; raises if it is not an edge."""
        a, b = self.index(u), self.index(v)
        if a > b:
            a, b = b, a
            u, v = v, u
        if b not in self._adj_int[a]:
            raise StructuralError(f"{u!r} {v!r} is not an edge")
        return (u, v)

    def distance(self, u, v) -> int:
        return (self._masks[self.index(u)] ^ self._masks[self.index(v)]).bit_count()

    # -- cubes ---------------------------------------------------------------

    def _key(self, vs) -> tuple[int, int]:
        """The ``(base, axes)`` pair of the cube with vertex set ``vs``.

        With ``lo`` the AND and ``hi`` the OR of the vertex masks, every mask
        of a cube lies between them, so the set is a cube exactly when it has
        ``2 ** popcount(hi ^ lo)`` vertices: then every mask in between is a
        vertex, and vertices whose masks differ in one bit are adjacent.
        """
        lo, hi = -1, 0
        for v in vs:
            m = self._masks[self.index(v)]
            lo &= m
            hi |= m
        if not vs or len(vs) != 1 << (hi ^ lo).bit_count():
            raise StructuralError(f"{set(vs)} is not a cube")
        return lo, hi ^ lo

    def _vertex_set(self, cube) -> frozenset:
        """The vertices of a ``(base, axes)`` cube."""
        base, axes = cube
        order, vertex_of = self._order, self._vertex_of
        return frozenset([order[vertex_of[base | s]] for s in _subsets(axes)])

    def _dim_cubes(self, dim: int) -> list:
        """The ``dim``-cubes (none beyond the dimension)."""
        return self._cubes[dim] if 0 <= dim < len(self._cubes) else []

    def cube_vertexsets(self, dim: int) -> tuple[frozenset, ...]:
        """Vertex sets of all ``dim``-cubes (empty beyond the dimension)."""
        if dim not in self._vertex_sets:
            self._vertex_sets[dim] = tuple(map(self._vertex_set, self._dim_cubes(dim)))
        return self._vertex_sets[dim]

    def cubes(self, dim: int) -> tuple[Cube, ...]:
        if dim not in self._cube_objects:
            out = []
            for base, axes in self._dim_cubes(dim):
                # the first axis is the most significant digit of a corner's index
                masks = [base]
                for h in _bits(axes):
                    masks = [m | bit for m in masks for bit in (0, 1 << h)]
                corners = tuple(self._order[self._vertex_of[m]] for m in masks)
                out.append(Cube(frozenset(corners), tuple(_bits(axes)), corners))
            self._cube_objects[dim] = tuple(out)
        return self._cube_objects[dim]

    def all_cube_vertexsets(self):
        for d in range(len(self._cubes)):
            yield from self.cube_vertexsets(d)

    def _maximal_cubes(self) -> tuple[tuple[int, int], ...]:
        """The cubes not properly contained in any other cube, by dimension
        descending, then by top vertex (table order).

        With ``down[t]`` the walls of t's edges towards vertex 0, the cubes
        topped by t are ``(t & ~s, s)`` for s ⊆ ``down[t]``.  Such a cube lies
        in a larger cube exactly when s ⊊ ``down[t]``, or some up-neighbour
        ``u = t | 1 << h`` has s ⊆ ``down[u]``: a larger cube has a face one
        dimension up containing the cube, spanned by one more wall h at t,
        and that face is topped by t when h ∈ ``down[t]`` and by u otherwise
        (and u's down-walls then hold s and h).  So each vertex tops at most
        one maximal cube, ``(t & ~down[t], down[t])``, exactly when no
        up-neighbour's down-walls contain ``down[t]``; one look at every
        edge finds them all.
        """
        if self._maximal is None:
            masks, down = self._masks, self._down
            by_dim = [[] for _ in self._cubes]
            for t, (top, walls) in enumerate(zip(masks, down)):
                if not any(
                    masks[u] > top and not walls & ~down[u] for u in self._adj_int[t]
                ):
                    by_dim[walls.bit_count()].append((top & ~walls, walls))
            self._maximal = tuple(c for cubes in reversed(by_dim) for c in cubes)
        return self._maximal

    def maximal_cubes(self) -> tuple[frozenset, ...]:
        """Vertex sets of the maximal cubes, in ``_maximal_cubes`` order."""
        return tuple(map(self._vertex_set, self._maximal_cubes()))

    def cube_edges(self, vs: frozenset) -> tuple:
        """Edge keys of the cube with vertex set ``vs``: its 1-faces."""
        return tuple(
            self.edge_key(*self._vertex_set(e)) for e in _faces(self._key(vs), 1)
        )

    def cube_axes(self, vs: frozenset) -> frozenset:
        """Hyperplane ids crossing the cube ``vs``."""
        return frozenset(_bits(self._key(vs)[1]))

    def subcubes(self, vs: frozenset, dim: int | None = None):
        """All faces of the cube ``vs`` (including itself), optionally of one
        dimension."""
        return map(self._vertex_set, _faces(self._key(vs), dim))

    def codim1_faces(self, vs: frozenset):
        cube = self._key(vs)
        return map(self._vertex_set, _faces(cube, cube[1].bit_count() - 1))

    # -- hyperplanes ----------------------------------------------------------

    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        if self._hyperplanes is None:
            order = self._order
            plus = [[] for _ in self._wall_edges]
            for v, mask in zip(order, self._masks):
                for h in _bits(mask):
                    plus[h].append(v)
            everything = frozenset(order)
            self._hyperplanes = tuple(
                Hyperplane(
                    id=h_id,
                    edges=frozenset((order[a], order[b]) for a, b in es),
                    minus=everything.difference(side),
                    plus=frozenset(side),
                    _complex=self,
                )
                for h_id, (es, side) in enumerate(zip(self._wall_edges, plus))
            )
        return self._hyperplanes

    def hyperplane(self, h_id: int) -> Hyperplane:
        return self.hyperplanes()[h_id]

    def vertex_signs(self) -> "numpy.ndarray":
        """Matrix of halfspace signs, rows by vertex index, columns by wall
        id, as int8: +1 on a wall's plus side, -1 on its minus side."""
        if self._signs is None:
            self._signs = _sign_matrix(self._masks, len(self._wall_edges))
        return self._signs

    def sign(self, v, h_id: int) -> int:
        if not 0 <= h_id < len(self._wall_edges):
            raise IndexError(f"no wall {h_id}")
        return 1 if self._masks[self.index(v)] >> h_id & 1 else -1

    def dual_hyperplane(self, u, v) -> int:
        """Wall id of an edge."""
        u, v = self.edge_key(u, v)
        return self._wall_of(self._ix[u], self._ix[v])

    def carrier(self, h_id: int) -> tuple[frozenset, ...]:
        """Cubes (all dimensions) containing an edge dual to wall ``h_id``."""
        return tuple(
            self._vertex_set(c)
            for cubes in self._cubes
            for c in cubes
            if c[1] >> h_id & 1
        )

    # -- metric / convexity ----------------------------------------------------

    def crossing_set(self, u, v) -> frozenset:
        """Walls separating u from v; its size equals the graph distance."""
        return frozenset(_bits(self._masks[self.index(u)] ^ self._masks[self.index(v)]))

    def median(self, u, v, w):
        """The vertex on the majority side of every wall."""
        a, b, c = (self._masks[self.index(x)] for x in (u, v, w))
        try:
            return self._order[self._vertex_of[a & b | a & c | b & c]]
        except KeyError:
            raise InternalInvariantError(
                f"median of ({u!r}, {v!r}, {w!r}) is not a vertex"
            ) from None

    def convex_hull(self, vertex_set) -> frozenset:
        """Smallest median-closed vertex set containing the input: cut out by
        every halfspace containing it.  The plus sides containing the set
        are the bits of the AND of its masks, the minus sides those missing
        from the OR."""
        ms = [self._masks[self.index(v)] for v in vertex_set]
        if not ms:
            raise StructuralError("convex hull of an empty set")
        all_plus, any_plus = ms[0], ms[0]
        for m in ms:
            all_plus &= m
            any_plus |= m
        return frozenset(
            v
            for v, m in zip(self._order, self._masks)
            if m & all_plus == all_plus and not m & ~any_plus
        )

    def is_tree(self) -> bool:
        return self.dimension <= 1

    # -- misc -------------------------------------------------------------------

    def __repr__(self):
        return (
            f"CubeComplex(V={self.n}, E={len(self._int_edges)}, "
            f"dim={self.dimension})"
        )
