"""Finite CAT(0) cube complexes represented by their median 1-skeleta.

A finite cube complex is CAT(0) exactly when its 1-skeleton is a median graph
and every induced hypercube subgraph is filled in, so the canonical
representation here is just (vertices, edges).  A constructed ``CubeComplex``
is immutable and always validated: connected, simple and median.  The median
condition already implies the flag condition and contractibility, so those
are not re-checked per build; the test suite checks them against a
brute-force reference.

A graph is recognised as median by ``_median_walls``, in two passes over
a breadth-first search from the first vertex.  It labels the walls from each
vertex's neighbours nearer the root, as Hagauer, Imrich and Klavžar (1999,
"Recognizing median graphs in subquadratic time") do, and decides
medianness exactly by the local conditions of Chepoi (2000, "Graphs of
some CAT(0) complexes"): a square under every pair of down-edges, no
induced K2,3 and the 3-cube condition.  The labels exclude K2,3 once they
are distinct and every edge flips one bit of them, and the other two
conditions are read off them: a square under a pair of down-edges is one
mask test per down-edge, and the 3-cube condition is checked at the bottom
corner of each square.  Only a rejected graph pays for the all-triples
median scan, which names the first violating triple.  Every derived fact
comes from the labels:

* the walls are the Djoković-Winkler classes of edges, the classes of the
  transitive closure of being opposite in a square;
* a vertex's mask is the set of walls separating it from the first vertex;
  the distance between two vertices is the number of walls in which their
  masks differ, and the median of three is the vertex whose mask is their
  bitwise majority;
* every cube has a unique corner farthest from the first vertex, and at each
  vertex every set of k edges leading towards the first vertex (its
  down-walls) spans a cube, so a vertex with k down-walls tops C(k, d)
  d-cubes: the cube counts are a closed form in the down-wall counts, and
  the d-cubes can be listed once each, together with their walls.

A complex is built in one of two ways, which share the validation and the
tables.  The public constructor sorts the vertices canonically, indexes them
and checks every edge (``_structural_pass``).  The private
``CubeComplex._with_edges`` builds a complex on an existing complex's vertex
table and index dict, for a collapse output, which keeps the vertex set: it
takes index pairs ``(a, b)`` with ``a < b``, sorted and without duplicates,
as the structural pass gives them, and neither sorts nor checks them again.
Both run the full recogniser, so every complex is validated.

A build keeps only integer tables: the masks, each vertex's down-walls,
each wall's edges and the square counts of crossing pairs, counted from the
squares the recogniser records.  It lists no cube.  An edge's wall is the
one bit in which its ends' masks differ.  Inside the package a cube is the
pair ``(base, axes)`` of the AND of its vertex masks and the mask of its
walls; its vertices are the masks ``base | s`` for the subsets ``s`` of
``axes``.  Signs, crossing sets and convex hulls are read off the masks.
The list of one dimension's cubes, the table of every cube, the maximal
cubes, a table of one byte per vertex and wall (the masks written in
binary), the ``Hyperplane`` objects with their two sides, the vertex-by-wall
sign matrix and the cubes' vertex sets are built on first use and cached.
A wall's plus side is one column of the byte table, and the sign matrix of
``vertex_signs()`` is the whole table, read by numpy.  numpy serves only
that matrix and the median scan of a rejected graph, and is imported
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

import functools
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import (
    InternalInvariantError,
    InvalidComplexError,
    PreconditionError,
    StructuralError,
)

__all__ = [
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

    The graph is simple: duplicate edges, self-loops and unknown endpoints
    raise before a report exists.  The recogniser decides connectivity and
    the median condition, and a graph passes exactly when it has both.  A
    median graph is flag and has Euler characteristic 1, so ``flag_filled``
    is True exactly when ``median`` is, and ``euler_characteristic`` is the
    alternating sum of ``cube_counts``; both are None, and ``cube_counts``
    is ``()``, for any graph that is disconnected or not median.
    """

    vertex_count: int
    edge_count: int
    connected: bool
    median: bool | None = None
    median_violation: tuple | None = None
    cube_counts: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return self.connected and bool(self.median)

    @property
    def flag_filled(self) -> bool | None:
        return self.median or None

    @property
    def euler_characteristic(self) -> int | None:
        if not self.median:
            return None
        return sum((-1) ** d * c for d, c in enumerate(self.cube_counts))

    def summary(self) -> str:
        if self.passed:
            return "valid"
        if not self.connected:
            return "graph is not connected"
        return f"median check fails on triple {self.median_violation}"


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

    Vectorized over the third coordinate: for each pair (u, v) the
    bit-packed matrix rows give interval membership, and a single numpy
    popcount reduction counts medians for all w at once.  Returns
    (ok, violating_triple_indices).
    """
    import numpy as np

    n = dist.shape[0]
    if n <= 2:
        return True, None
    d = dist.astype(np.int32)
    # bit x of intervals[u][v] is set iff x lies on a geodesic from u to v
    intervals = [
        np.packbits(d[u][None, :] + d == d[u][:, None], axis=1) for u in range(n)
    ]
    for u in range(n - 2):
        A_u = intervals[u]
        for v in range(u + 1, n - 1):
            row = A_u[v]
            block = A_u[v + 1 :] & intervals[v][v + 1 :] & row[None, :]
            counts = np.bitwise_count(block).sum(axis=1)
            bad = np.nonzero(counts != 1)[0]
            if bad.size:
                return False, (u, v, v + 1 + int(bad[0]))
    return True, None


def _bfs(adj):
    """Breadth-first search from vertex 0: each vertex's level (-1 when
    unreachable) and the vertices in the order reached."""
    level = [-1] * len(adj)
    level[0] = 0
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if level[w] < 0:
                level[w] = level[u] + 1
                queue.append(w)
    return level, queue


def _median_walls(adj, level, queue, int_edges):
    """Decide by local checks whether a connected graph is median, and label
    its walls on the way.

    Chepoi (2000) shows that a graph is median exactly when its square
    complex is simply connected, it has no induced K2,3 and it satisfies the
    3-cube condition.  On a bipartite graph the quadrangle condition at one
    root makes the square complex simply connected: the farthest vertex of
    any closed walk can be pushed across a square towards the root, and
    every median graph satisfies it.  So with the down-neighbours of v its
    neighbours one level nearer vertex 0, the graph is median exactly when

    1. every edge joins adjacent levels (it is bipartite);
    2. any two down-neighbours of a vertex have a common down-neighbour,
       which makes a square with that vertex as its top;
    3. the wall labels flip one bit on every edge and are distinct, which
       excludes an induced K2,3;
    4. whenever three neighbours of a vertex c pairwise span squares with c,
       the three vertices opposite c have a common neighbour (the 3-cube
       condition).

    The labels are wall masks, given in BFS order from the down-neighbours:
    with one, that neighbour's mask and a fresh wall; with more, the OR of
    the first two's.  In a median graph these are the Djoković-Winkler
    classes (Hagauer, Imrich and Klavžar 1999).  A graph is rejected unless
    each down-edge flips at most one bit and the final labels, the masks
    with their walls renumbered (below), are distinct.  While every flip is
    one bit, by induction in BFS order a mask's popcount is its vertex's
    level, so every edge adds one bit upwards.  At the first down-edge that
    flips none, the top's mask has the popcount of the level below, so its
    first two down-neighbours share one mask, and one label.  A common
    neighbour of vertices labelled p ≠ q is then labelled p ^ a or p ^ b,
    where {a, b} = p ^ q, so distinct labels allow at most two common
    neighbours.  That rules out a K2,3, two tops over a pair, two common
    down-neighbours of a pair and three paths to a vertex two levels down.

    Checks 2 to 4 read the final labels.  The walls are renumbered by their
    first edge in ``int_edges``, and each mask is rebuilt as its first
    down-neighbour's OR its down-walls.  With distinct labels, the only
    vertex one bit below both m ^ p and m ^ q, the down-neighbours of m
    across walls p and q, is m ^ p ^ q.  So check 2 holds at m exactly
    when, for each down-neighbour x across p, every other down-wall of m is
    a down-wall of x: one mask test per down-edge, made as the labels are
    rebuilt.  It may run before the labels are known distinct, since a
    graph whose labels are not is rejected either way.  Each square is
    recorded once, as its top and its two walls.

    Given check 3, the four flips around a square cancel and the two at a
    corner differ, so all four corners see the same two walls.  Three
    neighbours of c that pairwise span squares with c are then reached
    across three walls that pairwise cross: a triangle in the crossing
    graph, which has an edge for the two walls of each square.  So check 4
    (``_three_cube_condition``) runs last, and only when one pass over the
    crossing pairs finds a triangle.  A 2-dimensional complex has none, and
    collapse never raises dimension.
    Returns the wall of each edge, in ``int_edges`` order, the labels, the
    vertex of each label, each vertex's mask of down-walls and the number of
    squares dual to each crossing pair of walls, keyed by the pair's mask,
    or None as soon as a check fails.
    """
    n = len(adj)
    below = [[] for _ in range(n)]  # the down-neighbours, ascending
    for a, b in int_edges:
        if level[a] < level[b]:
            below[b].append(a)
        elif level[b] < level[a]:
            below[a].append(b)
        else:
            return None
    masks = [0] * n
    fresh = 1
    for v in queue[1:]:
        xs = below[v]
        if len(xs) == 1:
            masks[v] = masks[xs[0]] | fresh
            fresh <<= 1
            continue
        # the down-edges at a vertex of a median graph span a cube
        if 1 << len(xs) > n:
            return None
        mask = masks[v] = masks[xs[0]] | masks[xs[1]]
        for x in xs:
            flip = mask ^ masks[x]
            if flip & (flip - 1):
                return None
    ids = {}
    edge_wall = [ids.setdefault(masks[a] ^ masks[b], len(ids)) for a, b in int_edges]
    final = [0] * n
    down_walls = [0] * n
    squares = []
    for v in queue[1:]:
        xs = below[v]
        if len(xs) == 1:
            walls = down_walls[v] = 1 << ids[masks[v] ^ masks[xs[0]]]
            final[v] = final[xs[0]] | walls
            continue
        flips = [1 << ids[masks[v] ^ masks[x]] for x in xs]
        walls = down_walls[v] = sum(flips)
        final[v] = final[xs[0]] | walls
        # check 2: each down-neighbour has an edge down on the other walls
        for x, p in zip(xs, flips):
            if walls & ~p & ~down_walls[x]:
                return None
        squares += [(v, p, q) for p, q in itertools.combinations(flips, 2)]
    vertex_of = {m: x for x, m in enumerate(final)}
    if len(vertex_of) < n:
        return None
    square_counts = Counter(p | q for _, p, q in squares)
    crossing = defaultdict(int)  # the walls crossing each wall
    triangle = False
    for pair in square_counts:
        # a triangle is found at the last of its three pairs
        p, q = pair & -pair, pair & (pair - 1)
        triangle = triangle or crossing[p] & crossing[q] != 0
        crossing[p] |= q
        crossing[q] |= p
    if triangle and not _three_cube_condition(adj, squares, final, vertex_of):
        return None
    return edge_wall, final, vertex_of, down_walls, square_counts


def _three_cube_condition(adj, squares, labels, vertex_of):
    """Whether three neighbours of a vertex c that pairwise span squares
    with c always have opposite vertices with a common neighbour, read off
    labels that are distinct and flip one bit on every edge, on a graph
    that satisfies the quadrangle condition (check 2 of ``_median_walls``).

    Each neighbour of c, labelled m, is then named by the wall bit of its
    edge, and the vertex opposite c in a square on walls p and q is labelled
    m ^ p ^ q.  A common neighbour of the vertices opposite c in the squares
    on p and q, on p and z and on q and z differs from each in one bit, so
    it can only be w = m ^ p ^ q ^ z, and it is one exactly when m ^ p ^ q
    has an edge on wall z, m ^ p ^ z one on q and m ^ q ^ z one on p.  With
    the link at c a map from each wall bit to the mask of walls that span a
    square with it there, it is enough to check, at the bottom corner b of
    each square, the one nearest vertex 0, that every wall spanning squares
    at b with both walls of the square is the wall of an edge at its top.
    By how many of p, q and z are down-walls at c:

    * none: c is the bottom of all three squares, whose checks give the
      three edges;
    * one, p: the square on q and z has c at its bottom, and its check
      gives the edge from m ^ q ^ z to w on p; then m ^ q ^ z has
      down-walls p, q and z, and the quadrangle condition there gives w's
      edges on q and z;
    * two, p and q: the up-neighbour m ^ z has down-walls p, q and z, as
      its squares with c show, so the quadrangle condition there gives w
      and its edges to m ^ z ^ p and m ^ z ^ q; at m ^ z ^ p, whose
      down-walls include q and z, it gives w's edge on z;
    * three: the quadrangle condition at c gives the vertices m ^ p ^ q,
      m ^ p ^ z and m ^ q ^ z, and at m ^ p and m ^ q it gives w and its
      three edges.

    Every square is in ``squares``, as ``(top, p, q)``: its labels are m,
    m ^ p, m ^ q and m ^ p ^ q, so it has one top, and two down-neighbours
    of the top have one common down-neighbour.  Its corners are read off
    ``vertex_of``.
    """
    link = [{} for _ in labels]
    for t, p, q in squares:
        m = labels[t]
        for c in (t, vertex_of[m ^ p], vertex_of[m ^ q], vertex_of[m ^ p ^ q]):
            spans = link[c]
            spans[p] = spans.get(p, 0) | q
            spans[q] = spans.get(q, 0) | p
    # the walls of each vertex's edges
    walls_at = [sum([m ^ labels[u] for u in near]) for m, near in zip(labels, adj)]
    for t, p, q in squares:
        b = vertex_of[labels[t] ^ p ^ q]
        if link[b][p] & link[b][q] & ~walls_at[t]:
            return False
    return True


def _cube_counts(down):
    """The number of cubes of each dimension of a median graph, from each
    vertex's mask of down-walls: a vertex with k down-walls tops C(k, d)
    d-cubes (see ``CubeComplex._dim_cubes``)."""
    tops = [0] * (max(map(int.bit_count, down)) + 1)  # by down-wall count
    for walls in down:
        tops[walls.bit_count()] += 1
    counts = [0] * len(tops)
    for k, c in enumerate(tops):
        for d in range(k + 1):
            counts[d] += c * math.comb(k, d)
    return tuple(counts)


def _bits(mask):
    """The positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subsets(mask):
    """Every submask of a mask, ascending."""
    out = [0]
    while mask:
        low = mask & -mask
        out += [s | low for s in out]
        mask ^= low
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


# the digits of a mask written in binary, as the bytes 0 and 1
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


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
    sizes = dict(vertex_count=n, edge_count=len(int_edges))
    level, queue = _bfs(adj_sets)
    if len(queue) < n:
        return ValidationReport(**sizes, connected=False), None
    tables = _median_walls(adj_sets, level, queue, int_edges)
    if tables is None:
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
    edge_wall, masks, vertex_of, down, square_counts = tables
    report = ValidationReport(
        **sizes, connected=True, median=True, cube_counts=_cube_counts(down)
    )
    return report, (adj_sets, edge_wall, masks, vertex_of, down, square_counts)


class CubeComplex:
    """A validated finite CAT(0) cube complex, immutable once built.

    Besides the public views, a complex keeps integer tables that the panel,
    collapse and symmetry modules read: ``_masks[i]`` is the bitmask of walls
    with vertex ``i`` on their plus side (``_vertex_of`` maps each mask back
    to its vertex index), ``_down[i]`` is the mask of the walls of i's edges
    towards vertex 0, ``_wall_edges[h]`` lists the index pairs of wall
    ``h``'s edges (an edge's wall, ``_wall_of``, is read off its ends'
    masks), and ``_square_counts`` maps the axes ``1 << h | 1 << e`` of
    each crossing pair to the number of squares dual to both walls
    (``_crossing_pairs`` lists those pairs as ``(h, e)``, ``h < e``, in
    order).  ``cube_counts`` is read off the down-walls in closed form.
    ``_dim_cubes(d)`` lists the d-cubes as ``(base, axes)`` pairs on first
    use, and ``_cubes`` holds every dimension's list for the few callers
    that walk every cube.  The public views take and return cubes as vertex
    sets, converted by ``_key`` and ``_vertex_set``; they, the byte table
    of sides, the ``Hyperplane`` objects, the sign matrix and the maximal
    cubes are built on first use.

    ``CubeComplex(vertices, edges)`` checks and canonicalizes raw data; the
    private ``_with_edges(int_edges)`` builds a complex on this one's vertex
    table from sorted, duplicate-free index pairs ``(a, b)`` with ``a < b``,
    skipping that pass.  Both validate the graph in full and build the same
    tables from the same edges.
    """

    def __init__(self, vertices, edges):
        self._setup(*_structural_pass(vertices, edges))

    def _with_edges(self, int_edges) -> "CubeComplex":
        """The complex on this complex's vertex table with the edges
        ``int_edges``, which must already be in ``_structural_pass`` form.
        The table and its index dict are shared; the graph is still
        validated in full, raising ``InvalidComplexError`` when it is not
        CAT(0)."""
        out = CubeComplex.__new__(CubeComplex)
        out._setup(self._order, self._ix, int_edges)
        return out

    def _setup(self, order, ix, int_edges):
        """Validate the graph and build the tables, for both constructors."""
        report, internals = _analyze(order, int_edges)
        if not report.passed:
            raise InvalidComplexError(report)
        self._order = order
        self._ix = ix
        self._int_edges = int_edges
        (self._adj_int, edge_wall, self._masks, self._vertex_of, self._down,
         self._square_counts) = internals
        self.validation_report = report
        self._compute_hyperplanes(edge_wall)
        self._hyperplanes = None
        self._signs = None
        self._maximal = None
        self._cube_lists = {}
        self._vertex_sets = {}

    def _compute_hyperplanes(self, edge_wall):
        """The wall table: each wall's edges as index pairs, in edge order."""
        self._wall_edges = [[] for _ in range(max(edge_wall, default=-1) + 1)]
        for e, h in zip(self._int_edges, edge_wall):
            self._wall_edges[h].append(e)

    @functools.cached_property
    def _crossing_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(map(tuple, map(_bits, self._square_counts))))

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
        return len(self.cube_counts) - 1

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
        """The ``dim``-cubes as ``(base, axes)`` pairs (none beyond the
        dimension), listed on first use.

        A cube is found at its corner ``top`` farthest from vertex 0: the
        edges there that lead towards vertex 0 cross distinct walls,
        ``_down[top]``, and any subset s of them spans the cube
        ``(top ^ s, s)``.  So each cube is listed once, by top vertex, then
        by axes ascending.
        """
        cubes = self._cube_lists.get(dim)
        if cubes is None:
            cubes = self._cube_lists[dim] = [
                (top ^ s, s)
                for top, walls in zip(self._masks, self._down)
                if walls.bit_count() >= dim >= 0
                for s in _subsets(walls)
                if s.bit_count() == dim
            ]
        return cubes

    @functools.cached_property
    def _cubes(self) -> tuple[list, ...]:
        """Every cube, as ``_dim_cubes(d)`` for each dimension d, for the
        callers that walk them all."""
        return tuple(map(self._dim_cubes, range(self.dimension + 1)))

    def cube_vertexsets(self, dim: int) -> tuple[frozenset, ...]:
        """Vertex sets of all ``dim``-cubes (empty beyond the dimension)."""
        if dim not in self._vertex_sets:
            self._vertex_sets[dim] = tuple(map(self._vertex_set, self._dim_cubes(dim)))
        return self._vertex_sets[dim]

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
        up-neighbour's down-walls contain ``down[t]``; one pass over the
        edges marks the vertices that some up-neighbour covers.
        """
        if self._maximal is None:
            masks, down = self._masks, self._down
            covered = bytearray(len(masks))
            for a, b in self._int_edges:
                if masks[a] > masks[b]:
                    a, b = b, a
                # b is the up-neighbour: its mask has the edge's wall
                if not down[a] & ~down[b]:
                    covered[a] = 1
            by_dim = [[] for _ in self.cube_counts]
            for t, (top, walls) in enumerate(zip(masks, down)):
                if not covered[t]:
                    by_dim[walls.bit_count()].append((top & ~walls, walls))
            self._maximal = tuple(c for cubes in reversed(by_dim) for c in cubes)
        return self._maximal

    def maximal_cubes(self) -> tuple[frozenset, ...]:
        """Vertex sets of the maximal cubes, in ``_maximal_cubes`` order."""
        return tuple(map(self._vertex_set, self._maximal_cubes()))

    def subcubes(self, vs: frozenset, dim: int | None = None):
        """All faces of the cube ``vs`` (including itself), optionally of one
        dimension."""
        return map(self._vertex_set, _faces(self._key(vs), dim))

    # -- hyperplanes ----------------------------------------------------------

    @functools.cached_property
    def _side_table(self) -> bytes:
        """One byte per vertex and wall, a row per vertex in index order: 1
        where the vertex lies on the wall's plus side, 0 on its minus side.
        A row is its vertex's mask written in binary, so wall h sits in
        column ``width - 1 - h``."""
        width = len(self._wall_edges)
        if not width:  # format writes at least one digit
            return b""
        spec = f"0{width}b"
        digits = "".join([format(m, spec) for m in self._masks])
        return digits.encode().translate(_BINARY_DIGITS)

    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        if self._hyperplanes is None:
            order, table = self._order, self._side_table
            width = len(self._wall_edges)
            everything = frozenset(order)
            hyperplanes = []
            for h_id, es in enumerate(self._wall_edges):
                column = table[width - 1 - h_id :: width]
                plus = frozenset(itertools.compress(order, column))
                hyperplanes.append(
                    Hyperplane(
                        id=h_id,
                        edges=frozenset([(order[a], order[b]) for a, b in es]),
                        minus=everything - plus,
                        plus=plus,
                        _complex=self,
                    )
                )
            self._hyperplanes = tuple(hyperplanes)
        return self._hyperplanes

    def vertex_signs(self) -> "numpy.ndarray":
        """Matrix of halfspace signs, rows by vertex index, columns by wall
        id, as int8: +1 on a wall's plus side, -1 on its minus side."""
        if self._signs is None:
            import numpy as np

            width = len(self._wall_edges)
            table = np.frombuffer(self._side_table, dtype=np.uint8)
            bits = table.reshape(self.n, width)[:, ::-1].astype(np.int8)
            self._signs = 2 * bits - 1
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
