"""Finite CAT(0) cube complexes represented by their median 1-skeleta.

A finite cube complex is CAT(0) exactly when its 1-skeleton is a median graph
and every induced hypercube subgraph is filled in, so the canonical
representation here is just (vertices, edges).  A constructed ``CubeComplex``
is immutable and always validated: connected, simple and median.  The median
condition already implies the flag condition and contractibility, so those
are not re-checked per build; the test suite checks them against a
brute-force reference.

A graph is recognised as median by ``_median_walls``, in one pass over a
breadth-first search from the first vertex, which finds the levels and the
neighbours nearer the root and gives each vertex a first label, and one
pass over the search's queue, which renumbers the walls.  It labels the
walls from each vertex's neighbours nearer the root, as Hagauer, Imrich and
Klavžar (1999, "Recognizing median graphs in subquadratic time") do, and
decides medianness exactly by the local conditions of Chepoi (2000, "Graphs
of some CAT(0) complexes"): a square under every pair of down-edges, no
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
``CubeComplex._from_indexed`` takes what that pass gives: a canonically
sorted vertex table without duplicates, its index dict, and the edges as
index pairs ``(a, b)`` with ``a < b``, sorted and without duplicates.  It
neither sorts nor checks them again.  Its three callers have them by
construction: a collapse output keeps its input's vertex table, and the dual
of a wallspace and the first subdivision of a complex name each orientation
or cube once, sort the names and join the indices of masks or cubes.  Both
constructors run the full recogniser, so every complex is validated.

A build keeps only integer tables: the masks, each vertex's down-walls,
each wall's edges, and the mask of the walls crossing each wall, which the
recogniser reads off the squares it meets.  It lists no cube.  An edge's
wall is the one bit in which its ends' masks differ.  Inside the package a
cube is the pair ``(base, axes)`` of the AND of its vertex masks and the
mask of its walls; its vertices are the masks ``base | s`` for the subsets
``s`` of ``axes``.  Signs, sides, crossing sets and convex hulls are read
off the masks.  Every list of cubes is read off the down-walls at the
cubes' tops.  The list of one dimension's cubes, the table of every cube,
the maximal cubes, the vertex-by-wall sign matrix and the cubes' vertex
sets are built on first use and cached.  The cubes, and the maximal cubes,
across a few walls are found from those walls' edges alone.  A
``Hyperplane`` is a view of one wall: its edges and its two sides, as
vertex names, are read off the wall's edges and the masks on first access.
The sign matrix of ``vertex_signs()`` is the masks written in binary with
the digits translated to -1 and +1, as an int8 ``memoryview``.  The package
uses the standard library only: the median scan of a rejected graph runs on
integer bitsets too.

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
import math
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

# A rejected graph is handed to the median scan, whose cached cone rows hold at
# most about n**3 / 16 bytes of bitsets, some 210 MB at this many vertices.
# The slowest case measured below the limit, on one core of a Xeon, is a
# 10x10x10 box less a corner, numbered so that the first violating triple lies
# in row 1045 of 1330: 40 s and 179 MB of peak RSS.  Larger graphs are refused
# before any table is allocated.
MAX_VERTICES = 1500

# the two sides of a wall: a vertex is on the plus side when its mask has
# the wall's bit set
SIDES = ("-", "+")


def _side_bit(side) -> int:
    """0 for the minus side, 1 for the plus side; raises
    ``PreconditionError`` for anything else: the one check of the entry
    points that take a side, as ``CubeComplex._require_walls`` is of those
    that take wall ids."""
    if side == "-":
        return 0
    if side == "+":
        return 1
    raise PreconditionError(f"side must be one of {SIDES}, got {side!r}")


def canonical_vertex_order(vertices):
    """Sort opaque vertex ids: natural order when possible, else by repr."""
    vs = list(vertices)
    try:
        return sorted(vs)
    except TypeError:
        return sorted(vs, key=repr)


def vertex_set_text(vertices) -> str:
    """A set of vertex ids as ``{'x', 'y'}``, in canonical order, so that a
    message naming it does not change with the hash seed."""
    return "{" + ", ".join(map(repr, canonical_vertex_order(vertices))) + "}"


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
    relation, together with the two halfspaces it separates.

    A view of wall ``id`` of its complex, built by ``hyperplanes()`` only:
    ``edges`` (edge keys), ``minus`` and ``plus`` (vertex sets) are read off
    the complex's ``_wall_edges`` and ``_masks`` on first access and cached.
    Two views are equal when they have the same id on the same complex
    object, which compares by identity.
    """

    id: int
    _complex: "CubeComplex" = field(repr=False)

    @functools.cached_property
    def edges(self) -> frozenset:
        cx = self._complex
        order = cx._order
        return frozenset([(order[a], order[b]) for a, b in cx._wall_edges[self.id]])

    @functools.cached_property
    def plus(self) -> frozenset:
        cx, h = self._complex, self.id
        return frozenset([v for v, m in zip(cx._order, cx._masks) if m >> h & 1])

    @functools.cached_property
    def minus(self) -> frozenset:
        cx, h = self._complex, self.id
        return frozenset([v for v, m in zip(cx._order, cx._masks) if not m >> h & 1])

    def side(self, sign: str) -> frozenset:
        return self.plus if _side_bit(sign) else self.minus

    @property
    def carrier(self) -> tuple[frozenset, ...]:
        """All cubes (as vertex sets) containing an edge dual to this wall."""
        return self._complex.carrier(self.id)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _check_size(n):
    """Refuse a graph of more than MAX_VERTICES vertices."""
    if n > MAX_VERTICES:
        raise PreconditionError(
            f"graph has {n} vertices; the limit is {MAX_VERTICES}"
        )


def _structural_pass(vertices, edges):
    """Canonicalize raw data; raise StructuralError on malformed input.  A
    graph of more than MAX_VERTICES vertices is refused once its vertices
    are sorted, before any edge is read."""
    order = canonical_vertex_order(vertices)
    if not order:
        raise StructuralError("vertex set is empty")
    _check_size(len(order))
    ix = {v: i for i, v in enumerate(order)}
    if len(ix) < len(order):
        seen = set()
        for v in order:
            if v in seen:
                raise StructuralError(f"duplicate vertex {v!r}")
            seen.add(v)
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


def _bfs(adj, root):
    """Breadth-first search from ``root``: each vertex's level (-1 when
    unreachable) and the vertices in the order reached."""
    level = [-1] * len(adj)
    level[root] = 0
    queue = [root]
    for u in queue:
        for w in adj[u]:
            if level[w] < 0:
                level[w] = level[u] + 1
                queue.append(w)
    return level, queue


def _median_scan(adj):
    """Name the first triple u < v < w of a connected graph, in
    lexicographic order, that does not have exactly one median; returns
    (ok, violating_triple_indices).

    The medians of (u, v, w) are the x in the interval I(u, v), the vertices
    on a geodesic from u to v, with w in both cones J(u, x) and J(v, x),
    where J(s, x) = {w : x in I(s, w)}.  A search from s gives both as
    bitsets: I(s, t) is t and the intervals of t's neighbours one level
    nearer s, and J(s, x) is x and the cones of x's neighbours one level
    farther, taken in reverse search order.  For each pair (u, v), a walk
    over the x in I(u, v) marks the w with one median or more and those with
    two or more, so the first violating w is the lowest bit above v that is
    unmarked or marked twice.  The walk skips each x whose cone from v holds
    no vertex above v.

    Only row u of the intervals is kept.  A vertex's cone row is built the
    first time a pair needs it and dropped once the scan passes it, and it
    keeps only the bits above its vertex, the only ones read.  So a first
    violation in row 0 costs one interval row and the cone rows up to it,
    and the cone rows hold the most, about n**3 / 16 bytes, once row 0
    passes.
    """
    n = len(adj)
    cones = {}

    def cone_row(s, level, queue):
        row = [1 << x for x in range(n)]
        for x in reversed(queue):
            farther = level[x] + 1
            for z in adj[x]:
                if level[z] == farther:
                    row[x] |= row[z]
        # bit k of row[x] is vertex s + 1 + k
        row = [j >> s + 1 for j in row]
        return row, sum([1 << x for x, j in enumerate(row) if j])

    for u in range(n - 2):
        level, queue = _bfs(adj, u)
        interval = [0] * n
        for t in queue:
            nearer = level[t] - 1
            acc = 1 << t
            for y in adj[t]:
                if level[y] == nearer:
                    acc |= interval[y]
            interval[t] = acc
        cone_u, _ = cones.pop(u, None) or cone_row(u, level, queue)
        for v in range(u + 1, n - 1):
            if v not in cones:
                cones[v] = cone_row(v, *_bfs(adj, v))
            cone_v, reach_v = cones[v]
            once = twice = 0
            for x in _bits(interval[v] & reach_v):
                both = cone_u[x] >> v - u & cone_v[x]
                twice |= once & both
                once |= both
            bad = (~once | twice) & ((1 << n - 1 - v) - 1)
            if bad:
                return False, (u, v, v + (bad & -bad).bit_length())
    return True, None


def _median_walls(adj, int_edges):
    """Decide by local checks whether a graph is connected and median, and
    label its walls on the way.

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

    One pass over the breadth-first search from vertex 0 finds the levels
    and the down-neighbours and gives each vertex a mask.  A vertex leaves
    the queue after every vertex of the level above it, so its
    down-neighbours are all known by then, in search order; the pass rejects
    an edge within a level (check 1) when it meets one.  The masks are
    given from the down-neighbours: with one, that neighbour's mask and a
    fresh wall; with more, the OR of the first two's.  In a median graph
    these are the Djoković-Winkler classes (Hagauer, Imrich and Klavžar
    1999).  A graph is rejected unless each down-edge flips at most one bit
    and the final labels, the masks with their walls renumbered (below),
    are distinct.  While every flip is one bit, by induction in search order
    a mask's popcount is its vertex's level, so every edge adds one bit
    upwards.  At the first down-edge that flips none, the top's mask has
    the popcount of the level below, so its first two down-neighbours share
    one mask, and one label.  A common neighbour of vertices labelled p ≠ q
    is then labelled p ^ a or p ^ b, where {a, b} = p ^ q, so distinct
    labels allow at most two common neighbours.  That rules out a K2,3, two
    tops over a pair, two common down-neighbours of a pair and three paths
    to a vertex two levels down.  The pass also bounds the span: k
    down-edges at a vertex of a median graph span a k-cube, of 2**k
    vertices.

    Checks 2 to 4 read the final labels.  The walls are renumbered by their
    first edge in ``int_edges``, and a second pass in search order gives
    each vertex its first down-neighbour's label with that edge's
    renumbered wall added: one lookup per vertex.  While every flip so far
    is one bit, a mask is its first down-neighbour's with that edge's bit
    added, so the label is the mask with its walls renumbered, and the wall
    of every other down-edge is the XOR of its ends' labels.  At the first
    flip of no bit, the labels of its top's first two down-neighbours are
    still renumbered masks, and equal, so the graph is rejected whatever
    the later labels hold.  With distinct labels, the only vertex one bit
    below both m ^ p and m ^ q, the down-neighbours of m across walls p and
    q, is m ^ p ^ q.  So check 2 holds at m exactly when, for each
    down-neighbour x across p, every other down-wall of m is a down-wall of
    x: one mask test per down-edge, made in the second pass.  It may run
    before the labels are known distinct, since a graph whose labels are
    not is rejected either way.  Each square is recorded once, as its top
    and the mask of its two walls, and each wall keeps the mask of the
    walls it shares a square with.  A vertex with k down-walls tops
    C(k, d) d-cubes (see ``CubeComplex._dim_cubes``), so the pass tallies
    the vertices by down-wall count for the cube counts.

    Given check 3, the four flips around a square cancel and the two at a
    corner differ, so all four corners see the same two walls.  Three
    neighbours of c that pairwise span squares with c are then reached
    across three walls that pairwise cross: a triangle in the crossing
    graph, which has an edge for the two walls of each square.  So check 4
    (``_three_cube_condition``) runs last, and only when one pass over the
    crossing pairs finds a triangle.  A 2-dimensional complex has none, and
    collapse never raises dimension.
    Returns the wall of each edge, in ``int_edges`` order, the labels, the
    vertex of each label, each vertex's mask of down-walls, the squares as
    ``(top, axes)`` pairs, by top in search order and then by pairs of its
    down-neighbours in search order, the mask of the walls crossing each
    wall and the cube counts; or None as soon as a check fails or the
    search misses a vertex.
    """
    n = len(adj)
    level = [-1] * n
    level[0] = 0
    below = [[] for _ in range(n)]  # the down-neighbours, in search order
    masks = [0] * n
    fresh = 1
    queue = [0]
    for u in queue:
        xs = below[u]
        if len(xs) == 1:
            masks[u] = masks[xs[0]] | fresh
            fresh <<= 1
        elif xs:
            # the down-edges at a vertex of a median graph span a cube
            if 1 << len(xs) > n:
                return None
            mask = masks[u] = masks[xs[0]] | masks[xs[1]]
            for x in xs:
                flip = mask ^ masks[x]
                if flip & (flip - 1):
                    return None
        here = level[u]
        for w in adj[u]:
            there = level[w]
            if there < 0:
                level[w] = here + 1
                queue.append(w)
                below[w].append(u)
            elif there > here:
                below[w].append(u)
            elif there == here:
                return None
    if len(queue) < n:
        return None
    ids = {}
    edge_wall = [ids.setdefault(masks[a] ^ masks[b], len(ids)) for a, b in int_edges]
    final = [0] * n
    down_walls = [0] * n
    squares = []
    # the vertices by down-wall count: the root has none, and a vertex with
    # more than one moves out of the count of ones when the pass meets it
    tops = [1, n - 1] + [0] * n.bit_length()
    for v in queue[1:]:
        xs = below[v]
        x = xs[0]
        wall = 1 << ids[masks[v] ^ masks[x]]
        label = final[v] = final[x] | wall
        if len(xs) == 1:
            down_walls[v] = wall
            continue
        tops[1] -= 1
        tops[len(xs)] += 1
        flips = []
        walls = 0
        for x in xs:
            p = label ^ final[x]
            for q in flips:
                squares.append((v, q | p))
            flips.append(p)
            walls |= p
        down_walls[v] = walls
        # check 2: each down-neighbour has an edge down on the other walls
        for x, p in zip(xs, flips):
            if walls & ~p & ~down_walls[x]:
                return None
    vertex_of = {m: x for x, m in enumerate(final)}
    if len(vertex_of) < n:
        return None
    crossing = [0] * len(ids)  # the walls crossing each wall
    triangle = False
    for pair in {axes for _, axes in squares}:
        # a triangle is found at the last of its three pairs
        p, q = pair & -pair, pair & (pair - 1)
        h, e = p.bit_length() - 1, q.bit_length() - 1
        triangle = triangle or crossing[h] & crossing[e] != 0
        crossing[h] |= q
        crossing[e] |= p
    if triangle and not _three_cube_condition(adj, squares, final, vertex_of, down_walls):
        return None
    while not tops[-1]:
        tops.pop()
    cube_counts = tuple(
        sum([c * math.comb(k, d) for k, c in enumerate(tops)]) for d in range(len(tops))
    )
    return edge_wall, final, vertex_of, down_walls, squares, crossing, cube_counts


def _three_cube_condition(adj, squares, labels, vertex_of, down):
    """Whether three neighbours of a vertex c that pairwise span squares
    with c always have opposite vertices with a common neighbour, read off
    labels that are distinct and flip one bit on every edge, on a graph
    that satisfies the quadrangle condition (check 2 of ``_median_walls``),
    with ``down`` each vertex's mask of down-walls.

    Each neighbour of c, labelled m, is then named by the wall bit of its
    edge, and the vertex opposite c in a square on walls p and q is labelled
    m ^ p ^ q.  A common neighbour of the vertices opposite c in the squares
    on p and q, on p and z and on q and z differs from each in one bit, so
    it can only be w = m ^ p ^ q ^ z, and it is one exactly when m ^ p ^ q
    has an edge on wall z, m ^ p ^ z one on q and m ^ q ^ z one on p.  It
    is enough to check, at the bottom corner b of each square, the one
    nearest vertex 0, with top t, that every wall z spanning squares at b
    with both walls p and q of the square is the wall of an edge at t.  By
    how many of p, q and z are down-walls at c:

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

    The labels split the check at b by where z leads from b.  A wall z up
    from b spans a square with p at b exactly when b is that square's
    bottom, so those z are read off a link kept at bottom corners only: for
    each wall up from b, the walls spanning a square there with it as the
    bottom.  Such a z is not in t's label, so it is a wall of t's edges
    exactly when t has an edge up on it.  A wall z down from b spans a
    square with p at b exactly when z is a down-wall of b's up-neighbour
    t ^ q across p: that square has its top there, and the quadrangle
    condition there gives the square for each of its down-walls but p.
    Likewise for q, so the walls down from b that span squares at b with
    both p and q are the down-walls of both t ^ q and t ^ p.  Such a z is
    in t's label, so it is a wall of t's edges exactly when it is a
    down-wall of t.

    Every square is in ``squares``, as ``(top, axes)`` with axes p | q: its
    labels are m, m ^ p, m ^ q and m ^ p ^ q, so it has one top, and two
    down-neighbours of the top have one common down-neighbour.  Its corners
    are read off ``vertex_of``.
    """
    link = [{} for _ in labels]
    for t, axes in squares:
        p, q = axes & -axes, axes & (axes - 1)
        spans = link[vertex_of[labels[t] ^ axes]]
        spans[p] = spans.get(p, 0) | q
        spans[q] = spans.get(q, 0) | p
    # the walls of each vertex's edges
    walls_at = [sum([m ^ labels[u] for u in near]) for m, near in zip(labels, adj)]
    for t, axes in squares:
        p, q, m = axes & -axes, axes & (axes - 1), labels[t]
        b = vertex_of[m ^ axes]
        if (link[b][p] & link[b][q] & ~walls_at[t]
                or down[vertex_of[m ^ p]] & down[vertex_of[m ^ q]] & ~down[t]):
            return False
    return True


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


# the digits of a mask written in binary as the int8 signs -1 and +1
_SIGNS = bytes.maketrans(b"01", b"\xff\x01")


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
    adj = [[] for _ in range(n)]  # ascending, as the edges are sorted
    for a, b in int_edges:
        adj[a].append(b)
        adj[b].append(a)
    sizes = dict(vertex_count=n, edge_count=len(int_edges))
    tables = _median_walls(adj, int_edges)
    if tables is None:
        if len(_bfs(adj, 0)[1]) < n:
            return ValidationReport(**sizes, connected=False), None
        # name the first triple without exactly one median
        median_ok, violation = _median_scan(adj)
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
    report = ValidationReport(**sizes, connected=True, median=True, cube_counts=tables[-1])
    return report, (adj, *tables[:-1])


class CubeComplex:
    """A validated finite CAT(0) cube complex, immutable once built.

    Besides the public views, a complex keeps integer tables that the panel,
    collapse and symmetry modules read: ``_masks[i]`` is the bitmask of walls
    with vertex ``i`` on their plus side (``_vertex_of`` maps each mask back
    to its vertex index), ``_down[i]`` is the mask of the walls of i's edges
    towards vertex 0, ``_wall_edges[h]`` lists the index pairs of wall
    ``h``'s edges (an edge's wall, ``_wall_of``, is read off its ends'
    masks), ``_adj_int[i]`` lists i's neighbours in ascending order, and
    ``_crossing[h]`` is the mask of the walls crossing wall h.
    ``cube_counts`` is tallied by the recogniser from the number of each
    vertex's down-walls, in closed form.  Every list of cubes, as
    ``(base, axes)`` pairs, is read off the down-walls at the cubes' tops:
    ``_dim_cubes(d)`` lists the d-cubes on first use, ``_cubes`` holds
    every dimension's list for the few callers that walk every cube, and
    ``_cubes_across(walls)`` lists the cubes with an axis in a wall mask
    at the upper ends of those walls' edges.  The public
    views take and return cubes as vertex sets, converted by ``_key`` and
    ``_vertex_set``; they, the sign matrix and the maximal cubes are built
    on first use.  ``hyperplanes()`` gives one ``Hyperplane`` view per wall,
    which reads its edges and sides off ``_wall_edges`` and ``_masks`` when
    they are first asked for.

    ``CubeComplex(vertices, edges)`` checks and canonicalizes raw data; the
    private ``_from_indexed(order, ix, int_edges)``, which builds collapse
    outputs, duals of wallspaces and subdivisions, takes data already in
    that form and skips that pass.  Both validate the graph in full and
    build the same tables from the same edges.
    """

    def __init__(self, vertices, edges):
        self._setup(*_structural_pass(vertices, edges))

    @classmethod
    def _from_indexed(cls, order, ix, int_edges) -> "CubeComplex":
        """The complex on the vertex table ``order``, whose index dict is
        ``ix``, with the edges ``int_edges``; all three must already be in
        ``_structural_pass`` form: ``order`` canonically sorted without
        duplicates, and the edges sorted, duplicate-free index pairs
        ``(a, b)`` with ``a < b``.  The table and dict are kept, not copied;
        the graph is still validated in full, raising
        ``InvalidComplexError`` when it is not CAT(0)."""
        _check_size(len(order))
        out = cls.__new__(cls)
        out._setup(order, ix, int_edges)
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
         _, self._crossing) = internals
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
        # two vertices are adjacent exactly when their masks differ in one bit
        if (self._masks[a] ^ self._masks[b]).bit_count() != 1:
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
            raise StructuralError(f"{vertex_set_text(vs)} is not a cube")
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

    def _maximal_topped_by(self, tops) -> tuple[tuple[int, int], ...]:
        """The maximal cubes topped by the vertices ``tops``, given in
        ascending order, by dimension descending, then by top vertex.

        With ``down[t]`` the walls of t's edges towards vertex 0, the cubes
        topped by t are ``(t & ~s, s)`` for s ⊆ ``down[t]``.  Such a cube lies
        in a larger cube exactly when s ⊊ ``down[t]``, or some up-neighbour
        ``u = t | 1 << h`` has s ⊆ ``down[u]``: a larger cube has a face one
        dimension up containing the cube, spanned by one more wall h at t,
        and that face is topped by t when h ∈ ``down[t]`` and by u otherwise
        (and u's down-walls then hold s and h).  So each vertex tops at most
        one maximal cube, ``(t & ~down[t], down[t])``, exactly when no
        up-neighbour's down-walls contain ``down[t]``.
        """
        masks, down, adj = self._masks, self._down, self._adj_int
        by_dim = [[] for _ in self.cube_counts]
        for t in tops:
            top, walls = masks[t], down[t]
            if not any([masks[u] > top and not walls & ~down[u] for u in adj[t]]):
                by_dim[walls.bit_count()].append((top & ~walls, walls))
        return tuple(c for cubes in reversed(by_dim) for c in cubes)

    def _maximal_cubes(self) -> tuple[tuple[int, int], ...]:
        """The cubes not properly contained in any other cube, by dimension
        descending, then by top vertex (table order)."""
        if self._maximal is None:
            self._maximal = self._maximal_topped_by(range(self.n))
        return self._maximal

    def _upper_ends(self, walls: int) -> list:
        """The upper ends, the ends on the plus side, of the edges of the
        walls in the mask ``walls``, ascending: the tops of the cubes with
        such an axis, as a cube's axes are among its top's down-walls."""
        masks, tops = self._masks, set()
        for h in _bits(walls):
            tops.update([b if masks[b] >> h & 1 else a for a, b in self._wall_edges[h]])
        return sorted(tops)

    def _cubes_across(self, walls: int) -> list:
        """The cubes with an axis in the mask ``walls``, as ``(base, axes)``
        pairs: the subsets of each upper end's down-walls that meet
        ``walls``, by top vertex, then by axes ascending."""
        masks, down = self._masks, self._down
        return [
            (masks[t] ^ s, s)
            for t in self._upper_ends(walls)
            for s in _subsets(down[t])
            if s & walls
        ]

    def _maximal_cubes_across(self, walls: int) -> tuple[tuple[int, int], ...]:
        """The maximal cubes with an axis in the mask ``walls``, in
        ``_maximal_cubes`` order.  A maximal cube's axes are its top's
        down-walls, so it has axis h exactly when its top is the upper end,
        the end on h's plus side, of an edge of h."""
        return self._maximal_topped_by(self._upper_ends(walls))

    def maximal_cubes(self) -> tuple[frozenset, ...]:
        """Vertex sets of the maximal cubes, in ``_maximal_cubes`` order."""
        return tuple(map(self._vertex_set, self._maximal_cubes()))

    def subcubes(self, vs: frozenset, dim: int | None = None):
        """All faces of the cube ``vs`` (including itself), optionally of one
        dimension."""
        return map(self._vertex_set, _faces(self._key(vs), dim))

    # -- hyperplanes ----------------------------------------------------------

    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """One view per wall, by id."""
        if self._hyperplanes is None:
            walls = range(len(self._wall_edges))
            self._hyperplanes = tuple(Hyperplane(h, self) for h in walls)
        return self._hyperplanes

    def vertex_signs(self) -> memoryview:
        """Matrix of halfspace signs, rows by vertex index, columns by wall
        id, as a read-only int8 view (format ``"b"``) of shape ``(n, walls)``:
        +1 on a wall's plus side, -1 on its minus side.  A row is its
        vertex's mask written in binary, least significant bit first, so
        wall h sits in column h, with the digits translated to signs; and
        ``numpy.asarray`` reads it without a copy.  A view cannot have a
        zero in its shape, so a complex with no wall, a single vertex, gets
        the empty view of shape ``(0,)``."""
        if self._signs is None:
            width = len(self._wall_edges)
            digits = ""
            if width:  # format writes at least one digit
                spec = f"0{width}b"
                # the rows in reverse, each most significant bit first, then reversed
                digits = "".join([format(m, spec) for m in reversed(self._masks)])[::-1]
            signs = memoryview(digits.encode().translate(_SIGNS))
            self._signs = signs.cast("b", (self.n, width)) if width else signs.cast("b")
        return self._signs

    def _require_walls(self, *ids) -> None:
        """Raise ``IndexError`` unless every id names a wall: the one range
        check of the entry points that take wall ids."""
        for h_id in ids:
            if not 0 <= h_id < len(self._wall_edges):
                raise IndexError(f"no wall {h_id}")

    def sign(self, v, h_id: int) -> int:
        self._require_walls(h_id)
        return 1 if self._masks[self.index(v)] >> h_id & 1 else -1

    def dual_hyperplane(self, u, v) -> int:
        """Wall id of an edge."""
        u, v = self.edge_key(u, v)
        return self._wall_of(self._ix[u], self._ix[v])

    def carrier(self, h_id: int) -> tuple[frozenset, ...]:
        """Cubes (all dimensions) containing an edge dual to wall ``h_id``,
        by dimension, then top vertex, then axes."""
        self._require_walls(h_id)
        cubes = sorted(self._cubes_across(1 << h_id), key=lambda c: c[1].bit_count())
        return tuple(map(self._vertex_set, cubes))

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
