"""Brute-force oracle for fundaments, independent of the library's algorithm.

Everything here is recomputed literally from first principles on vertex
bitstrings of a single hypercube: panels from their (abutting, extremalising,
side) triples, internality by checking whole parallel classes, persistent
corners by inspecting incident edges, deletions by union-find over overlapping
completely external subcubes, and the fundament by the explicit case split
(deletion when connected; face pieces, diagonals over the salient cube, and
leftover completely external cubes otherwise).

Cells are either ('cube', vertex frozenset) or
('diag', salient w, opposite copy, separator axis frozenset).

The second half is a reference for the complex itself, on a graph with
vertices 0..n-1: the median condition triple by triple, every induced
hypercube by trying every labelling of a corner's neighbour subsets, the flag
condition and Euler characteristic on those cubes, and the walls as classes
of the opposite-in-a-square relation with their sides found by search.

The third part, ``PanelReference``, rebuilds the panel layer of a complex
from those walls and the definitions on edges: extremality by looking for
each edge's square, cube status by parallel classes of internal edges,
persistent subcubes by intersecting faces, and panel orbits by applying every
element of the group.

The fourth part, ``dual_orientations``, is the dual of a small wallspace by
enumeration: every one of the 2**k choices of one side per wall, kept when
the chosen sides pairwise meet.

The fifth part keeps provenance per edge, as the collapse step once did: a
surviving edge crosses its own input wall, a diagonal crosses the separators
of its fundament piece, and a run lifts each edge's original walls through
the crossing sets of every step.

The last part keeps the eager tables a build once made, for the lazy ones to
match: every cube listed at its top vertex, the walls crossing each wall
taken from the squares of those lists and the maximal cubes found by
scanning each vertex's neighbours, and the status and persistent subcube of
a cube found by listing the panels with an internal edge in it, one panel at
a time.

The recogniser's earlier tables follow: the 3-cube condition on a
dict-of-dicts vertex link at every vertex, the two-pass recogniser as it
was before its first pass joined the breadth-first search, kept verbatim
for the package's to match table by table, each wall's sides found by
filtering the vertices one wall at a time, and the sign matrix unpacked
from the masks' bytes.  Last come the derivations a collapse step once
made of the tables it now reads from the build: the squares listed at each
top, the panel walk over sorted crossing pairs and the maximal cubes
filtered by a wall mask.  ``scripts/recogniser_sweep.py`` runs them too.
"""

import itertools
import math
from collections import Counter

from panelcollapse import symmetry
from panelcollapse.complex import _analyze, _bfs
from panelcollapse.panels import SIDES, _extremal_walk, codim2_hyperplanes, is_extremal
from panelcollapse.collapse import classify, fundament


def cube_vertices(d):
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=d)]


def subcubes(d):
    """All faces of the d-cube as (free axes, fixed assignment) vertex sets."""
    out = []
    for free_size in range(d + 1):
        for free in itertools.combinations(range(d), free_size):
            fixed = [i for i in range(d) if i not in free]
            for values in itertools.product((0, 1), repeat=len(fixed)):
                members = []
                for bits in itertools.product((0, 1), repeat=free_size):
                    v = [0] * d
                    for axis, b in zip(free, bits):
                        v[axis] = b
                    for axis, b in zip(fixed, values):
                        v[axis] = b
                    members.append(tuple(v))
                out.append(frozenset(members))
    return sorted(set(out), key=lambda s: (len(s), sorted(s)))


def edges_of(cube):
    return [
        frozenset((u, v))
        for u, v in itertools.combinations(sorted(cube), 2)
        if sum(a != b for a, b in zip(u, v)) == 1
    ]


def edge_axis(edge):
    u, v = sorted(edge)
    return next(i for i in range(len(u)) if u[i] != v[i])


def axes_of(cube):
    return frozenset(edge_axis(e) for e in edges_of(cube))


def panel_internal_edges(d, h, e, side):
    """Edges dual to axis h whose endpoints sit on the given side of axis e."""
    out = set()
    for edge in edges_of(frozenset(cube_vertices(d))):
        if edge_axis(edge) != h:
            continue
        if all(v[e] == side for v in edge):
            out.add(edge)
    return frozenset(out)


def panel_vertices(d, h, e, side):
    return frozenset(v for edge in panel_internal_edges(d, h, e, side) for v in edge)


def all_panels(d):
    """(h, e, side) triples; inside one cube every pair is extremal."""
    return [
        (h, e, side)
        for h in range(d)
        for e in range(d)
        if h != e
        for side in (0, 1)
    ]


def no_facing(d, family):
    """No two disjoint panels (all blocks share the cube itself)."""
    for p, q in itertools.combinations(family, 2):
        if not panel_vertices(d, *p) & panel_vertices(d, *q):
            return False
    return True


class OracleWorld:
    """All derived data for one panel family on the d-cube."""

    def __init__(self, d, family):
        self.d = d
        self.family = list(family)
        self.internal_by_panel = {
            p: panel_internal_edges(d, *p) for p in self.family
        }
        self.internal_edges = frozenset().union(
            frozenset(), *self.internal_by_panel.values()
        )
        self.all_subcubes = subcubes(d)
        self._fundaments = {}

    # -- classification, straight from the definitions ------------------------

    def edge_internal(self, edge):
        return edge in self.internal_edges

    def is_internal(self, cube):
        for p, internal in self.internal_by_panel.items():
            for axis in axes_of(cube):
                parallel_class = [
                    e for e in edges_of(cube) if edge_axis(e) == axis
                ]
                if parallel_class and all(e in internal for e in parallel_class):
                    return True
        return False

    def is_completely_external(self, cube):
        return not any(self.edge_internal(e) for e in edges_of(cube))

    def deletion(self, cube):
        return [
            s
            for s in self.all_subcubes
            if s <= cube and self.is_completely_external(s)
        ]

    def deletion_connected(self, cube):
        cells = self.deletion(cube)
        parent = list(range(len(cells)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in itertools.combinations(range(len(cells)), 2):
            if cells[i] & cells[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        return len({find(i) for i in range(len(cells))}) <= 1

    # -- persistent and salient, straight from the definitions -----------------

    def persistent_corners(self, cube):
        out = set()
        for v in cube:
            incident = [e for e in edges_of(cube) if v in e]
            if not any(self.edge_internal(e) for e in incident):
                out.add(v)
        return out

    def smallest_subcube_containing(self, cube, vertices):
        vertices = list(vertices)
        agree = {}
        for axis in range(self.d):
            values = {v[axis] for v in vertices}
            if len(values) == 1:
                agree[axis] = next(iter(values))
        return frozenset(
            v
            for v in cube
            if all(v[a] == b for a, b in agree.items())
        )

    def persistent_subcube(self, cube):
        corners = self.persistent_corners(cube)
        assert corners, "external cube with no persistent corner"
        return self.smallest_subcube_containing(cube, corners)

    def salient_data(self, cube):
        h = self.persistent_subcube(cube)
        h_axes = axes_of(h)
        cube_axes = axes_of(cube)
        internal_axes = {
            edge_axis(e) for e in edges_of(cube) if self.edge_internal(e)
        }
        separators = frozenset(
            a for a in cube_axes if a not in h_axes and a in internal_axes
        )

        def flip(v):
            return tuple(
                (1 - b) if i in separators else b for i, b in enumerate(v)
            )

        hbar = frozenset(flip(v) for v in h)
        return h, hbar, separators, flip

    # -- the fundament, by the explicit case analysis -------------------------

    def fundament(self, cube):
        if cube in self._fundaments:
            return self._fundaments[cube]
        if self.is_internal(cube) or self.deletion_connected(cube):
            cells = {("cube", s) for s in self.deletion(cube)}
            self._fundaments[cube] = cells
            return cells

        h, hbar, separators, flip = self.salient_data(cube)
        cells = set()
        # pieces assembled from codimension-1 faces with a persistent corner
        cube_dim = len(cube).bit_length() - 1
        for face in self.all_subcubes:
            if face < cube and len(face) * 2 == len(cube):
                if self.persistent_corners(cube) & face:
                    cells |= self.fundament(face)
        # diagonals over completely external subcubes of the salient cube
        for w in self.all_subcubes:
            if w <= hbar and self.is_completely_external(w):
                wbar = frozenset(flip(v) for v in w)
                cells.add(("diag", w, wbar, separators))
        # any completely external cube not already covered
        for f in self.deletion(cube):
            if not self._covered(f, cells):
                cells.add(("cube", f))
        self._fundaments[cube] = cells
        return cells

    def _covered(self, f, cells):
        for kind, *data in cells:
            if kind == "cube" and f <= data[0]:
                return True
            if kind == "diag":
                w, wbar, _ = data
                if f <= w or f <= wbar:
                    return True
        return False

    # -- normalized comparison shape -------------------------------------------

    def normalize(self, cells):
        """(ordinary completely external subcubes, diagonal pair set)."""
        ordinary = set()
        pairs = set()
        for kind, *data in cells:
            if kind == "cube":
                for s in self.all_subcubes:
                    if s <= data[0]:
                        ordinary.add(s)
            else:
                w, wbar, separators = data
                if len(separators) <= 1:
                    # the hull degenerates to an ordinary cube of the complex
                    span = w | wbar
                    for s in self.all_subcubes:
                        if s <= span:
                            ordinary.add(s)
                else:
                    flip_back = {}
                    for v in w:
                        partner = tuple(
                            (1 - b) if i in separators else b
                            for i, b in enumerate(v)
                        )
                        flip_back[v] = partner
                    for s in self.all_subcubes:
                        if s <= w:
                            ordinary.add(s)
                        if s <= wbar:
                            ordinary.add(s)
                    for v in w:
                        pairs.add(
                            (frozenset((v, flip_back[v])), separators)
                        )
        ordinary = {s for s in ordinary if self.is_completely_external(s)}
        return ordinary, pairs


# ---------------------------------------------------------------------------
# cube complex reference on vertices 0..n-1
# ---------------------------------------------------------------------------


def bfs_row(adj, s):
    """The distances from s; -1 marks unreachable vertices."""
    row = [-1] * len(adj)
    row[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    nxt.append(w)
        frontier = nxt
    return row


def bfs_distances(adj):
    """Distance matrix as nested lists; -1 marks unreachable pairs."""
    return [bfs_row(adj, s) for s in range(len(adj))]


def medians(dist, u, v, w):
    """The medians of u, v and w: the vertices on a geodesic between each
    two of them.  Reads only the rows of u, v and w of the distances."""
    return [
        x
        for x in range(len(dist[u]))
        if dist[u][x] + dist[v][x] == dist[u][v]
        and dist[u][x] + dist[w][x] == dist[u][w]
        and dist[v][x] + dist[w][x] == dist[v][w]
    ]


def first_median_violation(dist):
    """First triple u < v < w, in lexicographic order, that does not have
    exactly one median; None for a median graph."""
    for u, v, w in itertools.combinations(range(len(dist)), 3):
        if len(medians(dist, u, v, w)) != 1:
            return (u, v, w)
    return None


def _corner_labellings(b, nbrs, adj):
    """Injective labellings of the subsets of ``nbrs`` (as bitmasks) by
    vertices: the empty set is b, a singleton its neighbour, and every larger
    subset a common neighbour of the vertices of its one-smaller subsets."""
    d = len(nbrs)
    labellings = [{0: b, **{1 << i: x for i, x in enumerate(nbrs)}}]
    for t in sorted(range(1 << d), key=int.bit_count):
        if t.bit_count() < 2:
            continue
        grown = []
        for label in labellings:
            below = [label[t & ~(1 << i)] for i in range(d) if t >> i & 1]
            common = set(adj[below[0]]).intersection(*(adj[x] for x in below[1:]))
            for x in sorted(common - set(label.values())):
                grown.append({**label, t: x})
        labellings = grown
    return labellings


def induced_hypercubes(adj):
    """Vertex sets of all induced hypercube subgraphs, one set per dimension."""
    found = set()
    for b in range(len(adj)):
        for d in range(len(adj[b]) + 1):
            for nbrs in itertools.combinations(sorted(adj[b]), d):
                for label in _corner_labellings(b, nbrs, adj):
                    # induced: adjacent exactly when the subsets differ in one
                    if all(
                        (label[s] in adj[label[t]]) == ((s ^ t).bit_count() == 1)
                        for s, t in itertools.combinations(label, 2)
                    ):
                        found.add(frozenset(label.values()))
    by_dim = {}
    for cube in found:
        by_dim.setdefault(len(cube).bit_length() - 1, set()).add(cube)
    return [by_dim[d] for d in range(len(by_dim))]


def flag_condition(adj, cubes):
    """Gromov's condition on the filling by all induced hypercubes: at every
    vertex, neighbours that pairwise span squares with it span a cube."""
    squares = cubes[2] if len(cubes) > 2 else set()
    for v in range(len(adj)):
        for d in range(3, len(adj[v]) + 1):
            for nbrs in itertools.combinations(sorted(adj[v]), d):
                if not all(
                    any({v, a, b} <= sq for sq in squares)
                    for a, b in itertools.combinations(nbrs, 2)
                ):
                    continue
                corner = {v, *nbrs}
                if d >= len(cubes) or not any(corner <= c for c in cubes[d]):
                    return False
    return True


def euler_characteristic(cubes):
    return sum((-1) ** d * len(cs) for d, cs in enumerate(cubes))


def square_walls(adj, edges, squares):
    """Classes of edges under the transitive closure of being opposite in a
    square, ordered by their least edge, each as (edges, plus side): the
    plus side is the component of the graph without the class's edges that
    does not hold vertex 0.  Raises AssertionError unless a class cuts the
    graph in exactly two."""
    edges = sorted(edges)
    cls = {e: frozenset([e]) for e in edges}
    for sq in squares:
        sq_edges = [(a, b) for a, b in itertools.combinations(sorted(sq), 2) if b in adj[a]]
        for e, f in itertools.combinations(sq_edges, 2):
            if not set(e) & set(f) and cls[e] is not cls[f]:
                merged = cls[e] | cls[f]
                for g in merged:
                    cls[g] = merged
    walls = []
    for members in sorted(set(cls.values()), key=min):
        comps = []
        seen = set()
        for s in range(len(adj)):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp and (min(u, w), max(u, w)) not in members:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        assert len(comps) == 2, f"wall {sorted(members)} cuts {len(comps)} parts"
        plus = comps[1] if 0 in comps[0] else comps[0]
        walls.append((members, plus))
    return walls


# ---------------------------------------------------------------------------
# panel reference on a complex's graph
# ---------------------------------------------------------------------------


class PanelReference:
    """Crossing pairs, extremality, panels, blocks, cube status, persistent
    subcubes and panel orbits of one complex, read off its graph by the
    definitions.  Vertices are the complex's vertex indices; only the cube
    vertex sets are taken from the complex, and every wall, side and cube
    wall set is recomputed from the graph with ``square_walls``."""

    def __init__(self, cx):
        self.n = cx.n
        self.adj = [set() for _ in range(cx.n)]
        edges = []
        for u, v in cx.edges:
            a, b = cx.index(u), cx.index(v)
            self.adj[a].add(b)
            self.adj[b].add(a)
            edges.append((a, b))
        self.cubes = [
            frozenset(map(cx.index, vs))
            for d in range(cx.dimension + 1)
            for vs in cx.cube_vertexsets(d)
        ]
        self.squares = [c for c in self.cubes if len(c) == 4]
        walls = square_walls(self.adj, edges, self.squares)
        self.wall_of = {e: h for h, (members, _) in enumerate(walls) for e in members}
        self.wall_edges = [sorted(members) for members, _ in walls]
        self.plus = [plus for _, plus in walls]
        self.walls = {c: frozenset(self.wall_of[e] for e in self.edges_in(c)) for c in self.cubes}

    def edges_in(self, vs):
        return [(a, b) for a in vs for b in self.adj[a] if a < b and b in vs]

    def side(self, h, s):
        return self.plus[h] if s == "+" else frozenset(range(self.n)) - self.plus[h]

    def separating(self, v, w):
        return frozenset(h for h, plus in enumerate(self.plus) if (v in plus) != (w in plus))

    def crossing_pairs(self):
        return sorted({tuple(sorted(self.walls[sq])) for sq in self.squares})

    def is_extremal(self, h, e, s):
        """Every H-edge on side s of E lies in a square dual to H and E."""
        chosen = self.side(e, s)
        return all(
            any({a, b} <= sq and self.walls[sq] == {h, e} for sq in self.squares)
            for a, b in self.wall_edges[h]
            if a in chosen and b in chosen
        )

    def panel(self, h, e, s):
        """(cubes, internal edges, vertices) of the panel (H, E, s)."""
        chosen = self.side(e, s)
        cubes = frozenset(
            c for c in self.cubes if h in self.walls[c] and e not in self.walls[c] and c <= chosen
        )
        internal = frozenset(
            (a, b) for a, b in self.wall_edges[h] if a in chosen and b in chosen
        )
        return cubes, internal, frozenset().union(*cubes)

    def block_maximal_cubes(self, h, e):
        members = [c for c in self.cubes if {h, e} <= self.walls[c]]
        return frozenset(c for c in members if not any(c < d for d in members))

    def status(self, cube, family):
        """Internal when one parallel class of the cube's edges is internal to
        a single panel; completely external when no edge is internal."""
        internal = [self.panel(*t)[1] for t in family]
        edges = self.edges_in(cube)
        if not any(edge in ie for edge in edges for ie in internal):
            return "completely-external"
        for ie in internal:
            for h in self.walls[cube]:
                parallel = [edge for edge in edges if self.wall_of[edge] == h]
                if all(edge in ie for edge in parallel):
                    return "internal"
        return "external"

    def persistent(self, cube, family):
        """(persistent, salient, separators, partner) of a non-internal cube:
        the persistent subcube is the intersection of the faces opposite the
        panels with an internal edge in the cube, the separators are the
        walls of its internal edges that do not cross it, and the partner of
        a vertex is the vertex of the cube across exactly the separators."""
        edges = self.edges_in(cube)
        kept = set(cube)
        internal_walls = set()
        for h, e, s in family:
            ie = self.panel(h, e, s)[1]
            hit = [edge for edge in edges if edge in ie]
            if hit:
                kept &= self.side(e, "-" if s == "+" else "+")
                internal_walls |= {self.wall_of[edge] for edge in hit}
        crossing = {h for h in self.walls[cube] if len({v in self.plus[h] for v in kept}) == 2}
        separators = frozenset(internal_walls - crossing)
        partner = {
            v: next(w for w in cube if self.separating(v, w) == separators) for v in kept
        }
        return frozenset(kept), frozenset(partner.values()), separators, partner

    def orbit(self, action, triple):
        """Images of the panel triple under every element of the group, one
        per (abutting wall, cube set), the lowest triple kept; in order."""

        def key(t):
            return (t[0], t[1], "-+".index(t[2]))

        def wall_image(perm, h):
            a, b = self.wall_edges[h][0]
            return self.wall_of[tuple(sorted((perm[a], perm[b])))]

        h, e, s = triple
        witness = min(self.side(e, s))
        kept = {}
        images = set()
        for g in symmetry._close(action.complex, action.generators):
            image_e = wall_image(g.perm, e)
            image = (
                wall_image(g.perm, h),
                image_e,
                "+" if g.perm[witness] in self.plus[image_e] else "-",
            )
            images.add(image)
            slot = (image[0], self.panel(*image)[0])
            if slot not in kept or key(image) < key(kept[slot]):
                kept[slot] = image
        # distinct triples abutting one wall cut out distinct panels
        assert len(kept) == len(images), f"two triples of {sorted(images)} share a panel"
        return sorted(kept.values(), key=key)


def dual_orientations(walls):
    """Vertex names and edges of the dual of at most ten walls, each a pair
    of point sets: every choice of one side per wall whose chosen sides
    pairwise meet, named ``o`` plus ``-`` (first side) or ``+`` (second side)
    per wall, with an edge between choices that differ on one wall."""
    k = len(walls)
    assert k <= 10, k
    meet = {
        (i, s, j, t): bool(walls[i][s] & walls[j][t])
        for i, j in itertools.combinations(range(k), 2)
        for s in (0, 1)
        for t in (0, 1)
    }
    names = set()
    for choice in itertools.product((0, 1), repeat=k):
        if all(
            meet[i, choice[i], j, choice[j]]
            for i, j in itertools.combinations(range(k), 2)
        ):
            names.add("o" + "".join("-+"[c] for c in choice))
    edges = set()
    for name in names:
        for i in range(1, k + 1):
            other = name[:i] + ("+" if name[i] == "-" else "-") + name[i + 1 :]
            if other in names:
                edges.add(frozenset((name, other)))
    return names, edges


# ---------------------------------------------------------------------------
# per-edge provenance
# ---------------------------------------------------------------------------


def reference_edge_provenance(result):
    """Output edge -> input walls it crosses, from the input edges and the
    fundaments: every input edge that no panel makes internal keeps its own
    wall, and every diagonal pair of the fundament of a maximal cube crosses
    that piece's separators."""
    cx = result.input_complex
    cls = classify(cx, result.panels)
    internal = cls.internal_edges
    provenance = {
        e: frozenset({cx.dual_hyperplane(*e)}) for e in cx.edges if e not in internal
    }
    for m in cx.maximal_cubes():
        for pair, separators in fundament(cls, m).diagonal_pairs():
            provenance[tuple(sorted(pair, key=cx.index))] = separators
    return provenance


def reference_hyperplane_provenance(result, provenance):
    """Input wall -> the output walls whose edges cross it, or None unless
    all edges of each output wall carry one nonempty crossing set."""
    crossing = {}
    for plane in result.output_complex.hyperplanes():
        sets = {provenance[e] for e in plane.edges}
        if len(sets) != 1 or not next(iter(sets)):
            return None
        crossing[plane.id] = sets.pop()
    return {
        h.id: tuple(sorted(out for out, hs in crossing.items() if h.id in hs))
        for h in result.input_complex.hyperplanes()
    }


def reference_edge_origins(cx, steps):
    """Final edge -> original walls after the steps of a descent from cx to
    a tree, lifted edge by edge: an output edge's origins are the union of
    the origins of one input edge (the first) of each input wall it
    crosses."""
    origins = {e: frozenset({cx.dual_hyperplane(*e)}) for e in cx.edges}
    for step in steps:
        first = {}
        for e in cx.edges:
            first.setdefault(cx.dual_hyperplane(*e), origins[e])
        provenance = reference_edge_provenance(step.result)
        cx = step.result.output_complex
        origins = {
            e: frozenset().union(*(first[h] for h in provenance[e])) for e in cx.edges
        }
    return origins


# ---------------------------------------------------------------------------
# eager tables and the per-panel status rule
# ---------------------------------------------------------------------------


def _submasks(mask):
    """The nonempty submasks of a mask, ascending."""
    bits = [1 << b for b in range(mask.bit_length()) if mask >> b & 1]
    return sorted(
        sum(chosen)
        for size in range(1, len(bits) + 1)
        for chosen in itertools.combinations(bits, size)
    )


def eager_cubes(cx):
    """One list of ``(base, axes)`` cubes per dimension, listed eagerly: at
    each top vertex in turn, every nonempty subset s of its down-walls, in
    ascending order, spans ``(top ^ s, s)``."""
    by_dim = [[(top, 0) for top in cx._masks]]
    by_dim += [[] for _ in range(max(map(int.bit_count, cx._down)))]
    for top, walls in zip(cx._masks, cx._down):
        for s in _submasks(walls):
            by_dim[s.bit_count()].append((top ^ s, s))
    return by_dim


def eager_crossing(cubes, walls):
    """The mask of the walls crossing each of the ``walls`` walls: those it
    shares a square of ``eager_cubes`` with."""
    crossing = [0] * walls
    for _, axes in cubes[2] if len(cubes) > 2 else ():
        for h in range(walls):
            if axes >> h & 1:
                crossing[h] |= axes ^ 1 << h
    return crossing


def adjacency_maximal_cubes(cx, cubes):
    """The maximal cubes by the neighbour scan: a vertex t tops the maximal
    cube ``(t & ~down[t], down[t])`` unless an up-neighbour's down-walls
    contain ``down[t]``; by dimension descending, then by top vertex."""
    masks, down = cx._masks, cx._down
    by_dim = [[] for _ in cubes]
    for t, (top, walls) in enumerate(zip(masks, down)):
        if not any(masks[u] > top and not walls & ~down[u] for u in cx._adj_int[t]):
            by_dim[walls.bit_count()].append((top & ~walls, walls))
    return tuple(c for by in reversed(by_dim) for c in by)


def meeting_panels(panels, cube):
    """The (abutting, extremalising, side bit) triples of the panels with an
    internal edge in a ``(base, axes)`` cube: H is an axis, and E is an axis
    or has the cube on side s."""
    base, axes = cube
    triples = [(p.abutting, p.extremalising, "-+".index(p.side)) for p in panels]
    return [
        (h, e, bit)
        for h, e, bit in triples
        if axes >> h & 1 and (axes >> e & 1 or base >> e & 1 == bit)
    ]


def meeting_status(panels, cube):
    """Internal when a panel meeting the cube has E not an axis, external
    when some panel meets it, completely external otherwise."""
    meeting = meeting_panels(panels, cube)
    if any(not cube[1] >> e & 1 for _, e, _ in meeting):
        return "internal"
    return "external" if meeting else "completely-external"


def meeting_persistent(panels, cube):
    """The persistent subcube of a non-internal cube, as ``(base, axes)``,
    and its separator mask, or None when two meeting panels fix one
    extremalising wall to both sides: each meeting panel fixes its E to
    the side other than its own."""
    base, axes = cube
    meeting = meeting_panels(panels, cube)
    ones = sum({1 << e for _, e, bit in meeting if not bit})
    zeros = sum({1 << e for _, e, bit in meeting if bit})
    abutting = sum({1 << h for h, _, _ in meeting})
    if ones & zeros:
        return None
    extremalising = ones | zeros
    return (base | ones, axes & ~extremalising), extremalising & abutting


# ---------------------------------------------------------------------------
# the recogniser's earlier tables
# ---------------------------------------------------------------------------


def three_cube_condition(adj):
    """Whether three neighbours x, y, z of a vertex c that pairwise span
    squares with c always have opposite vertices with a common neighbour, on
    vertex links.  The squares are the chordless 4-cycles of ``adj``, given
    as sets or lists of neighbours, found by search at every vertex, and
    every choice of the three opposite vertices is tried."""
    adj = [set(near) for near in adj]
    for c, near in enumerate(adj):
        # opposite[x, y]: the vertices o of the chordless 4-cycles c, x, o, y
        opposite = {}
        for x, y in itertools.combinations(sorted(near), 2):
            if y not in adj[x]:
                far = (adj[x] & adj[y]) - near - {c}
                if far:
                    opposite[x, y] = far
        for x, y, z in itertools.combinations(sorted(near), 3):
            pairs = ((x, y), (x, z), (y, z))
            if all(pair in opposite for pair in pairs):
                for far in itertools.product(*(opposite[pair] for pair in pairs)):
                    if not set.intersection(*(adj[o] for o in far)):
                        return False
    return True


# The two-pass recogniser as the package had it before its first pass was
# fused into the breadth-first search, kept verbatim: the same checks, with
# neighbour sets, a separate search, the down-neighbours found by a pass over
# the edges, and every down-edge's wall looked up by its label flip.

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
    recorded once, as its top and the mask of its two walls, and each wall
    keeps the mask of the walls it shares a square with.

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
    ``(top, axes)`` pairs in search order, the number of squares dual to
    each crossing pair of walls, keyed by the pair's mask, and the mask of
    the walls crossing each wall, or None as soon as a check fails.
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
        squares += [(v, p | q) for p, q in itertools.combinations(flips, 2)]
    vertex_of = {m: x for x, m in enumerate(final)}
    if len(vertex_of) < n:
        return None
    square_counts = Counter([axes for _, axes in squares])
    crossing = [0] * len(ids)  # the walls crossing each wall
    triangle = False
    for pair in square_counts:
        # a triangle is found at the last of its three pairs
        p, q = pair & -pair, pair & (pair - 1)
        h, e = p.bit_length() - 1, q.bit_length() - 1
        triangle = triangle or crossing[h] & crossing[e] != 0
        crossing[h] |= q
        crossing[e] |= p
    if triangle and not _three_cube_condition(adj, squares, final, vertex_of):
        return None
    return edge_wall, final, vertex_of, down_walls, squares, square_counts, crossing


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

    Every square is in ``squares``, as ``(top, axes)`` with axes p | q: its
    labels are m, m ^ p, m ^ q and m ^ p ^ q, so it has one top, and two
    down-neighbours of the top have one common down-neighbour.  Its corners
    are read off ``vertex_of``.
    """
    link = [{} for _ in labels]
    for t, axes in squares:
        p, q, m = axes & -axes, axes & (axes - 1), labels[t]
        for c in (t, vertex_of[m ^ p], vertex_of[m ^ q], vertex_of[m ^ p ^ q]):
            spans = link[c]
            spans[p] = spans.get(p, 0) | q
            spans[q] = spans.get(q, 0) | p
    # the walls of each vertex's edges
    walls_at = [sum([m ^ labels[u] for u in near]) for m, near in zip(labels, adj)]
    for t, axes in squares:
        p, q = axes & -axes, axes & (axes - 1)
        b = vertex_of[labels[t] ^ axes]
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


# the tables the earlier recogniser returns, in order
RECOGNISER_TABLES = (
    "edge walls", "labels", "vertex of", "down-walls", "squares",
    "square counts", "crossing", "cube counts",
)
# the tables the package's recogniser returns after the adjacency, in order
PACKAGE_TABLES = ("edge walls", "labels", "vertex of", "down-walls", "squares", "crossing")


def reference_recogniser(n, int_edges):
    """The earlier recogniser's tables, in ``RECOGNISER_TABLES`` order, for
    the graph on the vertices 0..n-1 with ``int_edges`` in
    ``_structural_pass`` form, or None unless it is connected and median."""
    adj = [set() for _ in range(n)]
    for a, b in int_edges:
        adj[a].add(b)
        adj[b].add(a)
    level, queue = _bfs(adj, 0)
    if len(queue) < n:
        return None
    tables = _median_walls(adj, level, queue, int_edges)
    return tables and (*tables, _cube_counts(tables[3]))


def recogniser_differences(order, int_edges):
    """Run the package's recogniser on a graph in ``_structural_pass`` form
    and compare it with ``reference_recogniser``: its report, and the names
    of the tables that differ, ``"verdict"`` when one of the two accepts
    the graph and the other does not.  The squares may come in any order,
    and the package's square counts are counted from its squares."""
    report, internals = _analyze(order, int_edges)
    reference = reference_recogniser(len(order), int_edges)
    if internals is None or reference is None:
        return report, [] if internals is reference else ["verdict"]
    built = dict(zip(PACKAGE_TABLES, internals[1:], strict=True))
    built["square counts"] = Counter(axes for _, axes in built["squares"])
    built["cube counts"] = report.cube_counts
    return report, [
        name
        for name, old in zip(RECOGNISER_TABLES, reference, strict=True)
        if (sorted(built[name]) != sorted(old) if name == "squares" else built[name] != old)
    ]


def filtered_hyperplanes(cx):
    """Each wall as ``(id, edges, minus, plus)``, its plus side filtered
    from the vertices by its bit of their masks."""
    order, masks = cx._order, cx._masks
    out = []
    for h, es in enumerate(cx._wall_edges):
        plus = frozenset(v for v, m in zip(order, masks) if m >> h & 1)
        edges = frozenset((order[a], order[b]) for a, b in es)
        out.append((h, edges, frozenset(order) - plus, plus))
    return out


def sign_matrix(masks, width):
    """The masks as a vertex-by-wall int8 matrix, row by row: the byte +1
    on a wall's plus side, -1 on its minus side, and the matrix's shape."""
    raw = b"".join(
        b"\x01" if m >> h & 1 else b"\xff" for m in masks for h in range(width)
    )
    return raw, (len(masks), width)


def step_reads(cx, families):
    """The tables a collapse step reads, each beside the derivation a step
    once made of it, as ``{name: (table, reference)}``: the squares beside
    every pair of each vertex's down-walls, by top and then axes; the
    crossing pairs beside the wall pairs of those squares; the walk over
    extremal panels beside every ordered pair of them, sorted, with both
    sides; and for each wall mask of ``families``, the maximal cubes across
    it beside the maximal cubes filtered by it."""
    def ids(mask):
        return [h for h in range(mask.bit_length()) if mask >> h & 1]

    listed = []
    for top, down in zip(cx._masks, cx._down):
        bits = [1 << h for h in ids(down)]
        listed += [
            (top ^ s, s)
            for s in sorted(p | q for p, q in itertools.combinations(bits, 2))
        ]
    pairs = sorted({tuple(ids(axes)) for _, axes in listed})
    walk = [
        (h, e, side)
        for h, e in sorted(pairs + [(e, h) for h, e in pairs])
        for side in SIDES
        if is_extremal(cx, h, e, side)
    ]
    return {
        "squares": (cx._dim_cubes(2), listed),
        "crossing pairs": (codim2_hyperplanes(cx), tuple(pairs)),
        "walk": ([p.triple for p in _extremal_walk(cx)], walk),
        "carrier": (
            [cx._maximal_cubes_across(walls) for walls in families],
            [tuple(c for c in cx._maximal_cubes() if c[1] & walls) for walls in families],
        ),
    }
