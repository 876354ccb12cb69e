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

The last part, ``dual_orientations``, is the dual of a small wallspace by
enumeration: every one of the 2**k choices of one side per wall, kept when
the chosen sides pairwise meet.
"""

import itertools


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


def bfs_distances(adj):
    """Distance matrix as nested lists; -1 marks unreachable pairs."""
    n = len(adj)
    dist = []
    for s in range(n):
        row = [-1] * n
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
        dist.append(row)
    return dist


def first_median_violation(dist):
    """First triple u < v < w, in lexicographic order, that does not have
    exactly one median; None for a median graph."""
    n = len(dist)
    for u, v, w in itertools.combinations(range(n), 3):
        medians = [
            x
            for x in range(n)
            if dist[u][x] + dist[x][v] == dist[u][v]
            and dist[u][x] + dist[x][w] == dist[u][w]
            and dist[v][x] + dist[x][w] == dist[v][w]
        ]
        if len(medians) != 1:
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
            frozenset(map(cx.index, vs)) for vs in cx.all_cube_vertexsets()
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
        for g in action.elements:
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
