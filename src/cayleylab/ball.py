"""Finite-radius Cayley graph balls and exact word-metric queries.

A BallIndex stores the closed ball of radius R around the identity:
canonical elements in BFS discovery order (so norms are nondecreasing in
the dense vertex id), per-vertex adjacency restricted to the ball, and
the BFS tree used to read off geodesic words from the identity.

Because the BFS expands vertices in id order, the ball of radius r is an
id-prefix of every larger ball: elements, dist, parent_gen and the rows
of vertices below norm r agree, and only the outer shell's rows differ,
keeping just in-ball ids.  build_ball(..., source=b) uses this to grow a
ball by resuming the BFS of a smaller one.

For a bipartite group (Group.bipartite: no relator of odd length) the
outer shell costs no group product: every edge joins shells n and n + 1,
so an outer vertex's in-ball edges are exactly the reversed edges into
it from the expanded shell below, and its row is filled from those.

The ball is connected: each vertex joins the identity along its BFS-tree
edge, and a group's edges go both ways (RewritingGroup checks definition
files for confluence, so they define groups too).  So every search inside
the ball reaches its target.

Vertex-to-vertex distances follow one rule: d(u, v) is the word norm of
u^-1 v, a single table lookup, when the group knows that norm in closed
form or u^-1 v lies in the ball, and FAR otherwise, never an in-ball
estimate.  A candidate that reads FAR loses.  estimate_delta and the
median CLI build the margin their points need
(ldelta.recommended_ball_radius); vankampen.fill instead grows its ball
whenever a search reads past the edge (BallTooSmall).  Lookups are not
cached here beyond the inverses: the median search in ldelta caches
distances in its own rows.

Distances may take half-integer values: the geometric realization admits
edge midpoints ("half-edge points").  A point's ends are its vertex, or
the two endpoints of its edge; the distance between two distinct points
is the smallest distance between their ends plus 1/2 for each midpoint,
and a geodesic runs between that nearest pair of ends.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import BallTooSmall, InputError, ResourceError
from .groups import Element, Group
from .words import Word

VERTEX = 0
HALF = 1

HALF_STEP = Fraction(1, 2)

FAR = 1 << 40  # beyond every distance in a ball; an int, like doubled rows

MAX_VERTICES = 2_000_000  # a build that would pass it raises ResourceError


@dataclass(frozen=True, order=True)
class Point:
    """A vertex or an edge midpoint of the ball's geometric realization."""

    kind: int
    a: int       # vertex id, or smaller endpoint id of the edge
    b: int = -1  # larger endpoint id for midpoints

    @staticmethod
    def vertex(vid: int) -> "Point":
        return Point(VERTEX, vid)

    @staticmethod
    def half(u: int, v: int) -> "Point":
        if u == v:
            raise InputError("half-edge point needs two distinct endpoints")
        return Point(HALF, min(u, v), max(u, v))


@dataclass(frozen=True)
class GeodesicPath:
    """A shortest path, possibly with half-steps at either end.

    The word runs from start_vertex to end_vertex; a half-edge start or
    end contributes an extra half step from the midpoint onto that vertex.
    """

    start_vertex: int
    end_vertex: int
    word: Word
    length: Fraction


def _plus_half_steps(p: Point, q: Point, d: int) -> Fraction:
    """The vertex distance d between nearest ends of p and q, plus half a
    step for each midpoint among them."""
    return HALF_STEP * ((p.kind == HALF) + (q.kind == HALF)) + d


def _cap_error() -> ResourceError:
    return ResourceError(f"ball exceeds max_vertices cap ({MAX_VERTICES})")


class BallIndex:
    def __init__(self, group: Group, radius: int,
                 source: "BallIndex | None" = None):
        if radius < 0:
            raise InputError("ball radius must be >= 0")
        self.group = group
        self.radius = radius

        if source is None:
            self.elements: list[Element] = [group.identity()]
            self.index: dict[Element, int] = {self.elements[0]: 0}
            self.dist: list[int] = [0]
            self.parent_gen: list[int] = [-1]
            self.adj: list[list[int]] = []
            self._expand(0)
        else:
            # resume the source's BFS at its unexpanded outer shell
            if source.group is not group:
                raise InputError("source ball belongs to another group")
            if radius <= source.radius:
                raise InputError("a source ball must be smaller than the "
                                 "ball grown from it")
            if len(source.elements) > MAX_VERTICES:
                raise _cap_error()
            expanded = source.shell_start[source.radius]
            self.elements = list(source.elements)
            self.index = dict(source.index)
            self.dist = list(source.dist)
            self.parent_gen = list(source.parent_gen)
            self.adj = source.adj[:expanded]
            self._expand(expanded)

        # dist is nondecreasing in the vertex id, so shell d starts at the
        # first id of norm >= d; an empty shell starts where the next one does
        self.shell_start = [bisect_left(self.dist, d) for d in range(radius + 2)]

        self._edges: list[tuple[int, int]] | None = None
        self._inverse_cache: dict[int, Element] = {}

    def _expand(self, vid: int) -> None:
        """Run the BFS from vertex id vid to the radius.

        Vertices are expanded in id order, which is BFS order; each
        expanded vertex's adjacency row comes from the same apply calls
        that discover its neighbours.  Rows below vid must already be
        expanded.

        The outer shell R costs one apply per generator, unless the group
        is bipartite.  Then no edge joins two vertices of shell R, and its
        edges to shell R + 1 leave the ball, so its only in-ball
        neighbours lie in shell R - 1, whose rows are complete: an outer
        row is -1 except where a row of shell R - 1 reaches it,
        adj[u][g] = w, which gives adj[w][g ^ 1] = u.  The rows equal
        those the apply calls would give, also for R = 0 (no shell
        below) and for a BFS that ends before R (no outer shell).
        """
        elements, index, dist = self.elements, self.index, self.dist
        parent_gen, adj = self.parent_gen, self.adj
        radius = self.radius
        apply = self.group.apply
        gens = range(len(self.group.alphabet))
        while vid < len(elements) and dist[vid] < radius:
            e = elements[vid]
            row = []
            for gen in gens:
                f = apply(e, gen)
                nid = index.get(f)
                if nid is None:
                    if len(elements) >= MAX_VERTICES:
                        raise _cap_error()
                    nid = len(elements)
                    index[f] = nid
                    elements.append(f)
                    dist.append(dist[vid] + 1)
                    parent_gen.append(gen)
                row.append(nid)
            adj.append(row)
            vid += 1
        # the outer shell is never expanded; its rows keep only in-ball edges
        if not self.group.bipartite:
            for e in elements[vid:]:
                adj.append([index.get(apply(e, gen), -1) for gen in gens])
            return
        adj.extend([-1] * len(gens) for _ in range(vid, len(elements)))
        for e in elements[bisect_left(dist, radius - 1, 0, vid):vid]:
            u = index[e]  # the index's own int, as in every other row
            for gen, w in enumerate(adj[u]):
                if w >= vid:
                    adj[w][gen ^ 1] = u

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def shell(self, n: int) -> range:
        if not (0 <= n <= self.radius):
            raise InputError(f"shell {n} outside ball radius {self.radius}")
        return range(self.shell_start[n], self.shell_start[n + 1])

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Unordered vertex-id pairs carrying at least one edge, u < v."""
        if self._edges is None:
            seen = set()
            for u, row in enumerate(self.adj):
                for v in row:
                    if v >= 0 and v != u:
                        seen.add((u, v) if u < v else (v, u))
            self._edges = sorted(seen)
        return self._edges

    # -- vertex distances --------------------------------------------------

    def _inv_element(self, vid: int) -> Element:
        e = self._inverse_cache.get(vid)
        if e is None:
            e = self.group.inverse(self.elements[vid])
            self._inverse_cache[vid] = e
        return e

    def vertex_distance(self, u: int, v: int) -> int:
        """The word norm of u^-1 v when the group knows it or it lies in
        the ball, else FAR (module docstring)."""
        if u == v:
            return 0
        diff = self.group.multiply(self._inv_element(u), self.elements[v])
        d = self.group.exact_norm(diff)
        if d is not None:
            return d
        vid = self.index.get(diff)
        return FAR if vid is None else self.dist[vid]

    # -- realization points ------------------------------------------------

    def check_point(self, p: Point) -> None:
        """InputError unless p is a point of the ball in canonical form."""
        if not (p.kind == VERTEX and p.b == -1
                or p.kind == HALF and p.a < p.b):
            raise InputError(f"{p} is not a canonical point")
        for vid in ((p.a,) if p.kind == VERTEX else (p.a, p.b)):
            if not (0 <= vid < len(self.elements)):
                raise InputError(f"point references vertex {vid} outside ball")
        if p.kind == HALF and p.b not in self.adj[p.a]:
            raise InputError("half-edge point references a non-edge")

    def point_norm(self, p: Point) -> Fraction:
        if p.kind == VERTEX:
            return Fraction(self.dist[p.a])
        return HALF_STEP + min(self.dist[p.a], self.dist[p.b])

    def distance(self, p: Point, q: Point) -> Fraction:
        self.check_point(p)
        self.check_point(q)
        return self.try_distance(p, q)

    def try_distance(self, p: Point, q: Point) -> Fraction:
        """distance(p, q) without checking the points."""
        if p == q:
            return Fraction(0)
        return _plus_half_steps(p, q, self._nearest_ends(p, q)[0])

    def _nearest_ends(self, p: Point, q: Point) -> tuple[int, int, int]:
        """(d, e, f) for the first nearest pair of ends e of p and f of q,
        for distinct points, with d = vertex_distance(e, f), an int;
        _plus_half_steps turns d into the distance of p and q."""
        best = None
        for e in ((p.a,) if p.kind == VERTEX else (p.a, p.b)):
            for f in ((q.a,) if q.kind == VERTEX else (q.a, q.b)):
                d = self.vertex_distance(e, f)
                if best is None or d < best[0]:
                    best = (d, e, f)
        return best

    # -- geodesics ---------------------------------------------------------

    def word_to(self, e: Element) -> Word:
        """A geodesic word from the identity to e."""
        w = self.group.geodesic_word(e)
        if w is not None:
            return w
        vid = self.index.get(e)
        if vid is None:
            raise BallTooSmall("element outside ball")
        letters: list[int] = []
        for _ in range(self.dist[vid]):  # a BFS parent is one step nearer
            gen = self.parent_gen[vid]
            letters.append(gen)
            vid = self.adj[vid][gen ^ 1]
        return tuple(reversed(letters))

    def vertex_geodesic_word(self, u: int, v: int) -> Word:
        """word_to(u^-1 v), a geodesic word from vertex u to vertex v;
        BallTooSmall when u^-1 v or its path from u leaves the ball."""
        w = self.word_to(self.group.multiply(self._inv_element(u),
                                             self.elements[v]))
        cur = u
        for gen in w:
            cur = self.adj[cur][gen]
            if cur < 0:
                raise BallTooSmall("geodesic leaves the ball; build a "
                                   "larger one")
        return w

    def _bfs_from(self, source: int, targets: list[int],
                  max_norm: int) -> dict[int, int]:
        """Distance from source of each vertex reached by a breadth-first
        search through norms at most max_norm, stopping at the layer that
        reaches the last of the targets."""
        adj = self.adj
        hi = self.shell_start[max_norm + 1]  # norms <= max_norm lie below
        reach = {source: 0}
        left = [t for t in targets if t != source]
        frontier, layer = [source], 0
        while frontier and left:
            layer += 1
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if 0 <= b < hi and b not in reach:
                        reach[b] = layer
                        nxt.append(b)
            left = [t for t in left if t not in reach]
            frontier = nxt
        return reach

    def _inball_path(self, u: int, v: int, max_norm: int) -> Word:
        """A shortest path word from u to v through norms at most
        max_norm; B_max_norm is connected, so one exists."""
        reach = self._bfs_from(u, [v], max_norm)
        letters: list[int] = []
        cur = v
        while cur != u:
            nearer = reach[cur] - 1
            gen, cur = next((g, b) for g, b in enumerate(self.adj[cur])
                            if reach.get(b) == nearer)
            letters.append(gen ^ 1)
        return tuple(reversed(letters))

    def geodesic(self, p: Point, q: Point) -> GeodesicPath:
        """A path realizing distance(p, q), staying inside the ball."""
        self.check_point(p)
        self.check_point(q)
        if p == q:
            return GeodesicPath(p.a, q.a, (), Fraction(0))
        d, e, f = self._nearest_ends(p, q)
        return GeodesicPath(e, f, self.vertex_geodesic_word(e, f),
                            _plus_half_steps(p, q, d))

    # -- sphere structure --------------------------------------------------

    def sphere_pairs(self, n: int) -> dict[tuple[int, int], int | None]:
        """Unordered pairs (u, v), u < v, of norm-n vertices at word
        distance <= 2, each mapped to its distance inside B_n when a path
        of length <= 2 inside B_n joins it: 1 for an edge, 2 through a
        middle vertex of norm <= n, and None when every such path leaves
        B_n.  Rows of norm n < radius are fully expanded, so both values
        are exact."""
        if not (0 <= n <= self.radius - 1):
            raise InputError(
                f"sphere_pairs needs 0 <= n <= radius-1, got n={n}, R={self.radius}"
            )
        # shell n is the id range [lo, hi), and norms <= n lie below hi;
        # rows of norm n have no -1, and later writes win: an edge beats
        # a middle vertex inside B_n, which beats one outside
        adj = self.adj
        lo, hi = self.shell_start[n], self.shell_start[n + 1]
        pairs: dict[tuple[int, int], int | None] = {}
        for u in range(lo, hi):
            row = adj[u]
            for w1 in row:
                if w1 >= hi:
                    for w2 in adj[w1]:
                        if u < w2 < hi:
                            pairs[u, w2] = None
            for w1 in row:
                if w1 < hi:
                    for w2 in adj[w1]:
                        if u < w2 < hi:
                            pairs[u, w2] = 2
            for w1 in row:
                if u < w1 < hi:
                    pairs[u, w1] = 1
        return pairs


def build_ball(group: Group, radius: int,
               source: BallIndex | None = None) -> BallIndex:
    """The ball of the given radius, built by BFS from the identity.

    With `source`, a smaller ball of the same group, the BFS resumes at
    the source's outer shell instead, so only the new shells cost apply
    calls; the result equals build_ball(group, radius) in every field,
    and the MAX_VERTICES cap fails as a fresh build would.  A source at
    least as large as the radius asked for is an input error.
    Expanded adjacency rows are shared with the source; no ball mutates
    its rows after it is built.
    """
    return BallIndex(group, radius, source)
