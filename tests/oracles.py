"""Independent brute-force oracles used to freeze expected values.

Everything here is written against the raw group definitions, not the
library's ball or distance machinery, so the two routes stay independent.
The one exception is plain_exhaustive_delta, a reference loop around the
library's own median search, unpruned, that estimate_delta's skips and
pruning must reproduce.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction


def z2_std_norm(v: tuple[int, int]) -> int:
    return abs(v[0]) + abs(v[1])


def z2_abc_norm(v: tuple[int, int]) -> int:
    """Word norm of (x, y) over {a, b, c=ab} and inverses.

    With the diagonal available, same-sign coordinates cost max(|x|, |y|)
    and opposite signs cost |x| + |y|.
    """
    x, y = v
    if x * y >= 0:
        return max(abs(x), abs(y))
    return abs(x) + abs(y)


def free_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Tree distance between reduced words: drop the common prefix."""
    k = 0
    while k < len(u) and k < len(v) and u[k] == v[k]:
        k += 1
    return (len(u) - k) + (len(v) - k)


def heisenberg_mul(a, b):
    p, q, r = a
    P, Q, R = b
    return (p + P, q + Q, r + R + p * Q)


HEIS_GENS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]


def heisenberg_ball(radius: int) -> dict[tuple[int, int, int], int]:
    """Plain dict BFS over integer triples; element -> word norm."""
    dist = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for layer in range(radius):
        nxt = []
        for e in frontier:
            for g in HEIS_GENS:
                f = heisenberg_mul(e, g)
                if f not in dist:
                    dist[f] = layer + 1
                    nxt.append(f)
        frontier = nxt
    return dist


def heisenberg_ac_constants(n_max: int) -> list[tuple[int, int]]:
    """(C_n, pair count) for n = 1..n_max: for each unordered pair of norm-n
    triples at word distance <= 2, a plain BFS over triples of norm <= n
    gives the shortest joining path; C_n is the longest of those."""
    norm = heisenberg_ball(n_max)
    out = []
    for n in range(1, n_max + 1):
        sphere = sorted(e for e, d in norm.items() if d == n)
        c_n = pairs = 0
        for u in sphere:
            near = {heisenberg_mul(heisenberg_mul(u, g), h)
                    for g in HEIS_GENS for h in HEIS_GENS + [(0, 0, 0)]}
            targets = {v for v in near if v > u and norm.get(v) == n}
            pairs += len(targets)
            dist = {u: 0}
            frontier = [u]
            while frontier and not targets <= dist.keys():
                nxt = []
                for e in frontier:
                    for g in HEIS_GENS:
                        f = heisenberg_mul(e, g)
                        if f not in dist and norm.get(f, n + 1) <= n:
                            dist[f] = dist[e] + 1
                            nxt.append(f)
                frontier = nxt
            c_n = max([c_n] + [dist[v] for v in targets])
        out.append((c_n, pairs))
    return out


def group_ball(group, radius: int) -> dict:
    """Plain dict BFS over group.apply from group.identity();
    element -> word norm."""
    gens = range(len(group.alphabet))
    dist = {group.identity(): 0}
    frontier = list(dist)
    for layer in range(radius):
        nxt = []
        for e in frontier:
            for g in gens:
                f = group.apply(e, g)
                if f not in dist:
                    dist[f] = layer + 1
                    nxt.append(f)
        frontier = nxt
    return dist


def brute_sphere_pair_distances(group, n: int, norm: dict) -> dict:
    """(e, f) -> shortest path length inside B_n, for each pair e < f of
    norm-n elements at word distance <= 2.  The pairs come from the
    unrestricted 2-step neighbourhood; each gets its own BFS over elements
    of norm <= n.  norm must cover radius n + 1."""
    gens = range(len(group.alphabet))
    sphere = sorted(e for e, d in norm.items() if d == n)
    out = {}
    for u in sphere:
        step1 = {group.apply(u, g) for g in gens}
        near = step1 | {group.apply(w, g) for w in step1 for g in gens}
        for v in sorted(v for v in near if v > u and norm.get(v) == n):
            dist = {u: 0}
            frontier = [u]
            while v not in dist:
                nxt = []
                for e in frontier:
                    for g in gens:
                        f = group.apply(e, g)
                        if f not in dist and norm.get(f, n + 1) <= n:
                            dist[f] = dist[e] + 1
                            nxt.append(f)
                frontier = nxt
            out[u, v] = dist[v]
    return out


def brute_ac_constant(group, n_max: int) -> list[tuple]:
    """(C_n, pair count, worst pair) for n = 1..n_max, where the worst
    pair is the least (e, f) among the pairs of length C_n."""
    norm = group_ball(group, n_max + 1)
    out = []
    for n in range(1, n_max + 1):
        lengths = brute_sphere_pair_distances(group, n, norm)
        c_n = max(lengths.values(), default=0)
        worst = min((p for p, d in lengths.items() if d == c_n), default=None)
        out.append((c_n, len(lengths), worst))
    return out


def grid_graph_points(radius: int):
    """All realization points of the Z^2 standard grid within the radius:
    lattice points and edge midpoints, as exact coordinate pairs."""
    pts = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if abs(x) + abs(y) <= radius:
                pts.append((Fraction(x), Fraction(y)))
            for dx, dy in ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))):
                px, py = x + dx, y + dy
                if abs(px) + abs(py) <= radius:
                    pts.append((px, py))
    return pts


def grid_point_distance(p, q) -> Fraction:
    """Realization distance on the Z^2 grid between lattice points or
    edge midpoints, given as coordinate pairs with denominators <= 2.

    Every route between distinct points of this set passes through a
    lattice endpoint of each non-vertex point, so minimizing over endpoint
    choices is exact.
    """
    if p == q:
        return Fraction(0)

    def endpoints(pt):
        x, y = pt
        if x.denominator == 1 and y.denominator == 1:
            return [((x, y), Fraction(0))]
        if x.denominator == 2:
            return [((x - Fraction(1, 2), y), Fraction(1, 2)),
                    ((x + Fraction(1, 2), y), Fraction(1, 2))]
        return [((x, y - Fraction(1, 2)), Fraction(1, 2)),
                ((x, y + Fraction(1, 2)), Fraction(1, 2))]

    best = None
    for (e, ce) in endpoints(p):
        for (f, cf) in endpoints(q):
            d = ce + cf + abs(e[0] - f[0]) + abs(e[1] - f[1])
            if best is None or d < best:
                best = d
    return best


def grid_min_slack(x, y, z, search_radius: int) -> Fraction:
    """Exhaustive median search on the Z^2 grid realization: the minimum
    over all points t within the search radius of the worst pair slack."""
    best = None
    for t in grid_graph_points(search_radius):
        s = max(
            grid_point_distance(x, t) + grid_point_distance(t, y) - grid_point_distance(x, y),
            grid_point_distance(y, t) + grid_point_distance(t, z) - grid_point_distance(y, z),
            grid_point_distance(z, t) + grid_point_distance(t, x) - grid_point_distance(z, x),
        )
        if best is None or s < best:
            best = s
    return best


def plain_exhaustive_delta(ball, radius: int, domain: str, triples=None):
    """(value, witness, witness_median, triples examined) from one median
    search per triple of domain indices, combinations order by default,
    under a running cap; the witness is the earliest triple attaining the
    maximum.  No pre-filter, no translation classes and no shell pruning."""
    from cayleylab.ldelta import DistanceRows, domain_points, median

    points = domain_points(ball, radius, domain)
    if triples is None:
        triples = itertools.combinations(range(len(points)), 3)
    rows = DistanceRows(ball)
    cap, best, count = Fraction(-1), (None, None), 0
    for i, j, k in triples:
        count += 1
        med = median(ball, points[i], points[j], points[k], cap=cap,
                     prune=False, _rows=rows)
        if med is not None and med.slack > cap:
            cap, best = med.slack, ((points[i], points[j], points[k]), med)
    return (max(cap, Fraction(0)),) + best + (count,)


# -- median and delta by brute force ----------------------------------------
#
# A point is a tuple of group elements: (e,) for a vertex, and the two ends
# of an edge, sorted, for its midpoint.  Distances are doubled integers, so
# that midpoints stay exact: the distance of two distinct points is that of
# their nearest ends plus 1/2 for each midpoint among them.


class BruteMetric:
    """Doubled distances of a Cayley graph from a table of word norms.

    `table` is a plain dict BFS (group_ball) of the given radius, and the
    distance of vertices u, v is table[u^-1 v]; a lookup past the table
    raises KeyError rather than guess.  `distance`, when given, replaces
    that lookup (free_distance on F2), and the table serves only to list
    elements by norm."""

    def __init__(self, group, radius: int, distance=None):
        self.group = group
        self.table = group_ball(group, radius)
        self.by_norm = sorted(self.table, key=self.table.__getitem__)
        # by_norm[:upto[k]] are the elements of norm <= k
        norms = [self.table[e] for e in self.by_norm]
        self.upto = [bisect_right(norms, k) for k in range(radius + 1)]
        if distance is None:
            mul, inv, table = group.multiply, group.inverse, self.table

            def distance(u, v):
                return table[mul(inv(u), v)]
        self.distance = distance

    def within(self, k: int) -> list:
        if k > len(self.upto) - 1:
            raise KeyError(f"no table of norms up to {k}")
        return self.by_norm[:self.upto[k]]

    def d2(self, p, q) -> int:
        if p == q:
            return 0
        distance = self.distance
        return 2 * min(distance(e, f) for e in p for f in q) \
            + len(p) + len(q) - 2

    def edges(self, v):
        """The midpoints of the edges at vertex v."""
        apply = self.group.apply
        ends = {apply(v, g) for g in range(len(self.group.alphabet))}
        return [tuple(sorted((v, w))) for w in ends if w != v]

    def points(self, radius: int, domain: str) -> list:
        """The vertices of norm <= radius, and with domain == "half" the
        midpoints of norm <= radius as well."""
        verts = self.within(radius)
        pts = [(v,) for v in verts]
        if domain == "half":
            mids = {m for v in verts if self.table[v] < radius
                    for m in self.edges(v)}
            pts += sorted(mids)
        return pts


def brute_median(metric: BruteMetric, x, y, z, t_halves: bool = True,
                 cap2: int = -1) -> int:
    """The least doubled slack over all vertices t, and all midpoints t
    with t_halves, or the first doubled slack found at most cap2.

    Let s be the least slack found so far, first over the ends of x, y, z,
    and over x, y, z themselves with t_halves.  A t of slack at most s has
    d(x, t) + d(t, y) - d(x, y) <= s, likewise for z, and
    d(t, y) + d(t, z) >= d(y, z), so d(x, t) <= (y|z)_x + s; and as
    d(t, y) >= d(x, t) - d(x, y), also d(x, t) <= d(x, y) + s/2.  Every
    vertex that near x's first end, plus 1 for a midpoint x, is tried in
    order of distance, with every midpoint at it."""
    triple = (x, y, z)
    d2 = metric.d2
    pair = (d2(x, y), d2(y, z), d2(z, x))

    def slack2(dx, dy, dz):
        return max(dx + dy - pair[0], dy + dz - pair[1], dz + dx - pair[2])

    seeds = [(e,) for p in triple for e in p] + list(triple) * t_halves
    best = min(slack2(*(d2(p, t) for p in triple)) for t in seeds)
    if best <= cap2:
        return best

    def reach(best):  # the largest norm from x[0] left to try
        g2 = (pair[0] + pair[2] - pair[1]) // 2
        return min(min(pair[0], pair[2]) + best // 2, g2 + best) // 2 + 1

    mul, table, e0 = metric.group.multiply, metric.table, x[0]
    to_vertex = {}  # vertex -> doubled distances to x, y, z

    def dist(v):
        d = to_vertex.get(v)
        if d is None:
            d = to_vertex[v] = tuple(d2(p, (v,)) for p in triple)
        return d

    for step in metric.within(reach(best)):
        if table[step] > reach(best):
            break
        v = mul(e0, step)
        s = slack2(*dist(v))
        if s < best:
            best = s
            if best <= cap2:
                return best
        if not t_halves:
            continue
        for t in metric.edges(v):
            du, dw = dist(t[0]), dist(t[1])
            s = slack2(*(0 if p == t else min(a, b) + 1
                         for p, a, b in zip(triple, du, dw)))
            if s < best:
                best = s
                if best <= cap2:
                    return best
    return best


def brute_delta(metric: BruteMetric, radius: int, domain: str) -> Fraction:
    """The largest least slack over the triples of domain points, with t
    over vertices and midpoints.  A triple whose own point has slack at
    most the largest so far cannot raise it and is skipped."""
    pts = metric.points(radius, domain)
    d2 = metric.d2
    value = -1
    for x, y, z in itertools.combinations(pts, 3):
        dxy, dyz, dzx = d2(x, y), d2(y, z), d2(z, x)
        if min(dxy + dzx - dyz, dxy + dyz - dzx, dyz + dzx - dxy) <= value:
            continue
        s = brute_median(metric, x, y, z, cap2=value)
        if s > value:
            value = s
    return Fraction(max(value, 0), 2)


def brute_slack2(metric: BruteMetric, t, x, y, z) -> int:
    """The doubled slack of point t for the triple."""
    dx, dy, dz = (metric.d2(p, t) for p in (x, y, z))
    return max(dx + dy - metric.d2(x, y), dy + dz - metric.d2(y, z),
               dz + dx - metric.d2(z, x))
