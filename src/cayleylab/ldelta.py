"""Slack of candidate median points and estimation of the L_delta constant.

For three points x, y, z and a candidate t, the slack of t is the worst
detour excess over the three pairs:

    max over {x,y}, {y,z}, {z,x} of d(., t) + d(t, .) - d(., .)

A triple's delta is the minimum slack over all admissible t, and the
estimated constant of a generating set at radius R is the maximum of that
over a triple domain.  All values are exact rationals with denominator
dividing 2.

The median search scans candidate points in shells of increasing distance
m from one triple point a, its anchor (from a's first end when a is a
midpoint); b and c are the other two.  Every t of slack s lies in the
Gromov annulus

    (b|c)_a - s/2 <= d(a, t) <= min(min(d(a, b), d(a, c)) + s/2, (b|c)_a + s)

because d(t, b) >= d(a, b) - d(a, t), likewise for c, and
d(t, b) + d(t, c) >= d(b, c).  A point offered at shell m lies within
1/2 of m for a midpoint a, and within another 1/2 for a midpoint t, so
the scan skips each shell wholly below the annulus at the best slack so
far and stops at the first wholly above it: their points can neither
win nor meet the cap.  The annulus is the scan's only pruning rule, so
a pruned search returns the point of the unpruned one.  The anchor is
the point with the least 4 (b|c)_a, plus 2 for a midpoint, where the
annulus closes soonest; ties go to x, then y, then z.  Ties between
points are broken by smaller d(t, x), then smaller d(t, y), then
vertices before midpoints, then smallest vertex id, so the result
depends neither on the scan order nor on the anchor.

The scan reads shells only up to the ball's radius R.  A scan that gets
past shell R with the annulus at the best slack still open raises
BallTooSmall, on rows of every kind, unless no edge leaves the ball (it
is then the whole group, and no point lies farther from a).  The test
is the annulus, not the prune flag, so an unpruned search raises exactly
where the pruned one does.  Otherwise every point that could win lies
in a scanned shell.

A midpoint of an edge at a vertex u lies half a step from u, so each of
its doubled distances to x, y, z is at least u's minus 1, and its doubled
slack at least u's minus 2.  The scan skips the midpoints at u when that
bound exceeds the best slack: such a midpoint can neither win nor
trigger the cap.  The bound needs u's three distances exact, so the
skip is off at a u with a FAR distance (ball.py): a midpoint there can
read its other end's exact distance, far below u's.

Before the scan, the seed step offers each pair's Gromov point: the
vertex floor((b|c)_a) steps from a towards b, found by stepping down b's
distance row from the end of a nearer to b.  Internal points of
geodesic triangles are near-medians where slack is small, so under a
running cap one offer usually ends the search, and otherwise a low best
slack narrows the annulus.  A descent that finds no in-ball step, or
reads FAR on strict rows, offers nothing.  The Gromov offers stop at a
best slack of 0, which no offer can lower; the scan still ranks every
slack-0 point.  The scan offers every vertex that could win again, so
these offers change no result.  The seed then offers the triple's own
midpoints, which the scan cannot replace: it prices a midpoint from its
ends, which puts a triple's own midpoint 1 from itself, not 0, and that
key loses to the seed's.  So a capped search returns None exactly when
the least slack is within the cap.

The search reads every distance from a DistanceRows cache: row u maps a
vertex id v to twice ball.vertex_distance(u, v), computed on first use,
so repeated lookups are plain subscripts on doubled integers.  A
midpoint's row is read from its ends' rows.  The shell scan fills a
vertex anchor's row as it goes: the candidate t = a s for s on shell m
lies at distance m from a.  median() makes a fresh cache per call;
estimate_delta shares one across its triples and vankampen.fill a
FillRows one across its splits, and bounded_rows starts both afresh past
_CACHE_ENTRIES distances (about 45 bytes each).  None computes a full
row.

On FillRows (vankampen.fill) a scanned vertex t outside the ball signals
BallTooSmall only where it could still win.  Its norm is at least R + 1,
so d(p, t) >= R + 1 - |p| for the two points p other than the anchor,
and with d(a, t) from its shell that bounds its slack from below
(outside_loses).

estimate_delta is one serial loop with a running cap, the largest slack
so far.  Two skips leave its output that of one search per triple:
- a triple's own points are candidates of its search; t = x has slack
  d(x, y) + d(x, z) - d(y, z), twice the Gromov product (y|z)_x; when
  the least of the three is at most the cap the search would return
  None, so the triple is skipped before it starts;
- left translates of a triple have equal slack, and exhaustive mode on
  the vertex domain searches only the first triple of each class in
  iteration order.  It meets the cap the plain loop would; later members
  never exceed it.  It is off where pairs have few translates (about 2
  in F2), as the classes then save little.

Both need the margin of recommended_ball_radius, which estimate_delta
requires of its ball.  median checks only that its triple's own pair
distances are not FAR; the CLI builds the margin for its points.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .ball import FAR, HALF, VERTEX, BallIndex, Point
from .errors import BallTooSmall, InputError

EXHAUSTIVE_TRIPLE_CAP = 10 ** 7
DEFAULT_FORCED_SAMPLES = 100_000
_CACHE_ENTRIES = 1 << 17
_MIN_TRANSLATES = 4


@dataclass(frozen=True)
class MedianResult:
    t: Point
    slack: Fraction
    pair_slacks: tuple[Fraction, Fraction, Fraction]  # pairs xy, yz, zx


@dataclass
class DeltaEstimate:
    radius: int
    domain: str               # "vertices" or "half"
    sampling: str             # "exhaustive" or "sampled(count,seed)"
    value: Fraction
    witness: tuple[Point, Point, Point] | None
    witness_median: MedianResult | None
    triples_examined: int


class _Row(dict):
    """Twice the distance from vertex u to each vertex id, computed by
    ball.vertex_distance on first use.  A strict row raises BallTooSmall
    where it would hold FAR."""

    __slots__ = ("ball", "u", "held", "strict")

    def __init__(self, ball: BallIndex, u: int, held: list[int], strict: bool):
        super().__init__()
        self.ball, self.u, self.held, self.strict = ball, u, held, strict

    def __missing__(self, v: int) -> int:
        d = self.ball.vertex_distance(self.u, v)
        if d == FAR and self.strict:
            raise BallTooSmall("a distance read lies beyond the ball")
        d2 = self[v] = 2 * d
        self.held[0] += 1
        return d2


class _MidRow(dict):
    """Twice the distance from the midpoint of edge (a, b) to each vertex
    id, read from the rows of a and b on first use: one half step more
    than the nearer end."""

    __slots__ = ("ra", "rb")

    def __init__(self, ra: _Row, rb: _Row):
        super().__init__()
        self.ra, self.rb = ra, rb

    def __missing__(self, tid: int) -> int:
        du, dv = self.ra[tid], self.rb[tid]
        d2 = self[tid] = (du if du < dv else dv) + 1
        self.ra.held[0] += 1
        return d2


class DistanceRows(dict):
    """rows[u][v] == 2 * ball.vertex_distance(u, v), computed on first use.

    Midpoints get rows of the same kind, read from their ends' rows.  A
    search on these rows raises BallTooSmall when its shell scan runs out
    at the radius (module docstring).
    `held[0]` counts the distances held; the rows share that
    cell rather than point back here, so a dropped cache is freed at once.
    Its rows are not `strict`: they hold FAR beyond the ball.
    """

    strict = False

    def __init__(self, ball: BallIndex):
        super().__init__()
        self.ball = ball
        self.held = [0]
        self.mid_rows: dict[tuple[int, int], _MidRow] = {}

    def __missing__(self, u: int) -> _Row:
        row = self[u] = _Row(self.ball, u, self.held, self.strict)
        return row

    def point_row(self, p: Point) -> _Row | _MidRow:
        if p.kind == VERTEX:
            return self[p.a]
        key = (p.a, p.b)
        row = self.mid_rows.get(key)
        if row is None:
            row = self.mid_rows[key] = _MidRow(self[p.a], self[p.b])
        return row


class FillRows(DistanceRows):
    """DistanceRows on which a search's result does not depend on the ball.

    Its rows are `strict`.  A search with t_halves=False on these rows
    raises BallTooSmall where a larger ball could change its result: at
    a FAR read in the scan, at an index miss in a scanned shell at a
    point that could still win, or, as on any rows, when the shell scan
    runs out at the radius (module docstring).  Otherwise it returns the
    same point on every larger ball: vertex ids are a BFS prefix, every
    distance it reads is exact, and the seed's offers, which may differ,
    change no result.  vankampen.fill grows its ball on the signal.
    """

    strict = True


def bounded_rows(rows: DistanceRows) -> DistanceRows:
    """rows, or a fresh cache of its kind on its ball once rows holds more
    than _CACHE_ENTRIES distances."""
    return type(rows)(rows.ball) if rows.held[0] > _CACHE_ENTRIES else rows


def _d2(p_row, q: Point) -> int:
    """Twice the distance to q from the point of the doubled row p_row,
    for distinct points: a midpoint q adds one to its nearer end."""
    if q.kind == VERTEX:
        return p_row[q.a]
    du, dv = p_row[q.a], p_row[q.b]
    return (du if du < dv else dv) + 1


class _MedianSearch:
    """Shell scan state; all distances are doubled integers internally.

    run offers each shell vertex inline, on local rows; midpoints go
    through consider_mid, at the vertices where mids_lose does not rule
    them out."""

    def __init__(self, ball: BallIndex, rows: DistanceRows, x: Point,
                 y: Point, z: Point, t_halves: bool):
        self.ball = ball
        self.rows = rows
        self.x, self.y, self.z = x, y, z
        self.t_halves = t_halves
        xr, yr, zr = rows.point_row(x), rows.point_row(y), rows.point_row(z)
        self.xr, self.yr, self.zr = xr, yr, zr
        self.dxy2 = _d2(xr, y)
        self.dyz2 = _d2(yr, z)
        self.dzx2 = _d2(zr, x)
        self.best_key: tuple = (math.inf,)  # above every key

    def mids_lose(self, u: int, s: int) -> bool:
        """True when no midpoint of an edge at vertex u, offered at
        doubled slack s, can take the best key (module docstring)."""
        return s - 2 > self.best_key[0] and self.xr[u] < FAR \
            and self.yr[u] < FAR and self.zr[u] < FAR

    def outside_loses(self, m: int, a: Point) -> bool:
        """True when no vertex t on shell m around triple point a outside
        the ball of radius R can take the best key.  Its norm is at least
        R + 1, so d(p, t) >= R + 1 - |p| for the other two points p, and
        d(a, t) >= m - 1/2 (m for a vertex a)."""
        ball = self.ball
        out2 = 2 * ball.radius + 2
        dx, dy, dz = (2 * m - (p.kind == HALF) if p == a
                      else out2 - int(2 * ball.point_norm(p))
                      for p in (self.x, self.y, self.z))
        return max(dx + dy - self.dxy2, dy + dz - self.dyz2,
                   dz + dx - self.dzx2) > self.best_key[0]

    def consider_mid(self, u: int, v: int) -> None:
        """Offer the midpoint of edge (u, v), priced from its ends' rows.
        That puts a triple's own midpoint 1 from itself, not 0, so this
        offer of it loses to the one seed made."""
        a, b = (u, v) if u < v else (v, u)
        row = self.xr
        du, dv = row[u], row[v]
        dx = (du if du < dv else dv) + 1
        row = self.yr
        du, dv = row[u], row[v]
        dy = (du if du < dv else dv) + 1
        row = self.zr
        du, dv = row[u], row[v]
        self._offer(HALF, a, b, dx, dy, (du if du < dv else dv) + 1)

    def _offer(self, kind: int, a: int, b: int,
               dx: int, dy: int, dz: int) -> None:
        """Make a point the best when its key is less; run offers shell
        vertices inline, with the same steps."""
        s = dx + dy - self.dxy2
        s2 = dy + dz - self.dyz2
        if s2 > s:
            s = s2
        s2 = dz + dx - self.dzx2
        if s2 > s:
            s = s2
        if s > self.best_key[0]:
            return
        # dz never decides: (kind, a, b) is unique to a point
        key = (s, dx, dy, kind, a, b, dz)
        if key < self.best_key:
            self.best_key = key

    def seed(self, cap2: int) -> bool:
        """Offer each pair's Gromov point until the best slack is 0, then
        the triple's own midpoints.  Returns True when the cap aborts the
        triple.

        The Gromov point of a pair (a, b) with third point c lies
        floor((b|c)_a) steps from the end of a nearer to b, on a geodesic
        to b: each step goes to the first in-ball neighbour, in adjacency
        order, whose entry in b's row is 2 less.  A pair whose descent
        finds no such neighbour, or reads FAR on strict rows, offers
        nothing (module docstring)."""
        x, y, z = self.x, self.y, self.z
        xr, yr, zr = self.xr, self.yr, self.zr
        dxy2, dyz2, dzx2 = self.dxy2, self.dyz2, self.dzx2
        adj = self.ball.adj
        # b's row br, and g4 = 4 (b|c)_a from doubled
        # d(a, b) + d(a, c) - d(b, c)
        for a, br, g4 in ((x, yr, dxy2 + dzx2 - dyz2),
                          (y, zr, dyz2 + dxy2 - dzx2),
                          (z, xr, dzx2 + dyz2 - dxy2)):
            s = self.best_key[0]
            if s <= cap2:
                return True
            if s == 0:
                break
            try:
                u = a.a
                if a.kind == HALF and br[a.b] < br[u]:
                    u = a.b
                d2 = br[u]
                for _ in range(g4 // 4):
                    d2 -= 2
                    for w in adj[u]:
                        if w >= 0 and br[w] == d2:
                            u = w
                            break
                    else:
                        break  # no in-ball step nearer to b
                else:
                    self._offer(VERTEX, u, -1, xr[u], yr[u], zr[u])
            except BallTooSmall:
                pass
        if self.t_halves:
            # a midpoint of the triple lies 0 from itself and the pair
            # distances from the other two points
            for p, dx, dy, dz in ((x, 0, dxy2, dzx2), (y, dxy2, 0, dyz2),
                                  (z, dzx2, dyz2, 0)):
                if p.kind == HALF:
                    self._offer(HALF, p.a, p.b, dx, dy, dz)
        return self.best_key[0] <= cap2

    def _result(self) -> MedianResult:
        s, dx, dy, kind, a, b, dz = self.best_key
        half = Fraction(1, 2)
        pairs = (half * (dx + dy - self.dxy2),
                 half * (dy + dz - self.dyz2),
                 half * (dz + dx - self.dzx2))
        return MedianResult(Point(kind, a, b), half * s, pairs)

    def run(self, cap2: int, prune: bool) -> MedianResult | None:
        """The search with the cap in doubled units, -1 for none (every
        doubled slack is at least 0)."""
        ball = self.ball
        if self.seed(cap2):
            return None
        xr, yr, zr = self.xr, self.yr, self.zr
        dxy2, dyz2, dzx2 = self.dxy2, self.dyz2, self.dzx2
        # scan around the triple point a with the least 4 (b|c)_a, plus 2
        # for a midpoint; min keeps the first of equal points
        a, ar, ab2, ac2, bc2 = min(
            ((self.x, xr, dxy2, dzx2, dyz2), (self.y, yr, dxy2, dyz2, dzx2),
             (self.z, zr, dzx2, dyz2, dxy2)),
            key=lambda e: e[2] + e[3] - e[4] + 2 * (e[0].kind == HALF))
        # the candidates offered at shell m have 2 d(a, t) within pad of 4m
        g4, near2 = ab2 + ac2 - bc2, 2 * min(ab2, ac2)
        pad = 2 * (a.kind == HALF) + 2 * self.t_halves
        anchor_elem = ball.elements[a.a]
        a_vertex = a.kind == VERTEX
        mult = ball.group.multiply
        elements = ball.elements
        index_get = ball.index.get
        adj = ball.adj
        t_halves = self.t_halves
        strict = self.rows.strict
        # seed returned False, so the best slack is above the cap
        best = self.best_key
        m = 0
        while True:
            b = best[0]
            # every later shell lies above the annulus
            closed = 4 * m - pad > min(near2 + b, g4 + 2 * b)
            if prune and closed:
                break
            if m > ball.radius:
                # a larger ball would scan on, unless no edge leaves this one
                if not closed and any(-1 in adj[u]
                                      for u in ball.shell(ball.radius)):
                    raise BallTooSmall("the shell scan ran out at the radius")
                break
            if prune and 4 * m + pad < g4 - b:
                m += 1  # the shell lies below the annulus
                continue
            for sid in ball.shell(m):
                tid = index_get(mult(anchor_elem, elements[sid]))
                if tid is None:
                    if strict and not self.outside_loses(m, a):
                        raise BallTooSmall("a scanned shell leaves the ball")
                    continue
                # for a vertex a, t = a s gives d(a, t) = |s| = m
                if a_vertex and tid not in ar:
                    ar[tid] = 2 * m
                    ar.held[0] += 1
                dx, dy, dz = xr[tid], yr[tid], zr[tid]
                s = dx + dy - dxy2
                s2 = dy + dz - dyz2
                if s2 > s:
                    s = s2
                s2 = dz + dx - dzx2
                if s2 > s:
                    s = s2
                if s <= best[0]:
                    if s <= cap2:
                        return None
                    key = (s, dx, dy, VERTEX, tid, -1, dz)
                    if key < best:
                        self.best_key = best = key
                if t_halves and (s - 2 <= best[0]
                                 or not self.mids_lose(tid, s)):
                    for w in adj[tid]:
                        if w >= 0:
                            self.consider_mid(tid, w)
                    best = self.best_key
                    if best[0] <= cap2:
                        return None
            m += 1
        return self._result()


def median(ball: BallIndex, x: Point, y: Point, z: Point,
           cap: Fraction | None = None, t_halves: bool = True,
           prune: bool = True, *,
           _rows: DistanceRows | None = None) -> MedianResult | None:
    """The minimum-slack point t for the triple, or None when `cap` is
    given and that slack is at most cap, found out as early as possible.

    A call checks its points and searches with a fresh DistanceRows.
    `_rows` is the path of estimate_delta and vankampen.split_loop: they
    share one cache over many searches and skip the checks, because their
    points are distinct and in the ball.  A pair of the triple FAR apart
    is an input error, and so is a ball too small for the shell scan
    (BallTooSmall, module docstring).
    """
    if _rows is None:
        for p in (x, y, z):
            ball.check_point(p)
        if len({x, y, z}) != 3:
            raise InputError("median needs three distinct points")
        _rows = DistanceRows(ball)
    # floor(2 * cap), without a Fraction product; a negative cap is none
    cap2 = -1 if cap is None else 2 * cap.numerator // cap.denominator
    search = _MedianSearch(ball, _rows, x, y, z, t_halves)
    if max(search.dxy2, search.dyz2, search.dzx2) >= FAR:
        raise InputError("triple wider than the ball, see "
                         "recommended_ball_radius")
    return search.run(cap2, prune)


def domain_points(ball: BallIndex, radius: int, domain: str) -> list[Point]:
    """The triple domain: vertices of norm <= radius, plus edge midpoints
    of norm <= radius when domain == "half"."""
    if radius < 0:
        raise InputError("domain radius must be >= 0")
    if radius > ball.radius:
        raise InputError("domain radius exceeds ball radius")
    if domain not in ("vertices", "half"):
        raise InputError(f"unknown triple domain {domain!r}")
    pts = [Point.vertex(v) for v in range(len(ball.elements))
           if ball.dist[v] <= radius]
    if domain == "half":
        for u, v in ball.edges:
            if min(ball.dist[u], ball.dist[v]) < radius:
                pts.append(Point(HALF, u, v))
    return pts


def recommended_ball_radius(group, domain_radius: int) -> int:
    """A build radius at which every distance that decides a search over
    points of norm <= domain_radius is exact; FAR ones price only losing
    candidates.  Exhaustive delta on the built-in groups and 30k random
    medians, pruned and not, match an in-ball BFS distance in FAR's place."""
    if group.exact_norm(group.identity()) is not None:
        return domain_radius + 2
    return 2 * domain_radius + 2


def _translation_key(ball: BallIndex, points: list[Point]):
    """key(i, j, k) is equal for two triples of domain vertices exactly
    when one is a left translate of the other, and costs no group product.

    diff[u][v] interns u^-1 v over the domain, an id-prefix of the ball; a
    key is the least sorted view of the triple from one of its vertices.
    None when a pair has fewer than
    _MIN_TRANSLATES translates in the domain on average (nv^2 over the
    distinct diffs): then classes are barely smaller than triples, and the
    set of searched keys costs memory for few skipped searches.
    """
    group, elements = ball.group, ball.elements
    names: dict = {}
    diff = [[names.setdefault(group.multiply(inv, elements[v]), len(names))
             for v in range(len(points))]
            for inv in map(group.inverse, elements[:len(points)])]
    if len(points) ** 2 < _MIN_TRANSLATES * len(names):
        return None

    def key(i, j, k):
        du = diff[i]
        a, b = du[j], du[k]
        best = (a, b) if a < b else (b, a)
        du = diff[j]
        a, b = du[k], du[i]
        view = (a, b) if a < b else (b, a)
        if view < best:
            best = view
        du = diff[k]
        a, b = du[i], du[j]
        view = (a, b) if a < b else (b, a)
        return view if view < best else best
    return key


def estimate_delta(ball: BallIndex, radius: int, domain: str = "half",
                   sampling: str = "exhaustive", samples: int = 0,
                   seed: int = 0) -> DeltaEstimate:
    """Maximize the triple delta over the domain.

    Exhaustive mode iterates all unordered triples and is permitted only
    while (domain size)^3 stays under 10^7; beyond that, seeded sampling
    is forced.  The result is that of one search per triple under a
    running cap: the witness is the earliest triple attaining the maximum,
    with its own search as witness_median.  The pre-filter skips triples
    in both modes; translation classes only exhaustive vertex-domain
    ones, as sampled draws rarely repeat a class.  The ball needs the
    margin of recommended_ball_radius.
    """
    need = recommended_ball_radius(ball.group, radius)
    if ball.radius < need:
        raise InputError(f"delta needs a ball of radius {need}, "
                         f"not {ball.radius}")
    points = domain_points(ball, radius, domain)
    n = len(points)
    if sampling == "exhaustive" and n ** 3 > EXHAUSTIVE_TRIPLE_CAP:
        sampling, samples = "sampled", samples or DEFAULT_FORCED_SAMPLES
    if sampling == "sampled" and samples <= 0:
        raise InputError("sampled mode needs a positive sample count")
    label = f"sampled({samples},{seed})" if sampling == "sampled" else sampling

    # the domain points are distinct and in the ball, so the triples skip
    # median()'s checks and share one cache
    rows = DistanceRows(ball)
    key = None
    seen: set = set()
    # cap is the largest slack so far, -1/2 (below every slack) before the
    # first; a triple with some t = p of doubled slack at most cap2 is
    # skipped
    cap, cap2, best = Fraction(-1, 2), -1, None

    def search(i, j, k):  # a triple past the pre-filter
        nonlocal rows, cap, cap2, best
        if key is not None:
            c = key(i, j, k)
            if c in seen:
                return
            seen.add(c)
        rows = bounded_rows(rows)
        x, y, z = points[i], points[j], points[k]
        med = median(ball, x, y, z, cap=cap, _rows=rows)
        if med is not None:  # so med.slack > cap
            cap, best = med.slack, ((x, y, z), med)
            cap2 = int(2 * cap)

    def pair2(i, j):  # twice the distance, read as the search reads it
        return _d2(rows.point_row(points[i]), points[j])

    # slack at t = x is max(0, dxy + dzx - dyz), and so on
    if sampling == "exhaustive":
        total = n * (n - 1) * (n - 2) // 6
        table = [[pair2(i, j) for j in range(n)] for i in range(n)]
        if domain == "vertices":
            key = _translation_key(ball, points)
        for i in range(n):
            ti = table[i]
            for j in range(i + 1, n):
                tj, dxy = table[j], ti[j]
                for k in range(j + 1, n):
                    dyz, dzx = tj[k], ti[k]
                    if dxy + dzx - dyz > cap2 and dxy + dyz - dzx > cap2 \
                            and dyz + dzx - dxy > cap2:
                        search(i, j, k)
    elif sampling == "sampled":
        if n < 3:
            raise InputError("domain has fewer than three points")
        rng = random.Random(seed)
        total = samples
        for _ in range(samples):
            i, j, k = rng.sample(range(n), 3)
            dxy, dyz, dzx = pair2(i, j), pair2(j, k), pair2(k, i)
            if dxy + dzx - dyz > cap2 and dxy + dyz - dzx > cap2 \
                    and dyz + dzx - dxy > cap2:
                search(i, j, k)
    else:
        raise InputError(f"unknown sampling mode {sampling!r}")
    witness, witness_median = best or (None, None)
    return DeltaEstimate(radius, domain, label, max(cap, Fraction(0)),
                         witness, witness_median, total)
