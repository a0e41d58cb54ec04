import gc
import hashlib
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from cayleylab import ldelta
from cayleylab.ball import FAR, HALF, VERTEX, BallIndex, Point, build_ball
from cayleylab.errors import InputError
from cayleylab.groups import RewritingGroup, get_group
from cayleylab.ldelta import (DistanceRows, FillRows, domain_points,
                              estimate_delta, median,
                              recommended_ball_radius)
from cayleylab.rewriting import parse_group_file
from oracles import (BruteMetric, brute_delta, brute_median, brute_slack2,
                     free_distance, grid_min_slack, plain_exhaustive_delta)
from test_rewriting import Z2_RULES_TEXT

F = Fraction
# sha256 of the medians of 300 seeded vertex triples of norm <= 20 in the
# z2-std ball of radius 40, as the search found them before it read
# d(x, t) off the shell
DIGEST_300_Z2_MEDIANS = \
    "58b24fcdf4522a363e46f67e7b6acaee707dfe8a6ea3e0c34c17cf74f0e48057"


@pytest.fixture(scope="module")
def z2ball():
    return build_ball(get_group("z2-std"), 14)


@pytest.fixture(scope="module")
def f2ball():
    return build_ball(get_group("f2"), 8)


def group_of(name):
    """A built-in group, or "z2-rules": Z^2 from the README's rules file."""
    if name == "z2-rules":
        return RewritingGroup(name, parse_group_file(Z2_RULES_TEXT)[1])
    return get_group(name)


GROUP_NAMES = ["z2-std", "z2-abc", "heisenberg", "f2", "z2-rules"]


def vp(ball, e):
    return Point.vertex(ball.index[e])


def mid(ball, u, v):
    return Point.half(ball.index[u], ball.index[v])


# -- slack, by the oracle ---------------------------------------------------

def test_slack_zero_on_geodesic(z2ball, brute):
    metric = brute("z2-std")[1]
    x, y, z = (brute_point(z2ball, vp(z2ball, e))
               for e in ((0, 0), (2, 0), (4, 0)))
    assert brute_slack2(metric, y, x, y, z) == 0


def test_slack_f2_tree_center(f2ball, brute):
    metric = brute("f2")[1]
    ab = f2ball.group.alphabet.parse_word
    x, y = (brute_point(f2ball, vp(f2ball, ab(w))) for w in ("a,a", "b,b"))
    z = t = brute_point(f2ball, vp(f2ball, ()))
    assert brute_slack2(metric, t, x, y, z) == 0


def test_slack_direct_evaluation(z2ball, brute):
    metric = brute("z2-std")[1]
    x, y, z, t = (brute_point(z2ball, vp(z2ball, e))
                  for e in ((1, 0), (0, 1), (1, 1), (0, 0)))
    # d(x,t)=d(y,t)=1, d(z,t)=2; d(x,y)=2, d(y,z)=1, d(z,x)=1, so the
    # pair slacks are 0, 2, 2 (doubled: 0, 4, 4)
    assert [metric.d2(p, t) for p in (x, y, z)] == [2, 2, 4]
    assert [metric.d2(p, q) for p, q in ((x, y), (y, z), (z, x))] == [4, 2, 2]
    assert brute_slack2(metric, t, x, y, z) == 4
    # z itself is a perfect median for this triple
    assert brute_slack2(metric, z, x, y, z) == 0


def test_slack_permutation_invariant(z2ball, brute):
    metric = brute("z2-std")[1]
    rng = random.Random(1)
    inner = [v for v in range(len(z2ball)) if z2ball.dist[v] <= 4]
    for _ in range(60):
        x, y, z, t = (brute_point(z2ball, Point.vertex(rng.choice(inner)))
                      for _ in range(4))
        vals = {brute_slack2(metric, t, *p)
                for p in itertools.permutations((x, y, z))}
        assert len(vals) == 1


# -- median -----------------------------------------------------------------

def test_median_coordinatewise(z2ball):
    m = median(z2ball, vp(z2ball, (0, 0)), vp(z2ball, (4, 0)), vp(z2ball, (2, 3)))
    assert m.slack == 0
    assert m.t == vp(z2ball, (2, 0))


def test_median_requires_distinct_points(z2ball):
    p = vp(z2ball, (1, 1))
    with pytest.raises(InputError):
        median(z2ball, p, p, vp(z2ball, (0, 0)))


def test_median_zero_when_point_between(z2ball):
    rng = random.Random(6)
    inner = [v for v in range(len(z2ball)) if z2ball.dist[v] <= 3]
    found = 0
    for _ in range(200):
        x, y = rng.choice(inner), rng.choice(inner)
        path = z2ball.geodesic(Point.vertex(x), Point.vertex(y))
        if len(path.word) < 2:
            continue
        cur = x
        for gen in path.word[:len(path.word) // 2]:
            cur = z2ball.adj[cur][gen]
        if cur in (x, y):
            continue
        m = median(z2ball, Point.vertex(x), Point.vertex(y), Point.vertex(cur))
        assert m.slack == 0
        found += 1
    assert found > 50


def test_median_f2_always_zero(f2ball):
    rng = random.Random(2)
    ids = [v for v in range(len(f2ball)) if f2ball.dist[v] <= 5]
    for _ in range(100):
        x, y, z = rng.sample(ids, 3)
        m = median(f2ball, Point.vertex(x), Point.vertex(y), Point.vertex(z))
        assert m.slack == 0


def test_median_half_point_witness(z2ball):
    # the grid needs interior points: this triple has min slack 1, with
    # t = (1,0) giving pair slacks (0, 1, 0) up to pair order
    x = mid(z2ball, (0, 0), (1, 0))
    y = mid(z2ball, (0, 1), (1, 1))
    z = mid(z2ball, (5, 0), (5, 1))
    m = median(z2ball, x, y, z)
    assert m.slack == 1
    assert m.t == vp(z2ball, (1, 0))
    assert sorted(m.pair_slacks) == [0, 0, 1]
    # independent oracle: exhaustive search over the grid realization
    assert grid_min_slack((F(1, 2), F(0)), (F(1, 2), F(1)),
                          (F(5), F(1, 2)), 10) == 1


def test_median_z2_abc_positive():
    ball = build_ball(get_group("z2-abc"), 14)
    m = median(ball, vp(ball, (2, 2)), vp(ball, (2, -2)), vp(ball, (0, 0)))
    assert m.slack == 1  # frozen from the closed-form norm oracle


@pytest.mark.parametrize("name,radius", [
    ("z2-std", 4), ("z2-abc", 4), ("z2-abc", 3), ("f2", 4), ("heisenberg", 3),
])
def test_median_pruning_soundness(name, radius):
    # 300 seeded triples per domain and t_halves; z2-abc r3 and
    # heisenberg r3 hold medians farther from x than an earlier candidate
    # of larger slack
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, radius))
    for domain in ("vertices", "half"):
        pts = domain_points(ball, radius, domain)
        for t_halves in (True, False):
            rng = random.Random(7)
            for _ in range(300):
                x, y, z = (pts[i] for i in rng.sample(range(len(pts)), 3))
                fast = median(ball, x, y, z, t_halves=t_halves)
                slow = median(ball, x, y, z, t_halves=t_halves, prune=False)
                assert (fast.slack, fast.t) == (slow.slack, slow.t), \
                    (domain, t_halves, x, y, z)


@pytest.mark.parametrize("name,x,y,z,value", [
    # the median lies farther from x than the seed's best, t = x of
    # slack 4, which a stop at the incumbent's d(x, t) never reached
    ("heisenberg", (-1, 0, -1), (0, -1, 1), (1, 2, 1), 2),
    # the same on a Z^2 group with a midpoint x (that stop gave slack 2)
    ("z2-abc", ((0, -2), (-1, -2)), (-3, -1), (0, 3), 1),
])
def test_median_repro_triples(name, x, y, z, value):
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    triple = [mid(ball, *p) if isinstance(p[0], tuple) else vp(ball, p)
              for p in (x, y, z)]
    fast = median(ball, *triple)
    assert fast.slack == value
    assert fast == median(ball, *triple, prune=False)


# -- the brute-force oracle -------------------------------------------------

@pytest.fixture(scope="module")
def brute():
    """name -> (group, BruteMetric): a plain BFS table of norms, up to 18
    (F2: free_distance of reduced words, with a table up to 10 to list
    elements by norm)."""
    made = {}

    def get(name):
        if name not in made:
            group = group_of(name)
            made[name] = (group, BruteMetric(group, 10, free_distance)
                          if name == "f2"
                          else BruteMetric(group, 18))
        return made[name]
    return get


def brute_point(ball, p):
    """The oracle's form of a point: its ends as group elements."""
    ends = (p.a,) if p.kind == VERTEX else (p.a, p.b)
    return tuple(sorted(ball.elements[e] for e in ends))


@pytest.mark.parametrize("name", GROUP_NAMES)
@pytest.mark.parametrize("domain", ["vertices", "half"])
def test_median_slack_equals_the_brute_force_oracle(name, domain, brute):
    # the oracle prices every vertex, and midpoint with t_halves, near x by
    # a table of norms, with no ball, cache, seed, anchor or pruning; the
    # median must reach its slack with a t that attains it
    group, metric = brute(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    pts = domain_points(ball, 3, domain)
    rng = random.Random(53)
    for _ in range(60):
        triple = [pts[i] for i in rng.sample(range(len(pts)), 3)]
        brute_triple = [brute_point(ball, p) for p in triple]
        for t_halves in (True, False):
            med = median(ball, *triple, t_halves=t_halves)
            assert 2 * med.slack == \
                brute_median(metric, *brute_triple, t_halves=t_halves) == \
                brute_slack2(metric, brute_point(ball, med.t),
                             *brute_triple), (triple, t_halves)


@pytest.mark.parametrize("name,radius", [("heisenberg", 2), ("z2-abc", 3),
                                         ("f2", 2)])
def test_brute_delta_equals_estimate_delta(name, radius, brute):
    group, metric = brute(name)
    ball = build_ball(group, recommended_ball_radius(group, radius))
    est = estimate_delta(ball, radius, domain="vertices")
    assert est.sampling == "exhaustive"
    assert brute_delta(metric, radius, "vertices") == est.value


def test_slack_0_point_beyond_the_ball_radius(brute):
    # a triple of F2's half domain at R = 4: its slack-0 point a a a lies
    # 1/2 from y and z but 7 from x, beyond the radius-6 ball; the scan
    # around y finds it
    group, metric = brute("f2")
    ab = group.alphabet.parse_word
    aaa = ab("a,a,a")
    x, y, z = (ab("b,b,b,a^"),), (aaa, aaa + ab("b")), (aaa, aaa + ab("b^"))
    assert brute_median(metric, x, y, z) == 0
    ball = build_ball(group, recommended_ball_radius(group, 4))
    triple = [vp(ball, x[0]), mid(ball, *y), mid(ball, *z)]
    assert ball.radius == 6 and ball.try_distance(triple[0], vp(ball, aaa)) == 7
    for prune in (True, False):
        med = median(ball, *triple, prune=prune)
        assert (med.t, med.slack) == (vp(ball, aaa), 0)


@pytest.mark.parametrize("name,x,y,z", [
    # the least slack-0 vertex lies at shell 3 from x's end (-2,-1),
    # with 2 d(x, t) = 4m + 2
    ("z2-abc", ((-2, -1), (-3, -2)), ((1, 0), (1, 1)), ((2, 1), (3, 1))),
    # the identity, of slack 1, lies at shell 2 from x's end (-1,-1),
    # with 2 d(x, t) = 4m + 2
    ("z2-std", ((-1, -1), (-2, -1)), ((1, 0), (1, 1)), (0, 2)),
])
def test_annulus_pads_the_shells_of_a_midpoint_x(name, x, y, z):
    # a shell-m candidate of a midpoint x lies within 2 of m from x, so
    # the annulus keeps a shell that lies within pad of it
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    triple = [mid(ball, *p) if isinstance(p[0], tuple) else vp(ball, p)
              for p in (x, y, z)]
    assert median(ball, *triple) == median(ball, *triple, prune=False)


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "f2", "heisenberg"])
@pytest.mark.parametrize("undersized", [False, True])
def test_midpoint_slack_within_a_step_of_its_end(name, undersized, brute):
    # the search skips the midpoints at a vertex u whose slack is more
    # than 1 above the best; that is sound where u's three distances are
    # exact, which every distance short of FAR is, even on a small ball
    group, metric = brute(name)
    radius = 3 if undersized else recommended_ball_radius(group, 2)
    ball = build_ball(group, radius)
    pts = domain_points(ball, 2, "half")
    rng = random.Random(29)
    checked = 0
    for _ in range(20):
        triple = [pts[i] for i in rng.sample(range(len(pts)), 3)]
        brute_triple = [brute_point(ball, p) for p in triple]
        for u in range(len(ball)):
            t = Point.vertex(u)
            if any(ball.distance(p, t) >= FAR for p in triple):
                continue
            bound = brute_slack2(metric, brute_point(ball, t),
                                 *brute_triple) - 2
            for w in ball.adj[u]:
                if w >= 0:
                    assert brute_slack2(
                        metric, brute_point(ball, Point.half(u, w)),
                        *brute_triple) >= bound
                    checked += 1
    assert checked > 400


def test_midpoint_skip_keeps_medians(monkeypatch):
    # the skip trusts only distances short of FAR; medians with capped
    # and full searches come out the same without it
    group = get_group("heisenberg")
    ball = build_ball(group, recommended_ball_radius(group, 3))
    pts = domain_points(ball, 3, "half")
    rng = random.Random(31)
    cases = [(rng.sample(range(len(pts)), 3), rng.choice((None, F(0), F(1))))
             for _ in range(300)]

    def medians():
        return [median(ball, *(pts[i] for i in idx), cap=cap)
                for idx, cap in cases]

    skipping = medians()
    monkeypatch.setattr(ldelta._MedianSearch, "mids_lose",
                        lambda self, u, s: False)
    assert medians() == skipping


def test_midpoint_skip_keeps_midpoints_at_a_far_vertex(brute):
    # on the undersized ball u = (0,0,1), at norm 4, reads FAR from y, yet
    # its midpoints towards x and z tie the median's slack, so they could
    # still win; the skip sees u's slack as the search's rows price it
    ball = build_ball(get_group("heisenberg"), 4)
    metric = brute("heisenberg")[1]
    x, y, z = (vp(ball, e) for e in ((0, 1, 1), (1, 0, -1), (-1, 0, 1)))
    brute_triple = [brute_point(ball, p) for p in (x, y, z)]
    best2 = int(2 * median(ball, x, y, z).slack)
    assert best2 == 4
    search = ldelta._MedianSearch(ball, DistanceRows(ball), x, y, z, True)
    search.best_key = (best2,)
    xr, yr, zr = search.xr, search.yr, search.zr
    kept = 0
    for u in range(len(ball)):
        if all(row[u] < FAR for row in (xr, yr, zr)):
            continue
        s2 = max(xr[u] + yr[u] - search.dxy2, yr[u] + zr[u] - search.dyz2,
                 zr[u] + xr[u] - search.dzx2)
        for w in ball.adj[u]:
            if w >= 0 and brute_slack2(metric,
                                       brute_point(ball, Point.half(u, w)),
                                       *brute_triple) <= best2:
                assert not search.mids_lose(u, s2)
                kept += 1
    assert kept == 2


@pytest.mark.parametrize("name", GROUP_NAMES)
@pytest.mark.parametrize("domain", ["vertices", "half"])
def test_candidates_lie_in_the_gromov_annulus(name, domain):
    # around each triple point a, every point t of doubled slack s2 has
    # g4 - s2 <= 2 da2 <= min(near2 + s2, g4 + 2 s2), with g4 = 4 (b|c)_a
    # and near2 = 4 min(d(a, b), d(a, c)), and 2 da2 within pad of 4m at
    # each shell m around a's first end that it is offered on; a vertex
    # outside the radius-4 ball keeps the lower bound of outside_loses
    group = group_of(name)
    small = build_ball(group, 4)
    big = build_ball(group, 8, source=small)
    rows = DistanceRows(big)
    pts = domain_points(small, 2, domain)
    t_halves = domain == "half"
    rng = random.Random(43)
    checked = outside = 0
    for _ in range(6):
        triple = [pts[i] for i in rng.sample(range(len(pts)), 3)]
        search = ldelta._MedianSearch(small, DistanceRows(small), *triple,
                                      t_halves)
        triple_rows = [(p, rows.point_row(p)) for p in triple]

        def d2(t):  # doubled distances to x, y, z
            return [0 if p == t else ldelta._d2(p_row, t)
                    for p, p_row in triple_rows]

        pair2 = [d2(p) for p in triple]
        rotations = [(i, (i + 1) % 3, (i + 2) % 3) for i in range(3)]

        def slack2(d):
            return max(d[i] + d[j] - pair2[i][j] for i, j, _ in rotations)

        for u in range(len(big)):
            if big.dist[u] > 5:
                break
            cands = [(Point.vertex(u), (u,))]
            if t_halves:
                cands += [(Point.half(u, w), (u, w)) for w in big.adj[u]
                          if u < w]
            for t, ends in cands:
                d = d2(t)
                s2 = slack2(d)
                for i, j, k in rotations:
                    a = triple[i]
                    g4 = pair2[i][j] + pair2[i][k] - pair2[j][k]
                    near2 = 2 * min(pair2[i][j], pair2[i][k])
                    pad = 2 * (a.kind == HALF) + 2 * t_halves
                    assert g4 - s2 <= 2 * d[i] <= min(near2 + s2, g4 + 2 * s2)
                    for e in ends:
                        assert abs(2 * d[i] - 4 * (rows[a.a][e] // 2)) <= pad
                    checked += 1
            if big.dist[u] <= small.radius:
                continue
            search.best_key = (slack2(d2(Point.vertex(u))),)
            for a in triple:
                m = rows[a.a][u] // 2
                if m <= small.radius:
                    assert not search.outside_loses(m, a)
                    outside += 1
    assert checked > 900 and outside > 45


@pytest.mark.parametrize("name,radius", [
    ("z2-std", 4), ("z2-abc", 4), ("f2", 3), ("heisenberg", 3)])
def test_median_at_the_margin_equals_a_larger_ball(name, radius):
    # at recommended_ball_radius every distance that decides a search is
    # exact; FAR ones only price candidates that lose, so four more
    # shells of exact distances change no median
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, radius))
    larger = build_ball(group, ball.radius + 4, source=ball)
    pts = domain_points(ball, radius, "half")
    rng = random.Random(41)
    for _ in range(500):
        triple = [pts[i] for i in rng.sample(range(len(pts)), 3)]
        assert median(ball, *triple) == median(larger, *triple)


def test_median_of_a_far_pair_is_an_input_error():
    # a^3 and a^-3 are 6 apart, beyond the radius-3 ball
    ball = build_ball(get_group("z2-std"), 3)
    x, y, z = (vp(ball, e) for e in ((3, 0), (-3, 0), (0, 1)))
    assert ball.distance(x, y) == FAR
    with pytest.raises(InputError, match="recommended_ball_radius"):
        median(ball, x, y, z)


def test_median_whose_geodesic_leaves_the_ball_is_an_input_error():
    # every pair distance is exact, but the geodesic a a b^ of
    # (1,1)^-1 (3,0) runs from (1,1) through (3,1), of norm 4; the median
    # needs no walk along it and finds the point of a larger ball
    ball = build_ball(get_group("z2-std"), 3)
    x, y, z = (vp(ball, e) for e in ((1, 1), (3, 0), (0, 0)))
    with pytest.raises(InputError, match="geodesic leaves the ball"):
        ball.vertex_geodesic_word(x.a, y.a)
    big = build_ball(ball.group, 12, source=ball)
    med = median(ball, x, y, z)
    assert (ball.elements[med.t.a], med.slack) == ((1, 0), 0)
    assert med == median(big, x, y, z)


def seed_offers(ball, rows, triple, t_halves):
    """(vertex id, dx, dy, dz) of each vertex the seed offers, in order."""
    search = ldelta._MedianSearch(ball, rows, *triple, t_halves)
    offers = []
    offer = search._offer

    def recorded(kind, a, b, dx, dy, dz):
        if kind == VERTEX:
            offers.append((a, dx, dy, dz))
        offer(kind, a, b, dx, dy, dz)

    search._offer = recorded
    search.seed(-1)
    return offers


def test_seed_steps_inside_the_ball_where_the_tree_geodesic_leaves_it():
    # (y|z)_x = 1, and the tree geodesic a a b^ from x to y leaves the
    # ball; the descent on y's row steps from x to (2,1) inside it.  The
    # pair (y, z) then offers (1,0), of slack 0, which ends the seed
    ball = build_ball(get_group("z2-std"), 3)
    triple = [vp(ball, e) for e in ((1, 1), (3, 0), (0, 0))]
    offers = seed_offers(ball, DistanceRows(ball), triple, True)
    assert [ball.elements[t] for t, *_ in offers] == [(2, 1), (1, 0)]


@pytest.mark.parametrize("name", GROUP_NAMES)
@pytest.mark.parametrize("domain", ["vertices", "half"])
def test_seed_offers_lie_on_geodesics_at_the_gromov_product(name, domain,
                                                            brute):
    # each vertex t the seed offers lies, for a pair (a, b) with third
    # point c, on a geodesic from an end e of a nearest to b on to b, with
    # d(e, t) = floor((b|c)_a); it is offered at its true distances
    group, metric = brute(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    pts = domain_points(ball, 3, domain)
    rows = DistanceRows(ball)
    rng = random.Random(59)
    offered = 0
    for _ in range(60):
        triple = [pts[i] for i in rng.sample(range(len(pts)), 3)]
        brute_triple = [brute_point(ball, p) for p in triple]
        for tid, *dist2 in seed_offers(ball, rows, triple, domain == "half"):
            t = brute_point(ball, Point.vertex(tid))
            assert dist2 == [metric.d2(t, p) for p in brute_triple]
            found = False
            for i in range(3):
                a, b, c = (brute_triple[(i + k) % 3] for k in range(3))
                g4 = metric.d2(a, b) + metric.d2(a, c) - metric.d2(b, c)
                near = min(metric.d2((e,), b) for e in a)
                found |= any(metric.d2((e,), b) == near
                             and metric.d2((e,), t) == 2 * (g4 // 4)
                             and metric.d2((e,), t) + metric.d2(t, b) == near
                             for e in a)
            assert found, (triple, tid)
            offered += 1
    assert offered > 50


# caps in the search's doubled units are floor(2 * cap): -1/4 is no cap
CAPS = [None, F(-1), F(-1, 4), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2),
        F(3)]


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "f2", "heisenberg"])
def test_median_is_none_exactly_when_its_slack_is_within_the_cap(name):
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    pts = domain_points(ball, 3, "half")
    rng = random.Random(17)
    for _ in range(150):
        triple = [pts[i] for i in rng.sample(range(len(pts)), 3)]
        uncapped = median(ball, *triple)
        for cap in CAPS:
            got = median(ball, *triple, cap=cap)
            if cap is not None and uncapped.slack <= cap:
                assert got is None, (triple, cap)
            else:
                assert got == uncapped, (triple, cap)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_fill_search_is_none_exactly_when_its_slack_is_within_the_cap(name):
    # the vertex-only search of vankampen.fill on FillRows: the seed's
    # Gromov points and run's return before a vertex's midpoints may end a
    # capped search sooner, never with another answer, and a capped search
    # reads nothing past the ball that the uncapped one does not
    group = group_of(name)
    ball = build_ball(group, recommended_ball_radius(group, 3) + 4)
    pts = domain_points(ball, 3, "vertices")
    rows = FillRows(ball)
    rng = random.Random(23)
    within = 0
    for _ in range(150):
        triple = [pts[i] for i in rng.sample(range(len(pts)), 3)]
        uncapped = median(ball, *triple, t_halves=False, _rows=rows)
        for cap in CAPS:
            got = median(ball, *triple, cap=cap, t_halves=False, _rows=rows)
            if cap is not None and uncapped.slack <= cap:
                assert got is None, (triple, cap)
                within += 1
            else:
                assert got == uncapped, (triple, cap)
    assert within > 300


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_walks_follow_geodesics(name):
    # the path ball.geodesic returns descends q's distance row by one step
    # per generator, as the seed's steps do, and its length adds half a
    # step per midpoint to the vertex distance
    group = group_of(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    pts = domain_points(ball, 3, "half")
    kinds = {VERTEX: [p for p in pts if p.kind == VERTEX],
             HALF: [p for p in pts if p.kind == HALF]}
    rows = DistanceRows(ball)
    rng = random.Random(47)
    offsets = set()
    for kp, kq in ((VERTEX, VERTEX), (VERTEX, HALF), (HALF, VERTEX),
                   (HALF, HALF)):
        for _ in range(60):
            p, q = rng.choice(kinds[kp]), rng.choice(kinds[kq])
            if p == q:
                continue
            path = ball.geodesic(p, q)
            ids = [path.start_vertex]
            for gen in path.word:
                ids.append(ball.adj[ids[-1]][gen])
            assert ids[-1] == path.end_vertex
            end_row = rows[path.end_vertex]
            assert [end_row[t] for t in ids] == \
                list(range(2 * len(path.word), -1, -2))
            assert path.length == ball.try_distance(p, q)
            assert 2 * path.length == ldelta._d2(rows.point_row(p), q)
            offset = path.length - len(path.word)
            assert offset == F(kp + kq, 2)
            offsets.add(offset)
    assert offsets == {0, F(1, 2), 1}


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "f2", "heisenberg"])
def test_shared_chunk_cache_matches_fresh_median(name):
    # one cache serves a whole chunk of triples in estimate_delta; every
    # result must equal a search with a cache of its own
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    pts = domain_points(ball, 3, "half")
    rows = DistanceRows(ball)
    rng = random.Random(11)
    for _ in range(2000):
        x, y, z = (pts[i] for i in rng.sample(range(len(pts)), 3))
        for cap in (None, F(1)):
            assert median(ball, x, y, z, cap=cap, _rows=rows) == \
                median(ball, x, y, z, cap=cap)
    held = (sum(map(len, rows.values())) +
            sum(map(len, rows.mid_rows.values())))
    assert rows.held[0] == held


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "f2", "heisenberg"])
def test_cached_rows_hold_exact_distances(name):
    # the shell scan writes d(x, t) into x's row without vertex_distance;
    # every entry must still be what vertex_distance returns
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    pts = domain_points(ball, 3, "vertices")
    rows = DistanceRows(ball)
    rng = random.Random(17)
    for _ in range(300):
        x, y, z = (pts[i] for i in rng.sample(range(len(pts)), 3))
        for t_halves in (False, True):
            median(ball, x, y, z, t_halves=t_halves, prune=False, _rows=rows)
    checked = 0
    for u, row in rows.items():
        for v, d2 in row.items():
            assert d2 == 2 * ball.vertex_distance(u, v)
            checked += 1
    assert checked > 3_000


def test_chunk_cache_bound_keeps_results(monkeypatch):
    # a chunk whose cache outgrows the bound goes on with a fresh one, and
    # the dropped caches are freed without waiting for the cycle collector
    ball = build_ball(get_group("z2-abc"), recommended_ball_radius(
        get_group("z2-abc"), 4))
    run = dict(radius=4, domain="half", sampling="sampled", samples=3000,
               seed=5)
    unbounded = estimate_delta(ball, **run)
    made = []
    init = DistanceRows.__init__

    def counted(self, b):
        made.append(weakref.ref(self))
        init(self, b)

    monkeypatch.setattr(DistanceRows, "__init__", counted)
    monkeypatch.setattr(ldelta, "_CACHE_ENTRIES", 500)
    gc.disable()
    try:
        assert estimate_delta(ball, **run) == unbounded
        assert len(made) > 10
        assert all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_delta_search_reads_each_distance_once(monkeypatch):
    calls = [0]
    vertex_distance = BallIndex.vertex_distance

    def counted(self, u, v):
        calls[0] += 1
        return vertex_distance(self, u, v)

    monkeypatch.setattr(BallIndex, "vertex_distance", counted)
    ball = build_ball(get_group("z2-abc"), 8)
    est = estimate_delta(ball, 3, domain="vertices", sampling="exhaustive")
    assert est.value == 2
    # a group product per lookup made 153,720 calls on this domain
    assert calls[0] <= 153_720 // 10


def test_median_reads_distance_to_x_off_the_shell(monkeypatch):
    calls = [0]
    vertex_distance = BallIndex.vertex_distance

    def counted(self, u, v):
        calls[0] += 1
        return vertex_distance(self, u, v)

    monkeypatch.setattr(BallIndex, "vertex_distance", counted)
    ball = build_ball(get_group("z2-std"), 40)
    rng = random.Random(0)
    found = []
    for _ in range(300):
        x, y, z = (Point.vertex(v)
                   for v in rng.sample(range(ball.shell_start[21]), 3))
        med = median(ball, x, y, z, t_halves=False)
        found.append((med.t.kind, med.t.a, med.t.b, str(med.slack),
                      tuple(str(s) for s in med.pair_slacks)))
    assert hashlib.sha256(repr(found).encode()).hexdigest() == \
        DIGEST_300_Z2_MEDIANS
    # computing d(x, t) for each shell candidate made 351,696 calls
    assert calls[0] <= 280_000


# -- estimate_delta ---------------------------------------------------------

def test_z2_std_vertex_delta_is_zero(z2ball):
    est = estimate_delta(z2ball, 4, domain="vertices", sampling="exhaustive")
    assert est.value == 0
    assert est.sampling == "exhaustive"


def test_z2_std_half_delta_positive(z2ball):
    est = estimate_delta(z2ball, 6, domain="half", sampling="sampled",
                         samples=20000, seed=0)
    assert est.value == 1
    # witness reproduces the reported value
    m = median(z2ball, *est.witness, prune=False)
    assert m.slack == est.value


def test_half_domain_dominates_vertex_domain(z2ball):
    v = estimate_delta(z2ball, 5, domain="vertices", sampling="exhaustive")
    h = estimate_delta(z2ball, 5, domain="half", sampling="sampled",
                       samples=5000, seed=0)
    assert v.value == 0
    assert h.value >= v.value


def test_z2_abc_delta_grows():
    ball = build_ball(get_group("z2-abc"), 14)
    d3 = estimate_delta(ball, 3, domain="vertices", sampling="exhaustive")
    d6 = estimate_delta(ball, 6, domain="vertices", sampling="exhaustive")
    assert d3.value == 2  # frozen from exhaustive runs
    assert d6.value == 3
    assert d6.value > d3.value


def test_delta_nondecreasing_in_radius(z2ball):
    vals = []
    for r in (2, 3, 4):
        est = estimate_delta(z2ball, r, domain="half", sampling="exhaustive",
                             samples=4000)
        vals.append(est.value)
    assert vals == sorted(vals)


def _as_oracle(est):
    return est.value, est.witness, est.witness_median, est.triples_examined


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "f2", "heisenberg"])
@pytest.mark.parametrize("domain,radius", [("vertices", 3), ("half", 2)])
def test_exhaustive_delta_equals_one_search_per_triple(name, domain, radius):
    # the pre-filter and the translation classes skip searches, never
    # change the value, the witness or its median
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, radius))
    est = estimate_delta(ball, radius, domain=domain, sampling="exhaustive")
    assert est.sampling == "exhaustive"
    assert _as_oracle(est) == plain_exhaustive_delta(ball, radius, domain)


@pytest.mark.parametrize("domain,radius", [("vertices", 3), ("half", 2)])
def test_definition_file_delta_equals_the_built_in_group(tmp_path, domain,
                                                          radius):
    # the README's rules for Z^2 in shortlex order a a^ b b^, whose BFS
    # assigns z2-std's vertex ids, so even the witnesses agree
    path = tmp_path / "z2.grp"
    path.write_text(Z2_RULES_TEXT)
    estimates = []
    for group in (get_group(str(path)), get_group("z2-std")):
        ball = build_ball(group, recommended_ball_radius(group, radius))
        estimates.append(estimate_delta(ball, radius, domain))
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("name,radius,domain,ball_radius", [
    ("z2-abc", 3, "vertices", 4), ("heisenberg", 3, "vertices", 5),
    ("z2-abc", 2, "half", 3), ("z2-abc", 5, "vertices", 7),
    ("f2", 4, "half", 5)])
def test_delta_below_the_margin_is_an_input_error(
        name, radius, domain, ball_radius):
    group = get_group(name)
    assert ball_radius < recommended_ball_radius(group, radius)
    with pytest.raises(InputError, match="needs a ball of radius"):
        estimate_delta(build_ball(group, ball_radius), radius, domain=domain,
                       sampling="exhaustive")


@pytest.mark.parametrize("name", ["z2-abc", "heisenberg"])
def test_sampled_delta_equals_one_search_per_draw(name):
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    est = estimate_delta(ball, 3, domain="half", sampling="sampled",
                         samples=3000, seed=9)
    rng = random.Random(9)
    n = len(domain_points(ball, 3, "half"))
    draws = [tuple(rng.sample(range(n), 3)) for _ in range(3000)]
    assert _as_oracle(est) == plain_exhaustive_delta(ball, 3, "half", draws)


def _count_medians(monkeypatch):
    calls = [0]
    search = ldelta.median

    def counted(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(ldelta, "median", counted)
    return calls


def test_exhaustive_delta_searches_one_triple_per_class(monkeypatch):
    calls = _count_medians(monkeypatch)
    ball = build_ball(get_group("z2-abc"), 12)
    est = estimate_delta(ball, 5, domain="vertices", sampling="exhaustive")
    assert est.value == 3
    assert est.triples_examined == 121_485
    # one search per triple made 121,485 calls; there are 10,055 classes
    assert calls[0] <= 5_000


def test_exhaustive_delta_skips_midpoints_that_cannot_win(monkeypatch):
    calls = [0]
    consider_mid = ldelta._MedianSearch.consider_mid

    def counted(self, u, v):
        calls[0] += 1
        return consider_mid(self, u, v)

    monkeypatch.setattr(ldelta._MedianSearch, "consider_mid", counted)
    ball = build_ball(get_group("z2-abc"), 12)
    est = estimate_delta(ball, 5, domain="vertices", sampling="exhaustive")
    assert est.value == 3
    # offering every midpoint at each scanned vertex made 100,354 calls
    assert calls[0] <= 50_000


def test_exhaustive_delta_offers_gromov_points_first(monkeypatch):
    # the delta-z2abc configuration: the seed's Gromov points meet the
    # running cap or lower the best slack before the shell scan, so the
    # scan skips more midpoints
    calls = [0]
    consider_mid = ldelta._MedianSearch.consider_mid

    def counted(self, u, v):
        calls[0] += 1
        return consider_mid(self, u, v)

    monkeypatch.setattr(ldelta._MedianSearch, "consider_mid", counted)
    ball = build_ball(get_group("z2-abc"), 12)
    est = estimate_delta(ball, 5, domain="vertices", sampling="exhaustive")
    assert est.value == 3
    # a seed that walked three full geodesics before any Gromov point
    # made 37,599 calls
    assert calls[0] <= 30_000


@pytest.mark.parametrize("name,on", [("f2", False), ("heisenberg", True),
                                     ("z2-abc", True)])
def test_translation_classes_need_translates(name, on):
    # a pair of F2 r3 vertices has about 2 translates in the domain, so
    # classes save few searches there; Heisenberg has 4.7, z2-abc 10.8
    group = get_group(name)
    ball = build_ball(group, recommended_ball_radius(group, 3))
    points = domain_points(ball, 3, "vertices")
    assert (ldelta._translation_key(ball, points) is not None) == on


def test_exhaustive_cap_forces_sampling(f2ball):
    est = estimate_delta(f2ball, 6, domain="vertices", sampling="exhaustive",
                         samples=2000, seed=0)
    assert est.sampling.startswith("sampled(")
    assert est.value == 0


def test_domain_points_respect_radius(z2ball):
    for r in (2, 4):
        for dom in ("vertices", "half"):
            for p in domain_points(z2ball, r, dom):
                assert z2ball.point_norm(p) <= r


def test_negative_domain_radius_is_an_input_error(z2ball):
    # a domain of norm <= -1 is empty, and its delta-hat of 0 meaningless
    with pytest.raises(InputError, match="domain radius must be >= 0"):
        domain_points(z2ball, -1, "vertices")
    with pytest.raises(InputError, match="domain radius must be >= 0"):
        estimate_delta(z2ball, -1)


def test_estimate_delta_reads_far_at_its_margin(monkeypatch):
    # the search of estimate_delta prices candidates beyond the ball as
    # FAR and goes on; only vankampen.fill's rows signal them
    group = get_group("z2-abc")
    ball = build_ball(group, recommended_ball_radius(group, 5))
    far = [0]
    vertex_distance = BallIndex.vertex_distance

    def counted(self, u, v):
        d = vertex_distance(self, u, v)
        far[0] += d == FAR
        return d

    monkeypatch.setattr(BallIndex, "vertex_distance", counted)
    est = estimate_delta(ball, 5, domain="vertices", sampling="exhaustive")
    assert est.value == 3
    assert far[0] > 0
