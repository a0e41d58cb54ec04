import copy
import random
from fractions import Fraction

import pytest

from cayleylab import ball as ball_mod
from cayleylab.ball import FAR, VERTEX, Point, build_ball
from cayleylab.errors import InputError, ResourceError
from cayleylab.groups import RewritingGroup, get_group
from cayleylab.ldelta import median
from cayleylab.rewriting import parse_group_file
from oracles import (free_distance, heisenberg_ball, z2_abc_norm, z2_std_norm)
from test_rewriting import Z2_RULES_TEXT

HALF = Fraction(1, 2)


def test_z2_std_ball_counts():
    ball = build_ball(get_group("z2-std"), 2)
    assert len(ball) == 13  # 2R^2 + 2R + 1
    for radius in range(5):
        assert len(build_ball(get_group("z2-std"), radius)) == \
            2 * radius * radius + 2 * radius + 1


def test_f2_ball_counts():
    assert len(build_ball(get_group("f2"), 2)) == 17  # 1 + 4 + 4*3


def test_heisenberg_ball_matches_oracle_bfs():
    ball = build_ball(get_group("heisenberg"), 4)
    oracle = heisenberg_ball(4)
    assert len(ball) == len(oracle)
    for vid, e in enumerate(ball.elements):
        assert ball.dist[vid] == oracle[e]
    assert ball.dist[ball.index[(0, 0, 1)]] == 4


@pytest.mark.parametrize("name,norm", [
    ("z2-std", z2_std_norm),
    ("z2-abc", z2_abc_norm),
])
def test_bfs_layers_match_norm_oracle(name, norm):
    ball = build_ball(get_group(name), 6)
    for vid, e in enumerate(ball.elements):
        assert ball.dist[vid] == norm(e)


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "f2", "heisenberg"])
def test_bfs_layer_equals_geodesic_word_length(name):
    group = get_group(name)
    ball = build_ball(group, 4)
    for vid, e in enumerate(ball.elements):
        w = ball.word_to(e)
        assert len(w) == ball.dist[vid]
        assert group.evaluate(w) == e


@pytest.mark.parametrize("name,radius", [
    ("z2-std", 9), ("z2-abc", 6), ("f2", 5), ("heisenberg", 6), ("z2-rules", 6),
])
def test_adjacency_and_bfs_tree_match_group(name, radius):
    """Every row, outer shell included, is the in-ball image under apply,
    each parent edge steps exactly one layer down, and every in-ball edge
    goes both ways, which makes the ball connected from every vertex."""
    if name == "z2-rules":
        group = RewritingGroup(name, parse_group_file(Z2_RULES_TEXT)[1])
    else:
        group = get_group(name)
    ball = build_ball(group, radius)
    assert ball.shell(radius).stop == len(ball)
    for v, e in enumerate(ball.elements):
        assert ball.adj[v] == [ball.index.get(group.apply(e, g), -1)
                               for g in range(len(group.alphabet))]
        for g, w in enumerate(ball.adj[v]):
            if w >= 0:
                assert ball.adj[w][g ^ 1] == v
        if v:
            parent = ball.adj[v][ball.parent_gen[v] ^ 1]
            assert ball.dist[v] == ball.dist[parent] + 1


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "f2", "heisenberg"])
def test_growth_is_strictly_monotone(name):
    group = get_group(name)
    sizes = [len(build_ball(group, radius)) for radius in range(9)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_adjacency_is_involutive():
    for name in ["z2-std", "z2-abc", "f2", "heisenberg"]:
        group = get_group(name)
        ball = build_ball(group, 3)
        for u, row in enumerate(ball.adj):
            for gen, v in enumerate(row):
                if v >= 0:
                    assert ball.adj[v][gen ^ 1] == u
                assert v < 0 or abs(ball.dist[u] - ball.dist[v]) <= 1


def test_z2_vertex_distance_is_l1():
    ball = build_ball(get_group("z2-std"), 9)
    origin = Point.vertex(ball.index[(0, 0)])
    target = Point.vertex(ball.index[(3, 4)])
    assert ball.distance(origin, target) == 7


def test_half_edge_midpoint_distance():
    ball = build_ball(get_group("z2-std"), 4)
    o = ball.index[(0, 0)]
    a = ball.index[(1, 0)]
    b = ball.index[(0, 1)]
    m1 = Point.half(o, a)
    m2 = Point.half(o, b)
    assert ball.distance(m1, m2) == 1
    assert ball.distance(m1, m1) == 0
    # half-point consistency: midpoint is exactly 1/2 from both endpoints
    assert ball.distance(m1, Point.vertex(o)) == HALF
    assert ball.distance(m1, Point.vertex(a)) == HALF


def test_distance_metric_axioms_sampled():
    for name in ["z2-std", "z2-abc", "f2", "heisenberg"]:
        group = get_group(name)
        ball = build_ball(group, 6)
        inner = [vid for vid in range(len(ball)) if ball.dist[vid] <= 2]
        edges = [e for e in ball.edges
                 if max(ball.dist[e[0]], ball.dist[e[1]]) <= 2]
        points = [Point.vertex(v) for v in inner] + \
                 [Point.half(u, v) for u, v in edges]
        rng = random.Random(42)
        for _ in range(2500):
            p, q, r = (rng.choice(points) for _ in range(3))
            dpq = ball.distance(p, q)
            assert dpq == ball.distance(q, p)
            assert dpq >= 0 and (dpq == 0) == (p == q)
            assert dpq <= ball.distance(p, r) + ball.distance(r, q)


@pytest.mark.parametrize("name", ["z2-std", "z2-abc", "heisenberg"])
def test_vertex_distance_beyond_the_ball_is_far(name):
    # a^2 and a^-2 are 4 apart, beyond the radius-2 ball: no estimate
    # from inside it, and no geodesic
    ball = build_ball(get_group(name), 2)
    u, v = (Point.vertex(ball.index[ball.group.evaluate(
        ball.group.alphabet.parse_word(w))]) for w in ("a,a", "a^,a^"))
    assert ball.vertex_distance(u.a, v.a) == FAR > ball.radius
    assert ball.vertex_distance(v.a, u.a) == FAR
    assert ball.vertex_distance(u.a, 0) == 2
    with pytest.raises(InputError):
        ball.geodesic(u, v)


def test_f2_distance_matches_tree_oracle():
    ball = build_ball(get_group("f2"), 5)
    rng = random.Random(8)
    ids = list(range(len(ball)))
    for _ in range(500):
        u, v = rng.choice(ids), rng.choice(ids)
        assert ball.vertex_distance(u, v) == \
            free_distance(ball.elements[u], ball.elements[v])


def test_geodesic_examples():
    z2 = build_ball(get_group("z2-std"), 6)
    path = z2.geodesic(Point.vertex(z2.index[(0, 0)]),
                       Point.vertex(z2.index[(2, 0)]))
    assert path.length == 2
    assert z2.group.evaluate(path.word) == (2, 0)

    f2 = build_ball(get_group("f2"), 4)
    ab = Point.vertex(f2.index[f2.group.alphabet.parse_word("a,b")])
    a = Point.vertex(f2.index[f2.group.alphabet.parse_word("a")])
    path = f2.geodesic(ab, a)
    assert path.length == 1
    assert path.word == f2.group.alphabet.parse_word("b^")

    abc = build_ball(get_group("z2-abc"), 8)
    path = abc.geodesic(Point.vertex(abc.index[(0, 0)]),
                        Point.vertex(abc.index[(2, 2)]))
    assert path.length == 2
    assert path.word == abc.group.alphabet.parse_word("c,c")


def test_geodesic_length_equals_distance_sampled():
    """Vertices and midpoints alike: the path joins an end of p to an end
    of q inside the ball, and its length is the distance, which adds half
    a step per midpoint to the length of its word."""
    for name in ["z2-std", "z2-abc", "heisenberg", "f2", "z2-rules"]:
        ball = build_ball(_named_group(name), 6)
        inner = [vid for vid in range(len(ball)) if ball.dist[vid] <= 3]
        points = [Point.vertex(u) for u in inner] + [
            Point.half(u, v) for u in inner for v in ball.adj[u]
            if v > u and ball.dist[v] <= 3]
        rng = random.Random(4)
        offsets = set()
        for _ in range(300):
            p, q = rng.choice(points), rng.choice(points)
            path = ball.geodesic(p, q)
            assert path.length == ball.distance(p, q)
            assert path.start_vertex in (p.a, p.b)
            assert path.end_vertex in (q.a, q.b)
            halves = (p.kind != VERTEX) + (q.kind != VERTEX)
            if p == q:
                assert path.word == ()
            else:
                assert path.length == len(path.word) + HALF * halves
                offsets.add(path.length - len(path.word))
            cur = path.start_vertex
            for gen in path.word:
                cur = ball.adj[cur][gen]
                assert cur >= 0
            assert cur == path.end_vertex
        assert offsets == {0, HALF, 1}, name


def test_sphere_pairs_z2_std():
    ball = build_ball(get_group("z2-std"), 3)
    pairs = ball.sphere_pairs(1)
    assert len(pairs) == 6  # all pairs of the four axis vertices are <= 2 apart
    for u, v in pairs:
        assert ball.dist[u] == 1 and ball.dist[v] == 1
        assert ball.vertex_distance(u, v) <= 2


def test_sphere_pairs_f2():
    ball = build_ball(get_group("f2"), 3)
    assert len(ball.sphere_pairs(1)) == 6


def test_sphere_pairs_n0_empty():
    for name in ["z2-std", "f2"]:
        ball = build_ball(get_group(name), 2)
        assert ball.sphere_pairs(0) == {}


def test_sphere_pairs_range_check():
    ball = build_ball(get_group("z2-std"), 3)
    with pytest.raises(InputError):
        ball.sphere_pairs(3)


def test_point_outside_ball_rejected():
    ball = build_ball(get_group("z2-std"), 2)
    with pytest.raises(InputError):
        ball.distance(Point.vertex(0), Point.vertex(len(ball) + 5))


def test_non_canonical_points_rejected():
    # Point(HALF, v, u) with u < v is the midpoint Point.half(u, v), and
    # Point(VERTEX, u, 7) the vertex u, but neither compares equal to it;
    # unchecked, such a point reads 1 apart from its twin and makes a
    # triple of two distinct points look like three
    ball = build_ball(get_group("z2-std"), 6)
    u, v = ball.edges[0]
    mid = Point.half(u, v)
    for p in (Point(VERTEX, 3, 7), Point(mid.kind, v, u),
              Point(mid.kind, u, u), Point(2, u, v)):
        with pytest.raises(InputError):
            ball.check_point(p)
    with pytest.raises(InputError):
        ball.distance(mid, Point(mid.kind, v, u))
    with pytest.raises(InputError):
        median(ball, Point.vertex(3), Point(VERTEX, 3, 7), Point.vertex(20))
    ball.check_point(Point.vertex(3))
    ball.check_point(mid)


# -- balls derived from a source ball -----------------------------------------

Z5_RULES_TEXT = """\
# Z/5: the BFS ends at radius 2
generators: a
order: a a^
a a a -> a^ a^
a^ a^ a^ -> a a
"""
BALL_FIELDS = ("elements", "index", "dist", "parent_gen", "adj", "shell_start",
               "radius")


# cyclic groups Z/n on one generator, for the bipartite tests below
CYCLIC_RULES_TEXT = {
    "c1-rules": "a -> \na^ -> \n",
    "c2-rules": "a^ -> a\na a -> \n",
    "c6-rules": "a a a a -> a^ a^\na^ a^ a^ -> a a a\n",
}


def _named_group(name):
    if name == "z2-rules":
        return RewritingGroup(name, parse_group_file(Z2_RULES_TEXT)[1])
    if name == "z5-rules":
        return RewritingGroup(name, parse_group_file(Z5_RULES_TEXT)[1])
    if name in CYCLIC_RULES_TEXT:
        text = "generators: a\norder: a a^\n" + CYCLIC_RULES_TEXT[name]
        return RewritingGroup(name, parse_group_file(text)[1])
    return get_group(name)


@pytest.mark.parametrize("name,radius", [
    ("z2-std", 8), ("z2-abc", 6), ("f2", 4), ("heisenberg", 5),
    ("z2-rules", 6), ("z5-rules", 5),
])
def test_ball_from_source_equals_fresh_build(name, radius):
    """Growing a source ball gives the fresh build, field by field; a
    source at least as large as the radius asked for is rejected."""
    group = _named_group(name)
    fresh = [build_ball(group, r) for r in range(radius + 1)]
    for r0 in range(radius + 1):
        source = build_ball(group, r0)
        for r in range(radius + 1):
            if r <= r0:
                with pytest.raises(InputError):
                    build_ball(group, r, source=source)
                continue
            ball = build_ball(group, r, source=source)
            for field in BALL_FIELDS:
                assert getattr(ball, field) == getattr(fresh[r], field), \
                    (r0, r, field)


def test_ball_from_source_hits_the_cap_like_a_fresh_build(monkeypatch):
    group = get_group("z2-std")
    z5 = _named_group("z5-rules")
    # the source balls are built under the default cap
    sources = [build_ball(group, r0) for r0 in range(7)]
    z5_source = build_ball(z5, 3)
    for radius, cap, r0 in ((10, 100, 3), (10, 100, 6), (6, 84, 2)):
        monkeypatch.setattr(ball_mod, "MAX_VERTICES", cap)
        with pytest.raises(ResourceError) as fresh:
            build_ball(group, radius)
        with pytest.raises(ResourceError) as derived:
            build_ball(group, radius, source=sources[r0])
        assert str(derived.value) == str(fresh.value)
    # Z/5 is whole at radius 2, so growing its ball discovers nothing
    monkeypatch.setattr(ball_mod, "MAX_VERTICES", 4)
    with pytest.raises(ResourceError):
        build_ball(z5, 4)
    with pytest.raises(ResourceError):
        build_ball(z5, 4, source=z5_source)
    # exactly at the cap both succeed: |B(6)| = 85
    monkeypatch.setattr(ball_mod, "MAX_VERTICES", 85)
    assert len(build_ball(group, 6, source=sources[2])) == 85


def test_ball_from_source_of_another_group_rejected():
    with pytest.raises(InputError):
        build_ball(get_group("z2-std"), 2, source=build_ball(get_group("f2"), 3))


# -- the outer shell of a bipartite group -------------------------------------

BIPARTITE = {"f2": True, "f3": True, "heisenberg": True, "z2-std": True,
             "z2-rules": True, "c2-rules": True, "c6-rules": True,
             "z2-abc": False, "c1-rules": False, "z5-rules": False}


def _not_bipartite(group):
    """A copy of group whose bipartite reads False, so that its balls
    find their outer shell's edges by group products."""
    plain = copy.copy(group)
    plain.__class__ = type("Plain", (type(group),),
                           {"bipartite": property(lambda self: False)})
    return plain


@pytest.mark.parametrize("name", sorted(BIPARTITE))
def test_bipartite_outer_shell_equals_the_product_build(name):
    group = _named_group(name)
    plain = _not_bipartite(group)
    assert not plain.bipartite
    for r in range(6):
        expected = build_ball(plain, r)
        balls = [build_ball(group, r)]
        balls += [build_ball(group, r, source=build_ball(group, r0))
                  for r0 in range(r)]
        for r0, ball in enumerate(balls, -1):
            for field in BALL_FIELDS:
                assert getattr(ball, field) == getattr(expected, field), \
                    (r0, r, field)


@pytest.mark.parametrize("name", sorted(BIPARTITE))
def test_bipartite_iff_no_edge_within_a_shell(name):
    group = _named_group(name)
    assert group.bipartite is BIPARTITE[name]
    ball = build_ball(_not_bipartite(group), 4)  # every row from products
    same_shell = any(ball.dist[u] == ball.dist[w]
                     for u, row in enumerate(ball.adj) for w in row if w >= 0)
    assert group.bipartite is not same_shell


def test_bipartite_build_skips_the_outer_shell_products():
    group = get_group("f2")
    calls = 0
    apply = group.apply

    def counted(e, gen):
        nonlocal calls
        calls += 1
        return apply(e, gen)

    group.apply = counted
    build_ball(group, 6)
    # one product per generator on each vertex of B_5; a build that also
    # multiplies out the outer shell makes 4 |B_6| = 5,828
    assert calls == 4 * 485
