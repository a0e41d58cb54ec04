import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from cayleylab import ldelta, vankampen
from cayleylab.ball import BallIndex, Point, build_ball
from cayleylab.errors import BallTooSmall, InputError
from cayleylab.groups import get_group
from cayleylab.ldelta import DistanceRows, FillRows, median
from cayleylab.vankampen import (SUBCUBIC_EXPONENT, ContractionError, Loop,
                                 adaptive, canonical_identity_word, dehn_scan,
                                 fill, fixed, random_identity_word,
                                 split_loop, to_conjugate_product,
                                 trisection_cells)
from cayleylab.words import concat, free_reduce, invert
from test_cli import Z2_RULES


@pytest.fixture(scope="module")
def z2():
    return get_group("z2-std")


@pytest.fixture(scope="module")
def z2ball(z2):
    return build_ball(z2, 64)


def commutator(group, k):
    return canonical_identity_word(group, 4 * k)


# -- decomposition identity -------------------------------------------------

def test_trisection_identity_random_words(z2):
    ab = z2.alphabet
    rng = random.Random(17)
    for _ in range(1000):
        a, b, c, p, q, r = (tuple(rng.randrange(len(ab))
                                  for _ in range(rng.randrange(8)))
                            for _ in range(6))
        cells, conjs = trisection_cells(a, b, c, p, q, r)
        product = []
        for cell, conj in zip(cells, conjs):
            product.extend(concat(conj, cell, invert(conj)))
        assert free_reduce(tuple(product)) == \
            free_reduce(concat(a, b, c))


# -- split_loop -------------------------------------------------------------

def test_split_loop_offsets_and_contraction(z2, z2ball):
    w = commutator(z2, 6)  # n = 24
    children, conjugators = split_loop(z2ball, Loop(z2.identity(), w),
                                       DistanceRows(z2ball))
    assert len(children) == len(conjugators) == 3
    for child in children:
        assert len(child.word) < len(w)
        assert z2.evaluate(child.word) == z2.identity()


def test_split_loop_rejects_short_loop(z2, z2ball):
    with pytest.raises(InputError):
        split_loop(z2ball, Loop(z2.identity(), (0, 1)),  # a a^, length 2
                   DistanceRows(z2ball))


def test_split_loop_rejects_open_path(z2, z2ball):
    with pytest.raises(InputError):
        split_loop(z2ball, Loop(z2.identity(), (0, 0, 2, 2)),  # a a b b
                   DistanceRows(z2ball))


def test_split_loop_degenerate_marked_vertices(z2, z2ball):
    # a back-and-forth loop revisits the base at both split offsets
    w = (0, 1) * 6  # (a a^)^6
    children, _ = split_loop(z2ball, Loop(z2.identity(), w),
                             DistanceRows(z2ball))
    for child in children:
        assert z2.evaluate(child.word) == z2.identity()
        assert len(child.word) < len(w)


# -- fill -------------------------------------------------------------------

def test_fill_trivial_single_leaf(z2, z2ball):
    tree = fill(z2ball, z2.alphabet.parse_word("a,b,a^,b^"), fixed(4))
    assert not tree.root.children
    assert tree.leaf_count == 1
    assert tree.depth == 0


def test_fill_free_group_word_reduces_away():
    group = get_group("f2")
    w = group.alphabet.parse_word("a,b,b^,a^")
    tree = fill(build_ball(group, 2), w, fixed(4))
    assert tree.leaf_count == 1
    assert tree.root.loop.word == ()


def test_fill_rejects_non_identity_word(z2, z2ball):
    with pytest.raises(InputError):
        fill(z2ball, (0, 2), fixed(4))  # a b


def test_fill_commutators(z2, z2ball):
    for k in (2, 4, 6, 8):
        w = commutator(z2, k)
        n = len(w)
        tree = fill(z2ball, w, adaptive(4))
        assert tree.max_leaf_length <= tree.threshold
        assert tree.depth <= math.ceil(math.log(n, 1.5)) + 4
        assert tree.leaf_count <= 3 ** tree.depth
        # every leaf is a relator of the induced presentation
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.children:
                assert z2.evaluate(node.loop.word) == z2.identity()
            stack.extend(node.children)


def test_fill_fixed_policy_raises_on_contraction_failure(z2, z2ball):
    # threshold 1 forces splitting of unshrinkable 4-letter cells
    with pytest.raises(ContractionError):
        fill(z2ball, commutator(z2, 4), fixed(1))


def test_fill_adaptive_policy_always_terminates(z2, z2ball):
    tree = fill(z2ball, commutator(z2, 4), adaptive(1))
    assert tree.threshold >= 2
    assert tree.max_leaf_length <= tree.threshold


@pytest.mark.parametrize("name,lengths", [("z2-std", (16, 24)),
                                          ("z2-abc", (16, 24)),
                                          ("heisenberg", (10, 12))])
def test_fill_shared_cache_matches_fresh_caches(monkeypatch, name, lengths):
    group = get_group(name)
    draw = build_ball(group, max(lengths) // 2)
    words = [random_identity_word(group, n, seed, ball=draw)
             for n in lengths for seed in range(4)]
    if canonical_identity_word(group, 8) is not None:
        words += [commutator(group, k) for k in range(2, 6)]
    else:
        # Heisenberg commutators are central, so these are identities
        def comm(u, v):
            return concat(u, v, invert(u), invert(v))

        a, b = (0,), (2,)
        words += [comm(comm(a, b), a), comm(comm(a, b), b * 2),
                  free_reduce(comm(a, b * 2) + invert(comm(a * 2, b)))]
        assert {group.evaluate(w) for w in words} == {group.identity()}
    # a fill that grows the ball starts a cache on the grown one; each
    # cache is checked against its own ball
    ball = build_ball(group, max(lengths))
    caches = {}
    split = vankampen.split_loop

    def recording(b, loop, rows):
        caches[id(rows)] = (b, rows)
        return split(b, loop, rows)

    monkeypatch.setattr(vankampen, "split_loop", recording)
    shared = [fill(ball, w) for w in words]
    assert sum(t.leaf_count > 1 for t in shared) >= 3
    for b, rows in caches.values():
        for u, row in rows.items():
            for v, d2 in row.items():
                assert d2 == 2 * b.vertex_distance(u, v)

    monkeypatch.setattr(vankampen, "split_loop",
                        lambda b, loop, rows: split(b, loop, FillRows(b)))
    assert [fill(ball, w) for w in words] == shared


def test_fill_cache_bound_keeps_results(monkeypatch, z2, z2ball):
    # a fill whose cache outgrows the bound goes on with a fresh one, and
    # the dropped caches are freed without waiting for the cycle collector
    w = commutator(z2, 10)
    unbounded = fill(z2ball, w)
    made = []
    init = DistanceRows.__init__

    def counted(self, b):
        made.append(weakref.ref(self))
        init(self, b)

    monkeypatch.setattr(DistanceRows, "__init__", counted)
    monkeypatch.setattr(ldelta, "_CACHE_ENTRIES", 200)
    gc.disable()
    try:
        assert fill(z2ball, w) == unbounded
        assert len(made) == 4
        assert all(ref() is None for ref in made)
    finally:
        gc.enable()


# -- conjugate product ------------------------------------------------------

def test_single_leaf_product(z2, z2ball):
    w = z2.alphabet.parse_word("a,b,a^,b^")
    prod = to_conjugate_product(fill(z2ball, w, fixed(4)))
    assert prod == [((), w)]


def test_conjugate_product_commutators(z2, z2ball):
    for k in (2, 4, 6):
        w = commutator(z2, k)
        tree = fill(z2ball, w, adaptive(4))
        prod = to_conjugate_product(tree)
        assert len(prod) == tree.leaf_count
        flat = []
        for g, r in prod:
            assert len(r) <= tree.threshold
            assert z2.evaluate(r) == z2.identity()
            flat.extend(concat(g, r, invert(g)))
        assert free_reduce(tuple(flat)) == free_reduce(w)


# -- random identity words --------------------------------------------------

def test_random_identity_word_properties(z2):
    ball = build_ball(z2, 12)
    for n in (2, 9, 20):
        for seed in range(5):
            w = random_identity_word(z2, n, seed, ball=ball)
            assert len(w) <= n
            assert z2.evaluate(w) == z2.identity()
    assert random_identity_word(z2, 20, 7, ball=ball) == \
        random_identity_word(z2, 20, 7, ball=ball)
    with pytest.raises(InputError):
        random_identity_word(z2, 1, 0, ball=build_ball(z2, 0))


def test_random_identity_word_free_group():
    group = get_group("f2")
    w = random_identity_word(group, 16, 3, ball=build_ball(group, 0))
    assert w == ()  # the closure exactly unwinds the reduced walk


def test_random_identity_word_needs_its_end_in_the_ball():
    # Heisenberg has no closed-form geodesics, so the way back is read off
    # the ball's BFS tree, and every ball containing the walk's end gives
    # the same word
    group = get_group("heisenberg")
    with pytest.raises(BallTooSmall):
        random_identity_word(group, 8, 0, ball=build_ball(group, 0))
    small = build_ball(group, 4)
    w = random_identity_word(group, 8, 0, ball=small)
    assert group.evaluate(w) == group.identity()
    assert w == random_identity_word(group, 8, 0,
                                     ball=build_ball(group, 9, source=small))


# -- dehn_scan --------------------------------------------------------------

def test_canonical_identity_word():
    z2 = get_group("z2-std")
    assert canonical_identity_word(z2, 8) == (0, 0, 2, 2, 1, 1, 3, 3)
    assert canonical_identity_word(get_group("f2"), 8) is None
    assert canonical_identity_word(z2, 3) is None


def test_dehn_scan_z2_slope():
    scan = dehn_scan(get_group("z2-std"), [8, 12, 16], 3, adaptive(4), seed=0)
    assert len(scan.records) == 3
    for n, count, mx, mean in scan.records:
        assert count == 4  # 3 samples plus the commutator word
        assert 1 <= mean <= mx
        assert mx <= n ** SUBCUBIC_EXPONENT
    assert scan.slope is not None
    # the tight slope bound needs acceptance-scale lengths; here only
    # check the fit is sane at small n
    assert 0 < scan.slope < 4
    assert abs(SUBCUBIC_EXPONENT - 2.7095) < 1e-3


def test_dehn_scan_single_length_has_no_fit():
    scan = dehn_scan(get_group("z2-std"), [8], 2, adaptive(4), seed=0)
    assert scan.slope is None


def test_dehn_scan_thread_invariance():
    kw = dict(samples_per_length=2, policy=adaptive(4), seed=1)
    one = dehn_scan(get_group("z2-std"), [8, 12], threads=1, **kw)
    four = dehn_scan(get_group("z2-std"), [8, 12], threads=4, **kw)
    assert one.records == four.records
    assert one.slope == four.slope


@pytest.mark.parametrize("threads", [1, 4])
def test_dehn_scan_rebuilds_at_needed_radius(monkeypatch, threads):
    # the words are drawn from a ball of radius 24 // 2, and the fills
    # grow it on demand, by a quarter of its radius and at least 4: the
    # z2-std fills need no more than that ball, and a Heisenberg hard word
    # grows a radius-0 ball three times
    radii = []

    def recording_build(group, radius, *args, **kwargs):
        radii.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(vankampen, "build_ball", recording_build)
    scan = dehn_scan(get_group("z2-std"), [16, 24], 4, adaptive(4), seed=0,
                     threads=threads)
    assert sorted(radii) == [12]
    assert scan.records == [(16, 5, 9, Fraction(5)),
                            (24, 5, 19, Fraction(31, 5))]
    heis = get_group("heisenberg")
    tree = fill(build_ball(heis, 0), heisenberg_hard_word(2))
    assert radii[1:] == [4, 8, 12] and tree.ball.radius == 12


def test_dehn_scan_resumes_at_grown_threshold(monkeypatch):
    calls, distances = [0], [0]
    split = vankampen.split_loop
    vertex_distance = BallIndex.vertex_distance

    def counted(ball, loop, rows):
        calls[0] += 1
        return split(ball, loop, rows)

    def counted_distance(self, u, v):
        distances[0] += 1
        return vertex_distance(self, u, v)

    monkeypatch.setattr(vankampen, "split_loop", counted)
    monkeypatch.setattr(BallIndex, "vertex_distance", counted_distance)
    scan = dehn_scan(get_group("z2-std"), [16, 24], 4, adaptive(4), seed=0)
    assert scan.records == [(16, 5, 9, Fraction(5)),
                            (24, 5, 19, Fraction(31, 5))]
    # restarting each rebuilt fill at t0 = 4 made 73 calls; a fresh cache
    # per split and a split per loop per restart made 50 calls and 2,838
    # distances
    assert calls[0] <= 46
    assert distances[0] <= 2_000


def test_dehn_scan_f2_sizes_balls_to_its_words(monkeypatch):
    # f2 has closed-form geodesics, so the scan starts on the radius-0
    # ball; every f2 identity word freely reduces to the empty word, which
    # fills without a split
    radii = []

    def recording_build(group, radius, *args, **kwargs):
        radii.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(vankampen, "build_ball", recording_build)
    scan = dehn_scan(get_group("f2"), [8, 12], 2, adaptive(4), seed=0)
    assert radii == [0]
    assert scan.records == [(8, 2, 1, Fraction(1)), (12, 2, 1, Fraction(1))]


def test_dehn_scan_heisenberg_sizes_ball_to_its_words(monkeypatch):
    # the records are those of a scan on one ball of radius 28; every
    # fill stays on the radius-8 ball the scan draws its words from
    radii = []

    def recording_build(group, radius, *args, **kwargs):
        radii.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(vankampen, "build_ball", recording_build)
    scan = dehn_scan(get_group("heisenberg"), [8, 12, 16], 5, adaptive(4),
                     seed=0)
    assert scan.records == [(8, 5, 1, Fraction(1)), (12, 5, 1, Fraction(1)),
                            (16, 5, 3, Fraction(7, 5))]
    assert scan.slope == 1.4809338379276697
    assert scan.threshold == 8
    assert radii == [8]


def test_dehn_scan_builds_one_ball_by_bfs():
    # the scan builds one ball, and a fill that outgrows it resumes its BFS
    group = get_group("z2-std")
    calls = [0]
    apply = group.apply

    def counted(e, gen):
        calls[0] += 1
        return apply(e, gen)

    group.apply = counted
    scan = dehn_scan(group, [16, 24], 4, adaptive(4), seed=0)
    assert scan.records == [(16, 5, 9, Fraction(5)),
                            (24, 5, 19, Fraction(31, 5))]
    # one fresh build per ball made 44,142 calls
    assert calls[0] <= 20_000


def test_dehn_scan_needs_a_word_per_length():
    with pytest.raises(InputError):
        dehn_scan(get_group("f2"), [8, 12], 0, adaptive(4))


def test_dehn_scan_rejects_a_negative_sample_count():
    # range(-1) is empty, so the scan would fill the commutators alone
    with pytest.raises(InputError, match="negative"):
        dehn_scan(get_group("z2-std"), [8], -1, adaptive(4))


def test_fill_grows_an_undersized_ball(z2, z2ball):
    # from k = 3 on, the words leave the radius-4 ball; the fill grows its
    # own ball and matches the one made on ball 64
    small = build_ball(z2, 4)
    for k in range(2, 9):
        w = commutator(z2, k)
        assert fill(small, w, adaptive(4)) == fill(z2ball, w, adaptive(4))
    assert small.radius == 4


# -- growth on demand -------------------------------------------------------

def heisenberg_hard_word(j):
    """[[a^j, b^j], a^j], of length 10j; its area grows like j^3."""
    a, b = (0,) * j, (2,) * j

    def comm(u, v):
        return concat(u, v, invert(u), invert(v))

    return comm(comm(a, b), a)


def search_on_fill_rows(ball, x, y, z):
    return median(ball, *(Point.vertex(ball.index[e]) for e in (x, y, z)),
                  t_halves=False, _rows=FillRows(ball))


@pytest.mark.parametrize("name,radius,triple,cause", [
    # from x = a the slack-0 annulus is shell 2, where a a a lies at norm
    # 3; by norms alone it lies at least 1 from y = a^ a^ and z = a^ b, so
    # it could still be a slack-0 point
    ("f2", 2, ((0,), (1, 1), (1, 2)), "a scanned shell leaves the ball"),
    # the slack-0 annulus around x is shell 1, where (-1, 0) lies 3 from y
    ("z2-std", 2, ((0, 0), (2, 0), (1, 1)),
     "a distance read lies beyond the ball"),
    # the same shell around x = (2, 0) holds (3, 0), at norm 3; by norms
    # alone it lies at least 1 from y and z, so it could have slack 0
    ("z2-std", 2, ((2, 0), (1, 1), (1, -1)), "shell leaves the ball"),
])
def test_fill_search_signals_a_small_ball(name, radius, triple, cause):
    group = get_group(name)
    with pytest.raises(BallTooSmall, match=cause):
        search_on_fill_rows(build_ball(group, radius), *triple)
    big = build_ball(group, 3 * radius)
    assert search_on_fill_rows(big, *triple) == \
        median(big, *(Point.vertex(big.index[e]) for e in triple),
               t_halves=False)


def test_fill_search_skips_an_outside_point_that_loses(monkeypatch):
    # the scan runs around y = a a a, whose Gromov product (x|z)_y = 1 is
    # the least; its slack-0 annulus is shell 1, where a a a a, a a a b and
    # a a a b^ lie outside the ball; at norm 4 they lie at least 4 from
    # x = 1 and 1 from y, so their slack is at least 2 and they cannot win
    f2 = get_group("f2")
    triple = ((), (0, 0, 0), (0, 0, 2))
    ball = build_ball(f2, 3)
    big = build_ball(f2, 6)
    assert search_on_fill_rows(ball, *triple) == \
        search_on_fill_rows(big, *triple)
    monkeypatch.setattr(ldelta._MedianSearch, "outside_loses",
                        lambda self, m, a: False)
    with pytest.raises(BallTooSmall, match="a scanned shell leaves the ball"):
        search_on_fill_rows(ball, *triple)


def test_dehn_scan_reads_only_the_annulus(monkeypatch):
    # the fills' searches skip the shells outside the Gromov annulus and
    # the outside points that lose, so the words' radius-24 ball suffices
    radii, distances = [], [0]
    vertex_distance = BallIndex.vertex_distance

    def recording_build(group, radius, *args, **kwargs):
        radii.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    def counted(self, u, v):
        distances[0] += 1
        return vertex_distance(self, u, v)

    monkeypatch.setattr(vankampen, "build_ball", recording_build)
    monkeypatch.setattr(BallIndex, "vertex_distance", counted)
    dehn_scan(get_group("z2-std"), [32, 48], 2, adaptive(4), seed=0)
    # scanning every shell from 0 read 4,790 distances on radii 24 and 30
    assert radii == [24]
    assert distances[0] <= 2_000


def test_fill_search_signals_a_scan_that_runs_out(tmp_path):
    # the triangle (0,0), (1,0), (0,-1) of z2-abc has slack 1; around x
    # the annulus of slack 1 with midpoints reaches shell 2, past the
    # radius-1 ball, so the scan cannot rule out a better point there; it
    # signals pruned or not, and on the plain rows of median as well
    ball = build_ball(get_group("z2-abc"), 1)
    pts = [Point.vertex(ball.index[e]) for e in ((0, 0), (1, 0), (0, -1))]
    for prune in (True, False):
        with pytest.raises(BallTooSmall, match="ran out at the radius"):
            median(ball, *pts, prune=prune)
    # no edge leaves a ball that is the whole group: Z/5 within radius 2
    path = tmp_path / "c5.grp"
    path.write_text("generators: a\norder: a a^\n"
                    "a a a -> a^ a^\na^ a^ a^ -> a a\n")
    c5 = get_group(str(path))
    ball = build_ball(c5, 2)
    assert len(ball) == 5
    pts = [Point.vertex(v) for v in range(3)]
    assert median(ball, *pts, t_halves=False, prune=False,
                  _rows=FillRows(ball)) == \
        median(ball, *pts, t_halves=False, prune=False)
    # in Z/9 the triple 1, a^3, a^-3 has slack 3, and with midpoints its
    # annulus around x is still open at shell 5, past the whole group
    path = tmp_path / "c9.grp"
    path.write_text("generators: a\norder: a a^\n"
                    "a a a a a -> a^ a^ a^ a^\na^ a^ a^ a^ a^ -> a a a a\n")
    ball = build_ball(get_group(str(path)), 4)
    assert len(ball) == 9
    pts = [Point.vertex(ball.index[e]) for e in ((), (0, 0, 0), (1, 1, 1))]
    for prune in (True, False):
        med = median(ball, *pts, prune=prune, _rows=FillRows(ball))
        assert (med.t, med.slack) == (pts[0], 3)


def test_split_loop_signals_a_loop_beyond_the_ball(z2):
    ball = build_ball(z2, 2)
    with pytest.raises(BallTooSmall, match="loop leaves the ball"):
        split_loop(ball, Loop(z2.identity(), commutator(z2, 3)),
                   FillRows(ball))


@pytest.mark.parametrize("name,big", [("z2-std", 24), ("z2-abc", 24),
                                      ("heisenberg", 20), ("rules", 24)])
def test_fill_does_not_depend_on_the_start_radius(tmp_path, name, big):
    if name == "rules":  # the README's Z^2 definition file
        name = str(tmp_path / "z2.grp")
        (tmp_path / "z2.grp").write_text(Z2_RULES)
    group = get_group(name)
    ab = group.alphabet
    draw = build_ball(group, 8)
    words = [random_identity_word(group, 16, seed, ball=draw)
             for seed in range(4)]
    if name == "heisenberg":
        words += [heisenberg_hard_word(1), heisenberg_hard_word(2)]
    else:
        words.append(ab.parse_word("a,a,a,a,b,b,b,b,a^,a^,a^,a^,b^,b^,b^,b^"))
    starts = [build_ball(group, 0)]
    for r in range(1, 13):  # past the radius every fill here ends on
        starts.append(build_ball(group, r, source=starts[-1]))
    large = build_ball(group, big, source=starts[-1])
    for w in words:
        tree = fill(large, w, adaptive(4))
        assert tree.ball is large  # the large ball needs no growth
        for ball in starts:
            assert fill(ball, w) == tree


def test_fill_heisenberg_hard_words_from_a_radius_0_ball():
    # a ball of the old up-front radius, max prefix norm + |w| + T, for
    # these words exceeds the 2,000,000-vertex cap
    group = get_group("heisenberg")
    w3, w4 = (heisenberg_hard_word(j) for j in (3, 4))
    tree = fill(build_ball(group, 0), w3)
    assert (len(w3), tree.threshold, tree.leaf_count) == (30, 16, 9)
    tree = fill(build_ball(group, 0), w4, adaptive(4))
    assert (len(w4), tree.threshold, tree.leaf_count) == (40, 32, 3)
    assert tree.ball.radius == 20
    # a fill on the grown ball equals the one from radius 0
    assert fill(tree.ball, w4, fixed(20)).leaf_count == 13
    with pytest.raises(ContractionError):
        fill(tree.ball, w4, fixed(16))
