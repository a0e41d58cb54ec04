from fractions import Fraction

import pytest

from cayleylab.ball import build_ball
from cayleylab.convexity import ac_constant, verify_theorem1
from cayleylab.groups import get_group

from oracles import heisenberg_ac_constants


@pytest.fixture(scope="module")
def z2ball():
    return build_ball(get_group("z2-std"), 8)


@pytest.fixture(scope="module")
def f2ball():
    return build_ball(get_group("f2"), 8)


def test_f2_constant_is_two(f2ball):
    for n in range(1, 7):
        rep = ac_constant(f2ball, n)
        assert rep.c_n == 2
        assert rep.pairs_examined > 0


def test_heisenberg_constants_match_oracle():
    ball = build_ball(get_group("heisenberg"), 8)
    got = [(rep.c_n, rep.pairs_examined)
           for rep in (ac_constant(ball, n) for n in range(1, 8))]
    assert got == heisenberg_ac_constants(7)
    assert got == [(2, 6), (2, 12), (6, 68), (6, 164), (10, 364), (10, 676),
                   (10, 1120)]


def test_sphere_pairs_computed_once(z2ball, monkeypatch):
    calls = []
    original = z2ball.sphere_pairs

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(z2ball, "sphere_pairs", counting)
    ac_constant(z2ball, 5)
    assert calls == [5]


def test_z2_std_constants_small(z2ball):
    assert ac_constant(z2ball, 0).c_n == 0
    for n in range(1, 7):
        rep = ac_constant(z2ball, n)
        assert 2 <= rep.c_n <= 4


def test_inside_ball_path_validity(z2ball):
    group = z2ball.group
    for n in (2, 4):
        for u, v in z2ball.sphere_pairs(n):
            w = z2ball._inball_path(u, v, n)
            # walk the word, checking every vertex stays inside B(n)
            cur = u
            for gen in w:
                cur = z2ball.adj[cur][gen]
                assert cur >= 0 and z2ball.dist[cur] <= n
            assert cur == v
            assert len(w) <= 2 * n  # any inside-ball detour fits in B(n)


def test_worst_pair_attains_constant(z2ball):
    rep = ac_constant(z2ball, 5)
    u = z2ball.index[rep.worst_pair[0]]
    v = z2ball.index[rep.worst_pair[1]]
    w = z2ball._inball_path(u, v, 5)
    assert len(w) == rep.c_n


def test_verify_theorem1_f2(f2ball):
    reports = verify_theorem1(f2ball, 6, Fraction(0))
    assert all(r.bound == 2 for r in reports)
    assert all(r.passed for r in reports)
    assert [r.n for r in reports] == list(range(7))


def test_verify_theorem1_z2(z2ball):
    # delta_hat 1 gives bound 5, comfortably above the grid's constant 4
    reports = verify_theorem1(z2ball, 6, Fraction(1))
    assert all(r.passed for r in reports)


def test_bound_failure_reported(z2ball):
    rep = ac_constant(z2ball, 4, bound=Fraction(1))
    assert rep.passed is False
