from fractions import Fraction

import pytest

from cayleylab.ball import build_ball
from cayleylab.convexity import ac_constant, verify_theorem1
from cayleylab.errors import InputError
from cayleylab.groups import RewritingGroup, get_group
from cayleylab.rewriting import parse_group_file

from oracles import (brute_ac_constant, brute_sphere_pair_distances,
                     group_ball, heisenberg_ac_constants)
from test_rewriting import Z2_RULES_TEXT


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


@pytest.mark.parametrize("name,n_max", [("f2", 6), ("f3", 4), ("z2-std", 8),
                                        ("z2-abc", 8), ("rules", 6)])
def test_ac_constant_matches_brute_oracle(name, n_max):
    group = (RewritingGroup("z2-rw", parse_group_file(Z2_RULES_TEXT)[1])
             if name == "rules" else get_group(name))
    ball = build_ball(group, n_max + 1)
    got = [(rep.c_n, rep.pairs_examined, rep.worst_pair)
           for rep in (ac_constant(ball, n) for n in range(1, n_max + 1))]
    assert got == brute_ac_constant(group, n_max)


def test_sphere_pair_values_match_inball_distances():
    """On Heisenberg, where detours decide C_n, every 1 or 2 that
    sphere_pairs reports is the in-ball distance, and every None pair
    needs a path of length >= 3."""
    group = get_group("heisenberg")
    ball = build_ball(group, 8)
    norm = group_ball(group, 8)
    nones = 0
    for n in range(1, 8):
        brute = brute_sphere_pair_distances(group, n, norm)
        pairs = ball.sphere_pairs(n)
        assert len(pairs) == len(brute)
        for (u, v), d in pairs.items():
            e, f = sorted((ball.elements[u], ball.elements[v]))
            if d is None:
                nones += 1
                assert brute[e, f] >= 3
            else:
                assert brute[e, f] == d
    assert nones > 0


def test_negative_n_max_is_an_input_error():
    ball = build_ball(get_group("z2-std"), 3)
    with pytest.raises(InputError, match="n_max must be >= 0"):
        verify_theorem1(ball, -1, Fraction(1))
    assert [r.n for r in verify_theorem1(ball, 0, Fraction(1))] == [0]
