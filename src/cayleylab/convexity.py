"""Empirical almost-convexity constants and the 3*delta + 2 bound check.

For each sphere radius n, C_n is the longest connecting path needed
between norm-n vertices at word distance at most 2, where the path must
stay inside the closed ball of radius n.  That ball is connected through
its BFS tree, so every pair has such a path.

Most pairs are joined by an edge or through a middle vertex of norm at
most n; BallIndex.sphere_pairs reports those lengths, 1 and 2, as it
enumerates the pairs.  Only the remaining detour pairs need a search:
one breadth-first search restricted to B_n per source vertex, stopping
at the layer that reaches its last partner.

The theorem's bound is checked against an estimated delta, which is a
lower bound for the true constant; a failed comparison therefore flags an
anomaly to investigate, not a refutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ball import BallIndex
from .errors import InputError


@dataclass
class ACReport:
    n: int
    pairs_examined: int
    c_n: int                       # max path length
    worst_pair: tuple | None       # canonical element forms
    bound: Fraction | None         # 3*delta_hat + 2
    passed: bool | None


def ac_constant(ball: BallIndex, n: int,
                bound: Fraction | None = None) -> ACReport:
    """Exhaustive C_n over all sphere pairs at radius n.

    Pairs of in-ball distance 1 or 2 take their length from
    sphere_pairs; the detour pairs of each source share one search
    restricted to B_n (module docstring), so every length is exact.
    """
    pairs = ball.sphere_pairs(n)
    elements = ball.elements
    c_n = 0
    worst = None
    for u, v, length in _pair_lengths(ball, n, pairs):
        if length < c_n:
            continue
        e, f = elements[u], elements[v]
        pair = (e, f) if e < f else (f, e)
        if length > c_n or worst is None or pair < worst:
            c_n = length
            worst = pair
    passed = None if bound is None else c_n <= bound
    return ACReport(n, len(pairs), c_n, worst, bound, passed)


def _pair_lengths(ball: BallIndex, n: int, pairs):
    """(u, v, length inside B_n) for every sphere pair."""
    detours: dict[int, list[int]] = {}
    for (u, v), length in pairs.items():
        if length is None:
            detours.setdefault(u, []).append(v)
        else:
            yield u, v, length
    for u, partners in detours.items():
        reach = ball._bfs_from(u, partners, n)
        for v in partners:
            yield u, v, reach[v]


def verify_theorem1(ball: BallIndex, n_max: int,
                    delta_hat: Fraction) -> list[ACReport]:
    """C_n against the almost-convexity bound 3*delta_hat + 2 for each
    n <= n_max.  delta_hat underestimates the true constant, so failures
    here are anomalies to examine rather than counterexamples."""
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    bound = 3 * delta_hat + 2
    return [ac_constant(ball, n, bound) for n in range(n_max + 1)]
