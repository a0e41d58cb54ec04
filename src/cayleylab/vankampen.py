"""Recursive trisection fillings of identity words and area scans.

A loop is split into three arcs A, B, C at vertex-rounded thirds; with
geodesics p, q, r from the split vertices and the base to a median point
t, the free-group identity

    A B C = (A p r^-1) (r p^-1 B q r^-1) (r q^-1 C)

rewrites the loop as a conjugated product of the three strictly shorter
cells A p r^-1, B q p^-1 and C r q^-1, based at
z, x and y with conjugators e, r p^-1 and r q^-1.  Iterating until every
piece fits under a threshold T yields a subdivision tree whose leaves are
the cells of a van Kampen filling, exported as a verified conjugate
product.  The expected cell count scales like n^c with
c = 1/(1 - log_3 2), just under cubic.

Cells may be non-embedded loops; no part of this module assumes or
checks simplicity.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .ball import BallIndex, Point, build_ball
from .errors import BallTooSmall, InputError, InternalError
from .groups import Group, ZnGroup
from .ldelta import DistanceRows, FillRows, bounded_rows, median
from .words import Word, concat, free_reduce, invert

SUBCUBIC_EXPONENT = 1.0 / (1.0 - math.log(2, 3))  # about 2.7095


class ContractionError(InputError):
    """A split produced a child loop at least as long as its parent, so
    the fill threshold is too small for the word."""

    def __init__(self, child: "Loop"):
        super().__init__(f"child loop of length {len(child.word)} did not "
                         "shrink; the fill threshold is too small")
        self.child = child


@dataclass(frozen=True)
class Loop:
    """A closed path: a base element and a word evaluating to identity."""
    base: tuple
    word: Word


@dataclass(frozen=True)
class ThresholdPolicy:
    kind: str  # "fixed" or "adaptive"
    t0: int


def fixed(t0: int) -> ThresholdPolicy:
    return ThresholdPolicy("fixed", t0)


def adaptive(t0: int = 4) -> ThresholdPolicy:
    return ThresholdPolicy("adaptive", t0)


@dataclass
class SubdivisionNode:
    loop: Loop
    conjugators: tuple[Word, Word, Word] | None = None  # of the children
    children: list["SubdivisionNode"] = field(default_factory=list)


@dataclass
class SubdivisionTree:
    root: SubdivisionNode
    threshold: int       # effective T after any adaptive restarts
    depth: int
    leaf_count: int
    max_leaf_length: int
    # the ball the fill ended on, grown from the one it was given
    ball: BallIndex = field(compare=False, repr=False)


@dataclass
class AreaScan:
    records: list[tuple]  # (n, samples, max cells, mean cells as Fraction)
    slope: float | None
    threshold: int


def trisection_cells(a: Word, b: Word, c: Word, p: Word, q: Word,
                     r: Word) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """Cell words and conjugators of the decomposition identity.

    The conjugated product of the cells freely reduces to a b c for any
    six words; the geometry only enters through the choice of p, q, r.
    """
    pi, qi, ri = (invert(w) for w in (p, q, r))
    cells = (concat(a, p, ri), concat(b, q, pi), concat(c, r, qi))
    conjs = ((), concat(r, pi), concat(r, qi))
    return cells, conjs


def _loop_vertices(ball: BallIndex, loop: Loop) -> list[int]:
    """Vertex ids along the loop; the walk must close up inside the ball."""
    vid = ball.index.get(loop.base)
    if vid is None:
        raise BallTooSmall("loop base outside the ball")
    ids = [vid]
    for gen in loop.word:
        vid = ball.adj[vid][gen]
        if vid < 0:
            raise BallTooSmall("loop leaves the ball; use a larger radius")
        ids.append(vid)
    if ids[-1] != ids[0]:
        raise InputError("loop word does not evaluate to the identity")
    return ids


def split_loop(ball: BallIndex, loop: Loop,
               rows: DistanceRows) -> tuple[tuple, tuple]:
    """Trisect a loop through a median of its third-points: (children,
    conjugators), three loops and their conjugators from the parent base.

    Splits at vertex offsets floor(n/3) and n - floor(n/3), connects the
    three marked vertices to a minimum-slack vertex t, verifies the
    decomposition identity by free reduction, and checks that each child
    is strictly shorter.  Coincident marked vertices short-circuit the
    median search.  The search reads and fills `rows`, a distance cache
    on the ball, and skips median's point checks: the loop's walk put the
    marked vertices in the ball, and the search runs only when they are
    distinct.  BallTooSmall means the loop or a geodesic leaves the ball,
    or, on FillRows, that a larger ball could change the median.
    """
    word = loop.word
    n = len(word)
    if n < 3:
        raise InputError("loop too short to trisect")
    ids = _loop_vertices(ball, loop)
    n1, n2 = n // 3, n - n // 3
    zid, xid, yid = ids[0], ids[n1], ids[n2]
    distinct = {zid, xid, yid}
    if len(distinct) == 3:
        tid = median(ball, Point.vertex(xid), Point.vertex(yid),
                     Point.vertex(zid), t_halves=False, _rows=rows).t.a
    else:
        # a repeated marked vertex is already a perfect meeting point
        tid = xid if xid in (yid, zid) else yid
    p = ball.vertex_geodesic_word(xid, tid)
    q = ball.vertex_geodesic_word(yid, tid)
    r = ball.vertex_geodesic_word(zid, tid)
    a, b, c = word[:n1], word[n1:n2], word[n2:]

    cells, conjs = trisection_cells(a, b, c, p, q, r)
    witness = concat(cells[0], conjs[1], cells[1], invert(conjs[1]),
                     conjs[2], cells[2], invert(conjs[2]))
    if free_reduce(witness) != free_reduce(word):
        raise InternalError("trisection decomposition identity failed")

    bases = (loop.base, ball.elements[xid], ball.elements[yid])
    children = []
    for base, cell in zip(bases, cells):
        child = Loop(base, free_reduce(cell))
        if len(child.word) >= n:
            raise ContractionError(child)
        children.append(child)
    return tuple(children), conjs


class _Splits(dict):
    """split_loop(ball, loop) by loop, made on first use; the median
    searches of the splits share one FillRows cache.  A ContractionError
    or BallTooSmall propagates and is never stored."""

    def __init__(self, ball: BallIndex):
        super().__init__()
        self.ball = ball
        self.rows = FillRows(ball)

    def __missing__(self, loop: Loop) -> tuple:
        self.rows = bounded_rows(self.rows)
        split = self[loop] = split_loop(self.ball, loop, self.rows)
        return split

    def grow(self) -> None:
        """Move to a ball a quarter larger in radius, and at least 4.

        The splits made so far read nothing beyond their ball, so they
        stand on the larger one; the distance cache starts afresh on it."""
        r = self.ball.radius
        self.ball = build_ball(self.ball.group, r + max(r // 4, 4),
                               source=self.ball)
        self.rows = FillRows(self.ball)


def _fill_once(splits: _Splits, loop: Loop, threshold: int,
               depth: int) -> tuple[SubdivisionNode, int, int, int]:
    """Recursive subdivision; returns (node, depth, leaves, max leaf len)."""
    if len(loop.word) <= threshold:
        return SubdivisionNode(loop), depth, 1, len(loop.word)
    children, conjugators = splits[loop]
    node = SubdivisionNode(loop, conjugators)
    max_d, leaves, max_len = depth, 0, 0
    for child in children:
        sub, d, l, m = _fill_once(splits, child, threshold, depth + 1)
        node.children.append(sub)
        max_d = max(max_d, d)
        leaves += l
        max_len = max(max_len, m)
    return node, max_d, leaves, max_len


def fill(ball: BallIndex, w: Word,
         policy: ThresholdPolicy = adaptive()) -> SubdivisionTree:
    """Subdivide an identity word down to cells of length <= T.

    The fixed policy raises ContractionError on a contraction failure;
    the adaptive policy doubles T (at least to the offending length) and
    restarts, so it always terminates: once T reaches |w| the root is a
    leaf.

    The fill starts on the ball it is given, of any radius.  Whenever a
    loop, a geodesic or a median search reads past that ball's edge
    (BallTooSmall, see ldelta.FillRows), it grows the ball by resuming
    its BFS (build_ball with the ball as source) and retries at the same
    T; the tree's `ball` is the one it ended on.  Every split it keeps
    read nothing beyond its ball, so the result does not depend on how
    large the ball it was given is.

    The fill keeps one table of the splits it made, so neither a restart
    nor a growth splits a loop twice, and one distance cache for its
    median searches, which starts afresh when the ball grows.
    """
    group = ball.group
    w = free_reduce(tuple(w))
    if group.evaluate(w) != group.identity():
        raise InputError("fill needs a word evaluating to the identity")
    threshold = policy.t0
    if threshold < 1:
        raise InputError("threshold must be positive")
    root_loop = Loop(group.identity(), w)
    splits = _Splits(ball)
    while True:
        try:
            root, depth, leaves, max_len = _fill_once(splits, root_loop,
                                                      threshold, 0)
            return SubdivisionTree(root, threshold, depth, leaves, max_len,
                                   splits.ball)
        except ContractionError as exc:
            if policy.kind == "fixed":
                raise
            threshold = max(2 * threshold, len(exc.child.word))
        except BallTooSmall:
            splits.grow()


def to_conjugate_product(tree: SubdivisionTree) -> list[tuple[Word, Word]]:
    """Flatten a subdivision tree into Van Kampen factors g_i r_i g_i^-1,
    the pairs (conjugator g_i, relator r_i).

    Leaves are visited left to right; each contributes its loop word
    conjugated by the accumulated path from the root base to its own
    base.  The flattening is re-verified by free reduction.
    """
    factors: list[tuple[Word, Word]] = []

    def walk(node: SubdivisionNode, prefix: Word) -> None:
        if not node.children:
            factors.append((free_reduce(prefix), node.loop.word))
            return
        for child, conj in zip(node.children, node.conjugators):
            walk(child, concat(prefix, conj))

    walk(tree.root, ())
    product: list[int] = []
    for g, rel in factors:
        product.extend(concat(g, rel, invert(g)))
    w = tree.root.loop.word
    if free_reduce(tuple(product)) != free_reduce(w):
        raise InternalError("conjugate product failed free-reduction check")
    return factors


def random_identity_word(group: Group, n: int, seed,
                         ball: BallIndex) -> Word:
    """A seeded identity word of length at most n.

    Walks n // 2 uniform generator steps to an element e, then returns
    along ball.word_to(e), which raises BallTooSmall when e lies outside
    the ball and the group has no closed-form geodesics.  Deterministic
    per (group, n, seed), as every ball's BFS tree extends the smaller
    ones'.
    """
    if n < 2:
        raise InputError("identity words need length at least 2")
    rng = random.Random(seed)
    k = len(group.alphabet)
    walk = tuple(rng.randrange(k) for _ in range(n // 2))
    back = ball.word_to(group.evaluate(walk))
    return free_reduce(walk + invert(back))


def canonical_identity_word(group: Group, n: int) -> Word | None:
    """The commutator word a^j b^j a^-j b^-j when the family admits one."""
    if not isinstance(group, ZnGroup) or len(group.alphabet) < 4 or n < 4:
        return None
    j = n // 4
    a, b = 0, 2  # first two positive generators
    return (a,) * j + (b,) * j + (a ^ 1,) * j + (b ^ 1,) * j


def dehn_scan(group: Group, lengths: list[int], samples_per_length: int,
              policy: ThresholdPolicy = adaptive(), seed: int = 0,
              threads: int = 1) -> AreaScan:
    """Fill sampled identity words per length and fit a cell-count slope.

    Each length gets `samples_per_length` random identity words plus the
    canonical commutator word when the family defines one.  The fitted
    exponent is the least-squares slope of log(max cells) against log(n),
    absent with fewer than two distinct lengths.  Each length's words are
    drawn, then filled serially; `threads` is accepted and ignored.

    A group without closed-form geodesics draws its words from the ball
    of radius n // 2 for the largest length n, where random_identity_word
    walks back; other groups start from the radius-0 ball.  The fills
    start on that ball, and each fill that reads past its edge grows it
    (see fill) for itself and every later fill; a grown ball keeps the
    vertex ids and BFS tree that the words are drawn from.
    """
    lengths = sorted(set(lengths))
    if not lengths or min(lengths) < 4:
        raise InputError("scan lengths must be at least 4")
    if samples_per_length < 0:
        raise InputError("the sample count must not be negative")
    if samples_per_length < 1 and any(
            canonical_identity_word(group, n) is None for n in lengths):
        raise InputError("every scan length needs a word; sample at least one")

    closed_form = group.geodesic_word(group.identity()) is not None
    ball = build_ball(group, 0 if closed_form else lengths[-1] // 2)
    records = []
    max_threshold = policy.t0
    for n in lengths:
        words = [random_identity_word(group, n, f"{seed}:{n}:{s}", ball=ball)
                 for s in range(samples_per_length)]
        commutator = canonical_identity_word(group, n)
        if commutator is not None:
            words.append(commutator)
        cells = []
        for w in words:
            tree = fill(ball, w, policy)
            ball = tree.ball
            cells.append(tree.leaf_count)
            max_threshold = max(max_threshold, tree.threshold)
        records.append((n, len(cells), max(cells),
                        Fraction(sum(cells), len(cells))))

    slope = None
    pts = [(math.log(n), math.log(mx)) for n, _, mx, _ in records if mx >= 1]
    if len({x for x, _ in pts}) >= 2:
        mean_x = sum(x for x, _ in pts) / len(pts)
        mean_y = sum(y for _, y in pts) / len(pts)
        num = sum((x - mean_x) * (y - mean_y) for x, y in pts)
        den = sum((x - mean_x) ** 2 for x, _ in pts)
        slope = num / den
    return AreaScan(records, slope, max_threshold)
