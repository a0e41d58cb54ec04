"""Command-line front end.

Subcommands: ball, delta, median, ac, fill, dehn-scan, check-confluence.
All reports are deterministic for a fixed configuration: the payload goes
to stdout and the wall-clock duration to stderr, so identical runs can be
compared byte for byte.  Exact rationals are printed as "p/q"; only
fitted exponents are floats, rounded to 4 decimals.

Exit codes: 0 success, 1 input error, 2 resource cap, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from .ball import VERTEX, BallIndex, Point, build_ball
from .convexity import verify_theorem1
from .errors import InputError, InternalError, ResourceError
from .groups import get_group
from .ldelta import estimate_delta, median, recommended_ball_radius
from .rewriting import check_local_confluence, parse_group_file
from .vankampen import (SUBCUBIC_EXPONENT, adaptive, dehn_scan, fill, fixed,
                        to_conjugate_product)
from .words import free_reduce


def frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def point_str(ball: BallIndex, p: Point) -> str:
    fmt = ball.group.format_element
    if p.kind == VERTEX:
        return fmt(ball.elements[p.a])
    return f"mid({fmt(ball.elements[p.a])}|{fmt(ball.elements[p.b])})"


def parse_point(ball: BallIndex, text: str) -> Point:
    """A vertex given as a word, or `word~label` for the midpoint of the
    edge leaving that vertex along one generator; `1` or `e` alone is the
    identity unless it is a generator label."""
    group = ball.group
    word_part, _, gen_label = text.partition("~")
    if word_part in ("1", "e") and word_part not in group.alphabet.labels:
        word_part = ""
    e = group.evaluate(group.alphabet.parse_word(word_part))
    vid = ball.index.get(e)
    if vid is None:
        raise InputError(f"point {text!r} lies outside the ball")
    if not gen_label:
        return Point.vertex(vid)
    w = ball.adj[vid][group.alphabet.id_of(gen_label.strip())]
    if w < 0:
        raise InputError(f"edge of {text!r} leaves the ball")
    return Point.half(vid, w)


def emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def text_lines(payload: dict) -> list[str]:
    out = []
    for k, v in payload.items():
        if isinstance(v, list):
            v = ";".join(str(x) for x in v)
        out.append(f"{k}={v}")
    return out


# -- subcommands ------------------------------------------------------------

def cmd_ball(args) -> int:
    group = get_group(args.group)
    ball = build_ball(group, args.radius)
    if args.dot:
        lines = ["graph ball {"]
        for u, v in ball.edges:
            lines.append(f'  "{group.format_element(ball.elements[u])}" -- '
                         f'"{group.format_element(ball.elements[v])}";')
        lines.append("}")
    else:
        lines = ["id,canonical,norm"]
        for vid, e in enumerate(ball.elements):
            lines.append(f"{vid},{group.format_element(e)},{ball.dist[vid]}")
    emit(lines)
    return 0


def _delta_payload(ball, est) -> dict:
    payload = {
        "operation": "delta",
        "group": ball.group.name,
        "radius": est.radius,
        "domain": est.domain,
        "sampling": est.sampling,
        "triples": est.triples_examined,
        "value": frac(est.value),
    }
    if est.witness is not None:
        payload["witness"] = [point_str(ball, p) for p in est.witness]
        payload["witness_t"] = point_str(ball, est.witness_median.t)
        payload["pair_slacks"] = [frac(s)
                                  for s in est.witness_median.pair_slacks]
    return payload


def cmd_delta(args) -> int:
    group = get_group(args.group)
    ball = build_ball(group, recommended_ball_radius(group, args.radius))
    sampling = "exhaustive" if args.exhaustive or not args.samples else "sampled"
    est = estimate_delta(ball, args.radius, domain=args.domain,
                         sampling=sampling, samples=args.samples or 0,
                         seed=args.seed)
    payload = _delta_payload(ball, est)
    emit([json.dumps(payload, indent=2)] if args.json else text_lines(payload))
    return 0


def cmd_median(args) -> int:
    group = get_group(args.group)
    ball = build_ball(group, args.radius)
    x, y, z = (parse_point(ball, t) for t in (args.x, args.y, args.z))
    # vertex ids are a BFS prefix, so the points keep theirs in the margin
    norm = max(map(ball.point_norm, (x, y, z)))
    need = recommended_ball_radius(group, math.ceil(norm))
    if need > ball.radius:
        ball = build_ball(group, need, source=ball)
    m = median(ball, x, y, z)
    payload = {
        "operation": "median",
        "group": group.name,
        "x": point_str(ball, x),
        "y": point_str(ball, y),
        "z": point_str(ball, z),
        "t": point_str(ball, m.t),
        "slack": frac(m.slack),
        "pair_slacks": [frac(s) for s in m.pair_slacks],
    }
    emit([json.dumps(payload, indent=2)] if args.json else text_lines(payload))
    return 0


def cmd_ac(args) -> int:
    group = get_group(args.group)
    ball = build_ball(group, args.radius)
    delta_hat = args.delta
    # a negative n_max is verify_theorem1's input error; estimate nothing
    if delta_hat == "auto" and args.nmax >= 0:
        dom_r = min(args.nmax, max(args.radius - 2, 1))
        # C_n reads only B_n, so the margin serves the estimate alone
        need = recommended_ball_radius(group, dom_r)
        est_ball = ball if need <= ball.radius else \
            build_ball(group, need, source=ball)
        delta_hat = estimate_delta(est_ball, dom_r, domain="half",
                                   sampling="exhaustive", seed=args.seed).value
    reports = verify_theorem1(ball, args.nmax, delta_hat)
    lines = ["n,pairs,C_n,bound,pass"]
    for rep in reports:
        lines.append(f"{rep.n},{rep.pairs_examined},{rep.c_n},"
                     f"{frac(rep.bound)},{str(rep.passed).lower()}")
    emit(lines)
    return 0


def _tree_lines(ball, node, indent, lines) -> None:
    mark = "split" if node.children else "leaf"
    lines.append(f"{'  ' * indent}{mark} n={len(node.loop.word)} "
                 f"base={ball.group.format_element(node.loop.base)}")
    for child in node.children:
        _tree_lines(ball, child, indent + 1, lines)


def cmd_fill(args) -> int:
    group = get_group(args.group)
    w = free_reduce(group.alphabet.parse_word(args.word))
    # fill checks the word first, then grows the ball whenever it reads
    # past the edge
    ball = build_ball(group, 0)
    tree = fill(ball, w, args.threshold)

    fmt_word = group.alphabet.format_word
    if args.emit == "tree":
        lines = [f"threshold={tree.threshold} depth={tree.depth} "
                 f"leaves={tree.leaf_count} max_leaf={tree.max_leaf_length}"]
        _tree_lines(ball, tree.root, 0, lines)
    elif args.emit == "product":
        lines = [f"{fmt_word(g) or '1'}\t{fmt_word(r) or '1'}"
                 for g, r in to_conjugate_product(tree)]
    else:  # dot
        lines = ["digraph fill {"]
        counter = [0]

        def walk(node):
            my = counter[0]
            counter[0] += 1
            lines.append(f'  n{my} [label="{len(node.loop.word)}"];')
            for child in node.children:
                lines.append(f"  n{my} -> n{walk(child)};")
            return my

        walk(tree.root)
        lines.append("}")
    emit(lines)
    return 0


def cmd_dehn_scan(args) -> int:
    group = get_group(args.group)
    scan = dehn_scan(group, args.lengths, args.samples, args.threshold,
                     seed=args.seed)
    lines = ["n,samples,max_cells,mean_cells"]
    for n, count, mx, mean in scan.records:
        lines.append(f"{n},{count},{mx},{frac(mean)}")
    slope = "none" if scan.slope is None else f"{scan.slope:.4f}"
    lines.append(f"slope,{slope}")
    lines.append(f"reference,{SUBCUBIC_EXPONENT:.4f}")
    lines.append(f"threshold,{scan.threshold}")
    emit(lines)
    return 0


def cmd_check_confluence(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        _, rs = parse_group_file(fh.read())
    pairs = check_local_confluence(rs)
    fmt = rs.alphabet.format_word
    lines = [f"rules={len(rs.rules)}", f"unresolved={len(pairs)}"]
    for cp in pairs:
        lines.append(f"pair source={fmt(cp.source)} "
                     f"left={fmt(cp.left) or '1'} right={fmt(cp.right) or '1'}")
    lines.append("locally_confluent=" + str(not pairs).lower())
    emit(lines)
    return 0 if not pairs else 1


# -- argument plumbing ------------------------------------------------------

def parse_lengths(text: str) -> list[int]:
    """A comma list such as 8,12,16, or a range a..b or a..b..step."""
    if ".." not in text:
        return [int(p) for p in text.split(",") if p.strip()]
    parts = [int(p) for p in text.split("..")]
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or parts[2] <= 0 or parts[1] < parts[0]:
        raise InputError(f"bad length range {text!r}")
    return list(range(parts[0], parts[1] + 1, parts[2]))


def arg_type(what: str, parse):
    """`parse` as an argparse type, raising InputError (which argparse
    passes on to main) where `parse` raises ValueError or ZeroDivisionError."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad {what} {text!r}") from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleylab",
        description="Cayley-graph metric experiments: delta estimates, "
                    "almost convexity, van Kampen fillings.")
    sub = parser.add_subparsers(dest="command", required=True)
    threshold = arg_type("threshold", lambda t: adaptive() if t == "auto"
                         else fixed(int(t)))
    delta = arg_type("delta", lambda t: t if t == "auto" else Fraction(t))

    def common(p, radius=True):
        p.add_argument("--group", required=True,
                       help="built-in name (z2-std, z2-abc, heisenberg, fK) "
                            "or a definition file path")
        if radius:
            p.add_argument("--radius", type=int, required=True)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; every computation is serial")

    p = sub.add_parser("ball", help="enumerate a ball as CSV or DOT")
    common(p)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("delta", help="estimate the L_delta constant")
    common(p)
    p.add_argument("--domain", choices=["vertices", "half"], default="half")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("median", help="minimum-slack point of a triple")
    common(p)
    for name in ("x", "y", "z"):
        p.add_argument(f"--{name}", required=True,
                       help="vertex word, or word~gen for an edge midpoint")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_median)

    p = sub.add_parser("ac", help="almost-convexity constants C_n")
    common(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--delta", type=delta, default="auto",
                   help="delta-hat as a fraction, or auto to estimate")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ac)

    p = sub.add_parser("fill", help="trisection filling of an identity word")
    common(p, radius=False)
    p.add_argument("--word", required=True)
    p.add_argument("--threshold", type=threshold, default="auto")
    p.add_argument("--emit", choices=["tree", "product", "dot"],
                   default="tree")
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("dehn-scan", help="cell-count growth scan")
    common(p, radius=False)
    p.add_argument("--lengths", required=True,
                   type=arg_type("lengths", parse_lengths),
                   help="comma list or a..b..step range")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=threshold, default="auto")
    p.set_defaults(func=cmd_dehn_scan)

    p = sub.add_parser("check-confluence",
                       help="local confluence of a rewriting system")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_check_confluence)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return 0 if exc.code in (0, None) else 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        print(f"duration_s={time.monotonic() - started:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
