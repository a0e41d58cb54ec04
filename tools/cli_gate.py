"""CLI byte-identity gate between two checkouts of cayleylab.

    python3 tools/cli_gate.py PARENT CHANGE

PARENT and CHANGE are repository roots.  Every configuration below runs
as `python -m cayleylab.cli ...` once per tree, with that tree's `src`
on PYTHONPATH, one process at a time.  The gate compares stdout, the
exit code and stderr without its `duration_s=` line.  It prints one line
per configuration, with the exit code (`exit=P->C` when the two differ)
and on a DIFF line the parts that differ, and exits 1 if any differ.  A
configuration the parent does not finish within the timeout is reported
and not compared.  Stdlib only.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 120
PARTS = ("exit code", "stdout", "stderr")  # the fields of a run's result

Z2_RULES = """\
# Z^2 on a, b
generators: a b
order: a a^ b b^
b a -> a b
b a^ -> a^ b
b^ a -> a b^
b^ a^ -> a^ b^
"""

# the (2,3,7) triangle group's Coxeter group, examples/coxeter-2-3-7.grp
COXETER_RULES = """\
generators: x y z
order: x x^ z z^ y y^
x^ -> x
y^ -> y
z^ -> z
x x ->
y x -> x y
y y ->
z z ->
y z y -> z y z
y z x y -> z y z x
y z x z y z -> z y z x z y
z x z x z x z -> x z x z x z x
y z x z x y z x z x z x -> z y z x z x y z x z x z
"""

BAD_RULES = """\
generators: a b
order: a a^ b b^
b a -> a b
b b -> a a
"""

# [[a^j, b^j], a^j] in the Heisenberg group, |w| = 10j
HEIS_W1 = "a,b,a^,b^,a,b,a,b^,a^,a^"
HEIS_W2 = "a,a,b,b,a^,a^,b^,b^,a,a,b,b,a,a,b^,b^,a^,a^,a^,a^"


def configurations(z2_file: str, bad_file: str,
                   coxeter_file: str) -> list[list[str]]:
    z2c = "a,a,b,b,a^,a^,b^,b^"
    return [
        # ball
        ["ball", "--group", "f2", "--radius", "2"],
        ["ball", "--group", "z2-std", "--radius", "1", "--dot"],
        ["ball", "--group", "z2-abc", "--radius", "2"],
        ["ball", "--group", "heisenberg", "--radius", "2"],
        ["ball", "--group", z2_file, "--radius", "2"],
        ["ball", "--group", "f3", "--radius", "3", "--dot"],
        ["ball", "--group", "heisenberg", "--radius", "3", "--dot"],
        ["ball", "--group", z2_file, "--radius", "3", "--dot"],
        ["ball", "--group", coxeter_file, "--radius", "6", "--dot"],
        # delta
        ["delta", "--group", "z2-std", "--radius", "4", "--domain",
         "vertices", "--exhaustive", "--json"],
        ["delta", "--group", "z2-std", "--radius", "6", "--domain", "half",
         "--samples", "20000", "--seed", "0"],
        ["delta", "--group", "z2-std", "--radius", "3", "--domain", "half",
         "--exhaustive"],
        ["delta", "--group", "z2-abc", "--radius", "4", "--domain",
         "vertices", "--exhaustive"],
        ["delta", "--group", "z2-abc", "--radius", "3", "--domain", "half",
         "--exhaustive", "--json"],
        ["delta", "--group", "heisenberg", "--radius", "3", "--domain",
         "vertices", "--exhaustive"],
        ["delta", "--group", "heisenberg", "--radius", "2", "--domain",
         "half", "--exhaustive"],
        ["delta", "--group", "heisenberg", "--radius", "4", "--domain",
         "half", "--samples", "3000", "--seed", "1"],
        ["delta", "--group", "f2", "--radius", "2", "--domain", "vertices",
         "--exhaustive"],
        ["delta", "--group", "f2", "--radius", "2", "--domain", "half",
         "--samples", "2000", "--seed", "3", "--json"],
        ["delta", "--group", z2_file, "--radius", "3", "--domain",
         "vertices", "--exhaustive"],
        ["delta", "--group", coxeter_file, "--radius", "3", "--domain",
         "vertices", "--exhaustive"],
        ["delta", "--group", "z2-abc", "--radius", "5", "--domain",
         "vertices", "--exhaustive"],
        ["delta", "--group", "heisenberg", "--radius", "4", "--domain",
         "vertices", "--samples", "20000", "--seed", "2"],
        ["delta", "--group", "z2-std", "--radius", "2", "--domain", "half",
         "--samples", "0"],
        # its domain holds the triple of the f2 radius-4 median line
        ["delta", "--group", "f2", "--radius", "4", "--domain", "half"],
        # median
        ["median", "--group", "z2-std", "--radius", "8", "--x", "1~a",
         "--y", "b~a", "--z", "a,a,a,a,a~b"],
        ["median", "--group", "z2-std", "--radius", "8", "--x", "a,a",
         "--y", "b,b,b", "--z", "a^,b^", "--json"],
        ["median", "--group", "z2-abc", "--radius", "2", "--x", "c,c",
         "--y", "b,b,b", "--z", "a^,a^"],
        ["median", "--group", "heisenberg", "--radius", "3", "--x", "a,b",
         "--y", "b,a", "--z", "a^~b", "--json"],
        # the median lies farther from x than the seed's best, t = x
        ["median", "--group", "heisenberg", "--radius", "3", "--x", "b^,a^,b",
         "--y", "a^,b^,a", "--z", "b,a,b"],
        ["median", "--group", "f2", "--radius", "3", "--x", "a,b",
         "--y", "b^", "--z", "a^,a^"],
        # the slack-0 point a a a lies 7 from x, past the radius-6 ball
        ["median", "--group", "f2", "--radius", "4", "--x", "b,b,b,a^",
         "--y", "a,a,a~b", "--z", "a,a,a~b^"],
        ["median", "--group", "z2-std", "--radius", "4", "--x", "a",
         "--y", "a", "--z", "b"],
        # the median is y, one of the triple's own midpoints
        ["median", "--group", "z2-std", "--radius", "4", "--x", "a,a,a",
         "--y", "a~a", "--z", "a^~a^"],
        # ac
        ["ac", "--group", "f2", "--radius", "7", "--nmax", "6", "--delta",
         "0/1"],
        ["ac", "--group", "z2-std", "--radius", "7", "--nmax", "5",
         "--delta", "1/1"],
        ["ac", "--group", "z2-std", "--radius", "6", "--nmax", "4"],
        ["ac", "--group", "z2-abc", "--radius", "6", "--nmax", "4"],
        ["ac", "--group", "heisenberg", "--radius", "5", "--nmax", "3",
         "--delta", "2/1"],
        ["ac", "--group", z2_file, "--radius", "6", "--nmax", "4",
         "--delta", "1/1"],
        ["ac", "--group", "heisenberg", "--radius", "9", "--nmax", "8",
         "--delta", "1/1"],
        ["ac", "--group", "z2-abc", "--radius", "12", "--nmax", "11",
         "--delta", "1/1"],
        ["ac", "--group", "f3", "--radius", "5", "--nmax", "4", "--delta",
         "0/1"],
        # delta-hat of radius 4 is 2, too small: C_6 = 12 > 3 * 2 + 2
        ["ac", "--group", coxeter_file, "--radius", "10", "--nmax", "9",
         "--delta", "2/1"],
        # fill
        ["fill", "--group", "z2-std", "--word", z2c, "--emit", "product"],
        ["fill", "--group", "z2-std", "--word",
         "a,a,a,b,b,b,a^,a^,a^,b^,b^,b^", "--emit", "tree"],
        ["fill", "--group", "z2-std", "--word", z2c, "--emit", "dot"],
        ["fill", "--group", "z2-std", "--word",
         ",".join(["a"] * 9 + ["b"] * 9 + ["a^"] * 9 + ["b^"] * 9),
         "--threshold", "8"],
        ["fill", "--group", "z2-abc", "--word", "a,b,c^,c,b^,a^,c,b^,a^",
         "--emit", "product"],
        ["fill", "--group", "heisenberg", "--word", HEIS_W1, "--emit",
         "product"],
        ["fill", "--group", "heisenberg", "--word", HEIS_W2, "--emit",
         "tree"],
        ["fill", "--group", "heisenberg", "--word", HEIS_W2, "--threshold",
         "8"],
        ["fill", "--group", "f2", "--word", "a,b,b^,a^", "--emit", "tree"],
        ["fill", "--group", z2_file, "--word", z2c, "--emit", "tree"],
        ["fill", "--group", "z2-std", "--word",
         ",".join(["a"] * 4 + ["b"] * 4 + ["a^"] * 4 + ["b^"] * 4),
         "--threshold", "1"],
        ["fill", "--group", "z2-std", "--word", "a,b"],
        # dehn-scan
        ["dehn-scan", "--group", "z2-std", "--lengths", "8,12",
         "--samples", "2"],
        ["dehn-scan", "--group", "z2-std", "--lengths", "16..48..8",
         "--samples", "10", "--seed", "0"],
        ["dehn-scan", "--group", "z2-std", "--lengths", "16,24",
         "--samples", "4", "--threshold", "8"],
        ["dehn-scan", "--group", "z2-abc", "--lengths", "8,12",
         "--samples", "3"],
        ["dehn-scan", "--group", "heisenberg", "--lengths", "8,12",
         "--samples", "3"],
        ["dehn-scan", "--group", "heisenberg", "--lengths", "8,12,16",
         "--samples", "5"],
        ["dehn-scan", "--group", "f2", "--lengths", "8,12", "--samples",
         "2"],
        ["dehn-scan", "--group", z2_file, "--lengths", "8,12", "--samples",
         "2", "--seed", "4"],
        ["dehn-scan", "--group", "z2-std", "--lengths", "16", "--samples",
         "2", "--threshold", "1"],
        ["dehn-scan", "--group", "z2-std", "--lengths", "10..4"],
        ["dehn-scan", "--group", "z2-std", "--lengths", "8,12", "--samples",
         "0"],
        ["dehn-scan", "--group", "f2", "--lengths", "8", "--samples", "0"],
        # confluence and input errors
        ["check-confluence", "--file", z2_file],
        ["check-confluence", "--file", bad_file],
        ["ball", "--group", bad_file, "--radius", "1"],
        ["ball", "--group", "nosuchgroup", "--radius", "1"],
        ["median", "--group", "z2-std", "--radius", "3", "--x", "q",
         "--y", "a", "--z", "b"],
        ["delta", "--group", "z2-std"],
        ["delta", "--group", "z2-std", "--radius", "-1"],
        ["delta", "--group", "f2", "--radius", "6", "--domain", "vertices",
         "--exhaustive", "--samples", "-5"],
        ["ac", "--group", "z2-std", "--radius", "3", "--nmax", "-1",
         "--delta", "1"],
        ["ac", "--group", "z2-std", "--radius", "3", "--nmax", "-1"],
    ]


def run(tree: str, argv: list[str], cwd: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "cayleylab.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=cwd, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - start
    err = "".join(line for line in proc.stderr.splitlines(keepends=True)
                  if not line.startswith("duration_s="))
    return (proc.returncode, proc.stdout, err), time.monotonic() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        z2_file = os.path.join(tmp, "z2.grp")
        bad_file = os.path.join(tmp, "bad.grp")
        coxeter_file = os.path.join(tmp, "coxeter-2-3-7.grp")
        for path, text in ((z2_file, Z2_RULES), (bad_file, BAD_RULES),
                           (coxeter_file, COXETER_RULES)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        configs = configurations(z2_file, bad_file, coxeter_file)
        for argv in configs:
            label = " ".join(argv).replace(tmp + os.sep, "")
            before, t_before = run(parent, argv, tmp)
            if before is None:
                print(f"SKIP  parent timed out  {label}")
                continue
            after, t_after = run(change, argv, tmp)
            if after is None:
                status, code = "DIFF timeout", f"{before[0]}->timeout"
            else:
                differ = [part for part, b, a in zip(PARTS, before, after)
                          if b != a]
                status = f"DIFF {', '.join(differ)}" if differ else "same"
                code = (f"{after[0]}" if after[0] == before[0]
                        else f"{before[0]}->{after[0]}")
            failed += status != "same"
            print(f"{status}  exit={code}  {t_before:6.2f}s -> "
                  f"{t_after:6.2f}s  {label}", flush=True)
    print(f"{len(configs)} configurations, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
