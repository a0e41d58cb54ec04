"""The cayleylab benchmark: workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; stdlib only.  Repetitions of the
workload, each in a fresh child interpreter (child.py), run one after
another until the next one would end after --seconds; at least one runs.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics named in BENCHMARK.json, as medians over the
repetitions.  With --trace 1 every repetition is paired with a traced one
and the line carries the per-layer metrics instead, as medians over the
traced repetitions, with the tracing overhead against the untraced wall
time.  Both report the output checks as `attempted` and `failed`.

A record with run metadata (git SHA and whether the tree is dirty, a
sha256 of the package sources, core count, Python version, seed, line
count of src/), every repetition and the result digests is written to
perfbench/results/ and summarised on stderr.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "cayleylab")
RESULTS = os.path.join(HERE, "results")
# A run must end within 180 s; stop starting repetitions well before.
RUN_LIMIT_S = 150
# Runnable, but not in BENCHMARK.json: its output check fails on a known
# defect of the program (README.md, "Output checks").
HELD_OUT = ["delta-heis"]


class BenchError(Exception):
    pass


def run_child(name: str, seed: int, traced: bool, small: bool,
              timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
           "1" if traced else "0", "1" if small else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{name} repetition exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(name: str, seed: int, seconds: float, trace: bool,
           small: bool = False) -> tuple[list[dict], list[dict]]:
    """Untraced (and, with trace, traced) repetitions for `seconds`."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        remaining = RUN_LIMIT_S + 20 - (t0 - start)
        plain.append(run_child(name, seed, False, small, remaining))
        if trace:
            remaining = RUN_LIMIT_S + 20 - (time.perf_counter() - start)
            traced.append(run_child(name, seed, True, small, remaining))
        end = time.perf_counter()
        if end - start + (end - t0) > min(seconds, RUN_LIMIT_S):
            return plain, traced


def checks_summary(reps: list[dict]) -> tuple[int, list[str]]:
    """Checks attempted and the labels of failed ones, over all reps; a
    repetition whose result digest differs from the first one's fails."""
    attempted, failed = 0, []
    for i, rep in enumerate(reps):
        for label, ok in rep["checks"]:
            attempted += 1
            if not ok:
                failed.append(f"rep {i}: {label}")
        if i:
            attempted += 1
            if rep["digest"] != reps[0]["digest"]:
                failed.append(f"rep {i}: result digest differs from rep 0")
    return attempted, failed


def end_to_end(plain: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {"wall_s": med(r["wall_s"] for r in plain),
            "setup_s": med(t for r in plain for t in r["setup_samples_s"]),
            "items_per_s": med(r["items"] / r["run_s"] for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain)}


def per_layer(plain: list[dict], traced: list[dict], attempted: int,
              failed: int) -> dict[str, float]:
    med = statistics.median
    out = {key: med(t["layers"][key] for t in traced)
           for key in traced[0]["layers"]}
    out["trace.overhead_frac"] = (med(t["wall_s"] for t in traced)
                                  / med(r["wall_s"] for r in plain) - 1)
    out["failed_frac"] = failed / attempted
    return out


def git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout if proc.returncode == 0 else None


def metadata(seed: int) -> dict:
    """Run metadata.  `src_sha256` hashes the package sources themselves,
    so it tells apart code that git does not: an uncommitted change, or a
    checkout that is not a git repository."""
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = (git("rev-parse", "HEAD") or "").strip() or None
        status = git("status", "--porcelain")
        dirty = None if status is None else bool(status.strip())
    src_lines = 0
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        src_lines += data.count(b"\n")
        src_hash.update(os.path.basename(path).encode() + b"\0" + data)
    return {"git_sha": sha, "git_dirty": dirty,
            "src_sha256": src_hash.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "seed": seed,
            "src_lines": src_lines}


def emit(metrics: dict[str, float], specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
            for s in specs}


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              specs: dict, small: bool = False) -> tuple[dict, dict]:
    """The result line and the full record of one benchmark run."""
    plain, traced = repeat(name, seed, seconds, trace, small)
    attempted, failed = checks_summary(plain + traced)
    if trace:
        metrics = emit(per_layer(plain, traced, attempted, len(failed)),
                       specs["per_layer"])
    else:
        metrics = emit(end_to_end(plain), specs["end_to_end"])
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    record = {"workload": name, "items_unit": plain[0]["items_unit"],
              "metadata": metadata(seed),
              "digests": sorted({r["digest"] for r in plain + traced}),
              "canonical": plain[0]["canonical"], "failed_checks": failed,
              "repetitions": [{k: v for k, v in r.items() if k != "canonical"}
                              for r in plain + traced],
              "result": result}
    return result, record


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in specs["workloads"]] + HELD_OUT)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=specs["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no cayleylab package at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result, record = benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), specs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {"record": os.path.relpath(path, ROOT), **record["metadata"],
               "repetitions": len(record["repetitions"]),
               "digests": record["digests"],
               "failed_checks": record["failed_checks"]}
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
