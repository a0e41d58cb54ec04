"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACED SMALL

run.py starts one of these per repetition, so that peak RSS is the
workload's own.  It prints one JSON object on stdout: set-up and run
times, items, peak RSS, the output checks and the sha256 digest of the
canonical result; with TRACED=1 also the per-layer metrics and spans.
The checks and the digest are computed after the timed region.  An
untraced repetition then times further set-ups, after peak RSS is read,
and reports every set-up time it took.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Further set-ups timed after the run of an untraced repetition.
SETUP_MIN_SAMPLES = 2
SETUP_MAX_SAMPLES = 200
SETUP_BUDGET_S = 0.25


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def measure(name: str, seed: int, traced: bool, small: bool) -> dict:
    import workloads

    wl = workloads.workload(name, small)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # Set-up is what a user waits for before the measured call, after the
    # imports: constructing the group and, where the workload passes one
    # in, building the ball.
    gc.collect()
    t0 = time.perf_counter()
    state = wl.setup()
    setup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = wl.run(state, seed)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    out = {"setup_s": setup_s, "run_s": run_s,
           "wall_s": setup_s + run_s, "items": wl.items(result),
           "items_unit": wl.items_unit,
           "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["layers"]["ball.bytes_per_vertex"] = \
            tracing.ball_bytes_per_vertex(tracer)
        out["spans"] = tracer.spans
    canonical = wl.canonical(result)
    out["checks"] = [[label, ok] for label, ok in wl.check(state, result)]
    out["digest"] = digest(canonical)
    out["canonical"] = canonical
    if not traced:
        del state, result
        out["setup_samples_s"] = [setup_s] + more_setups(wl)
    return out


def more_setups(wl) -> list[float]:
    """Times of further set-ups after the run, each from a collected heap,
    so that one repetition gives several set-up samples: at least
    SETUP_MIN_SAMPLES, then more while they take under SETUP_BUDGET_S in
    all, up to SETUP_MAX_SAMPLES."""
    times: list[float] = []
    spent = 0.0
    while len(times) < SETUP_MAX_SAMPLES and (
            len(times) < SETUP_MIN_SAMPLES or spent < SETUP_BUDGET_S):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    del state
    return times


def main(argv: list[str]) -> int:
    name, seed, traced, small = argv
    out = measure(name, int(seed), traced == "1", small == "1")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
