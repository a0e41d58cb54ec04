"""Per-layer tracing for one traced repetition of a benchmark workload.

`install` replaces the public names of the cayleylab modules with
wrappers, in every module that uses the name, because modules import
functions directly (vankampen does `from .ldelta import median` and calls
`build_ball` itself).  Group and ball instances get per-instance wrappers
on their methods as they are created, so internal `self.method` calls are
counted too.  Nothing inside `src/` changes.

Every wrapper counts calls and sums inclusive time at its boundary, and
charges its time, minus the time of wrapped calls nested inside it, to
its layer's self time.  Coarse public calls (ball builds, delta
estimates, AC scans, dehn scans and fills) are also kept as spans with
their parent span.  State is per thread, because dehn-scan runs its fills
on a thread pool; the pool's result wait is charged to a `wait` pseudo
layer so that the caller's self time excludes it.  Times in threaded
workloads are summed over threads and include waits for the interpreter
lock.
"""
from __future__ import annotations

import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class _ThreadStats:
    def __init__(self):
        self.stack: list[float] = []      # nested-call time of open frames
        self.spans: list[int] = []        # open coarse span ids
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)
        self.samples = defaultdict(list)


class Tracer:
    """Counters, summed times, latency samples and spans of one run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.built_vertices = 0
        self.largest_build = None     # (vertices, group, radius)
        self.ac_pairs = 0
        self.median_aborts = 0
        self.originals: dict[str, object] = {}

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def _open_span(self, st: _ThreadStats, name: str) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append({
                "id": sid, "name": name,
                "parent": st.spans[-1] if st.spans else None,
                "thread": threading.get_ident(),
                "start_s": time.perf_counter() - self._t0, "end_s": None})
        st.spans.append(sid)
        return sid

    def _close_span(self, st: _ThreadStats, sid: int) -> None:
        st.spans.pop()
        self.spans[sid]["end_s"] = time.perf_counter() - self._t0

    def wrap(self, fn, name: str, layer: str, span: bool = False,
             sample: bool = False, errors: tuple = (), observe=None):
        """A wrapper of fn that records the call under `name`.

        `errors` are exception types counted (and re-raised) per name;
        `observe(result, args)` runs on each normal return.
        """
        stats = self._stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = stats()
            sid = self._open_span(st, name) if span else None
            stack = st.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except errors:
                st.errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                st.calls[name] += 1
                st.time[name] += elapsed
                st.self_time[layer] += elapsed - nested
                if sample:
                    st.samples[name].append(elapsed)
                if span:
                    self._close_span(st, sid)
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def totals(self):
        """Per-name calls, time, errors and samples, and per-layer self
        time, summed over threads."""
        calls, tm, errors = defaultdict(int), defaultdict(float), defaultdict(int)
        self_time, samples = defaultdict(float), defaultdict(list)
        for st in self._threads:
            for src, dst in ((st.calls, calls), (st.time, tm),
                             (st.errors, errors), (st.self_time, self_time)):
                for key, val in src.items():
                    dst[key] += val
            for key, val in st.samples.items():
                samples[key].extend(val)
        return calls, tm, errors, self_time, samples


_GROUP_METHODS = ("apply", "multiply", "inverse", "evaluate")
_BALL_METHODS = ("vertex_distance", "try_distance", "distance", "geodesic",
                 "vertex_geodesic_word", "word_to", "check_point",
                 "sphere_pairs", "_inball_path", "_bfs_from")


def _instrument_instance(tracer: Tracer, obj, layer: str, methods) -> None:
    for meth in methods:
        setattr(obj, meth, tracer.wrap(getattr(obj, meth), f"{layer}.{meth}",
                                       layer))


def install(tracer: Tracer) -> None:
    """Patch the cayleylab modules of this process to record into tracer."""
    from cayleylab import (ball, convexity, groups, ldelta, rewriting,
                           vankampen, words)
    from cayleylab.errors import ResourceError

    def patch(modules, attr, layer, **kw):
        original = getattr(modules[0], attr)
        tracer.originals[attr] = original
        wrapper = tracer.wrap(original, f"{layer}.{attr}", layer, **kw)
        for mod in modules:
            setattr(mod, attr, wrapper)

    def on_group(group, _args):
        _instrument_instance(tracer, group, "groups", _GROUP_METHODS)

    def on_build(b, args):
        _instrument_instance(tracer, b, "ball", _BALL_METHODS)
        n = len(b.elements)
        with tracer._lock:
            tracer.built_vertices += n
            if tracer.largest_build is None or n > tracer.largest_build[0]:
                tracer.largest_build = (n, b.group, b.radius)

    def on_median(result, _args):
        if result is None:
            with tracer._lock:
                tracer.median_aborts += 1

    def on_ac(report, _args):
        with tracer._lock:
            tracer.ac_pairs += report.pairs_examined

    patch([groups], "get_group", "groups", observe=on_group)
    patch([ball, vankampen], "build_ball", "ball", span=True,
          observe=on_build)
    patch([ldelta], "estimate_delta", "ldelta", span=True)
    patch([ldelta, vankampen], "median", "ldelta", sample=True,
          observe=on_median)
    patch([convexity], "ac_constant", "convexity", span=True, observe=on_ac)
    patch([vankampen], "dehn_scan", "vankampen", span=True)
    patch([vankampen], "fill", "vankampen", span=True,
          errors=(ResourceError,))
    patch([vankampen], "split_loop", "vankampen")
    for attr in ("free_reduce", "invert", "concat"):
        users = [m for m in (words, rewriting, groups, ball, vankampen)
                 if getattr(m, attr, None) is getattr(words, attr)]
        patch(users, attr, "words")

    class WaitTimedPool(ThreadPoolExecutor):
        """Charges the caller's wait for pool results to the wait layer."""

        def map(self, fn, *iterables, **kwargs):
            wait_next = tracer.wrap(super().map(fn, *iterables, **kwargs)
                                    .__next__, "wait.pool", "wait")

            def results():
                while True:
                    try:
                        yield wait_next()
                    except StopIteration:
                        return

            return results()

    vankampen.ThreadPoolExecutor = WaitTimedPool


def ball_bytes_per_vertex(tracer: Tracer) -> float:
    """Python heap bytes per vertex of the largest ball the run built,
    measured by rebuilding it under tracemalloc."""
    if tracer.largest_build is None:
        return 0.0
    _, group, radius = tracer.largest_build
    build = tracer.originals["build_ball"]
    tracemalloc.start()
    try:
        b = build(group, radius)
        used, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return used / len(b.elements)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    calls, tm, errors, self_time, samples = tracer.totals()

    def per_call_us(name):
        return 1e6 * tm[name] / calls[name] if calls[name] else 0.0

    med = samples["ldelta.median"]
    build_s = tm["ball.build_ball"]
    return {
        "groups.apply_calls": calls["groups.apply"],
        "groups.multiply_calls": calls["groups.multiply"],
        "ball.builds": calls["ball.build_ball"],
        "ball.build_s": build_s,
        "ball.build_vertices_per_s":
            tracer.built_vertices / build_s if build_s else 0.0,
        "ball.vertex_distance_calls": calls["ball.vertex_distance"],
        "ball.vertex_distance_us": per_call_us("ball.vertex_distance"),
        "ball.geodesic_calls": calls["ball.geodesic"],
        "ball.self_s": self_time["ball"],
        "ldelta.median_calls": calls["ldelta.median"],
        "ldelta.median_us_p50": 1e6 * _quantile(med, 0.50),
        "ldelta.median_us_p99": 1e6 * _quantile(med, 0.99),
        "ldelta.median_abort_frac":
            tracer.median_aborts / len(med) if med else 0.0,
        "ldelta.self_s": self_time["ldelta"],
        "convexity.pairs": tracer.ac_pairs,
        "convexity.us_per_pair": 1e6 * tm["convexity.ac_constant"]
            / tracer.ac_pairs if tracer.ac_pairs else 0.0,
        "convexity.sphere_pairs_calls": calls["ball.sphere_pairs"],
        "convexity.sphere_pairs_s": tm["ball.sphere_pairs"],
        "convexity.self_s": self_time["convexity"],
        "vankampen.fills": calls["vankampen.fill"] - errors["vankampen.fill"],
        "vankampen.fill_resource_errors": errors["vankampen.fill"],
        "vankampen.split_loop_calls": calls["vankampen.split_loop"],
        "vankampen.split_loop_us": per_call_us("vankampen.split_loop"),
        "vankampen.self_s": self_time["vankampen"],
        "words.free_reduce_calls": calls["words.free_reduce"],
        "words.free_reduce_us": per_call_us("words.free_reduce"),
    }
