"""The benchmark's workloads: set-up, measured call, output checks and the
canonical form of each result.

Every call goes through a module attribute (`ldelta.estimate_delta`, not
an imported name), so the wrappers that `tracing.install` puts there see
it.  Each workload has a full size, which the benchmark runs, and a small
size, which the self-test runs.  README.md in this directory says why
each workload was chosen and which layers it loads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from cayleylab import ball as ball_mod
from cayleylab import convexity, groups, ldelta, vankampen

Check = tuple[str, bool]


def _point(p) -> list[int]:
    return [p.kind, p.a, p.b]


@dataclass(frozen=True)
class DeltaWorkload:
    """estimate_delta over the vertex domain of a prebuilt ball."""

    name: str
    group: str
    ball_radius: int
    domain_radius: int
    samples: int                         # 0 means exhaustive
    value_range: tuple[int, int] | None  # frozen bounds on the value
    items_unit: str = "triples"

    def setup(self):
        group = groups.get_group(self.group)
        return ball_mod.build_ball(group, self.ball_radius)

    def run(self, ball, seed: int):
        if self.samples:
            return ldelta.estimate_delta(ball, self.domain_radius,
                                         domain="vertices", sampling="sampled",
                                         samples=self.samples, seed=seed)
        return ldelta.estimate_delta(ball, self.domain_radius,
                                     domain="vertices", sampling="exhaustive")

    def items(self, est) -> int:
        return est.triples_examined

    def check(self, ball, est) -> list[Check]:
        checks = []
        if self.value_range is not None:
            lo, hi = self.value_range
            checks.append((f"value in [{lo}, {hi}]", lo <= est.value <= hi))
        unpruned = ldelta.median(ball, *est.witness, prune=False)
        checks.append(("witness unpruned slack == value",
                       unpruned is not None and unpruned.slack == est.value))
        return checks

    def canonical(self, est):
        med = est.witness_median
        return {"value": str(est.value), "sampling": est.sampling,
                "triples": est.triples_examined,
                "witness": [_point(p) for p in est.witness],
                "t": _point(med.t), "slack": str(med.slack),
                "pair_slacks": [str(s) for s in med.pair_slacks]}

    def corrupt(self, est):
        return replace(est, value=est.value + 1)


@dataclass(frozen=True)
class ACWorkload:
    """ac_constant for n = 1..n_max on a prebuilt ball."""

    name: str
    group: str
    ball_radius: int
    n_max: int
    expected_c_n: int
    items_unit: str = "sphere pairs"

    def setup(self):
        group = groups.get_group(self.group)
        return ball_mod.build_ball(group, self.ball_radius)

    def run(self, ball, seed: int):
        return [convexity.ac_constant(ball, n) for n in range(1, self.n_max + 1)]

    def items(self, reports) -> int:
        return sum(r.pairs_examined for r in reports)

    def check(self, ball, reports) -> list[Check]:
        return [(f"c_{r.n} == {self.expected_c_n}", r.c_n == self.expected_c_n)
                for r in reports]

    def canonical(self, reports):
        return [[r.n, r.pairs_examined, r.c_n,
                 [list(e) for e in r.worst_pair or ()]] for r in reports]

    def corrupt(self, reports):
        return reports[:-1] + [replace(reports[-1], c_n=reports[-1].c_n + 1)]


@dataclass(frozen=True)
class DehnWorkload:
    """dehn_scan, which builds its own balls, from group construction."""

    name: str
    group: str
    lengths: tuple[int, ...]
    samples: int
    t0: int
    threads: int
    max_slope: float = 2.71 + 0.3        # acceptance criterion 7
    items_unit: str = "identity words filled"

    def setup(self):
        return groups.get_group(self.group)

    def run(self, group, seed: int):
        return vankampen.dehn_scan(group, list(self.lengths), self.samples,
                                   vankampen.adaptive(self.t0), seed=seed,
                                   threads=self.threads)

    def items(self, scan) -> int:
        return sum(count for _, count, _, _ in scan.records)

    def check(self, group, scan) -> list[Check]:
        checks = [(f"slope <= {self.max_slope}",
                   scan.slope is not None and scan.slope <= self.max_slope)]
        lengths = [n for n, _, _, _ in scan.records]
        checks.append(("one record per length", lengths == list(self.lengths)))
        for n, count, max_cells, _ in scan.records:
            checks.append((f"n={n}: max cells <= n^{vankampen.SUBCUBIC_EXPONENT:.4f}",
                           max_cells <= n ** vankampen.SUBCUBIC_EXPONENT))
            checks.append((f"n={n}: {self.samples + 1} fills",
                           count == self.samples + 1))
        return checks

    def canonical(self, scan):
        return {"records": [[n, count, mx, str(mean)]
                            for n, count, mx, mean in scan.records],
                "slope": repr(scan.slope), "threshold": scan.threshold}

    def corrupt(self, scan):
        n, count, _, mean = scan.records[-1]
        bad = (n, count - 1, math.ceil(n ** 3), mean)
        return replace(scan, records=scan.records[:-1] + [bad])


# Full sizes; README.md gives each one's timing and reason.
WORKLOADS = {
    "delta-z2abc": DeltaWorkload("delta-z2abc", "z2-abc", ball_radius=12,
                                 domain_radius=5, samples=0,
                                 value_range=(2, 3)),
    "delta-heis": DeltaWorkload("delta-heis", "heisenberg", ball_radius=18,
                                domain_radius=8, samples=100_000,
                                value_range=None),
    "ac-f2": ACWorkload("ac-f2", "f2", ball_radius=8, n_max=7, expected_c_n=2),
    "dehn-z2": DehnWorkload("dehn-z2", "z2-std", lengths=(32, 48, 64, 80, 96),
                            samples=10, t0=4, threads=2),
}

# Small sizes for the self-test: same code paths, well under a second each.
SMALL = {
    "delta-z2abc": replace(WORKLOADS["delta-z2abc"], ball_radius=8,
                           domain_radius=3),
    "delta-heis": replace(WORKLOADS["delta-heis"], ball_radius=8,
                          domain_radius=3, samples=500),
    "ac-f2": replace(WORKLOADS["ac-f2"], ball_radius=5, n_max=4),
    "dehn-z2": replace(WORKLOADS["dehn-z2"], lengths=(16, 24, 32), samples=2),
}


def workload(name: str, small: bool = False):
    return (SMALL if small else WORKLOADS)[name]

