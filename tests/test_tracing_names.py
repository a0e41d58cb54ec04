"""The per-layer tracer of perfbench/ wraps library functions and methods
by name; a rename, or a call routed around a wrapped name, must fail here
rather than in a benchmark run."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cayleylab import ball, convexity, groups, ldelta, vankampen, words
from cayleylab.ball import build_ball
from cayleylab.groups import RewritingGroup, get_group
from cayleylab.rewriting import parse_group_file
from test_rewriting import Z2_RULES_TEXT

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def built_in_groups():
    return [get_group(name) for name in ("z2-std", "z2-abc", "heisenberg",
                                         "f2")] + \
        [RewritingGroup("z2-rw", parse_group_file(Z2_RULES_TEXT)[1])]


def test_traced_methods_exist(tracing):
    for group in built_in_groups():
        for name in tracing._GROUP_METHODS:
            assert callable(getattr(group, name)), (group.name, name)
    b = build_ball(get_group("z2-std"), 2)
    for name in tracing._BALL_METHODS:
        assert callable(getattr(b, name)), name


@pytest.mark.parametrize("module,name", [
    (groups, "get_group"), (ball, "build_ball"), (vankampen, "build_ball"),
    (ldelta, "estimate_delta"), (ldelta, "median"), (vankampen, "median"),
    (convexity, "ac_constant"), (vankampen, "dehn_scan"),
    (vankampen, "fill"), (vankampen, "split_loop"),
    (words, "free_reduce"), (vankampen, "free_reduce")])
def test_traced_functions_exist(module, name):
    assert callable(getattr(module, name))


def traced_small_run(workload):
    """The per-layer metrics of the traced small run of a workload."""
    out = subprocess.run([sys.executable, str(PERFBENCH / "child.py"),
                          workload, "0", "1", "1"], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)["layers"]


@pytest.mark.parametrize("workload,exact,positive", [
    ("ac-f2", {"convexity.sphere_pairs_calls": 4, "convexity.pairs": 162},
     ()),
    ("dehn-z2", {"vankampen.fills": 9}, ("vankampen.split_loop_calls",)),
    ("delta-z2abc", {}, ("ldelta.median_calls",
                         "ball.vertex_distance_calls"))])
def test_traced_workloads_reach_wrapped_names(workload, exact, positive):
    layers = traced_small_run(workload)
    for name, count in exact.items():
        assert layers[name] == count, name
    for name in positive:
        assert layers[name] > 0, name
