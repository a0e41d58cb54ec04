"""The per-layer tracer of perfbench/ wraps library functions and methods
by name; a rename must fail here rather than in a benchmark run."""
import importlib.util
from pathlib import Path

import pytest

from cayleylab import ball, convexity, groups, ldelta, vankampen, words
from cayleylab.ball import build_ball
from cayleylab.groups import RewritingGroup, get_group
from cayleylab.rewriting import parse_group_file
from test_rewriting import Z2_RULES_TEXT

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
