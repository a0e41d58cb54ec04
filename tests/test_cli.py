import importlib.util
import json
import re
from pathlib import Path

import pytest

from cayleylab import cli
from cayleylab.ball import Point, build_ball
from cayleylab.cli import main, parse_lengths
from cayleylab.errors import InputError
from cayleylab.groups import get_group
from test_groups import NON_CONFLUENT_RULES

# same 8-rule system as in test_rewriting
Z2_RULES = """\
# Z^2 on a, b
generators: a b
order: a a^ b b^
b a -> a b
b a^ -> a^ b
b^ a -> a b^
b^ a^ -> a^ b^
"""

BAD_RULES = """\
generators: a b
order: a a^ b b^
b a -> a b
b b -> a a
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ball_csv(capsys):
    code, out, err = run(capsys, "ball", "--group", "f2", "--radius", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,canonical,norm"
    assert len(lines) == 18  # header + 17 vertices
    assert lines[1] == "0,1,0"
    assert "duration_s=" in err


def test_ball_dot(capsys):
    code, out, _ = run(capsys, "ball", "--group", "z2-std", "--radius", "1",
                       "--dot")
    assert code == 0
    assert out.startswith("graph ball {")
    assert out.rstrip().endswith("}")


@pytest.mark.parametrize("generators", ["a a", "a^", ""])
def test_bad_generators_line_exits_1(capsys, tmp_path, generators):
    path = tmp_path / "bad.grp"
    path.write_text(f"generators: {generators}\n")
    code, out, err = run(capsys, "ball", "--group", str(path), "--radius", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ")


def test_delta_json_example(capsys):
    code, out, _ = run(capsys, "delta", "--group", "z2-std", "--radius", "4",
                       "--domain", "vertices", "--exhaustive", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0/1"
    assert payload["sampling"] == "exhaustive"


def test_delta_text_mode(capsys):
    code, out, _ = run(capsys, "delta", "--group", "z2-std", "--radius", "3",
                       "--domain", "half", "--samples", "500", "--seed", "0")
    assert code == 0
    assert "operation=delta" in out
    assert "value=" in out and "[" not in out


def test_median_cli(capsys):
    code, out, _ = run(capsys, "median", "--group", "z2-std", "--radius", "8",
                       "--x", "1", "--y", "a,a,a,a", "--z", "a,a,b,b,b")
    assert code == 0
    assert "t=(2,0)" in out
    assert "slack=0/1" in out


def test_median_midpoint_syntax(capsys):
    code, out, _ = run(capsys, "median", "--group", "z2-std", "--radius", "8",
                       "--x", "1~a", "--y", "b~a", "--z", "a,a,a,a,a~b",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == "mid((0,0)|(1,0))"
    assert payload["slack"] == "1/1"


def test_median_is_one_of_the_triples_own_midpoints(capsys):
    # only the seed offers y at distance 0 from itself; the scan prices it
    # from its ends and would leave t = (2,0) at slack 1
    code, out, _ = run(capsys, "median", "--group", "z2-std", "--radius", "4",
                       "--x", "a,a,a", "--y", "a~a", "--z", "a^~a^")
    assert code == 0
    lines = out.splitlines()
    assert "t=mid((1,0)|(2,0))" in lines
    assert "slack=0/1" in lines


def z2_rules_on(x, y):
    """Z2_RULES with the generators a and b relabelled x and y."""
    return re.sub(r"\bb\b", y, re.sub(r"\ba\b", x, Z2_RULES))


def test_generator_labels_e_and_1_are_not_the_identity(tmp_path, capsys):
    # `e` and `1` name the identity only where no generator has that label
    path = tmp_path / "ef.grp"
    path.write_text(z2_rules_on("e", "f"))
    code, out, _ = run(capsys, "median", "--group", str(path), "--radius",
                       "3", "--x", "e", "--y", "f", "--z", "e,e")
    assert code == 0
    assert out.splitlines()[2:5] == ["x=e", "y=f", "z=e e"]
    path.write_text(z2_rules_on("1", "f"))
    ball = build_ball(get_group(str(path)), 2)
    assert cli.parse_point(ball, "1") == Point.vertex(ball.adj[0][0])
    assert cli.parse_point(ball, "e") == Point.vertex(0)


def test_median_builds_the_margin_its_points_need(capsys):
    # at radius 3 a distance of this triple was once read off an in-ball
    # search and came out 0; the radius-8 ball holds every geodesic
    triple = ("--x", "a", "--y", "a^,b,a", "--z", "b^,a^,b^")
    outs = [run(capsys, "median", "--group", "heisenberg", "--radius", r,
                *triple)[:2] for r in ("3", "8")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    assert "slack=2/1" in outs[0][1]


def test_heisenberg_exhaustive_delta_at_radius_3(capsys):
    # a stop at the incumbent's d(x, t) once dropped the median of
    # (-1,0,-1), (0,-1,1), (1,2,1) and printed value=4/1
    code, out, _ = run(capsys, "delta", "--group", "heisenberg", "--radius",
                       "3", "--domain", "vertices", "--exhaustive")
    assert code == 0
    assert "value=2/1" in out.splitlines()


def test_median_pair_slacks_are_nonnegative(capsys):
    # each pair slack is a triangle-inequality excess
    code, out, _ = run(capsys, "median", "--group", "heisenberg", "--radius",
                       "3", "--x", "a^,b,a^", "--y", "b^,a^", "--z", "a,b^,a^")
    assert code == 0
    assert "pair_slacks=0/1;0/1;0/1" in out.splitlines()


def test_ac_auto_estimates_delta_at_the_margin(monkeypatch, capsys):
    radii = []
    build_ball = cli.build_ball

    def recorded(group, radius, *args, **kwargs):
        radii.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(cli, "build_ball", recorded)
    code, out, _ = run(capsys, "ac", "--group", "heisenberg", "--radius", "7",
                       "--nmax", "5")
    assert code == 0
    # the estimate runs at recommended_ball_radius(heisenberg, 5) == 12,
    # where the exact delta-hat is 4, so the bound is 3 * 4 + 2; C_n reads
    # B_n only, so the report is the one from before the margin
    assert radii == [7, 12]
    assert out.splitlines() == [
        "n,pairs,C_n,bound,pass",
        "0,0,0,14/1,true",
        "1,6,2,14/1,true",
        "2,12,2,14/1,true",
        "3,68,6,14/1,true",
        "4,164,6,14/1,true",
        "5,364,10,14/1,true",
    ]


def test_ac_csv(capsys):
    code, out, _ = run(capsys, "ac", "--group", "f2", "--radius", "7",
                       "--nmax", "6", "--delta", "0/1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,pairs,C_n,bound,pass"
    assert len(lines) == 8
    assert all(line.endswith(",true") for line in lines[1:])


def test_fill_trivial_report(capsys):
    code, out, _ = run(capsys, "fill", "--group", "z2-std",
                       "--word", "a,b,a^,b^", "--threshold", "4")
    assert code == 0
    assert "leaves=1" in out


def test_fill_product_emits_factors(capsys):
    code, out, _ = run(capsys, "fill", "--group", "z2-std",
                       "--word", "a,a,a,b,b,b,a^,a^,a^,b^,b^,b^",
                       "--emit", "product")
    assert code == 0
    for line in out.strip().splitlines():
        assert "\t" in line


def test_fill_dot(capsys):
    code, out, _ = run(capsys, "fill", "--group", "z2-std",
                       "--word", "a,a,b,b,a^,a^,b^,b^", "--emit", "dot")
    assert code == 0
    assert out.startswith("digraph fill {")


def test_dehn_scan_csv(capsys):
    code, out, _ = run(capsys, "dehn-scan", "--group", "z2-std",
                       "--lengths", "8,12", "--samples", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,samples,max_cells,mean_cells"
    assert lines[-2].startswith("reference,2.7095")


def test_check_confluence_pass(tmp_path, capsys):
    path = tmp_path / "z2.grp"
    path.write_text(Z2_RULES)
    code, out, _ = run(capsys, "check-confluence", "--file", str(path))
    assert code == 0
    assert "locally_confluent=true" in out


def test_check_confluence_fail(tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text(BAD_RULES)
    code, out, _ = run(capsys, "check-confluence", "--file", str(path))
    assert code == 1
    assert "locally_confluent=false" in out


@pytest.mark.parametrize("argv", [
    ["ball", "--radius", "2"],
    ["delta", "--radius", "2", "--domain", "vertices", "--exhaustive"],
    ["median", "--radius", "2", "--x", "1", "--y", "a", "--z", "b"],
    ["ac", "--radius", "3", "--nmax", "2"],
    ["fill", "--word", "a,b,a^,b^"],
    ["dehn-scan", "--lengths", "8", "--samples", "1"],
])
def test_non_confluent_group_file_is_an_input_error(argv, tmp_path, capsys):
    # b b b^ rewrites to b b here, so the edge from b to b b has no way
    # back, and a walk back along the BFS tree would never reach 1
    path = tmp_path / "bad.grp"
    path.write_text(NON_CONFLUENT_RULES)
    code, out, err = run(capsys, argv[0], "--group", str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ")


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "delta", "--group", "nope", "--radius", "3")
    assert code == 1
    assert "input error" in err


@pytest.mark.parametrize("argv", [
    ["fill", "--group", "z2-std", "--word",
     "a,a,a,a,b,b,b,b,a^,a^,a^,a^,b^,b^,b^,b^"],
    ["dehn-scan", "--group", "z2-std", "--lengths", "16,24", "--samples", "2"],
])
def test_fixed_threshold_too_small_is_an_input_error(argv, capsys):
    # the commutator words need threshold 8; a fixed 4 cannot shrink them
    code, out, err = run(capsys, *argv, "--threshold", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ")
    assert "threshold is too small" in err


def test_usage_error_exit_code(capsys):
    assert main(["delta", "--radius", "3"]) == 1  # missing --group
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["delta", "--group", "nope", "--radius", "3"],   # input error
    ["delta", "--radius", "3"],                      # usage error
])
def test_error_exits_report_duration(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "duration_s=" in err


def test_fill_non_identity_word_is_an_input_error(capsys):
    # the word is checked before any ball is built; an F2 ball at the
    # radius this word would need exceeds the vertex cap
    code, out, err = run(capsys, "fill", "--group", "f2", "--word",
                         "a,b,a,b^,a^,b,b^,b^,a,b,a^,b^,a^")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ")


def test_parse_lengths():
    assert parse_lengths("16..48..8") == [16, 24, 32, 40, 48]
    assert parse_lengths("4..6") == [4, 5, 6]
    assert parse_lengths("8,12,16") == [8, 12, 16]
    with pytest.raises(InputError):
        parse_lengths("10..4")


@pytest.mark.parametrize("argv", [
    ["dehn-scan", "--group", "z2-std", "--lengths", "8,x"],
    ["dehn-scan", "--group", "z2-std", "--lengths", "8..x"],
    ["fill", "--group", "z2-std", "--word", "a,b,a^,b^", "--threshold", "abc"],
    ["ac", "--group", "z2-std", "--radius", "3", "--nmax", "2", "--delta",
     "xyz"],
    ["ac", "--group", "z2-std", "--radius", "3", "--nmax", "2", "--delta",
     "1/0"],
])
def test_malformed_numbers_are_one_line_input_errors(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    message, duration = err.splitlines()
    assert message == f"input error: bad {argv[-2][2:]} {argv[-1]!r}"
    assert duration.startswith("duration_s=")


def test_negative_sample_count_is_an_input_error(capsys):
    code, out, err = run(capsys, "dehn-scan", "--group", "z2-std",
                         "--lengths", "8", "--samples", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ")


@pytest.mark.parametrize("argv,message", [
    (["delta", "--group", "z2-std", "--radius", "-1"],
     "domain radius must be >= 0"),
    (["ac", "--group", "z2-std", "--radius", "3", "--nmax", "-1", "--delta",
      "1"], "n_max must be >= 0"),
    # the default --delta auto checks n_max before it estimates delta
    (["ac", "--group", "z2-std", "--radius", "3", "--nmax", "-1"],
     "n_max must be >= 0"),
    # the F2 domain is past EXHAUSTIVE_TRIPLE_CAP, so --exhaustive falls
    # back to sampling, which needs a positive count
    (["delta", "--group", "f2", "--radius", "6", "--domain", "vertices",
      "--exhaustive", "--samples", "-5"],
     "sampled mode needs a positive sample count"),
])
def test_negative_sizes_are_one_line_input_errors(argv, message, capsys):
    # before, each printed a result and exited 0
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == f"input error: {message}"
    assert len(err.splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ["delta", "--group", "z2-std", "--radius", "4", "--domain", "half",
     "--samples", "2000", "--seed", "0", "--json"],
    ["ac", "--group", "z2-std", "--radius", "7", "--nmax", "5",
     "--delta", "1/1"],
    ["dehn-scan", "--group", "z2-std", "--lengths", "8,12", "--samples", "2"],
])
def test_payload_thread_invariance(argv, capsys):
    outputs = []
    for threads in ("1", "4"):
        code = main(argv + ["--threads", threads])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# stdout from before fills grew their ball on demand, when the first of
# these built a radius-46 ball of 1.9M vertices and took 18 s; the first
# was re-derived when the median search lost its stop at the incumbent's
# d(x, t), as the fill then passes at T = 8
FROZEN_PAYLOADS = [
    pytest.param(
        ["fill", "--group", "heisenberg", "--word",
         "a,a,b,b,a^,a^,b^,b^,a,a,b,b,a,a,b^,b^,a^,a^,a^,a^", "--emit", "tree"],
        "threshold=8 depth=4 leaves=23 max_leaf=8\n"
        "split n=20 base=(0,0,0)\n"
        "  split n=14 base=(0,0,0)\n"
        "    leaf n=8 base=(0,0,0)\n"
        "    split n=12 base=(2,2,4)\n"
        "      split n=10 base=(2,2,4)\n"
        "        leaf n=0 base=(2,2,4)\n"
        "        leaf n=8 base=(0,1,4)\n"
        "        leaf n=0 base=(1,0,2)\n"
        "      leaf n=0 base=(1,1,4)\n"
        "      split n=10 base=(1,-1,0)\n"
        "        leaf n=0 base=(1,-1,0)\n"
        "        leaf n=8 base=(2,1,2)\n"
        "        leaf n=8 base=(1,0,2)\n"
        "    leaf n=0 base=(2,0,2)\n"
        "  split n=14 base=(0,2,4)\n"
        "    leaf n=0 base=(0,2,4)\n"
        "    split n=12 base=(2,0,4)\n"
        "      leaf n=8 base=(2,0,4)\n"
        "      split n=10 base=(4,2,8)\n"
        "        leaf n=0 base=(4,2,8)\n"
        "        leaf n=8 base=(2,1,4)\n"
        "        leaf n=8 base=(2,1,5)\n"
        "      leaf n=8 base=(1,1,4)\n"
        "    leaf n=0 base=(3,1,4)\n"
        "  split n=14 base=(4,2,8)\n"
        "    leaf n=0 base=(4,2,8)\n"
        "    split n=12 base=(2,0,0)\n"
        "      leaf n=8 base=(2,0,0)\n"
        "      leaf n=8 base=(1,-1,0)\n"
        "      split n=10 base=(3,1,4)\n"
        "        leaf n=8 base=(3,1,4)\n"
        "        leaf n=8 base=(3,0,0)\n"
        "        leaf n=0 base=(1,0,1)\n"
        "    leaf n=0 base=(2,0,2)\n",
        id="heisenberg-w2-tree"),
    pytest.param(
        ["dehn-scan", "--group", "heisenberg", "--lengths", "8,12,16"],
        "n,samples,max_cells,mean_cells\n8,10,1,1/1\n12,10,3,6/5\n"
        "16,10,3,7/5\nslope,1.6588\nreference,2.7095\nthreshold,16\n",
        id="heisenberg-dehn-scan"),
    pytest.param(
        ["dehn-scan", "--group", "heisenberg", "--lengths", "8,12,16",
         "--samples", "5"],
        "n,samples,max_cells,mean_cells\n8,5,1,1/1\n12,5,1,1/1\n"
        "16,5,3,7/5\nslope,1.4809\nreference,2.7095\nthreshold,8\n",
        id="heisenberg-dehn-scan-5-samples"),
    pytest.param(
        ["dehn-scan", "--group", "z2-abc", "--lengths", "8,12", "--samples",
         "5"],
        "n,samples,max_cells,mean_cells\n8,6,3,5/3\n12,6,7,8/3\n"
        "slope,2.0897\nreference,2.7095\nthreshold,8\n",
        id="z2-abc-dehn-scan-5-samples"),
]


@pytest.mark.parametrize("argv,expected", FROZEN_PAYLOADS)
def test_fill_payloads_do_not_depend_on_ball_sizing(argv, expected, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_readme_states_the_cli_gate_count():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "cli_gate", root / "tools" / "cli_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    readme = (root / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"It runs (\d+) command lines", readme)
    assert stated is not None
    assert int(stated.group(1)) == len(gate.configurations("z2", "bad"))
