import random

import pytest

from cayleylab.errors import InputError
from cayleylab.groups import RewritingGroup, get_group
from cayleylab.rewriting import (RewritingSystem, check_local_confluence,
                                 parse_group_file)
from cayleylab.words import Alphabet

Z2_RULES_TEXT = """\
# Z^2 as a rewriting group: collect a's before b's
generators: a b
order: a a^ b b^
b a -> a b
b a^ -> a^ b
b^ a -> a b^
b^ a^ -> a^ b^
"""


@pytest.fixture
def z2rs():
    _, rs = parse_group_file(Z2_RULES_TEXT)
    return rs


def wd(rs, text):
    return rs.alphabet.parse_word(text)


def test_normal_form_single_rule(z2rs):
    assert z2rs.normal_form(wd(z2rs, "b,a")) == wd(z2rs, "a,b")


def test_normal_form_free_cancellation(z2rs):
    assert z2rs.normal_form(wd(z2rs, "a,a^")) == ()


def test_normal_form_sorts_letters(z2rs):
    assert z2rs.normal_form(wd(z2rs, "b,a,b,a")) == wd(z2rs, "a,a,b,b")


def test_z2_system_is_locally_confluent(z2rs):
    assert check_local_confluence(z2rs) == []


def test_single_relator_system_is_not_confluent():
    # ab -> empty without the commuting rules: free-reduction overlaps break
    alphabet = Alphabet.with_inverses(["a", "b"])
    rs = RewritingSystem(alphabet, [(alphabet.parse_word("a,b"), ())])
    assert check_local_confluence(rs) != []


def test_empty_rule_set_is_confluent():
    # only the implicit free-reduction rules remain
    alphabet = Alphabet.with_inverses(["a"])
    rs = RewritingSystem(alphabet, [])
    assert check_local_confluence(rs) == []


def test_rules_are_free_reductions_then_user_rules_each_once():
    ab = Alphabet.with_inverses(["a", "b"])
    a, a_, b, b_ = range(4)
    # a user rule that repeats a free rule, and one given twice
    rs = RewritingSystem(ab, [((b, a), (a, b)), ((a, a_), ()),
                              ((b_, a), (a, b_)), ((b, a), (a, b))])
    assert rs.rules == (((a, a_), ()), ((a_, a), ()), ((b, b_), ()),
                        ((b_, b), ()), ((b, a), (a, b)), ((b_, a), (a, b_)))


def test_increasing_rule_rejected():
    alphabet = Alphabet.with_inverses(["a", "b"])
    with pytest.raises(InputError):
        RewritingSystem(alphabet, [((), alphabet.parse_word("a"))])
    with pytest.raises(InputError):
        RewritingSystem(alphabet, [(alphabet.parse_word("a,b"),
                                    alphabet.parse_word("b,a"))])


def test_normal_form_matches_z2_coordinates(z2rs):
    group = RewritingGroup("z2-rw", z2rs)
    z2 = get_group("z2-std")
    rng = random.Random(0)
    for _ in range(2000):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(13)))
        nf = group.evaluate(word)
        x, y = z2.evaluate(word)
        assert z2.evaluate(nf) == (x, y)
        # shortlex normal form over a < a^ < b < b^ is a-block then b-block
        expected = ((0,) * x if x >= 0 else (1,) * (-x)) + \
                   ((2,) * y if y >= 0 else (3,) * (-y))
        assert nf == expected


def test_one_step_rewrites_join(z2rs):
    rng = random.Random(9)
    for _ in range(300):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 11)))
        # apply each applicable rule once at each position
        rewrites = []
        for i in range(len(word)):
            for lhs, rhs in z2rs.rules:
                if word[i:i + len(lhs)] == lhs:
                    rewrites.append(word[:i] + rhs + word[i + len(lhs):])
        for other in rewrites:
            assert z2rs.normal_form(word) == z2rs.normal_form(other)


def test_group_file_roundtrip(tmp_path):
    path = tmp_path / "z2.grp"
    path.write_text(Z2_RULES_TEXT)
    group = get_group(str(path))
    assert isinstance(group, RewritingGroup)
    assert group.evaluate(group.alphabet.parse_word("b,a")) == \
        group.alphabet.parse_word("a,b")


def test_group_file_requires_generators():
    with pytest.raises(InputError):
        parse_group_file("order: a a^\n")


@pytest.mark.parametrize("generators,message", [
    ("a a", "duplicate generator label 'a'"),
    ("a^", "ends in '\\^'"),
    ("", "nonempty"),
])
def test_group_file_with_a_bad_generators_line_is_rejected(tmp_path,
                                                           generators,
                                                           message):
    path = tmp_path / "bad.grp"
    path.write_text(f"generators: {generators}\n")
    with pytest.raises(InputError, match=message):
        get_group(str(path))
