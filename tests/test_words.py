import random

import pytest

from cayleylab.errors import InputError
from cayleylab.groups import get_group
from cayleylab.words import Alphabet, free_reduce, invert


@pytest.fixture
def ab():
    return Alphabet.with_inverses(["a", "b"])


def w(alphabet, text):
    return alphabet.parse_word(text)


def test_alphabet_is_inverse_closed(ab):
    assert ab.labels == ("a", "a^", "b", "b^")
    assert len(ab) == 4
    for x in ("a", "b"):
        assert ab.id_of(x + "^") == ab.id_of(x) ^ 1
    for g in range(len(ab)):
        assert ab.id_of(ab.labels[g]) == g


def test_words_parse_on_commas_or_whitespace_and_format_with_spaces(ab):
    assert ab.parse_word("a, b^ ,a") == ab.parse_word(" a b^\ta ") == (0, 3, 0)
    assert ab.parse_word("") == ab.parse_word(" , ") == ()
    assert ab.format_word((0, 3, 0)) == "a b^ a"
    assert ab.format_word(()) == ""


def test_free_reduce_examples(ab):
    assert free_reduce(w(ab, "a,b,b^,a^")) == ()
    assert free_reduce(w(ab, "a,a^,a")) == w(ab, "a")
    assert free_reduce(w(ab, "b,a^,a,b")) == w(ab, "b,b")


def test_invert_examples(ab):
    assert invert(w(ab, "a,b")) == w(ab, "b^,a^")
    assert invert(()) == ()
    word = w(ab, "a,b^,a")
    assert invert(invert(word)) == word


def test_invert_cancels_against_word():
    group = get_group("f2")
    rng = random.Random(3)
    for _ in range(50):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(9)))
        assert group.evaluate(word + invert(word)) == group.identity()


def test_unknown_label_rejected(ab):
    with pytest.raises(InputError):
        ab.id_of("z")
    with pytest.raises(InputError):
        ab.check_word((17,))


def test_free_reduce_preserves_free_class():
    rng = random.Random(11)
    group = get_group("f2")
    for _ in range(200):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(12)))
        assert group.evaluate(word) == group.evaluate(free_reduce(word))
