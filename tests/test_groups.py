import itertools
import random

import pytest

from cayleylab.errors import InputError
from cayleylab.groups import RewritingGroup, get_group
from cayleylab.rewriting import parse_group_file

FAMILIES = ["z2-std", "z2-abc", "f2", "heisenberg"]


def test_z2_std_evaluate():
    g = get_group("z2-std")
    assert g.evaluate(g.alphabet.parse_word("a,b,a^")) == (0, 1)


def test_f2_evaluate_reduces():
    g = get_group("f2")
    word = g.alphabet.parse_word("a,a^,b")
    assert g.evaluate(word) == g.alphabet.parse_word("b")


def test_heisenberg_commutator():
    g = get_group("heisenberg")
    word = g.alphabet.parse_word("a,b,a^,b^")
    assert g.evaluate(word) == (0, 0, 1)


def test_heisenberg_against_matrix_model():
    # oracle: multiply upper unitriangular matrices [[1,p,r],[0,1,q],[0,0,1]]
    def mat_mul(m, n):
        return tuple(
            tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    def to_mat(e):
        p, q, r = e
        return ((1, p, r), (0, 1, q), (0, 0, 1))

    g = get_group("heisenberg")
    rng = random.Random(5)
    for _ in range(300):
        a = (rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-9, 10))
        b = (rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-9, 10))
        assert to_mat(g.multiply(a, b)) == mat_mul(to_mat(a), to_mat(b))
        assert mat_mul(to_mat(a), to_mat(g.inverse(a)))[0][1:] == (0, 0)


@pytest.mark.parametrize("name", FAMILIES)
def test_evaluate_is_a_homomorphism_exhaustive(name):
    g = get_group(name)
    n = len(g.alphabet)
    words = [()]
    for length in range(1, 5):
        words.extend(itertools.product(range(n), repeat=length))
    # split each word at the midpoint; enough to cover all concatenations
    for word in words:
        word = tuple(word)
        for cut in range(len(word) + 1):
            u, v = word[:cut], word[cut:]
            assert g.evaluate(word) == g.multiply(g.evaluate(u), g.evaluate(v))


@pytest.mark.parametrize("name", FAMILIES)
def test_evaluate_is_a_homomorphism_sampled(name):
    g = get_group(name)
    n = len(g.alphabet)
    rng = random.Random(77)
    for _ in range(200):
        u = tuple(rng.randrange(n) for _ in range(rng.randrange(9)))
        v = tuple(rng.randrange(n) for _ in range(rng.randrange(9)))
        assert g.evaluate(u + v) == g.multiply(g.evaluate(u), g.evaluate(v))


@pytest.mark.parametrize("name", FAMILIES)
def test_inverse_and_identity(name):
    g = get_group(name)
    rng = random.Random(13)
    n = len(g.alphabet)
    assert g.evaluate(()) == g.identity()
    for _ in range(100):
        e = g.evaluate(tuple(rng.randrange(n) for _ in range(8)))
        assert g.multiply(e, g.inverse(e)) == g.identity()
        assert g.multiply(g.inverse(e), e) == g.identity()


# generator images in alphabet order: a, a^, b, b^, ...
GENERATORS = {
    "z2-std": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "z2-abc": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
    "heisenberg": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_arithmetic_matches_definitions(name):
    # Z^2 products are vector sums; apply is multiply by a generator in
    # every family (Heisenberg multiply is checked against matrices above)
    g = get_group(name)
    rng = random.Random(31)
    for _ in range(300):
        e, f = (tuple(rng.randrange(-60, 61) for _ in g.identity())
                for _ in range(2))
        for gen_id, v in enumerate(GENERATORS[name]):
            assert g.apply(e, gen_id) == g.multiply(e, v)
        if name != "heisenberg":
            assert g.multiply(e, f) == (e[0] + f[0], e[1] + f[1])
            assert g.inverse(e) == (-e[0], -e[1])


def test_unknown_selector():
    with pytest.raises(InputError):
        get_group("no-such-group")


# parses, but a a^ a has normal forms 1 and a, and b b b^ has b b and b
NON_CONFLUENT_RULES = """\
generators: a b
order: a a^ b b^
a a^ -> a^
b b b^ -> b b
"""


def test_non_confluent_system_is_rejected():
    _, rs = parse_group_file(NON_CONFLUENT_RULES)
    with pytest.raises(InputError, match="not confluent"):
        RewritingGroup("bad", rs)
