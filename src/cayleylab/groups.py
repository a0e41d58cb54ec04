"""Built-in group families and their canonical element forms.

Canonical forms: integer pairs for Z^2, freely reduced words for free
groups, integer triples (p, q, r) for the Heisenberg group under
(p,q,r)*(p',q',r') = (p+p', q+q', r+r'+p*q'), and shortlex-minimal normal
form words for rewriting-defined groups.  Two canonical forms are equal
iff the group elements are equal.
"""
from __future__ import annotations

import os

from .errors import InputError
from .rewriting import (RewritingSystem, check_local_confluence,
                        parse_group_file)
from .words import Alphabet, Word, free_reduce, invert

Element = tuple


class Group:
    """A group family instance: alphabet plus generator actions.

    `bipartite` is True only when no relator has odd length: then word
    length mod 2 is well defined on elements, so every edge of the
    Cayley graph joins shells n and n + 1 and none joins two vertices of
    one shell.  False is always safe; it only gives up that shortcut.
    """

    name: str
    alphabet: Alphabet
    bipartite = False

    def identity(self) -> Element:
        raise NotImplementedError

    def apply(self, e: Element, gen_id: int) -> Element:
        """Right multiplication by one generator."""
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inverse(self, e: Element) -> Element:
        raise NotImplementedError

    def evaluate(self, w: Word) -> Element:
        self.alphabet.check_word(w)
        e = self.identity()
        for g in w:
            e = self.apply(e, g)
        return e

    def exact_norm(self, e: Element) -> int | None:
        """Exact word norm when the family has a closed form, else None."""
        return None

    def geodesic_word(self, e: Element) -> Word | None:
        """A geodesic word for e when the family has a closed form."""
        return None

    def format_element(self, e: Element) -> str:
        return "(" + ",".join(str(x) for x in e) + ")"


class ZnGroup(Group):
    """Z^2 with a finite symmetric generating set of integer pairs."""

    def __init__(self, name: str, gens: list[tuple[str, tuple[int, int]]]):
        self.name = name
        self.alphabet = Alphabet.with_inverses([lab for lab, _ in gens])
        self._vectors: list[tuple[int, int]] = []
        for _, (x, y) in gens:
            self._vectors += [(x, y), (-x, -y)]

    def identity(self) -> Element:
        return (0, 0)

    def apply(self, e: Element, gen_id: int) -> Element:
        x, y = self._vectors[gen_id]
        return (e[0] + x, e[1] + y)

    def multiply(self, a: Element, b: Element) -> Element:
        return (a[0] + b[0], a[1] + b[1])

    def inverse(self, e: Element) -> Element:
        return (-e[0], -e[1])

    @property
    def bipartite(self) -> bool:
        # some map (x, y) -> a x + b y mod 2 sends every generator to 1;
        # computed when read, so that construction does no work for it
        return any(all((a * x + b * y) % 2 for x, y in self._vectors)
                   for a in (0, 1) for b in (0, 1))


class FreeGroup(Group):
    """The free group F_k; elements are freely reduced words."""

    bipartite = True

    def __init__(self, rank: int):
        if rank < 1:
            raise InputError("free group rank must be >= 1")
        self.name = f"f{rank}"
        self.rank = rank
        letters = [chr(ord("a") + i) for i in range(rank)]
        self.alphabet = Alphabet.with_inverses(letters)

    def identity(self) -> Element:
        return ()

    def apply(self, e: Element, gen_id: int) -> Element:
        if e and e[-1] ^ 1 == gen_id:
            return e[:-1]
        return e + (gen_id,)

    def multiply(self, a: Element, b: Element) -> Element:
        e = a
        for g in b:
            e = self.apply(e, g)
        return e

    def inverse(self, e: Element) -> Element:
        return invert(e)

    def exact_norm(self, e: Element) -> int:
        return len(e)

    def geodesic_word(self, e: Element) -> Word:
        return e

    def format_element(self, e: Element) -> str:
        return self.alphabet.format_word(e) if e else "1"


class HeisenbergGroup(Group):
    """Discrete Heisenberg group <a, b>, modeled as integer triples.

    (p, q, r) stands for the upper unitriangular matrix with a-exponent p,
    b-exponent q and center coordinate r, multiplied by
    (p,q,r)*(p',q',r') = (p+p', q+q', r+r'+p*q').
    """

    bipartite = True  # p + q mod 2 counts the letters of a word mod 2

    def __init__(self):
        self.name = "heisenberg"
        self.alphabet = Alphabet.with_inverses(["a", "b"])
        # a, a^, b, b^
        self._gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def identity(self) -> Element:
        return (0, 0, 0)

    def apply(self, e: Element, gen_id: int) -> Element:
        return self.multiply(e, self._gens[gen_id])

    def multiply(self, a: Element, b: Element) -> Element:
        p, q, r = a
        P, Q, R = b
        return (p + P, q + Q, r + R + p * Q)

    def inverse(self, e: Element) -> Element:
        p, q, r = e
        return (-p, -q, p * q - r)


class RewritingGroup(Group):
    """A group presented by a shortlex rewriting system, which must be
    confluent so that normal forms are canonical; checked on construction."""

    def __init__(self, name: str, rs: RewritingSystem):
        pairs = check_local_confluence(rs)
        if pairs:
            raise InputError(f"rewriting system {name!r} is not confluent "
                             f"({len(pairs)} unresolved critical pairs; "
                             "see check-confluence)")
        self.name = name
        self.rs = rs
        self.alphabet = rs.alphabet
        # rules that keep word length mod 2, the free ones included, keep
        # it on normal forms too
        self.bipartite = all((len(lhs) - len(rhs)) % 2 == 0
                             for lhs, rhs in rs.rules)

    def identity(self) -> Element:
        return ()

    def apply(self, e: Element, gen_id: int) -> Element:
        return self.rs.normal_form(e + (gen_id,))

    def multiply(self, a: Element, b: Element) -> Element:
        return self.rs.normal_form(a + b)

    def inverse(self, e: Element) -> Element:
        return self.rs.normal_form(invert(e))

    def evaluate(self, w: Word) -> Element:
        self.alphabet.check_word(w)
        return self.rs.normal_form(free_reduce(tuple(w)))

    def format_element(self, e: Element) -> str:
        return self.alphabet.format_word(e) if e else "1"


def get_group(selector: str) -> Group:
    """Resolve a built-in family name or a definition file path."""
    if selector == "z2-std":
        return ZnGroup("z2-std", [("a", (1, 0)), ("b", (0, 1))])
    if selector == "z2-abc":
        return ZnGroup("z2-abc", [("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))])
    if selector == "heisenberg":
        return HeisenbergGroup()
    if selector.startswith("f") and selector[1:].isdigit():
        return FreeGroup(int(selector[1:]))
    if os.path.exists(selector):
        with open(selector, encoding="utf-8") as fh:
            _, rs = parse_group_file(fh.read())
        return RewritingGroup(os.path.basename(selector), rs)
    raise InputError(f"unknown group selector {selector!r}")
