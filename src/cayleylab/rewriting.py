"""Shortlex string rewriting for user-defined groups.

A rewriting system holds shortlex-decreasing rules over an inverse-closed
alphabet.  The free-reduction rules x x^ -> empty are always part of the
system: group words are subject to free equality whether or not the user
lists those rules, and leaving them implicit is the common mistake the
confluence checker is meant to catch.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .words import Alphabet, Word, concat

Rule = tuple[Word, Word]


def shortlex_key(order: dict[int, int], w: Word) -> tuple:
    return (len(w), tuple(order[g] for g in w))


class RewritingSystem:
    def __init__(self, alphabet: Alphabet, rules: list[Rule],
                 order_labels: list[str] | None = None):
        self.alphabet = alphabet
        if order_labels is None:
            order_labels = list(alphabet.labels)
        if sorted(order_labels) != sorted(alphabet.labels):
            raise InputError("shortlex order must list every generator exactly once")
        self.order = {alphabet.id_of(lab): pos for pos, lab in enumerate(order_labels)}

        for lhs, rhs in rules:
            alphabet.check_word(lhs)
            alphabet.check_word(rhs)
            if shortlex_key(self.order, lhs) <= shortlex_key(self.order, rhs):
                raise InputError(
                    f"rule {alphabet.format_word(lhs)} -> {alphabet.format_word(rhs)} "
                    "does not decrease shortlex rank"
                )
        free = [((g, g ^ 1), ()) for g in range(len(alphabet))]
        # the free rules first, then the user's, each once
        self.rules: tuple[Rule, ...] = tuple(dict.fromkeys(
            free + [(tuple(lhs), tuple(rhs)) for lhs, rhs in rules]))
        self._max_lhs = max(len(l) for l, _ in self.rules)

    def normal_form(self, w: Word) -> Word:
        """Rewrite with the leftmost applicable rule until none applies.

        Termination is guaranteed because every rule decreases shortlex rank.
        """
        word = list(w)
        rules = self.rules
        i = 0
        while i < len(word):
            applied = False
            for lhs, rhs in rules:
                n = len(lhs)
                if word[i:i + n] == list(lhs):
                    word[i:i + n] = list(rhs)
                    i = max(0, i - self._max_lhs + 1)
                    applied = True
                    break
            if not applied:
                i += 1
        return tuple(word)


@dataclass(frozen=True)
class CriticalPair:
    source: Word      # the overlap word both rules apply to
    left: Word        # normal form via the first rule
    right: Word       # normal form via the second rule


def check_local_confluence(rs: RewritingSystem) -> list[CriticalPair]:
    """All unresolved overlap critical pairs; empty iff locally confluent.

    With termination (guaranteed by the shortlex ordering) local confluence
    gives global confluence, so an empty result means normal forms are
    canonical.
    """
    unresolved: list[CriticalPair] = []
    seen: set[tuple[Word, Word, Word]] = set()

    def consider(source: Word, a: Word, b: Word) -> None:
        na, nb = rs.normal_form(a), rs.normal_form(b)
        if na != nb:
            key = (source, min(na, nb), max(na, nb))
            if key not in seen:
                seen.add(key)
                unresolved.append(CriticalPair(source, na, nb))

    for l1, r1 in rs.rules:
        for l2, r2 in rs.rules:
            # proper overlap: a suffix of l1 equals a prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k:] == l2[:k]:
                    source = concat(l1, l2[k:])
                    consider(source,
                             concat(r1, l2[k:]),
                             concat(l1[:len(l1) - k], r2))
            # containment: l2 occurs strictly inside l1
            if (l1, r1) != (l2, r2) and len(l2) < len(l1):
                for i in range(len(l1) - len(l2) + 1):
                    if l1[i:i + len(l2)] == l2:
                        consider(l1, r1,
                                 concat(l1[:i], r2, l1[i + len(l2):]))
    return unresolved


def parse_group_file(text: str) -> tuple[Alphabet, RewritingSystem]:
    """Parse the line-oriented group definition format.

    Header lines `generators: a b c` and `order: a a^ b b^ c c^`, then one
    rule per line `lhs -> rhs` with space-separated letters.  `#` starts a
    comment.  The `^` suffix marks an inverse letter.
    """
    base: list[str] | None = None
    order: list[str] | None = None
    rule_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generators:"):
            base = line.split(":", 1)[1].split()
        elif line.startswith("order:"):
            order = line.split(":", 1)[1].split()
        else:
            rule_lines.append(line)
    if base is None:
        raise InputError("group file is missing a 'generators:' line")
    alphabet = Alphabet.with_inverses(base)
    rules: list[Rule] = []
    for line in rule_lines:
        if "->" not in line:
            raise InputError(f"bad rule line {line!r} (expected 'lhs -> rhs')")
        lhs_text, rhs_text = line.split("->", 1)
        lhs = tuple(alphabet.id_of(t) for t in lhs_text.split())
        rhs = tuple(alphabet.id_of(t) for t in rhs_text.split())
        if not lhs:
            raise InputError(f"empty rule lhs in {line!r}")
        rules.append((lhs, rhs))
    return alphabet, RewritingSystem(alphabet, rules, order)
