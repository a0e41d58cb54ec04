"""Generator alphabets and plain word operations.

Words are tuples of small integer generator ids.  An alphabet is always
inverse closed: each base generator `x` is followed by its inverse `x^`,
and every generator knows the id of its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

Word = tuple[int, ...]

EMPTY: Word = ()


@dataclass(frozen=True)
class Generator:
    id: int
    label: str
    inverse_id: int


class Alphabet:
    """An inverse-closed, ordered set of generators.

    The declared order of the labels is the shortlex base order used by
    rewriting systems.
    """

    def __init__(self, generators: list[Generator]):
        self.generators = tuple(generators)
        self._by_label = {g.label: g.id for g in generators}

    @classmethod
    def with_inverses(cls, base_labels: list[str]) -> "Alphabet":
        """Build from base labels, each `x` followed by its inverse `x^`.

        The list must be nonempty, without repeats, and no label may end
        in `^`, which marks inverses.
        """
        if not base_labels:
            raise InputError("alphabet must be nonempty")
        gens: list[Generator] = []
        for i, lab in enumerate(base_labels):
            if lab in base_labels[:i]:
                raise InputError(f"duplicate generator label {lab!r}")
            if lab.endswith("^"):
                raise InputError(f"generator label {lab!r} ends in '^', "
                                 "which marks inverses")
            gens += (Generator(2 * i, lab, 2 * i + 1),
                     Generator(2 * i + 1, lab + "^", 2 * i))
        return cls(gens)

    def __len__(self) -> int:
        return len(self.generators)

    def inverse(self, gen_id: int) -> int:
        return self.generators[gen_id].inverse_id

    def label(self, gen_id: int) -> str:
        return self.generators[gen_id].label

    def id_of(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise InputError(f"unknown generator label {label!r}") from None

    def check_word(self, w: Word) -> None:
        for g in w:
            if not (0 <= g < len(self.generators)):
                raise InputError(f"unknown generator id {g}")

    def parse_word(self, text: str, sep: str = ",") -> Word:
        """Parse a word like "a,b,a^" (or space separated)."""
        text = text.strip()
        if not text:
            return EMPTY
        parts = text.split(sep) if sep in text else text.split()
        return tuple(self.id_of(p.strip()) for p in parts if p.strip())

    def format_word(self, w: Word, sep: str = " ") -> str:
        return sep.join(self.label(g) for g in w)


def free_reduce(alphabet: Alphabet, w: Word) -> Word:
    """Delete adjacent letter/inverse pairs until none remain."""
    out: list[int] = []
    for g in w:
        if out and alphabet.inverse(out[-1]) == g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def invert(alphabet: Alphabet, w: Word) -> Word:
    """The reversed sequence of letter inverses."""
    return tuple(alphabet.inverse(g) for g in reversed(w))


def concat(*words: Word) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return tuple(out)
