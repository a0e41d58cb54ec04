"""Generator alphabets and plain word operations.

Words are tuples of small integer generator ids.  An alphabet is always
inverse closed: the i-th base generator `x` has id 2i and its inverse
`x^` has id 2i + 1, so the inverse of id g is g ^ 1.
"""
from __future__ import annotations

from .errors import InputError

Word = tuple[int, ...]


class Alphabet:
    """An inverse-closed, ordered tuple of generator labels.

    The declared order of the labels is the shortlex base order used by
    rewriting systems.
    """

    def __init__(self, labels: list[str]):
        self.labels = tuple(labels)
        self._by_label = {lab: g for g, lab in enumerate(labels)}

    @classmethod
    def with_inverses(cls, base_labels: list[str]) -> "Alphabet":
        """Build from base labels, each `x` followed by its inverse `x^`.

        The list must be nonempty, without repeats, and no label may end
        in `^`, which marks inverses.
        """
        if not base_labels:
            raise InputError("alphabet must be nonempty")
        labels: list[str] = []
        for i, lab in enumerate(base_labels):
            if lab in base_labels[:i]:
                raise InputError(f"duplicate generator label {lab!r}")
            if lab.endswith("^"):
                raise InputError(f"generator label {lab!r} ends in '^', "
                                 "which marks inverses")
            labels += (lab, lab + "^")
        return cls(labels)

    def __len__(self) -> int:
        return len(self.labels)

    def id_of(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise InputError(f"unknown generator label {label!r}") from None

    def check_word(self, w: Word) -> None:
        for g in w:
            if not (0 <= g < len(self.labels)):
                raise InputError(f"unknown generator id {g}")

    def parse_word(self, text: str) -> Word:
        """Parse a word like "a,b,a^" (or space separated)."""
        parts = text.split(",") if "," in text else text.split()
        return tuple(self.id_of(p.strip()) for p in parts if p.strip())

    def format_word(self, w: Word) -> str:
        return " ".join(self.labels[g] for g in w)


def free_reduce(w: Word) -> Word:
    """Delete adjacent letter/inverse pairs until none remain."""
    out: list[int] = []
    for g in w:
        if out and out[-1] ^ 1 == g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def invert(w: Word) -> Word:
    """The reversed sequence of letter inverses."""
    return tuple(g ^ 1 for g in reversed(w))


def concat(*words: Word) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return tuple(out)
