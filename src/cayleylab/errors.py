"""Error classes shared across the package.

`cli.main` maps each class onto a fixed exit code: input errors exit 1,
resource cap errors exit 2, internal consistency failures exit 3.
Subclasses exit as their base does.
"""


class CayleyLabError(Exception):
    pass


class InputError(CayleyLabError):
    """The request cannot be met as given: a bad argument or word, or a
    setting too small for it."""


class BallTooSmall(InputError):
    """A point, path or distance lies beyond the ball at hand.

    vankampen.fill takes this as its signal to grow the ball and retry;
    elsewhere it is an input error like any other."""


class ResourceError(CayleyLabError):
    """A resource cap was hit."""


class InternalError(CayleyLabError):
    """A consistency check of the package's own results failed."""
