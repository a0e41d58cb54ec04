"""Error classes shared across the package.

The CLI maps these onto fixed exit codes: input errors exit 1, resource
cap errors exit 2, internal consistency failures exit 3.
"""


class CayleyLabError(Exception):
    exit_code = 1


class InputError(CayleyLabError):
    exit_code = 1


class ResourceError(CayleyLabError):
    """A resource cap was hit; `needed_radius` is the ball radius that
    avoids it, when the raiser knows one, and `threshold` the fill
    threshold reached when it was raised."""

    exit_code = 2

    def __init__(self, message: str = "", needed_radius: int | None = None,
                 threshold: int | None = None):
        super().__init__(message)
        self.needed_radius = needed_radius
        self.threshold = threshold


class InternalError(CayleyLabError):
    exit_code = 3
