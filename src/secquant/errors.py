"""Exception types shared across the library, and its integer rule."""

import numbers


class SingularPointError(ValueError):
    """Operating point sits on the zero-divergence diagonal where the
    constraint-boundary calculus degenerates."""


class UnimodalityError(RuntimeError):
    """An objective assumed quasi-concave failed the pre-scan; search
    results would be unreliable, so the solver refuses to continue."""


class ArtifactError(RuntimeError):
    """A stored artifact file is missing, unreadable, or malformed."""


def _check_integer(name: str, value: object) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer:
    a ``numbers.Integral``, NumPy's too, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
