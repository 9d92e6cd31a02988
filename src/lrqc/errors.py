"""Shared exception types."""


class CapExceeded(Exception):
    """A requested computation exceeds a hard resource cap (dense dimension, sample state size)."""


class NumericalAmbiguityError(RuntimeError):
    """A rank or multiplicity count has singular values too close to the tolerance to resolve."""


def check_cap(what: str, requested: int, cap: int, unit: str = "") -> None:
    """Raise ``CapExceeded`` naming the amount requested and the cap when it is over the cap."""
    if requested > cap:
        raise CapExceeded(f"{what} needs {requested}{unit}, over its budget of {cap}{unit}")
