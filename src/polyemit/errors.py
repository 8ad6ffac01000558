"""Exception hierarchy, and the rule for numbers in input documents.

Every error the package raises deliberately derives from PolyemitError so
callers (and the CLI) can separate usage problems from genuine bugs.
"""

import sys

import numpy as np


def is_number(value) -> bool:
    """True for a real number given as a number: an int or a float (numpy's
    too), never a bool (Python counts bools as ints) and never a string.
    Every numeric field of an input document obeys this one rule."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def is_finite_number(value) -> bool:
    """is_number, and finite as a float: not NaN, not infinite, and not an
    int too large for a float (which math.isfinite cannot even convert)."""
    return (is_number(value)
            and -sys.float_info.max <= value <= sys.float_info.max)


class PolyemitError(Exception):
    """Base class for all deliberate package errors."""


class InputError(PolyemitError):
    """Malformed or physically inadmissible user input."""


class CoincidentPointError(InputError):
    """Field point and source point coincide where a formula diverges."""


class MissingDerivativeError(PolyemitError):
    """A jet lacks derivative blocks that the requested contraction needs."""


class PartFlagError(PolyemitError):
    """A jet's real/imaginary content does not match what the caller needs."""


class GridFormatError(InputError):
    """Grid file violates the on-disk format contract."""


class GridDomainError(InputError):
    """Query point outside the grid hull, or grid lacks requested data."""


class QuadratureError(PolyemitError):
    """Adaptive integration failed to converge or diverged."""


class IntegrationError(PolyemitError):
    """Time propagation failed step control or broke a state invariant."""


class ModelDomainError(InputError):
    """Spectral model queried outside its declared validity domain."""
