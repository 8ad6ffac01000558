"""Exception hierarchy, and the rules for numbers, arrays, axes and points.

Every error the package raises deliberately derives from PolyemitError so
callers (and the CLI) can separate usage problems from genuine bugs.
"""

import reprlib
import sys

import numpy as np


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
    """Spectral model or integral given an argument it cannot take (an
    invalid pole frequency or resonance, a coefficient structure that
    diverges, a non-Hermitian result)."""


def is_number(value) -> bool:
    """True for a real number given as a number: an int or a float (numpy's
    too), never a bool (Python counts bools as ints) and never a string.
    Every numeric field of an input document obeys this one rule."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def is_finite_number(value) -> bool:
    """is_number, and finite as a float: not NaN, not infinite, and not an
    int too large for a float (which float() cannot even convert)."""
    return (is_number(value)
            and -sys.float_info.max <= value <= sys.float_info.max)


def positive_number(value, name: str, error=InputError) -> float:
    """value as a float when it is a finite number (is_finite_number) above
    zero: the one rule for frequencies, steps, times and tolerances.
    Otherwise error naming the field."""
    if not (is_finite_number(value) and value > 0):
        raise error(f"{name} must be a positive finite number, "
                    f"got {reprlib.repr(value)}")
    return float(value)


def _array_of(value, kinds: str):
    """value as an array when its dtype kind is one of kinds (so no bools,
    strings, None or ragged nesting), else None. An object array (ints
    past int64) is read as floats when every entry is_finite_number."""
    try:
        arr = np.asarray(value)
    except ValueError:
        return None
    if arr.dtype.kind == "O" and all(map(is_finite_number, arr.flat)):
        arr = arr.astype(float)
    if arr.dtype.kind not in kinds:
        return None
    # numpy reads a bool among numbers, as in [True, 2], as a number
    if not isinstance(value, np.ndarray) and any(
            isinstance(x, (bool, np.bool_))
            for x in np.asarray(value, dtype=object).flat):
        return None
    return arr


def _real_array(value):
    """value as a float array when it holds only ints and floats (no
    complex either), else None."""
    arr = _array_of(value, "iuf")
    return None if arr is None else arr.astype(float)


def finite_array(value, name: str, shape=None, real: bool = False,
                 error=InputError) -> np.ndarray:
    """value as a complex array (a float array when real) of finite ints,
    floats and, unless real, complex numbers (numpy's too): never a bool, a
    string, None or a ragged list. The one rule for (complex) frequencies,
    moment vectors and tensors, ensemble matrices, states and amplitude
    tensors; the physics that needs more, such as a nonzero or positive
    real frequency, checks that after. shape, when given, is the shape it
    must have. An ndarray of a numeric dtype is taken as it is, with no
    scan of its entries. Otherwise error naming the field."""
    arr = _array_of(value, "iuf" if real else "iufc")
    if arr is None or not np.isfinite(arr).all():
        kind = "real" if real else "real or complex"
        raise error(f"{name} must be a finite {kind} number, or an array of "
                    f"them, got {reprlib.repr(value)}")
    if shape is not None and arr.shape != shape:
        raise error(f"{name} must have shape {shape}, got {arr.shape}")
    return arr.astype(float if real else complex, copy=False)


def finite_point(value, name: str, error=InputError) -> np.ndarray:
    """value as a float array of shape (3,) with finite real entries: the
    one rule for positions, query points and separations. Otherwise error
    naming the field."""
    p = _real_array(value)
    if p is None or p.shape != (3,) or not np.isfinite(p).all():
        raise error(f"{name} must be a finite real 3-vector (m)")
    return p


def increasing_axis(value, name: str, error=InputError) -> np.ndarray:
    """value as a nonempty 1-D float array of finite, strictly increasing
    entries: the one rule for grid axes and time grids. Otherwise error
    naming the field."""
    a = _real_array(value)
    if (a is None or a.ndim != 1 or a.size == 0
            or not np.isfinite(a).all() or (np.diff(a) <= 0.0).any()):
        raise error(f"{name} must be a nonempty finite strictly increasing "
                    f"1-D array")
    return a
