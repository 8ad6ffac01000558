"""Homogeneous-medium electromagnetic Green tensor and its derivative jets.

Conventions. With separation R = r - r', r = |R|, wavenumber k = n(w)*w/c
and x = k*r, the tensor splits into scalar radial functions

    G_ij(R, w) = g1(r) delta_ij + g2(r) R_i R_j

where, with E = exp(i x) / (4 pi k^2),

    g1 = E (x^2 + i x - 1) / r^3
    g2 = E (3 - 3 i x - x^2) / r^5

Units: G in 1/m. Derivatives with respect to the field point r carry a plus
sign relative to d/dR, derivatives with respect to the source point r' a
minus sign.

The imaginary part of G is smooth through R = 0 but is numerically destroyed
by cancellation when extracted from the complex closed form at small kr
(relative noise grows like eps/x^2). For real k the imaginary part is
therefore evaluated from dedicated real series/trig forms

    Im G = [pa(x) delta + pb(x) RhRh] / (4 pi r)
    pa(x) = sin x + (x cos x - sin x)/x^2
    pb(x) = ((3 - x^2) sin x - 3 x cos x)/x^2

with power series below x = 0.5 that are accurate to a couple of ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .constants import C0
from .errors import CoincidentPointError, InputError
from .jets import GreensJet

__all__ = [
    "Medium", "eval_homogeneous", "eval_homogeneous_jet",
    "coincident_im_jet", "small_R_series_im", "SERIES_SWITCH",
]

# below this value of k|R| the imaginary part switches to power series
SERIES_SWITCH = 0.5

_EYE = np.eye(3)


@dataclass(frozen=True)
class Medium:
    """Dispersionless or dispersive refractive index of the host medium.

    A plain number means a constant index (must be real and >= 1). A
    callable is treated as a spectral model n(omega) and must satisfy
    n(-conj(omega)) = conj(n(omega)) for a real time-domain response; that
    property is spot-checked by consumers where it matters, not here.
    """

    refractive_index: Union[float, Callable[[complex], complex]] = 1.0

    def __post_init__(self):
        n = self.refractive_index
        if not callable(n):
            n = complex(n)
            if n.imag != 0.0:
                raise InputError("constant refractive index must be real")
            if n.real < 1.0:
                raise InputError("constant refractive index must be >= 1")
            object.__setattr__(self, "refractive_index", float(n.real))

    @property
    def is_constant(self) -> bool:
        return not callable(self.refractive_index)

    def index(self, omega: complex) -> complex:
        n = self.refractive_index
        return n(omega) if callable(n) else n

    def wavenumber(self, omega: complex) -> complex:
        """k = n(omega) * omega / c."""
        return self.index(omega) * omega / C0


def _check_omega(omega) -> complex:
    w = complex(omega)
    if w == 0:
        raise InputError("frequency must be nonzero")
    if w.imag == 0.0 and w.real <= 0.0:
        raise InputError("real-axis frequency must be positive")
    return w


def _pa_pb(x: float) -> tuple[float, float]:
    """Stable radial factors of Im G for real nonnegative x = k r."""
    if x < SERIES_SWITCH:
        # pa = sum_j (-1)^j (2j+2)^2 x^(2j+1) / (2j+3)!
        # pb = sum_{j>=2} (-1)^j 4 j (j-1) x^(2j-1) / (2j+1)!
        x2 = x * x
        pa = 0.0
        pb = 0.0
        for j in range(11, -1, -1):
            ca = (-1.0) ** j * (2 * j + 2) ** 2 / math.factorial(2 * j + 3)
            pa = pa * x2 + ca
        pa *= x
        for j in range(12, 1, -1):
            cb = (-1.0) ** j * 4.0 * j * (j - 1) / math.factorial(2 * j + 1)
            pb = pb * x2 + cb
        pb *= x ** 3
        return pa, pb
    s, c = math.sin(x), math.cos(x)
    pa = s + (x * c - s) / (x * x)
    pb = ((3.0 - x * x) * s - 3.0 * x * c) / (x * x)
    return pa, pb


def _stable_im(R: np.ndarray, r: float, k: float) -> np.ndarray:
    pa, pb = _pa_pb(k * r)
    rh = R / r
    return (pa * _EYE + pb * np.outer(rh, rh)) / (4.0 * math.pi * r)


def _radial_functions(r: float, k: complex):
    """g1, g2 and their first two radial derivatives."""
    x = k * r
    E = np.exp(1j * x) / (4.0 * math.pi * k * k)
    g1 = E * (x * x + 1j * x - 1.0) / r ** 3
    g1p = E * (1j * x ** 3 - 2.0 * x ** 2 - 3j * x + 3.0) / r ** 4
    g1pp = E * (-x ** 4 - 3j * x ** 3 + 7.0 * x ** 2 + 12j * x - 12.0) / r ** 5
    g2 = E * (3.0 - 3j * x - x * x) / r ** 5
    g2p = E * (-1j * x ** 3 + 6.0 * x ** 2 + 15j * x - 15.0) / r ** 6
    g2pp = E * (x ** 4 + 9j * x ** 3 - 39.0 * x ** 2 - 90j * x + 90.0) / r ** 7
    return g1, g1p, g1pp, g2, g2p, g2pp


def _separation(R) -> tuple[np.ndarray, float]:
    R = np.asarray(R, dtype=float)
    if R.shape != (3,):
        raise InputError("separation must be a 3-vector")
    r = float(np.linalg.norm(R))
    if r == 0.0:
        raise CoincidentPointError(
            "Green tensor diverges at zero separation; "
            "use coincident_im_jet for the finite imaginary part")
    return R, r


def _im_is_stable_case(omega: complex, medium: Medium) -> bool:
    n = medium.index(omega)
    return omega.imag == 0.0 and complex(n).imag == 0.0


def eval_homogeneous(R, omega, medium: Medium = Medium()) -> np.ndarray:
    """Green tensor for separation vector R (m) at frequency omega (rad/s).

    Returns the complex 3x3 tensor in 1/m. Frequencies on the positive
    imaginary axis are accepted (the tensor is then purely real).
    """
    R, r = _separation(R)
    w = _check_omega(omega)
    k = medium.wavenumber(w)
    g1, _, _, g2, _, _ = _radial_functions(r, k)
    G = g1 * _EYE + g2 * np.outer(R, R)
    if _im_is_stable_case(w, medium):
        G = G.real + 1j * _stable_im(R, r, float(complex(k).real))
    return G


def eval_homogeneous_jet(r_obs, r_src, omega, medium: Medium = Medium()) -> GreensJet:
    """Green tensor plus analytic derivative blocks at a point pair.

    d_obs[:, :, k] is the gradient in the field point, d_src[:, :, l] in the
    source point, d_mixed[:, :, k, l] the mixed second derivative. All blocks
    follow from closed-form differentiation of the radial split.
    """
    r_obs = np.asarray(r_obs, dtype=float)
    r_src = np.asarray(r_src, dtype=float)
    if r_obs.shape != (3,) or r_src.shape != (3,):
        raise InputError("points must be 3-vectors")
    R, r = _separation(r_obs - r_src)
    w = _check_omega(omega)
    k = medium.wavenumber(w)
    g1, g1p, g1pp, g2, g2p, g2pp = _radial_functions(r, k)

    rh = R / r
    RR = np.outer(R, R)
    P = np.outer(rh, rh)
    T = (_EYE - P) / r

    value = g1 * _EYE + g2 * RR
    if _im_is_stable_case(w, medium):
        value = value.real + 1j * _stable_im(R, r, float(complex(k).real))

    # dG/dR_k
    d1 = (g1p * np.einsum('ij,k->ijk', _EYE, rh)
          + g2p * np.einsum('ij,k->ijk', RR, rh)
          + g2 * (np.einsum('ik,j->ijk', _EYE, R)
                  + np.einsum('jk,i->ijk', _EYE, R)))

    # d2G/dR_k dR_l
    d2 = (np.einsum('ij,kl->ijkl', _EYE, g1pp * P + g1p * T)
          + np.einsum('ij,kl->ijkl', RR, g2pp * P + g2p * T)
          + g2p * (np.einsum('k,il,j->ijkl', rh, _EYE, R)
                   + np.einsum('k,jl,i->ijkl', rh, _EYE, R)
                   + np.einsum('l,ik,j->ijkl', rh, _EYE, R)
                   + np.einsum('l,jk,i->ijkl', rh, _EYE, R))
          + g2 * (np.einsum('ik,jl->ijkl', _EYE, _EYE)
                  + np.einsum('jk,il->ijkl', _EYE, _EYE)))

    # d/dr = +d/dR, d/dr' = -d/dR, so the mixed block flips sign once
    return GreensJet(value=value, d_obs=d1, d_src=-d1, d_mixed=-d2,
                     part="full")


def coincident_im_jet(omega, medium: Medium = Medium()) -> GreensJet:
    """Imaginary-part jet in the limit of coinciding field and source point.

    The imaginary part is smooth through zero separation: the value block is
    (k/6pi) I, first-derivative blocks vanish, and the mixed second
    derivative has the closed form

        (k^3/15pi) delta_mn delta_kl
        - (k^3/60pi) (delta_mk delta_nl + delta_ml delta_nk).
    """
    w = _check_omega(omega)
    if w.imag != 0.0:
        raise InputError("coincident imaginary-part jet needs a real frequency")
    n = complex(medium.index(w))
    if abs(n.imag) > 1e-12 * abs(n):
        raise InputError(
            "coincident imaginary-part limits assume a lossless medium "
            "(refractive index must be real at this frequency)")
    k = float(n.real) * float(w.real) / C0

    value = (k / (6.0 * math.pi)) * np.eye(3)
    zeros1 = np.zeros((3, 3, 3))
    c1 = k ** 3 / (15.0 * math.pi)
    c2 = k ** 3 / (60.0 * math.pi)
    dm = (c1 * np.einsum('mn,kl->mnkl', _EYE, _EYE)
          - c2 * (np.einsum('mk,nl->mnkl', _EYE, _EYE)
                  + np.einsum('ml,nk->mnkl', _EYE, _EYE)))
    return GreensJet(value=value, d_obs=zeros1, d_src=zeros1.copy(),
                     d_mixed=dm, part="imag")


def small_R_series_im(R, omega, medium: Medium = Medium()) -> np.ndarray:
    """Small-separation series of Im G, valid for k|R| < 0.5.

    Im G = (k/6pi - k^3 |R|^2 / 30pi) I + (k^3/60pi) R R  + O((kR)^4)

    Returns a real 3x3 tensor; the residual against the full formula scales
    as the fourth power of k|R|.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3,):
        raise InputError("separation must be a 3-vector")
    w = _check_omega(omega)
    if w.imag != 0.0:
        raise InputError("series is defined for real frequencies")
    n = complex(medium.index(w))
    if abs(n.imag) > 1e-12 * abs(n):
        raise InputError("series assumes a lossless medium")
    k = float(n.real) * float(w.real) / C0
    x = k * float(np.linalg.norm(R))
    if x >= SERIES_SWITCH:
        raise InputError(
            f"series requested at k|R| = {x:.3g}, beyond its trust radius "
            f"{SERIES_SWITCH}")
    r2 = float(R @ R)
    return ((k / (6.0 * math.pi) - k ** 3 * r2 / (30.0 * math.pi)) * np.eye(3)
            + (k ** 3 / (60.0 * math.pi)) * np.outer(R, R))
