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
# delta_ik delta_jl + delta_jk delta_il, the R-free part of d2G/dR_k dR_l
_SYM3 = (np.einsum('ik,jl->ijkl', _EYE, _EYE)
         + np.einsum('jk,il->ijkl', _EYE, _EYE))


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

    def index(self, omega):
        """n at omega; for an array of frequencies, an array of the same
        shape (a callable index is evaluated once per frequency)."""
        n = self.refractive_index
        if not callable(n):
            return n
        if np.ndim(omega) == 0:
            return n(omega)
        w = np.asarray(omega)
        return np.array([n(complex(x)) for x in w.ravel()],
                        dtype=complex).reshape(w.shape)

    def wavenumber(self, omega):
        """k = n(omega) * omega / c."""
        return self.index(omega) * omega / C0


def _frequencies(omega) -> np.ndarray:
    """omega as a complex array: every entry nonzero, real ones positive."""
    w = np.asarray(omega, dtype=complex)
    if np.any(w == 0):
        raise InputError("frequency must be nonzero")
    if np.any((w.imag == 0.0) & (w.real <= 0.0)):
        raise InputError("real-axis frequency must be positive")
    return w


# power-series coefficients of the stable Im G factors, highest order first:
# pa = sum_j (-1)^j (2j+2)^2 x^(2j+1) / (2j+3)!
# pb = sum_{j>=2} (-1)^j 4 j (j-1) x^(2j-1) / (2j+1)!
_PA_SERIES = [(-1.0) ** j * (2 * j + 2) ** 2 / math.factorial(2 * j + 3)
              for j in range(11, -1, -1)]
_PB_SERIES = [(-1.0) ** j * 4.0 * j * (j - 1) / math.factorial(2 * j + 1)
              for j in range(12, 1, -1)]


def _pa_pb(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable radial factors of Im G for real positive x = k r (1-d)."""
    pa = np.empty_like(x)
    pb = np.empty_like(x)
    low = x < SERIES_SWITCH
    xs = x[low]
    x2 = xs * xs
    sa = np.zeros_like(xs)
    sb = np.zeros_like(xs)
    for ca in _PA_SERIES:
        sa = sa * x2 + ca
    for cb in _PB_SERIES:
        sb = sb * x2 + cb
    pa[low] = sa * xs
    pb[low] = sb * xs ** 3
    xt = x[~low]
    s, c = np.sin(xt), np.cos(xt)
    pa[~low] = s + (xt * c - s) / (xt * xt)
    pb[~low] = ((3.0 - xt * xt) * s - 3.0 * xt * c) / (xt * xt)
    return pa, pb


def _radial_functions(r: float, k: np.ndarray):
    """g1, g2 and their first two radial derivatives."""
    x = k * r
    x2, x3, x4 = x ** 2, x ** 3, x ** 4
    E = np.exp(1j * x) / (4.0 * math.pi * k * k)
    g1 = E * (x * x + 1j * x - 1.0) / r ** 3
    g1p = E * (1j * x3 - 2.0 * x2 - 3j * x + 3.0) / r ** 4
    g1pp = E * (-x4 - 3j * x3 + 7.0 * x2 + 12j * x - 12.0) / r ** 5
    g2 = E * (3.0 - 3j * x - x * x) / r ** 5
    g2p = E * (-1j * x3 + 6.0 * x2 + 15j * x - 15.0) / r ** 6
    g2pp = E * (x4 + 9j * x3 - 39.0 * x2 - 90j * x + 90.0) / r ** 7
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


def _value(R: np.ndarray, r: float, w: np.ndarray, medium: Medium):
    """G at separation R for the 1-d frequency array w, and the radial
    functions. Where w and n(w) are both real, Im G comes from the stable
    real forms."""
    n = medium.index(w)
    k = n * w / C0
    radial = _radial_functions(r, k)
    g1, g2 = radial[0], radial[3]
    G = g1[:, None, None] * _EYE + g2[:, None, None] * np.outer(R, R)
    stable = (w.imag == 0.0) & (np.imag(n) == 0.0)
    if np.any(stable):
        pa, pb = _pa_pb(k.real[stable] * r)
        rh = R / r
        im = (pa[:, None, None] * _EYE + pb[:, None, None] * np.outer(rh, rh)
              ) / (4.0 * math.pi * r)
        G[stable] = G[stable].real + 1j * im
    return G, radial


def eval_homogeneous(R, omega, medium: Medium = Medium()) -> np.ndarray:
    """Green tensor for separation vector R (m) at frequency omega (rad/s).

    Returns the complex 3x3 tensor in 1/m, or one per frequency, with
    shape omega.shape + (3, 3), for an array of frequencies. Frequencies
    on the positive imaginary axis are accepted (the tensor is then purely
    real).
    """
    R, r = _separation(R)
    w = _frequencies(omega)
    G, _ = _value(R, r, w.reshape(-1), medium)
    return G.reshape(w.shape + (3, 3))


def eval_homogeneous_jet(r_obs, r_src, omega, medium: Medium = Medium()) -> GreensJet:
    """Green tensor plus analytic derivative blocks at a point pair.

    d_obs[:, :, k] is the gradient in the field point, d_src[:, :, l] in the
    source point, d_mixed[:, :, k, l] the mixed second derivative. All blocks
    follow from closed-form differentiation of the radial split.

    omega may be an array of frequencies; the jet then has its shape as
    batch shape. A single frequency is the batch shape () case of the same
    evaluation, so each batch entry equals the single-frequency jet bit
    for bit.
    """
    r_obs = np.asarray(r_obs, dtype=float)
    r_src = np.asarray(r_src, dtype=float)
    if r_obs.shape != (3,) or r_src.shape != (3,):
        raise InputError("points must be 3-vectors")
    R, r = _separation(r_obs - r_src)
    w = _frequencies(omega)
    value, (g1, g1p, g1pp, g2, g2p, g2pp) = _value(R, r, w.reshape(-1),
                                                   medium)

    # geometry tensors, fixed by R alone
    rh = R / r
    RR = np.outer(R, R)
    P = np.outer(rh, rh)
    T = (_EYE - P) / r
    eye_rh = np.einsum('ij,k->ijk', _EYE, rh)
    rr_rh = np.einsum('ij,k->ijk', RR, rh)
    sym1 = (np.einsum('ik,j->ijk', _EYE, R) + np.einsum('jk,i->ijk', _EYE, R))
    sym2 = (np.einsum('k,il,j->ijkl', rh, _EYE, R)
            + np.einsum('k,jl,i->ijkl', rh, _EYE, R)
            + np.einsum('l,ik,j->ijkl', rh, _EYE, R)
            + np.einsum('l,jk,i->ijkl', rh, _EYE, R))

    def per(g, ndim):
        return g.reshape(g.shape + (1,) * ndim)

    # dG/dR_k
    d1 = (per(g1p, 3) * eye_rh + per(g2p, 3) * rr_rh + per(g2, 3) * sym1)

    # d2G/dR_k dR_l
    d2 = (_EYE[:, :, None, None] * (per(g1pp, 2) * P + per(g1p, 2) * T)[
              :, None, None]
          + RR[:, :, None, None] * (per(g2pp, 2) * P + per(g2p, 2) * T)[
              :, None, None]
          + per(g2p, 4) * sym2
          + per(g2, 4) * _SYM3)

    shape = w.shape
    # d/dr = +d/dR, d/dr' = -d/dR, so the mixed block flips sign once
    return GreensJet(value=value.reshape(shape + (3, 3)),
                     d_obs=d1.reshape(shape + (3, 3, 3)),
                     d_src=-d1.reshape(shape + (3, 3, 3)),
                     d_mixed=-d2.reshape(shape + (3, 3, 3, 3)),
                     part="full")


def coincident_im_jet(omega, medium: Medium = Medium()) -> GreensJet:
    """Imaginary-part jet in the limit of coinciding field and source point.

    The imaginary part is smooth through zero separation: the value block is
    (k/6pi) I, first-derivative blocks vanish, and the mixed second
    derivative has the closed form

        (k^3/15pi) delta_mn delta_kl
        - (k^3/60pi) (delta_mk delta_nl + delta_ml delta_nk).
    """
    w = complex(_frequencies(omega))
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
    w = complex(_frequencies(omega))
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
