"""Homogeneous-medium electromagnetic Green tensor and its derivative jets.

Conventions. With separation R = r - r', u = |R|^2 = r^2, wavenumber
k = n(w)*w/c and x = k*r, the tensor splits into two scalar functions of u

    G_mn(R, w) = A(u) delta_mn + B(u) R_m R_n,   E = exp(i x) / (4 pi k^2),
    A = E (x^2 + i x - 1) / r^3,                 B = E (3 - 3 i x - x^2) / r^5.

Every jet block is a polynomial in R whose coefficients are the radial
values A, A', A'', B, B', B'' (' = d/du), for any R including R = 0. Units:
G in 1/m. Derivatives with respect to the field point r carry a plus sign
relative to d/dR, derivatives with respect to the source point r' a minus.

The imaginary part of G is smooth through R = 0, but the complex closed
forms lose it to cancellation at small x, each derivative order more so.
For real k (real frequency and index) the imaginary radial values come from
the generating function F(v) = j0(sqrt(v)), which is entire:
Im G = (k/4pi) (I + grad grad / k^2) j0(k|R|) (Novotny & Hecht, Principles
of Nano-Optics, ch. 8), so with c = k/4pi and F_p = F^(p)(x^2) =
(-1/2)^p j_p(x) / x^p

    Im A = c (F_0 + 2 F_1),  Im A' = c k^2 (F_1 + 2 F_2),  Im A'' = c k^4 (F_2 + 2 F_3),
    Im B = 4 c k^2 F_2,      Im B' = 4 c k^4 F_3,          Im B'' = 4 c k^6 F_4.

Below x = SERIES_SWITCH the F_p come from their power series, above it from
scipy.special.spherical_jn. The coincident imaginary-part jet is the R = 0
case. For complex k (lossy media, imaginary frequencies) the closed forms
give both parts.

On the imaginary axis w = i kappa of a constant index n, x = i alpha kappa
with alpha = n r / c, exp(i x) = exp(-alpha kappa) and 1/k^2 =
-c^2 / (n^2 kappa^2). Each radial value is then exp(-alpha kappa) times a
real Laurent polynomial in kappa with powers -2 to 2, and so is the jet
(imaginary_axis_laurent).

An ensemble needs both forms for many point pairs: pair_terms gives the
Im jet at one real frequency and the Laurent form of a stack of
separations from one geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np
from scipy.special import spherical_jn

from .constants import C0
from .errors import (CoincidentPointError, InputError, finite_array,
                     finite_point, is_finite_number, is_number)
from .jets import BLOCK_SHAPES, GreensJet

__all__ = [
    "Medium", "eval_homogeneous", "eval_homogeneous_jet",
    "coincident_im_jet", "SERIES_SWITCH",
]

# below this value of k|R| the imaginary part switches to power series
SERIES_SWITCH = 0.5

_EYE = np.eye(3)
# delta_mk delta_nl + delta_ml delta_nk
_SYM3 = _EYE[:, None, :, None] * _EYE[:, None, :]
_SYM3 = _SYM3 + _SYM3.transpose(0, 1, 3, 2)
# a jet as one flat row: where each block after the first starts, and width
*_SPLITS, _WIDTH = np.cumsum([math.prod(s) for s in BLOCK_SHAPES.values()])

# closed forms of A, A', A'', B, B', B'' (rows): the polynomial in x that
# multiplies E, coefficients highest power first, and the factor times the
# power of r that divides it
_CLOSED = np.array([[0, 0, 1, 1j, -1],
                    [0, 1j, -2, -3j, 3],
                    [-1, -4j, 9, 15j, -15],
                    [0, 0, -1, -3j, 3],
                    [0, -1j, 6, 15j, -15],
                    [1, 10j, -45, -105j, 105]])
_FACTOR = np.array([1.0, 0.5, 0.25, 1.0, 0.5, 0.25])
_R_POWER = np.array([3, 5, 7, 5, 7, 9])
# x^q = (i alpha kappa)^q at w = i kappa: _CLOSED times i^q (real), columns
# reordered to ascending q, which is the power kappa^(q - 2) after 1/k^2
_LAURENT = (_CLOSED * np.array([1, -1j, -1, 1j, 1])).real[:, ::-1]
_Q = np.arange(5)


def _im_rows(F):
    """Im A, A', A'', B, B', B'' divided by c k^(2 _K2_POWER), from the rows
    F_0 .. F_4."""
    return np.concatenate([F[:3] + 2 * F[1:4], 4 * F[2:]])


_K2_POWER = np.array([0, 1, 2, 1, 2, 3])[:, None]
_ORDERS = np.arange(5)[:, None]
# Taylor coefficients of _im_rows in x^2, 13 terms, highest power first,
# from F_p(x^2) = (-1/2)^p sum_j (-1)^j x^(2j) / (2^j j! (2j+2p+1)!!)
_IM_SERIES = _im_rows(np.array([
    [Fraction((-1) ** (j + p), 2 ** (j + p) * math.factorial(j)
              * math.prod(range(2 * j + 2 * p + 1, 0, -2)))
     for j in range(12, -1, -1)]
    for p in range(5)])).astype(float)


@dataclass(frozen=True)
class Medium:
    """Dispersionless or dispersive refractive index of the host medium.

    A plain number means a constant index: a real number (is_number),
    finite and >= 1 (the one check of that rule). A callable is treated as
    a spectral model n(omega) and must satisfy
    n(-conj(omega)) = conj(n(omega)) for a real time-domain response; that
    property is spot-checked by consumers where it matters, not here.
    """

    refractive_index: Union[float, Callable[[complex], complex]] = 1.0

    def __post_init__(self):
        n = self.refractive_index
        if not callable(n):
            if not is_number(n):
                raise InputError(f"constant refractive index must be a real "
                                 f"number, got {n!r}")
            if not (is_finite_number(n) and n >= 1.0):
                raise InputError(
                    "constant refractive index must be finite and >= 1")
            object.__setattr__(self, "refractive_index", float(n))

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


def _frequencies(omega) -> np.ndarray:
    """omega as a complex array (errors.finite_array): every entry
    nonzero, real ones positive."""
    w = finite_array(omega, "frequency")
    if np.any(w == 0):
        raise InputError("frequency must be nonzero")
    if np.any((w.imag == 0.0) & (w.real <= 0.0)):
        raise InputError("real-axis frequency must be positive")
    return w


def _lossless_wavenumber(omega, medium: Medium, what: str) -> np.ndarray:
    """k, of omega's shape, at real frequencies where the medium is
    lossless."""
    w = _frequencies(omega)
    if np.any(w.imag != 0.0):
        raise InputError(f"{what} needs a real frequency")
    n = np.asarray(medium.index(w.reshape(-1)), dtype=complex)
    if np.any(np.abs(n.imag) > 1e-12 * np.abs(n)):
        raise InputError(f"{what} assumes a lossless medium (refractive "
                         f"index must be real at every frequency)")
    return (n.real * w.real.reshape(-1) / C0).reshape(w.shape)


def _horner(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of table (highest power first) as a polynomial at x."""
    acc = table[:, :1]
    for coef in table.T[1:, :, None]:
        acc = acc * x + coef
    return acc


def _im_radial(r, k: np.ndarray) -> np.ndarray:
    """Im of A, A', A'', B, B', B'' (rows) at |R| = r for the real 1-d
    wavenumbers k, or at the 1-d distances r for one wavenumber k (shape
    (1,)), from the generating function j0(sqrt(u))."""
    x = k * r
    rows = np.empty((6, x.size))
    low = x < SERIES_SWITCH
    if low.any():
        rows[:, low] = _horner(_IM_SERIES, x[low] ** 2)
    if not low.all():
        xh = x[~low]
        rows[:, ~low] = _im_rows(spherical_jn(_ORDERS, xh)
                                 * (-0.5 / xh) ** _ORDERS)
    return rows * (k / (4.0 * math.pi) * (k * k) ** _K2_POWER)


def _radial(r: float, w: np.ndarray, medium: Medium) -> np.ndarray:
    """A, A', A'', B, B', B'' (rows) at |R| = r > 0 for the 1-d frequency
    array w. Where w and n(w) are both real, the imaginary parts come from
    the generating function instead of the cancelling closed forms."""
    n = medium.index(w)
    k = n * w / C0
    x = k * r
    radial = (_horner(_CLOSED, x) * (np.exp(1j * x) / (4.0 * math.pi * k * k))
              * (_FACTOR / r ** _R_POWER)[:, None])
    stable = (w.imag == 0.0) & (np.imag(n) == 0.0)
    if np.any(stable):
        radial.imag[:, stable] = _im_radial(r, k.real[stable])
    return radial


def _geometry(R: np.ndarray) -> np.ndarray:
    """How A, A', A'', B, B', B'' (rows) enter the jet blocks at separation
    R: one column per block entry, blocks in BLOCK_SHAPES order. With
    d_k u = 2 R_k,

        d_k G_mn = 2 A' R_k delta_mn + 2 B' R_m R_n R_k + B sym1_mnk
        d_k d_l G_mn = delta_mn (2 A' delta_kl + 4 A'' R_k R_l) + B sym3_mnkl
                       + R_m R_n (2 B' delta_kl + 4 B'' R_k R_l) + 2 B' sym2_mnkl

    R may stack separations on leading axes; the geometry, (6, _WIDTH)
    for one, is then (6,) + R.shape[:-1] + (_WIDTH,).
    """
    lead = R.shape[:-1]
    geometry = np.zeros((6,) + lead + (_WIDTH,))
    value, d_obs, d_src, d_mixed = _block_views(geometry, (6,) + lead)
    # R as the index n of (m, n, k), k of (m, n, k) and l of (m, n, k, l)
    R_n = R[..., None, :, None]
    R_k = R[..., None, None, :]
    R_l = R[..., None, None, None, :]
    RR = R[..., :, None] * R[..., None, :]
    value[0] = _EYE
    value[3] = RR
    # delta_mk R_n + delta_nk R_m
    t = _EYE[:, None, :] * R_n
    sym1 = t + t.swapaxes(-3, -2)
    # R_k sym1_mnl + R_l sym1_mnk
    t = sym1[..., None] * R_l
    sym2 = t + t.swapaxes(-2, -1)
    d_obs[1] = 2.0 * _EYE[:, :, None] * R_k
    d_obs[3] = sym1
    d_obs[4] = 2.0 * RR[..., None] * R_k
    # d/dr = +d/dR and d/dr' = -d/dR: one sign flip per source derivative
    d_src[:] = -d_obs
    d_mixed[1] = -2.0 * _EYE[:, :, None, None] * _EYE
    d_mixed[2] = -4.0 * _EYE[:, :, None, None] * RR[..., None, None, :, :]
    d_mixed[3] = -_SYM3
    d_mixed[4] = -2.0 * (RR[..., None, None] * _EYE + sym2)
    d_mixed[5] = -4.0 * RR[..., None, None] * RR[..., None, None, :, :]
    return geometry


def _block_views(flat: np.ndarray, shape: tuple) -> list:
    """The blocks of flat (last axis: entries of every block in
    BLOCK_SHAPES order) as views of batch shape `shape`."""
    bounds = (0, *_SPLITS, _WIDTH)
    return [flat[..., lo:hi].reshape(shape + block_shape)
            for lo, hi, block_shape
            in zip(bounds, bounds[1:], BLOCK_SHAPES.values())]


# the R = 0 geometry, which every coincident jet shares
_COINCIDENT = _geometry(np.zeros(3))


def _assemble(geometry: np.ndarray, radial: np.ndarray, shape: tuple) -> dict:
    """Jet blocks (name -> array of batch shape `shape`) from a geometry
    (see _geometry) and the radial values (6, ...), real or complex, whose
    trailing axes broadcast against the geometry's separation axes: (6, N)
    for N frequencies at one separation, (6, P) for one value per stacked
    separation. Exact zeros come out as +0.0."""
    geometry = geometry.astype(radial.dtype, copy=False)
    flat = np.zeros(np.broadcast_shapes(radial.shape[1:] + (1,),
                                        geometry.shape[1:]),
                    dtype=radial.dtype)
    for coef, row in zip(radial, geometry):
        flat += coef[..., None] * row
    return dict(zip(BLOCK_SHAPES, _block_views(flat, shape)))


def _separation(R) -> tuple:
    """R as a finite point and its length, which must be nonzero."""
    R = finite_point(R, "separation")
    r = float(np.linalg.norm(R))
    if r == 0.0:
        raise CoincidentPointError(
            "Green tensor diverges at zero separation; "
            "use coincident_im_jet for the finite imaginary part")
    return R, r


def _jet_blocks(R, omega, medium: Medium) -> dict:
    """Jet blocks at separation R != 0, batch shape omega.shape."""
    R, r = _separation(R)
    w = _frequencies(omega)
    return _assemble(_geometry(R), _radial(r, w.reshape(-1), medium),
                     w.shape)


def _laurent_radial(r, n: float) -> tuple:
    """(alpha, radial values (6, 5) + shape(r)): A, A', A'', B, B', B''
    (rows) on the imaginary axis as exp(-alpha kappa) times the powers
    kappa^-2 .. kappa^2, at the distances r > 0 (a number or an array)."""
    r = np.asarray(r)
    alpha = n * r / C0
    axes = (1,) * r.ndim
    radial = (_LAURENT.reshape(_LAURENT.shape + axes)
              * alpha ** _Q.reshape(_Q.shape + axes)
              * (-(C0 / n) ** 2 / (4.0 * math.pi)
                 * _FACTOR.reshape(_FACTOR.shape + axes)
                 / r ** _R_POWER.reshape(_R_POWER.shape + axes))[:, None])
    return alpha, radial


def imaginary_axis_laurent(R, n: float) -> tuple:
    """(alpha, blocks) with G(R, i kappa) = exp(-alpha kappa)
    sum_{p=-2}^{2} kappa^p G_p for the index n (a real number), alpha =
    n |R| / c: blocks maps each block name to the real coefficients G_p,
    stacked on a leading axis of the five powers p = -2..2. -G_-2 is the
    static pole S of G = S/w^2 + O(1/w) at w = 0."""
    R, r = _separation(R)
    alpha, radial = _laurent_radial(r, n)
    return float(alpha), _assemble(_geometry(R), radial, (5,))


def pair_terms(R: np.ndarray, omega: float, medium: Medium) -> tuple:
    """The Im-part jet at the real frequency omega and the imaginary-axis
    Laurent form of P point pairs at once, from one geometry of their
    separations R, shape (P, 3), each nonzero.

    Returns (jet, laurent): jet an Im-part GreensJet of batch shape (P,),
    from the generating-function rows alone (no complex closed form); each
    row is the imaginary part of eval_homogeneous_jet at its separation,
    bit for bit. laurent is imaginary_axis_laurent of each pair, with a
    pair axis after the power axis (alpha of shape (P,), blocks of shape
    (5, P) + block shape), or None for a callable (dispersive) index,
    which has no such form. omega and the medium must pass
    coincident_im_jet's frequency and lossless rules, which the caller
    checks.
    """
    # k and |R| rounded as eval_homogeneous_jet rounds them for one pair
    w = np.array([complex(omega)])
    k = (medium.index(w) * w / C0).real
    r = np.sqrt(np.vecdot(R, R))
    geometry = _geometry(R)
    jet = GreensJet(**_assemble(geometry, _im_radial(r, k), r.shape),
                    part="imag")
    n = medium.refractive_index
    if callable(n):
        return jet, None
    alpha, radial = _laurent_radial(r, n)
    return jet, (alpha, _assemble(geometry, radial, (5,) + r.shape))


def eval_homogeneous(R, omega, medium: Medium = Medium()) -> np.ndarray:
    """Green tensor for separation vector R (m) at frequency omega (rad/s).

    Returns the complex 3x3 tensor in 1/m, or one per frequency, with
    shape omega.shape + (3, 3), for an array of frequencies. Frequencies
    on the positive imaginary axis are accepted (the tensor is then purely
    real). It is the value block of eval_homogeneous_jet.
    """
    return _jet_blocks(R, omega, medium)["value"]


def eval_homogeneous_jet(r_obs, r_src, omega, medium: Medium = Medium()) -> GreensJet:
    """Green tensor plus analytic derivative blocks at a point pair.

    d_obs[:, :, k] is the gradient in the field point, d_src[:, :, l] in the
    source point, d_mixed[:, :, k, l] the mixed second derivative. All blocks
    follow from the six radial values of the u = |R|^2 split.

    omega may be an array of frequencies; the jet then has its shape as
    batch shape. A single frequency is the batch shape () case of the same
    evaluation, so each batch entry equals the single-frequency jet bit
    for bit.
    """
    r_obs = finite_point(r_obs, "field point")
    r_src = finite_point(r_src, "source point")
    return GreensJet(**_jet_blocks(r_obs - r_src, omega, medium), part="full")


def coincident_im_jet(omega, medium: Medium = Medium()) -> GreensJet:
    """Imaginary-part jet in the limit of coinciding field and source point.

    The R = 0 case of the generating-function evaluation: the value block
    is (k/6pi) I, the first-derivative blocks vanish, and the mixed second
    derivative is

        (k^3/15pi) delta_mn delta_kl
        - (k^3/60pi) (delta_mk delta_nl + delta_ml delta_nk).

    omega may be an array of real frequencies; the jet then has its shape
    as batch shape, and each batch entry equals the single-frequency jet
    bit for bit, as for eval_homogeneous_jet.
    """
    k = _lossless_wavenumber(omega, medium, "coincident imaginary-part jet")
    return GreensJet(**_assemble(_COINCIDENT, _im_radial(0.0, k.reshape(-1)),
                                 k.shape), part="imag")
