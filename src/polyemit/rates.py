"""Emission rates, level shifts, and pairwise couplings of multipole
emitters in a structured electromagnetic environment.

Everything reduces to the spectral density of a pair of emitters,

    Z_ab(w) = sum_blocks F_ab(w) . Im G_blocks(r_a, r_b, w),

with F_ab the normalized moment-product coefficients (emitter module).
The observables:

    gamma_ab   = 2 pi wbar^2 Z_ab(wbar)                      (no integration)
    xi_ab      = -P int_0^inf w^2 Z_ab(w) / (w - wbar) dw
    delta      = xi from the scattered part of the environment, a = b

gamma and xi form a Hermitian pair (gamma_ab = conj(gamma_ba)); the
coherent coupling matrix xi and the dissipator matrix gamma feed the
dynamics module. The self terms reproduce the standard free-space decay
closed forms, which double as the central cross-oracle.

Every emitter of a pair or ensemble lies within _FREQ_RATIO_TOL (1 %) of
the reference frequency (default their mean). An emitter drives the
channels of its nonzero moments; MultipoleEmitter.restricted deselects the
others. Decay rates have one path, emission_rate, for a jet of any batch
shape: enhancement_map is one emission_rate call on a grid's batched node
jet, and its free-space reference is one on the vacuum coincident jet.
free_space_rates is the closed-form reference those paths are checked
against, for a symmetric traceless quadrupole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .constants import C0, EPS0, HBAR
from .emitter import (CHANNELS, SPECTRAL_NORM, MultipoleEmitter,
                      bilinear_form, moment_product_bundle)
from .errors import InputError, ModelDomainError, positive_number
from .homogeneous import Medium, coincident_im_jet
from .jets import GreensJet
from .quadrature import SpectralGreenModel, imaginary_axis_form

__all__ = ["RateReport", "CouplingReport", "emission_rate",
           "free_space_rates", "lamb_shift", "coupling_strength",
           "collective_rate", "enhancement_map"]

# largest relative deviation of an emitter's transition frequency from the
# reference frequency of its pair or ensemble
_FREQ_RATIO_TOL = 1e-2


@dataclass
class RateReport:
    """Decay rate of one emitter, decomposed over channel pairs, at one
    jet point or over a batch of them.

    Cross entries are interference contributions and may be negative;
    conjugate pairs carry equal real parts (their imaginary parts cancel in
    the total, which is real). Rates are floats for a single-point jet and
    lists over the batch shape otherwise.
    """

    gamma_total: Union[float, list]
    gamma_by_channel_pair: dict
    normalization: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "gamma_total": {"value": self.gamma_total, "unit": "1/s"},
            "gamma_by_channel_pair": {
                f"{ca}-{cb}": {"value": v, "unit": "1/s"}
                for (ca, cb), v in sorted(self.gamma_by_channel_pair.items())
            },
        }
        if self.normalization is not None:
            out["normalization"] = self.normalization
        return out


@dataclass
class CouplingReport:
    """Pairwise coherent coupling and collective decay entry.

    xi and gamma_cross follow the Hermitian convention: the coupling matrix
    is xi_ab = conj(xi_ba), likewise for gamma. method records how spectral
    integrals were evaluated; xi_error is the quadrature estimate (zero
    for integration-free entries).
    """

    xi: Optional[complex] = None
    gamma_cross: Optional[complex] = None
    method: str = "none"
    xi_error: float = 0.0

    def to_dict(self) -> dict:
        def c(z):
            return None if z is None else {"re": z.real, "im": z.imag,
                                           "unit": "rad/s"}
        return {"xi": c(self.xi), "gamma_cross": c(self.gamma_cross),
                "method": self.method, "xi_error": self.xi_error}


def emission_rate(e: MultipoleEmitter, jet: GreensJet) -> RateReport:
    """Spontaneous decay rate from a coincident Green jet of any batch
    shape.

    gamma = (2/hbar eps0)(w0^2/c^2) conj(D) . Im G-jet . D, split over
    channel pairs: pair (ca, cb) is the bilinear form of the emitter
    restricted to ca with the emitter restricted to cb. Works on full or
    Im-part jets; derivative blocks are required only for channels the
    emitter actually drives, so the emitter's nonzero moments are the
    channel selection. Rejects any batch entry whose jet violates the
    positivity of a physical spectral density. Rates are floats for a
    single-point jet and lists over the batch shape otherwise; each entry
    equals the rate of that entry's jet alone, bit for bit.
    """
    # 2 pi w0^2 Z(w0), the collective_rate formula, per channel pair
    pref = 2.0 * math.pi * e.omega0 ** 2 * SPECTRAL_NORM
    im = jet.imag_part()
    zero = np.zeros(im.batch_shape)
    parts = {c: e.restricted(c) for c in e.active_channels()}
    # conjugate channel pairs have conjugate values; the imaginary parts
    # cancel in the (real) total and are dropped per entry
    by_pair = {
        (ca, cb): (np.real(pref * bilinear_form(parts[ca], parts[cb], im,
                                                e.omega0))
                   if ca in parts and cb in parts else zero)
        for ca in CHANNELS for cb in CHANNELS}
    total = sum(by_pair.values())
    scale = np.maximum(np.max(np.abs(list(by_pair.values())), axis=0),
                       1e-300)
    for c in CHANNELS:
        if np.any(by_pair[(c, c)] < -1e-12 * scale):
            raise InputError(
                f"negative diagonal {c}-{c} rate: the supplied jet violates "
                f"the positivity of a physical spectral density")
    if np.any(total < -1e-12 * scale):
        raise InputError("negative total decay rate: inconsistent jet data")
    return RateReport(
        gamma_total=np.maximum(total, 0.0).tolist(),
        gamma_by_channel_pair={p: np.asarray(v).tolist()
                               for p, v in by_pair.items()})


def free_space_rates(e: MultipoleEmitter, n: float,
                     omega: float) -> tuple:
    """Closed-form decay rates in a homogeneous lossless medium of index n:

        gamma_ED = n   w^3 |d|^2 / (3 pi hbar eps0 c^3)
        gamma_MD = n^3 w^3 |m|^2 / (3 pi hbar eps0 c^5)
        gamma_EQ = n^3 w^5 sum |Q_mn|^2 / (10 pi hbar eps0 c^5)

    A reference for tests and benchmarks, on no package path: the package
    computes these rates with emission_rate on coincident_im_jet. The
    quadrupole form holds for a symmetric traceless Q only, so a Q whose
    trace or antisymmetric part exceeds 1e-12 of max|Q| is refused.
    """
    n = Medium(n).refractive_index
    omega = positive_number(omega, "frequency")
    scale = 1e-12 * float(np.max(np.abs(e.Q)))
    if (abs(np.trace(e.Q)) > scale
            or np.max(np.abs(e.Q - e.Q.T)) / 2.0 > scale):
        raise InputError(
            "the closed forms hold for a symmetric traceless Q only; use "
            "emission_rate on coincident_im_jet for this emitter")
    base = math.pi * HBAR * EPS0 * C0 ** 3
    g_ed = n * omega ** 3 * float(np.sum(np.abs(e.d) ** 2)) / (3 * base)
    g_md = (n ** 3 * omega ** 3 * float(np.sum(np.abs(e.m) ** 2))
            / (3 * base * C0 ** 2))
    g_eq = (n ** 3 * omega ** 5 * float(np.sum(np.abs(e.Q) ** 2))
            / (10 * base * C0 ** 2))
    return g_ed, g_md, g_eq


def lamb_shift(e: MultipoleEmitter, model: SpectralGreenModel,
               rel_tol: float = 1e-8) -> float:
    """Environment-induced level shift from the scattered Green model.

    delta = -P int_0^inf w^2 Z(w)/(w - w0) dw with Z the emitter's own
    spectral density in the scattered field. The homogeneous part is
    excluded by convention (its shift is absorbed into the transition
    frequency), so the model must declare itself scattered.
    """
    if not model.scattered:
        raise ModelDomainError(
            "level shifts need the scattered part of the environment; this "
            "model represents a homogeneous (free) propagator whose shift "
            "is already absorbed in the transition frequency")
    bundle = moment_product_bundle(e, e)
    if not bundle.required_blocks():
        return 0.0
    return _real_entry(-imaginary_axis_form(model, bundle, e.omega0,
                                            rel_tol=rel_tol).value,
                       "level shift")


def _real_entry(value: complex, what: str) -> float:
    """The real part of a rate or shift that is real by Hermiticity; an
    imaginary part beyond 1e-8 relative raises ModelDomainError."""
    value = complex(value)
    if abs(value.imag) > 1e-8 * max(abs(value), 1e-300):
        raise ModelDomainError(
            f"{what} came out complex beyond tolerance; the environment's "
            f"spectral density is not Hermitian for this emitter")
    return float(value.real)


def _reference_frequency(emitters, omega_ref: Optional[float]) -> float:
    """The common reference frequency of a set of emitters (a pair or an
    ensemble): omega_ref, or their mean when omega_ref is None, within
    _FREQ_RATIO_TOL (relative) of every transition frequency."""
    if omega_ref is None:
        omega_ref = np.mean([e.omega0 for e in emitters])
    omega_ref = positive_number(omega_ref, "reference frequency")
    worst = max(abs(e.omega0 - omega_ref) for e in emitters)
    if worst > _FREQ_RATIO_TOL * omega_ref:
        raise InputError(
            f"emitter transition frequencies deviate from the reference by "
            f"more than a fraction {_FREQ_RATIO_TOL:g}; the collective "
            f"coefficients assume near-degenerate emitters")
    return omega_ref


def coupling_strength(a: MultipoleEmitter, b: MultipoleEmitter,
                      model: SpectralGreenModel,
                      omega_bar: Optional[float] = None,
                      rel_tol: float = 1e-8) -> CouplingReport:
    """Coherent multipole-multipole coupling xi_ab (rad/s, complex).

    xi_ab = -P int_0^inf w^2 Z_ab(w)/(w - wbar) dw, in its imaginary-axis
    form. Hermitian in the pair indices.
    """
    wbar = _reference_frequency([a, b], omega_bar)
    bundle = moment_product_bundle(a, b)
    if not bundle.required_blocks():
        return CouplingReport(xi=0.0 + 0.0j, method="none")
    res = imaginary_axis_form(model, bundle, wbar, rel_tol=rel_tol)
    return CouplingReport(xi=-res.value, method="imaginary-axis",
                          xi_error=res.error)


def collective_rate(a: MultipoleEmitter, b: MultipoleEmitter,
                    model_or_jet: Union[SpectralGreenModel, GreensJet],
                    omega_bar: Optional[float] = None) -> CouplingReport:
    """Collective decay entry gamma_ab = 2 pi wbar^2 Z_ab(wbar).

    Needs only the two-point Im jet at the mean frequency: the Hermitian
    (xi, gamma) split puts the whole principal-value content into xi, so no
    integration and no Re G ever enter here. Accepts a spectral model or a
    jet already evaluated at wbar (grid data included).
    """
    wbar = _reference_frequency([a, b], omega_bar)
    bundle = moment_product_bundle(a, b)
    if not bundle.required_blocks():
        return CouplingReport(gamma_cross=0.0 + 0.0j, method="none")
    if isinstance(model_or_jet, GreensJet):
        jet = model_or_jet
        method = "jet"
    else:
        jet = model_or_jet.jet(wbar)
        method = "model"
    z = bundle.spectral_density(jet, wbar)
    return CouplingReport(gamma_cross=2.0 * math.pi * wbar ** 2 * z,
                          method=method)


def enhancement_map(grid, e: MultipoleEmitter,
                    freq_rtol: float = 1e-6) -> RateReport:
    """Emission rates at every grid node, normalized to free space.

    One emission_rate call on the grid's batched node jet: the report's
    rates, and the enhancement_total and enhancement_by_channel_pair of
    its normalization, are lists in node_points() (grid-major) order. The
    reference gamma_fs is the emitter's vacuum rate, emission_rate on the
    n = 1 coincident jet, so a purely magnetic emitter is normalized to its
    magnetic free-space rate, not to zero dipole decay; gamma_fs_by_channel
    holds its diagonal channel pairs, for the active channels.
    """
    if abs(grid.frequency - e.omega0) > freq_rtol * e.omega0:
        raise InputError(
            f"grid frequency {grid.frequency:g} does not match the "
            f"emitter's transition frequency {e.omega0:g} within "
            f"{freq_rtol:g} relative")
    active = e.active_channels()
    if not active:
        raise InputError("inert emitter: no channel to map")
    vacuum = emission_rate(e, coincident_im_jet(e.omega0))
    gamma_fs = vacuum.gamma_total
    if gamma_fs == 0.0:
        # a pure-trace quadrupole couples to no transverse field
        raise InputError("the emitter does not radiate in free space: no "
                         "reference rate to normalize to")
    fs = {c: vacuum.gamma_by_channel_pair[(c, c)] for c in active}

    rep = emission_rate(e, grid.node_jet())
    rep.normalization = {
        "gamma_fs": {"value": gamma_fs, "unit": "1/s"},
        "channels": sorted(active),
        "enhancement_total": (np.asarray(rep.gamma_total)
                              / gamma_fs).tolist(),
        "enhancement_by_channel_pair": {
            f"{ca}-{cb}": (np.asarray(col) / gamma_fs).tolist()
            for (ca, cb), col in sorted(rep.gamma_by_channel_pair.items())},
        "gamma_fs_by_channel": dict(sorted(fs.items())),
    }
    return rep
