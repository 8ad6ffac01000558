"""Emission rates, level shifts, pairwise couplings and ensemble
coefficients of multipole emitters in a structured electromagnetic
environment.

Everything reduces to the spectral density of a pair of emitters,

    Z_ab(w) = sum_blocks F_ab(w) . Im G_blocks(r_a, r_b, w),

with F_ab the normalized moment-product coefficients (emitter module).
Every observable comes from one of two formulas:

    gamma_ab = 2 pi wbar^2 Z_ab(wbar)                    (collective_rate)
    xi_ab    = -P int_0^inf w^2 Z_ab(w) / (w - wbar) dw  (coupling_strength)

A decay rate is gamma_aa (emission_rate, split over channel pairs), and a
level shift is xi_aa of the scattered environment (lamb_shift). gamma and
xi are Hermitian (gamma_ab = conj(gamma_ba)); build_ensemble assembles
gamma, xi and the shifts delta of an ensemble for the dynamics module.
The self terms reproduce the free-space closed forms (free_space_rates),
the central cross-oracle.

Every emitter of a pair or ensemble lies within _FREQ_RATIO_TOL (1 %) of
the reference frequency (default their mean). An emitter drives the
channels of its nonzero moments; MultipoleEmitter.restricted deselects the
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .constants import C0, EPS0, HBAR
from .dynamics import EmitterEnsembleModel
from .emitter import (CHANNELS, MultipoleEmitter, moment_product_bundle,
                      moment_product_stack)
from .errors import (CoincidentPointError, InputError, ModelDomainError,
                     positive_number)
from .grid import TensorGrid
from .homogeneous import Medium, coincident_im_jet, pair_terms
from .jets import GreensJet
from .quadrature import (SpectralGreenModel, homogeneous_pair_model,
                         imaginary_axis_form, laurent_pairs_model)
# not called here (every rate goes through collective_rate);
# perfbench/tracing.py counts calls of this name on this module
from .emitter import bilinear_form  # noqa: F401

__all__ = ["RateReport", "CouplingReport", "emission_rate",
           "free_space_rates", "lamb_shift", "coupling_strength",
           "collective_rate", "build_ensemble", "enhancement_map"]

# largest relative deviation of an emitter's transition frequency from the
# reference frequency of its pair or ensemble
_FREQ_RATIO_TOL = 1e-2
# largest relative deviation of a grid's frequency from the transition
# frequency of the emitter enhancement_map maps
_GRID_FREQ_RTOL = 1e-6


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


def emission_rate(e: MultipoleEmitter, jet: GreensJet) -> RateReport:
    """Spontaneous decay rate from a coincident Green jet of any batch shape.

    The total is collective_rate of the emitter with itself; channel pair
    (ca, cb) is collective_rate of the emitter restricted to ca with it
    restricted to cb. Works on full or Im-part jets; derivative blocks are
    required only for channels the emitter drives. Rejects any batch entry
    whose jet violates the positivity of a physical spectral density.
    Rates are floats for a single-point jet and lists over the batch shape
    otherwise; each entry equals the rate of that entry's jet alone, bit
    for bit.
    """
    im = jet.imag_part()

    def rate(a, b):
        # conjugate channel pairs have conjugate values; the imaginary
        # parts cancel in the (real) total and are dropped per entry
        return np.broadcast_to(np.real(collective_rate(
            a, b, im, omega_bar=e.omega0).gamma_cross), im.batch_shape)

    parts = {c: e.restricted(c) for c in CHANNELS}
    by_pair = {(ca, cb): rate(parts[ca], parts[cb])
               for ca in CHANNELS for cb in CHANNELS}
    total = rate(e, e)
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


def lamb_shift(e: MultipoleEmitter, model: SpectralGreenModel) -> float:
    """Environment-induced level shift from the scattered Green model.

    delta = xi_ee at w0, coupling_strength of the emitter with itself.
    The homogeneous part is excluded by convention (its shift is absorbed
    into the transition frequency), so the model must be scattered.
    """
    if not model.scattered:
        raise ModelDomainError(
            "level shifts need the scattered part of the environment; this "
            "model represents a homogeneous (free) propagator whose shift "
            "is already absorbed in the transition frequency")
    return _real_entry(coupling_strength(e, e, model, omega_bar=e.omega0).xi,
                       "level shift")


def _real_entry(value, what: str):
    """The real part of rates or shifts that are real by Hermiticity; an
    imaginary part beyond 1e-8 relative raises ModelDomainError."""
    value = np.asarray(value, dtype=complex)
    if np.any(np.abs(value.imag) > 1e-8 * np.maximum(np.abs(value), 1e-300)):
        raise ModelDomainError(
            f"{what} came out complex beyond tolerance; the environment's "
            f"spectral density is not Hermitian for this emitter")
    return float(value.real) if value.ndim == 0 else value.real


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
                      omega_bar: Optional[float] = None) -> CouplingReport:
    """Coherent multipole-multipole coupling xi_ab (rad/s, complex).

    xi_ab = -P int_0^inf w^2 Z_ab(w)/(w - wbar) dw, in its imaginary-axis
    form. Hermitian in the pair indices.
    """
    wbar = _reference_frequency([a, b], omega_bar)
    bundle = moment_product_bundle(a, b)
    if not bundle.required_blocks():
        return CouplingReport(xi=0.0 + 0.0j, method="none")
    xi, error = _coupling(model, bundle, wbar)
    return CouplingReport(xi=xi, method="imaginary-axis", xi_error=error)


def _coupling(model: SpectralGreenModel, bundle, wbar: float) -> tuple:
    """(xi, error estimate): xi = -P int_0^inf w^2 Z(w)/(w - wbar) dw of
    one pair, or of every pair of a model and a bundle stacked over pairs
    (arrays over the pair axis)."""
    res = imaginary_axis_form(model, bundle, wbar)
    return -res.value, res.error


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
    return CouplingReport(gamma_cross=_decay(bundle, jet, wbar),
                          method=method)


def _decay(bundle, jet: GreensJet, wbar: float):
    """gamma = 2 pi wbar^2 Z(wbar) of one pair, or of every pair of a
    bundle stacked over pairs against a jet batched alike or shared (an
    array over the pair axis)."""
    return 2.0 * math.pi * wbar ** 2 * bundle.spectral_density(jet, wbar)


# --- assembling ensemble coefficients from an environment -------------------

# pairs of emitters in a uniform medium assembled per batch: bounds the
# working memory of the assembly (about 30 kB per pair) at every ensemble
# size
_PAIR_CHUNK = 128


def _medium_entries(ems: list, medium: Medium, wbar: float,
                    gamma: np.ndarray, xi: np.ndarray) -> None:
    """Fill gamma and xi of emitters in a uniform medium.

    The diagonal is one stacked bundle (emitter.moment_product_stack) of
    the active emitters with themselves against the coincident jet. Their
    pairs a < b go in one pass per _PAIR_CHUNK pairs: one geometry of
    their separations (homogeneous.pair_terms) gives their Im jets at wbar
    and their Laurent forms, one stacked bundle serves both gamma and xi,
    and each is one evaluation of its formula over the chunk. A pair
    computes alike alone or stacked, so every entry is collective_rate's or
    coupling_strength's bit for bit. A dispersive index has no Laurent
    form, so its couplings are integrated pair by pair.
    """
    active = np.array([i for i, e in enumerate(ems) if e.active_channels()],
                      dtype=int)
    gamma[active, active] = _real_entry(_decay(
        moment_product_stack(ems, active, active),
        coincident_im_jet(wbar, medium), wbar), "decay rate")
    ia, ib = (active[ix] for ix in np.triu_indices(active.size, k=1))
    positions = np.array([e.position for e in ems])
    R = positions[ia] - positions[ib]
    if np.any(np.vecdot(R, R) == 0.0):
        raise CoincidentPointError(
            "coherent coupling diverges for emitters at the same position; "
            "assemble the model directly with the xi you intend")
    for lo in range(0, ia.size, _PAIR_CHUNK):
        a, b = ia[lo:lo + _PAIR_CHUNK], ib[lo:lo + _PAIR_CHUNK]
        bundle = moment_product_stack(ems, a, b)
        if not bundle.required_blocks():
            continue  # every moment product underflows: the pairs stay zero
        jet, laurent = pair_terms(R[lo:lo + _PAIR_CHUNK], wbar, medium)
        gamma[a, b] = _decay(bundle, jet, wbar)
        if laurent is not None:
            xi[a, b] = _coupling(laurent_pairs_model(laurent), bundle,
                                 wbar)[0]
        else:
            xi[a, b] = [coupling_strength(
                ems[i], ems[j], homogeneous_pair_model(
                    medium, ems[i].position, ems[j].position),
                omega_bar=wbar).xi for i, j in zip(a, b)]
        gamma[b, a] = np.conj(gamma[a, b])
        xi[b, a] = np.conj(xi[a, b])


def _pair_source(environment, omega_ref: float):
    """A TensorGrid or callable environment as (a, b, diagonal) ->
    GreensJet, spectral model or None."""
    if isinstance(environment, TensorGrid):
        if (abs(environment.frequency - omega_ref)
                > _FREQ_RATIO_TOL * omega_ref):
            raise InputError(
                "grid frequency differs from the reference frequency by "
                "more than the allowed fraction")
        return lambda a, b, diagonal: (environment.jet_at(a.position)
                                       if diagonal else None)
    if callable(environment):
        return lambda a, b, diagonal: environment(a, b)
    raise InputError(
        "environment must be a homogeneous Medium, a sampled "
        "TensorGrid, or a callable mapping an emitter pair to a "
        "spectral model")


def build_ensemble(emitters, environment,
                   omega_ref: Optional[float] = None) -> EmitterEnsembleModel:
    """Ensemble coefficients from pairwise environment responses.

    environment selects what each emitter pair sees:

    * Medium: uniform-medium analytics, every pair in one pass
      (_medium_entries). Decay entries come from the two-point
      imaginary-part jet (coincident jet on the diagonal), couplings from
      the imaginary-axis form of the pairs' Laurent coefficients. Level
      shifts are zero by convention (the uniform background shift is
      absorbed into the transition frequencies). Emitters at the same
      position have a divergent coherent coupling and are rejected.
    * TensorGrid: sampled coincident data. Only the decay diagonal can be
      filled (a coincident map carries no two-point propagation), so
      cross couplings and shifts are zero; emitters must lie inside the
      grid. When omega_ref is omitted it is taken from the grid.
    * callable (a, b) -> spectral model or None: fully custom. Diagonal
      models supply the decay entry, and the level shift when they
      declare themselves scattered; off-diagonal models supply decay and
      coherent coupling (a bare jet is rejected there). None leaves the
      pair at zero.

    A grid or a callable is asked pair by pair, a <= b, with the diagonal
    decided by index. Every entry comes from collective_rate's and
    coupling_strength's formulas. Off-diagonal entries are computed once
    and mirrored, so the matrices are exactly Hermitian; positive
    semidefiniteness of the decay matrix is then enforced by the model
    container. Emitters with no moments contribute zero rows and columns.
    """
    ems = list(emitters)
    if not ems:
        raise InputError("at least one emitter is required")
    for e in ems:
        if not isinstance(e, MultipoleEmitter):
            raise InputError("emitters must be MultipoleEmitter instances")
    if isinstance(environment, TensorGrid) and omega_ref is None:
        omega_ref = environment.frequency
    wbar = _reference_frequency(ems, omega_ref)

    n = len(ems)
    delta = np.zeros(n)
    xi = np.zeros((n, n), dtype=complex)
    gamma = np.zeros((n, n), dtype=complex)
    if isinstance(environment, Medium):
        _medium_entries(ems, environment, wbar, gamma, xi)
        return EmitterEnsembleModel(omega_ref=wbar, delta=delta, xi=xi,
                                    gamma=gamma)

    source = _pair_source(environment, wbar)
    for a in range(n):
        for b in range(a, n):
            ea, eb = ems[a], ems[b]
            if not (ea.active_channels() and eb.active_channels()):
                continue
            pair = source(ea, eb, a == b)
            if pair is None:
                continue
            rate = collective_rate(ea, eb, pair, omega_bar=wbar).gamma_cross
            if a == b:
                gamma[a, a] = _real_entry(rate, "decay rate")
                if isinstance(pair, SpectralGreenModel) and pair.scattered:
                    delta[a] = lamb_shift(ea, pair)
                continue
            if not isinstance(pair, SpectralGreenModel):
                raise InputError(
                    f"emitters {a} and {b} need a spectral model for their "
                    f"coupling, not a {type(pair).__name__}")
            gamma[a, b] = rate
            gamma[b, a] = np.conj(rate)
            xi[a, b] = coupling_strength(ea, eb, pair, omega_bar=wbar).xi
            xi[b, a] = np.conj(xi[a, b])

    return EmitterEnsembleModel(omega_ref=wbar, delta=delta, xi=xi,
                                gamma=gamma)


def enhancement_map(grid, e: MultipoleEmitter) -> RateReport:
    """Emission rates at every grid node, normalized to free space.

    One emission_rate call on the grid's batched node jet: the report's
    rates, and the enhancement_total and enhancement_by_channel_pair of
    its normalization, are lists in node_points() (grid-major) order. The
    reference gamma_fs is the emitter's vacuum rate, emission_rate on the
    n = 1 coincident jet, so a purely magnetic emitter is normalized to its
    magnetic free-space rate, not to zero dipole decay; gamma_fs_by_channel
    holds its diagonal channel pairs, for the active channels.
    """
    if abs(grid.frequency - e.omega0) > _GRID_FREQ_RTOL * e.omega0:
        raise InputError(
            f"grid frequency {grid.frequency:g} does not match the "
            f"emitter's transition frequency {e.omega0:g} within "
            f"{_GRID_FREQ_RTOL:g} relative")
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
