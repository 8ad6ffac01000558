"""Complex-valued spectral integration utilities.

Two layers:

  * an adaptive Gauss-Kronrod (7/15) panel integrator for complex
    integrands, with deterministic panel accumulation,
  * the imaginary-axis representation of principal-value spectral
    integrals: for coefficient polynomials p(w) = f0 w^2 + f1 w + f2 and a
    causal Green model G (analytic in the upper half plane, Schwarz
    reflective, w^2 G(w) -> g2inf as |w| -> inf there),

      P int_0^inf p(w) Im G(w) / (w - w0) dw
        = pi p(w0) Re G(w0)
          + int_0^inf dk [(f0 w0 + f1) k^2 - f2 w0] G(ik) / (k^2 + w0^2)
          - (pi/2) f0 g2inf.

    The k-integrand decays instead of oscillating, which is the point of
    moving off the real axis. The g2inf term is the surviving arc
    contribution; models declare it (zero for faster-than-quadratic decay).

The unit of work is the 15-node Kronrod panel: one engine integrates
vector integrands, which map the array of a panel's nodes to their values
in one call. The spectral form therefore evaluates one batched Green jet
(SpectralGreenModel.jet on the node array) and makes one contraction per
panel. integrate_adaptive takes a scalar integrand f(x) and lifts it onto
the same engine (one call per node).

A range [a, inf) is mapped onto [0, 1) by x = a + s t/(1 - t), s the
problem's frequency scale (QUADPACK's qagi transform), and integrated by
the same engine; no node reaches t = 1, so f never sees x = inf.

Tolerance, the one stopping rule: an adaptive integral is done when its
error estimate falls below the largest of rel_tol |I|, a fixed fraction
of the absolute mass Sum |panel|, and an absolute floor abs_tol. The
spectral form sets that floor from the uncancelled size of its
contraction at the pole, p(w0) . Re G(w0), so an integral that cancels to
roundoff (a pair coupling that vanishes by symmetry) stops at roundoff
instead of chasing a relative tolerance no sum can meet. A tail too slow
to integrate is singular at t = 1 after the map: bisection toward t = 1
stops where a split would put its outer nodes onto a panel end, and the
integral is refused for its unmet tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (ModelDomainError, QuadratureError, complex_frequencies,
                     finite_point, positive_number)
from .jets import BLOCK_SHAPES, GreensJet

__all__ = ["QuadratureResult", "SpectralGreenModel", "imaginary_axis_form",
           "lorentzian_model", "homogeneous_pair_model"]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (nonnegative abscissae;
# even symmetry). Gauss-7 points are every second Kronrod node.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469])
# the 15 nodes of a panel on [-1, 1], ascending, with their Kronrod weights
# and the Gauss-7 weights of every second node
_X15 = np.concatenate((-_XGK[:-1], [0.0], _XGK[-2::-1]))
_W15 = np.concatenate((_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]))
_W7 = np.concatenate((_WG[:-1], [_WG[-1]], _WG[-2::-1]))

# error allowed per unit of absolute panel mass Sum |panel|
_MAGNITUDE_TOL = 1e-10


def _nodes(a: float, b: float) -> np.ndarray:
    """The 15 Kronrod nodes of the panel [a, b], ascending."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _X15


def _panel(f, a: float, b: float):
    """15-point Kronrod value, embedded 7-point Gauss error, peak |f|; f is
    called once, on the array of the 15 nodes."""
    vals = np.asarray(f(_nodes(a, b)), dtype=complex)
    if not np.all(np.isfinite(vals.view(float))):
        raise QuadratureError(f"integrand not finite on [{a:g}, {b:g}]")
    h = 0.5 * (b - a)
    k15 = h * np.sum(_W15 * vals)
    g7 = h * np.sum(_W7 * vals[1:-1:2])
    return k15, abs(k15 - g7), float(np.max(np.abs(vals)))


@dataclass
class QuadratureResult:
    value: complex
    error: float
    neval: int
    panels: int = 0
    peak: float = 0.0  # largest |f| sampled

    def __iter__(self):  # allow value, err = result
        return iter((self.value, self.error))


def _lift(f: Callable[[float], complex]):
    """A scalar integrand as a vector one (one call per node)."""
    return lambda xs: np.array([f(x) for x in xs], dtype=complex)


def integrate_adaptive(f: Callable[[float], complex], a: float, b: float,
                       rel_tol: float = 1e-8, abs_tol: float = 0.0,
                       max_panels: int = 2048) -> QuadratureResult:
    """Adaptive bisection with the Gauss-Kronrod embedded error estimate,
    for a scalar integrand f(x) (see _adaptive).

    Not exported and on no package path: the tests drive the engine on
    scalar integrands through it, and perfbench/tracing.py counts its calls
    (quadrature.integrate_adaptive_calls_per_op).
    """
    return _adaptive(_lift(f), a, b, rel_tol, abs_tol, max_panels)


def _adaptive(f, a: float, b: float, rel_tol: float = 1e-8,
              abs_tol: float = 0.0,
              max_panels: int = 2048) -> QuadratureResult:
    """Adaptive bisection with the Gauss-Kronrod embedded error estimate,
    for a vector integrand (f maps an array of nodes to their values).

    Panels split worst-first; the final sum runs left to right so the
    result does not depend on the splitting schedule. Tolerance is met when
    the summed panel error drops below
    max(abs_tol, rel_tol*|I|, _MAGNITUDE_TOL*M) with M the accumulated
    absolute mass Sum |panel|. abs_tol is the absolute floor: an integrand
    that is pure roundoff has no relative accuracy to reach, and without a
    floor the bisection runs on until the budget or the integrand gives out.
    A split whose outer nodes would round onto a panel end stops the
    bisection, so f only sees abscissae strictly inside [a, b].
    """
    if not b > a:
        raise QuadratureError("empty or inverted integration interval")
    val, err, peak = _panel(f, a, b)
    heap = [(-err, a, b, val)]
    neval = 15
    stop = ""
    while True:
        total = sum(item[3] for item in heap)
        total_err = sum(-item[0] for item in heap)
        mass = sum(abs(item[3]) for item in heap)
        tol = max(abs_tol, rel_tol * abs(total), _MAGNITUDE_TOL * mass)
        if total_err <= tol or len(heap) >= max_panels:
            break
        nerr, pa, pb, _ = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if _nodes(pa, mid)[0] <= pa or _nodes(mid, pb)[-1] >= pb:
            heapq.heappush(heap, (nerr, pa, pb, _))
            stop = " at floating-point resolution (singular or not decaying)"
            break
        v1, e1, p1 = _panel(f, pa, mid)
        v2, e2, p2 = _panel(f, mid, pb)
        neval += 30
        peak = max(peak, p1, p2)
        heapq.heappush(heap, (-e1, pa, mid, v1))
        heapq.heappush(heap, (-e2, mid, pb, v2))
    panels = sorted(heap, key=lambda t: t[1])
    total = sum(p[3] for p in panels)
    total_err = sum(-p[0] for p in panels)
    mass = sum(abs(p[3]) for p in panels)
    tol = max(abs_tol, rel_tol * abs(total), _MAGNITUDE_TOL * mass)
    if total_err > 10 * max(tol, 1e-300):
        raise QuadratureError(
            f"adaptive budget exhausted{stop}: residual error estimate "
            f"{total_err:.3e} exceeds tolerance {tol:.3e}")
    return QuadratureResult(value=complex(total), error=float(total_err),
                            neval=neval, panels=len(panels), peak=peak)


def _integrate_to_infinity(f, start: float, scale: float, rel_tol: float,
                           abs_tol: float = 0.0) -> QuadratureResult:
    """int_start^inf f for a vector integrand f: one adaptive call on
    [0, 1) through x = start + scale t/(1 - t) (see module doc). neval and
    peak count and bound the values of f itself, without the Jacobian."""
    peak = 0.0

    def mapped(ts: np.ndarray) -> np.ndarray:
        nonlocal peak
        u = 1.0 - ts
        values = f(start + scale * ts / u)
        peak = max(peak, float(np.max(np.abs(values))))
        return values * (scale / (u * u))

    res = _adaptive(mapped, 0.0, 1.0, rel_tol=rel_tol, abs_tol=abs_tol)
    res.peak = peak
    return res


# ---------------------------------------------------------------------------
# spectral Green models


@dataclass(frozen=True)
class SpectralGreenModel:
    """A Green-tensor jet as a function of complex frequency, bound to one
    point pair, with the analyticity declarations the integrators need.

    The model is causal: analytic and decaying in the upper half plane and
    evaluable at imaginary frequency, so every spectral integral takes the
    imaginary-axis form, at any positive pole frequency. The fields after
    the evaluator are its declarations. uhp_quadratic_limit maps block name
    -> lim w^2 G_block(w) in the upper half plane (None means that limit
    vanishes). static_pole_blocks maps block name -> S with
    G_block(w) = S/w^2 + O(1) near w = 0 (real S by Schwarz reflection;
    None means the model is regular at zero). scattered marks models that
    represent only the structure-induced part of the response (finite at
    the source point), the part level shifts are computed from. Block
    names are those of jets.BLOCK_SHAPES.

    Evaluator contract: evaluator(w) takes one complex frequency (a Python
    complex) or a complex ndarray of frequencies, and returns a GreensJet
    whose batch shape is the shape of w (a single frequency gives batch
    shape ()). The integrators call it once per panel, on 15 frequencies;
    lorentzian_model and homogeneous_pair_model broadcast natively. An
    evaluator that handles one frequency at a time is wrapped by
    evaluating each entry and stacking the blocks:

        def batched(w):
            jets = [scalar(complex(x)) for x in np.ravel(w)]
            blocks = {name: np.reshape([j.blocks[name] for j in jets],
                                       np.shape(w) + blk.shape)
                      for name, blk in jets[0].blocks.items()}
            return GreensJet(**blocks, part=jets[0].part)
    """

    evaluator: Callable[[Union[complex, np.ndarray]], GreensJet]
    uhp_quadratic_limit: Optional[dict] = None
    static_pole_blocks: Optional[dict] = None
    scattered: bool = True

    def jet(self, omega) -> GreensJet:
        """The jet at omega, or at every entry of an array of frequencies.

        omega follows the frequency rule (errors.complex_frequencies). A
        single frequency reaches the evaluator as a Python complex, an
        array as a complex ndarray.
        """
        w = complex_frequencies(omega)
        return self.evaluator(complex(w) if w.ndim == 0 else w)


def _coefficient_rows(names, *rows) -> dict:
    """Block name -> the tensors of several coefficient sets for that block
    (zero where a set lacks it), stacked on a leading axis and followed by
    a unit axis. One contraction against blocks batched over frequency then
    gives one row of values per set."""
    return {name: np.stack(np.broadcast_arrays(
                *(row.get(name, 0.0) for row in rows)))[:, None]
            for name in names}


def _pole_coefficients(bundle, omega0: float) -> dict:
    """Block name -> p(omega0) = f0 omega0^2 + f1 omega0 + f2, the
    coefficients of w^2 F(w) at the pole. The block order is fixed, so
    contractions sum in the same order in every process (set order would
    follow the string-hash seed)."""
    p0 = {}
    for power, coeffs in enumerate((bundle.f0, bundle.f1, bundle.f2)):
        for name, tensor in coeffs.items():
            p0[name] = p0.get(name, 0.0) + tensor * omega0 ** (2 - power)
    return p0


def _roundoff_floor(p0: dict, blocks: dict) -> float:
    """Absolute floor for a spectral integral of size pi p0 . blocks:
    roundoff on the uncancelled size of that contraction (see module doc)."""
    return 1e-14 * math.pi * sum(
        float(np.sum(np.abs(p0[name]) * np.abs(blocks[name])))
        for name in p0)


def imaginary_axis_form(model: SpectralGreenModel, bundle, omega0: float,
                        rel_tol: float = 1e-8) -> QuadratureResult:
    """Imaginary-axis representation of
    P int_0^inf w^2 F(w) . Im G(w) / (w - omega0) dw
    for a coefficient bundle F(w) = f0 + f1/w + f2/w^2 (see module doc).

    The one route of every spectral integral in the package (the model is
    causal, see SpectralGreenModel); the arc term uses the model's
    declared quadratic limit. omega0 is a positive finite number
    (errors.positive_number); anything else is a ModelDomainError.

    Models with a static double pole G = S/w^2 + O(1) at the origin (S real)
    shift the identity: k^2 G(ik) stays finite so the f0 term needs no
    change, the f1 term picks up the closed-form correction
    -(pi/2) f1 . S / omega0, and the f2 term diverges on the imaginary axis
    (the pole and the 1/w^2 coefficient compound) unless f2 . S vanishes.
    A nonvanishing f2 . S is rejected rather than mis-integrated; it does
    vanish for magnetic dipoles in a uniform medium, whose two curls
    annihilate the gradient field of the electrostatic pole.
    """
    omega0 = positive_number(omega0, "pole frequency omega0",
                             ModelDomainError)
    f0, f1, f2 = bundle.f0, bundle.f1, bundle.f2

    statics = {name: np.asarray(s_blk) for name, s_blk in
               (model.static_pole_blocks or {}).items()}
    f2_static = {name: f2[name] for name in f2 if name in statics}
    if f2_static:
        scale = sum(float(np.sum(np.abs(t) * np.abs(statics[name])))
                    for name, t in f2_static.items())
        if abs(bundle.contract(statics, f2_static)) > 1e-10 * scale:
            raise ModelDomainError(
                "1/w^2 coefficient terms combined with a model that has "
                "a static pole at zero frequency diverge on the "
                "imaginary axis; restrict channels")

    # resonant term: pi p(omega0) . Re G(omega0)
    re_blocks = model.jet(omega0).real_blocks()
    p0 = _pole_coefficients(bundle, omega0)
    names = list(p0)
    resonant = math.pi * bundle.contract(re_blocks, p0)
    abs_tol = _roundoff_floor(p0, re_blocks)

    # k-integrand (k^2 A.G + B.G) / (k^2 + w0^2) with A = f0 w0 + f1 and
    # B = -f2 w0: one jet evaluation and one contraction per panel
    kernel = _coefficient_rows(
        names,
        {name: f0.get(name, 0.0) * omega0 + f1.get(name, 0.0)
         for name in names},
        {name: -f2[name] * omega0 for name in f2})

    def integrand(kappas: np.ndarray) -> np.ndarray:
        # imaginary-axis jets are real up to roundoff; keep the real part
        a, b = bundle.contract(model.jet(1j * kappas).real_blocks(), kernel)
        k2 = kappas * kappas
        return (k2 * a + b) / (k2 + omega0 ** 2)

    # one call on [0, inf), with kappa = omega0 at the middle of [0, 1)
    res = _integrate_to_infinity(integrand, 0.0, omega0, rel_tol, abs_tol)

    # arc term: -(pi/2) f0 . g2inf
    arc = 0.0 + 0.0j
    g2 = model.uhp_quadratic_limit or {}
    if f0 and g2:
        shared = {name: f0[name] for name in f0 if name in g2}
        if shared:
            arc = -0.5 * math.pi * bundle.contract(g2, shared)

    # static-pole correction: -(pi/2) f1 . S / omega0
    pole_term = 0.0 + 0.0j
    if statics and f1:
        shared = {name: f1[name] for name in f1 if name in statics}
        if shared:
            pole_term = -(0.5 * math.pi / omega0) * bundle.contract(
                statics, shared)

    res.value = complex(resonant + res.value + arc + pole_term)
    res.neval += 1  # the resonant jet
    return res


# ---------------------------------------------------------------------------
# model factories


def lorentzian_model(terms) -> SpectralGreenModel:
    """Sum of damped resonances per block:
    G_block(w) = sum_j A_j_block / (w_rj^2 - w^2 - i eta_j w).

    terms: list of (blocks, omega_r, eta) with blocks a dict mapping block
    names to complex amplitude tensors, and omega_r and eta positive finite
    numbers. Satisfies Schwarz reflection, is analytic in the upper half
    plane, and has quadratic limit -sum_j A_j_block.
    """
    parsed = []
    for blocks, omega_r, eta in terms:
        omega_r = positive_number(omega_r, "resonance frequency omega_r",
                                  ModelDomainError)
        eta = positive_number(eta, "damping eta", ModelDomainError)
        blk = {}
        for name, tensor in blocks.items():
            if name not in BLOCK_SHAPES:
                raise ModelDomainError(f"unknown block name {name!r}")
            arr = np.asarray(tensor, dtype=complex)
            if arr.shape != BLOCK_SHAPES[name]:
                raise ModelDomainError(f"block {name} has wrong shape")
            blk[name] = arr
        parsed.append((blk, omega_r, eta))

    all_names = sorted({n for blk, _, _ in parsed for n in blk})

    def evaluator(w) -> GreensJet:
        w = np.asarray(w, dtype=complex)
        flat = w.reshape(-1)
        acc = {n: np.zeros(flat.shape + BLOCK_SHAPES[n], dtype=complex)
               for n in all_names}
        for blk, omega_r, eta in parsed:
            den = omega_r ** 2 - flat * flat - 1j * eta * flat
            for n, tensor in blk.items():
                acc[n] = acc[n] + tensor / den.reshape(
                    den.shape + (1,) * tensor.ndim)
        out = {n: a.reshape(w.shape + BLOCK_SHAPES[n]) for n, a in acc.items()}
        out.setdefault("value", np.zeros(w.shape + BLOCK_SHAPES["value"],
                                         complex))
        return GreensJet(**out, part="full")

    g2 = {}
    for blk, _, _ in parsed:
        for n, tensor in blk.items():
            g2[n] = g2.get(n, 0) - tensor

    return SpectralGreenModel(evaluator=evaluator, uhp_quadratic_limit=g2,
                              scattered=True)


def homogeneous_pair_model(medium, r_obs, r_src) -> SpectralGreenModel:
    """Analytic homogeneous-medium model bound to a point pair.

    Supports the imaginary axis (exponentially decaying there); the
    quadratic limit vanishes because of the oscillatory phase decay in the
    upper half plane, but the electrostatic part contributes a double pole
    at zero frequency, declared through static_pole_blocks. Not a
    scattered-part model: level shifts from it are the free-space ones the
    transition frequency already absorbs.
    """
    from .constants import C0
    from .errors import CoincidentPointError
    from .homogeneous import eval_homogeneous_jet

    r_obs = finite_point(r_obs, "field point")
    r_src = finite_point(r_src, "source point")
    dist = float(np.linalg.norm(r_obs - r_src))
    if dist == 0.0:
        raise CoincidentPointError(
            "homogeneous pair model needs distinct points; coincident "
            "spectral densities come from coincident_im_jet")

    def evaluator(w) -> GreensJet:
        return eval_homogeneous_jet(r_obs, r_src, w, medium)

    # static pole: S = -lim k^2 G(ik). Richardson in k^2 removes the next
    # expansion order (G is even in w up to the first radiative term).
    kappa = 1e-4 * C0 / dist
    probe = evaluator(np.array([1j, 2j]) * kappa)
    statics = {}
    for name, blk in probe.blocks.items():
        s = -(4.0 * kappa ** 2 * blk[0] - 4.0 * kappa ** 2 * blk[1]) / 3.0
        statics[name] = np.ascontiguousarray(s.real)

    return SpectralGreenModel(evaluator=evaluator, uhp_quadratic_limit=None,
                              static_pole_blocks=statics, scattered=False)
