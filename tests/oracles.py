"""Independent references the tests compare the package against.

None of these is on a code path of polyemit; each is an oracle for one
that is:

  * pv_integral: a Cauchy principal value by symmetric pole excision,
    on the package's Gauss-Kronrod engine with a scalar integrand;
  * pv_spectral_form: the real-axis principal value
    P int_0^inf w^2 F(w) . Im G(w) / (w - w0) dw, the oracle for every
    imaginary-axis result (polyemit.quadrature.imaginary_axis_form);
  * adaptive_pair_model: a uniform-medium pair model without its
    imaginary-axis Laurent declaration, whose k-integral imaginary_axis_form
    therefore integrates adaptively, the oracle of the closed-form sum;
  * exp_moment_reference: the integrals J_m of that sum in 40-digit
    mpmath, through exponential integrals of complex argument;
  * kk_residual and check_imaginary_axis_reality: causality checks on
    sampled spectra and on a model's jet at imaginary frequency;
  * small_R_series_im: the small-separation series of Im G;
  * evolve_single: the closed-form decay of one emitter, and
    lowering_operators, the dense per-emitter lowering operators;
  * csv_cell: one CSV cell by isinstance dispatch alone, the oracle of
    polyemit.cli._fmt and its exact-float shortcut;
  * far_field_rate: the collective decay entry gamma_ab of two emitters
    in a uniform medium as a sphere integral of their far-field
    amplitudes, with no Green jet, the oracle of
    polyemit.rates.collective_rate;
  * v3_split and v3_file: a grid file of format version 3 as its header
    document and block bytes, and back, the reference reader and writer
    of the layout polyemit.grid.save_grid writes and load_grid reads.

The engine pieces (_adaptive, _integrate_to_infinity, _coefficient_rows,
_pole_coefficients, _roundoff_floor) are imported from
polyemit.quadrature, which uses them for imaginary_axis_form, and so is
its scalar lift (_lift).

Known defect, kept here and nowhere else: pv_spectral_form's absolute
floor (roundoff on p(w0) . Im G(w0)) is too low far from a narrow
resonance, where |Im G(w0)| is small next to the principal value. With
the resonance at 2 w0 and width 1e-4 w0, 4 of 10 rotated frames of the
symmetric-zero ED pair raise "budget exhausted" (ROADMAP item 9, first
point). The package never takes the real-axis route.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable

import mpmath
import numpy as np

from polyemit.constants import C0
from polyemit.dynamics import _MAX_EMITTERS, Trajectory, _time_grid
from polyemit.emitter import SPECTRAL_NORM
from polyemit.errors import InputError, ModelDomainError, QuadratureError
from polyemit.homogeneous import (SERIES_SWITCH, Medium,
                                  _lossless_wavenumber)
from polyemit.quadrature import (QuadratureResult, SpectralGreenModel,
                                 _adaptive, _coefficient_rows, _lift,
                                 _integrate_to_infinity, _pole_coefficients,
                                 _roundoff_floor, homogeneous_pair_model)


def adaptive_pair_model(medium: Medium, r_obs, r_src) -> SpectralGreenModel:
    """homogeneous_pair_model with its Laurent declaration removed: the
    same jets and static pole, integrated by the adaptive engine."""
    return dataclasses.replace(homogeneous_pair_model(medium, r_obs, r_src),
                               imaginary_axis_laurent=None)


def exp_moment_reference(alpha: float, omega0: float, m: int) -> float:
    """J_m = int_0^inf exp(-alpha k) k^m / (k^2 + omega0^2) dk in 40-digit
    arithmetic. With k = omega0 t, z = alpha omega0 and
    1/(t^2 + 1) = (1/(t - i) - 1/(t + i)) / 2i, each part splits into
    int_0^inf e^(-zt) t^j dt = j!/z^(j+1) and
    int_0^inf e^(-zt) / (t - a) dt = e^(-za) E1(-za)."""
    with mpmath.workdps(40):
        z = mpmath.mpf(alpha) * omega0

        def part(a):
            poly = sum(a ** (m - 1 - j) * mpmath.factorial(j) / z ** (j + 1)
                       for j in range(m))
            return poly + a ** m * mpmath.exp(-z * a) * mpmath.e1(-z * a)

        t_moment = (part(1j) - part(-1j)) / 2j
        return float(mpmath.re(t_moment) * mpmath.mpf(omega0) ** (m - 1))


# ---------------------------------------------------------------------------
# scalar integrands and principal values


def pv_integral(f: Callable[[float], complex], pole: float,
                upper: float = math.inf,
                rel_tol: float = 1e-8) -> QuadratureResult:
    """Cauchy principal value of int_0^upper f(w)/(w - pole) dw, for a
    scalar f(w) (see _pv_integral)."""
    return _pv_integral(_lift(f), pole, upper, rel_tol)


def _pv_integral(f, pole: float, upper: float = math.inf,
                 rel_tol: float = 1e-8,
                 abs_tol: float = 0.0) -> QuadratureResult:
    """Cauchy principal value of int_0^upper f(w)/(w - pole) dw, for a
    vector f.

    Symmetric excision around the pole: on [pole-d, pole+d] the even part
    of f cancels and the odd part gives the regular difference quotient
    [f(pole+s) - f(pole-s)]/s, integrated adaptively. The excision radius
    is halved once to confirm convergence; abs_tol floors every piece. An
    infinite upper limit is mapped with scale pole. neval and peak cover
    every evaluation of f, panels the adaptive panels of both excisions.
    """
    if not 0 < pole < upper:
        raise QuadratureError("pole must lie inside (0, upper)")

    neval, peak = 0, 0.0

    def sampled(ws: np.ndarray) -> np.ndarray:
        nonlocal neval, peak
        values = f(ws)
        neval += ws.size
        peak = max(peak, float(np.max(np.abs(values))))
        return values

    def divided(ws: np.ndarray) -> np.ndarray:
        return sampled(ws) / (ws - pole)

    def evaluate(delta: float) -> tuple:
        """(value, error, panels) for excision radius delta."""
        def core(ss: np.ndarray) -> np.ndarray:
            return (sampled(pole + ss) - sampled(pole - ss)) / ss

        res_core = _adaptive(core, 0.0, delta, rel_tol, abs_tol)
        res_left = _adaptive(divided, 0.0, pole - delta, rel_tol, abs_tol)
        if math.isfinite(upper):
            res_right = _adaptive(divided, pole + delta, upper, rel_tol,
                                  abs_tol)
        else:
            res_right = _integrate_to_infinity(divided, pole + delta, pole,
                                               rel_tol, abs_tol)
        value = res_core.value + res_left.value + res_right.value
        error = res_core.error + res_left.error + res_right.error
        return (value, error,
                res_core.panels + res_left.panels + res_right.panels)

    half_span = min(pole, upper - pole)
    first, first_err, first_panels = evaluate(0.5 * half_span)
    value, error, panels = evaluate(0.25 * half_span)
    drift = abs(first - value)
    budget = 10 * max(first_err + error, rel_tol * abs(value), abs_tol,
                      1e-300)
    if drift > budget:
        raise QuadratureError(
            f"principal value did not stabilize under excision halving: "
            f"drift {drift:.3e} vs budget {budget:.3e}")
    return QuadratureResult(value, max(error, drift), neval,
                            first_panels + panels, peak)


def pv_spectral_form(model: SpectralGreenModel, bundle, omega0: float,
                     rel_tol: float = 1e-8) -> QuadratureResult:
    """Direct real-axis evaluation of
    P int_0^inf w^2 F(w) . Im G(w) / (w - omega0) dw.

    The absolute floor is roundoff on the numerator's uncancelled size at
    the pole, p(omega0) . Im G(omega0) (see the module doc for where it
    falls short)."""
    # w^2 F(w) = f0 w^2 + f1 w + f2: one contraction per panel
    kernel = _coefficient_rows(
        dict.fromkeys([*bundle.f0, *bundle.f1, *bundle.f2]),
        bundle.f0, bundle.f1, bundle.f2)

    def contracted(ws: np.ndarray, im_blocks: dict) -> np.ndarray:
        p0, p1, p2 = bundle.contract(im_blocks, kernel)
        return ws * ws * p0 + ws * p1 + p2

    def numerator(ws: np.ndarray) -> np.ndarray:
        return contracted(ws, model.jet(ws).imag_part().blocks)

    # one jet at a probe near zero, where the w^2 of the measure must tame
    # the 1/w and 1/w^2 coefficient factors, and at the pole, where the
    # numerator's uncancelled size sets the absolute floor
    ends = np.array([1e-9 * omega0, omega0])
    im_ends = model.jet(ends).imag_part().blocks
    probe = contracted(ends, im_ends)[0]
    if not np.isfinite(probe):
        raise QuadratureError(
            "spectral integrand is singular at zero frequency; coefficient "
            "structure incompatible with the w^2 measure")
    at_pole = {name: blk[1] for name, blk in im_ends.items()}
    abs_tol = _roundoff_floor(_pole_coefficients(bundle, omega0), at_pole)

    try:
        res = _pv_integral(numerator, omega0, math.inf, rel_tol, abs_tol)
    except QuadratureError as exc:
        raise QuadratureError(
            f"{exc}; the model supports imaginary frequency: use "
            f"imaginary_axis_form") from exc
    res.neval += ends.size
    return res


# ---------------------------------------------------------------------------
# causality checks


def kk_residual(omegas, values, test_frequencies) -> np.ndarray:
    """Causality consistency check on sampled scalar spectral data.

    For each test frequency w0, evaluates
        Re v(w0) - (2/pi) P int w Im v(w) / (w^2 - w0^2) dw
    on the sampled interval (subtract-the-singularity trapezoid rule) and
    returns the residual. Truncated tails show up in the residual; they are
    reported, never masked.
    """
    w = np.asarray(omegas, dtype=float)
    v = np.asarray(values, dtype=complex)
    if w.ndim != 1 or w.shape != v.shape or w.size < 8:
        raise QuadratureError("need matching 1-d sample arrays (>= 8 points)")
    if np.any(np.diff(w) <= 0) or w[0] < 0:
        raise QuadratureError("sample frequencies must increase and be >= 0")

    g = w * v.imag  # numerator of the dispersion integrand
    out = []
    for w0 in np.atleast_1d(np.asarray(test_frequencies, dtype=float)):
        pos = int(np.searchsorted(w, w0))
        if pos < 4 or pos > w.size - 4:
            raise QuadratureError(
                f"test frequency {w0:g} too close to the sampled boundary; "
                f"insufficient coverage")
        g0 = float(np.interp(w0, w, g))
        denom = w ** 2 - w0 ** 2
        reg = np.empty_like(g)
        safe = np.abs(denom) > 1e-12 * w0 ** 2
        reg[safe] = (g[safe] - g0) / denom[safe]
        if not np.all(safe):
            # derivative limit at the pole sample: (g' - 0)/(2 w0)
            gp = np.gradient(g, w)
            reg[~safe] = gp[~safe] / (2 * w0)
        integral = np.trapezoid(reg, w)
        # principal-value antiderivative of 1/(w^2 - w0^2)
        def anti(x):
            return math.log(abs((x - w0) / (x + w0))) / (2 * w0)
        integral += g0 * (anti(w[-1]) - anti(w[0]))
        re_est = (2.0 / math.pi) * integral
        re_here = float(np.interp(w0, w, v.real))
        out.append(re_here - re_est)
    return np.asarray(out)


def check_imaginary_axis_reality(model: SpectralGreenModel, kappas,
                                 rtol: float = 1e-8) -> float:
    """Largest relative imaginary residue of jet blocks on the imaginary
    axis (must vanish by Schwarz reflection for causal models)."""
    jet = model.jet(1j * np.asarray(kappas, dtype=float).reshape(-1))
    worst = 0.0
    for blk in jet.blocks.values():
        # one row per frequency
        rows = blk.reshape(math.prod(jet.batch_shape), -1)
        scale = np.max(np.abs(rows), axis=1)
        seen = scale > 0.0
        if np.any(seen):
            residue = np.max(np.abs(rows.imag), axis=1)[seen] / scale[seen]
            worst = max(worst, float(np.max(residue)))
    if worst > rtol:
        raise ModelDomainError(
            f"jet not real on the imaginary axis (relative residue "
            f"{worst:.2e}); model violates Schwarz reflection")
    return worst


# ---------------------------------------------------------------------------
# uniform medium


def small_R_series_im(R, omega, medium: Medium = Medium()) -> np.ndarray:
    """Small-separation series of Im G, valid for k|R| < 0.5.

    Im G = (k/6pi - k^3 |R|^2 / 30pi) I + (k^3/60pi) R R  + O((kR)^4)

    Returns a real 3x3 tensor; the residual against the full formula scales
    as the fourth power of k|R|.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3,):
        raise InputError("separation must be a 3-vector")
    k = float(_lossless_wavenumber(omega, medium, "small-separation series"))
    x = k * float(np.linalg.norm(R))
    if x >= SERIES_SWITCH:
        raise InputError(
            f"series requested at k|R| = {x:.3g}, beyond its trust radius "
            f"{SERIES_SWITCH}")
    r2 = float(R @ R)
    return ((k / (6.0 * math.pi) - k ** 3 * r2 / (30.0 * math.pi)) * np.eye(3)
            + (k ** 3 / (60.0 * math.pi)) * np.outer(R, R))


# ---------------------------------------------------------------------------
# single-emitter dynamics

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def lowering_operators(n_emitters: int) -> list:
    """Per-emitter lowering operators on the 2**n product space."""
    n = int(n_emitters)
    if not 1 <= n <= _MAX_EMITTERS:
        raise InputError(f"emitter count must lie in [1, {_MAX_EMITTERS}]")
    eye = np.eye(2, dtype=complex)
    ops = []
    for a in range(n):
        op = np.ones((1, 1), dtype=complex)
        for k in range(n):
            op = np.kron(op, _LOWER if k == a else eye)
        ops.append(op)
    return ops


def _parse_initial(initial) -> tuple:
    if isinstance(initial, str):
        try:
            return {"excited": (0.0 + 0.0j, 1.0),
                    "ground": (0.0 + 0.0j, -1.0)}[initial]
        except KeyError:
            raise InputError(
                f"unknown initial state {initial!r}; use 'excited', "
                f"'ground', or a (sigma, sigma_z) pair") from None
    try:
        sig0, sz0 = initial
        sig0 = complex(sig0)
        sz0 = float(sz0)
    except (TypeError, ValueError) as exc:
        raise InputError("initial state must be 'excited', 'ground', or a "
                         "(sigma, sigma_z) pair") from exc
    if not (np.isfinite(sz0) and np.isfinite(sig0.real)
            and np.isfinite(sig0.imag)):
        raise InputError("initial state entries must be finite")
    if abs(sz0) > 1.0 + 1e-12 or abs(sig0) ** 2 > 0.25 * (1.0 - sz0 ** 2) + 1e-12:
        raise InputError(
            "not a physical qubit state: need |sigma_z| <= 1 and "
            "|<sigma>|^2 <= (1 - sigma_z^2)/4")
    return sig0, sz0


def evolve_single(gamma: float, delta: float, omega0: float, initial,
                  times) -> Trajectory:
    """Closed-form decay of one emitter (no integration, no step error).

    From (sigma0, sz0) at the first grid time, with dt measured from it:

        <sigma_z>(t) = -1 + (1 + sz0) exp(-gamma dt)
        <sigma>(t)   = sigma0 exp(-(gamma/2 + i (omega0 + delta)) dt)

    so an initially excited emitter follows -1 + 2 exp(-gamma t) and the
    coherence of an undamped, unshifted one just rotates at omega0.
    Density snapshots are attached in the lab frame (omega_ref = 0).
    """
    gamma = float(gamma)
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise InputError("decay rate must be non-negative and finite")
    delta = float(delta)
    omega0 = float(omega0)
    if not math.isfinite(delta):
        raise InputError("level shift must be finite")
    if not (omega0 >= 0.0 and math.isfinite(omega0)):
        raise InputError("transition frequency must be non-negative")
    times = _time_grid(times)
    sig0, sz0 = _parse_initial(initial)

    dt = times - times[0]
    pe = 0.5 * (1.0 + sz0) * np.exp(-gamma * dt)
    sz = 2.0 * pe - 1.0
    sig = sig0 * np.exp(-(0.5 * gamma + 1j * (omega0 + delta)) * dt)

    nt = times.size
    rho = np.zeros((nt, 2, 2), dtype=complex)
    rho[:, 0, 0] = 1.0 - pe
    rho[:, 1, 1] = pe
    rho[:, 1, 0] = sig
    rho[:, 0, 1] = np.conj(sig)
    return Trajectory(times=times, sigma=sig[:, None], sigma_z=sz[:, None],
                      omega_ref=0.0, rho=rho, error_estimate=0.0)


def csv_cell(value) -> str:
    """One CSV cell: bools as true/false, integers exactly, floats by the
    shortest round-trip repr, and text quoted when it holds a comma, a
    double quote or a newline."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# far field

# (cos theta nodes, weights) of the Gauss-Legendre rule, and the count of
# trapezoid nodes in phi
_POLAR = np.polynomial.legendre.leggauss(48)
_AZIMUTHS = 96


def far_field_rate(a, b, index: float, omega: float) -> complex:
    """gamma_ab of emitters a and b in a uniform medium of real index at
    the frequency omega, from their far-field amplitudes alone:

        2 pi w^2 SPECTRAL_NORM (k / 16 pi^2)
            * int conj(f_a(n)) . f_b(n) exp(i k n . (r_a - r_b)) dOmega

    with k = index w / c, f(n) = (I - n n)[d - i k T n] and
    T = Q + (i/w) M, so T n = Q n + (i/w) m x n. The plane-wave phase of
    the pair enters once. The sphere is sampled by 48 Gauss-Legendre nodes
    in cos(theta) by 96 trapezoid nodes in phi."""
    k = index * omega / C0
    cos, w_cos = _POLAR
    phi = 2.0 * math.pi * np.arange(_AZIMUTHS) / _AZIMUTHS
    sin = np.sqrt(1.0 - cos ** 2)[:, None]
    n = np.stack(np.broadcast_arrays(sin * np.cos(phi), sin * np.sin(phi),
                                     cos[:, None]), axis=-1).reshape(-1, 3)
    weights = np.repeat(w_cos, _AZIMUTHS) * (2.0 * math.pi / _AZIMUTHS)

    def amplitude(e):
        t_n = n @ e.Q.T + (1j / omega) * np.cross(e.m, n)
        v = e.d - 1j * k * t_n
        return v - n * np.sum(n * v, axis=1, keepdims=True)

    phase = np.exp(1j * k * (n @ (a.position - b.position)))
    integral = np.sum(weights * phase
                      * np.sum(amplitude(a).conj() * amplitude(b), axis=1))
    return (2.0 * math.pi * omega ** 2 * SPECTRAL_NORM
            * k / (16.0 * math.pi ** 2) * complex(integral))


# ---------------------------------------------------------------------------
# grid files

V3_MAGIC = b"\x93PEGRID"


def v3_split(data: bytes) -> tuple:
    """A v3 file as its header document and its block bytes."""
    assert data.startswith(V3_MAGIC)
    end = data.index(b"\n") + 1
    return json.loads(data[len(V3_MAGIC):end]), data[end:]


def v3_file(header, blocks: bytes, align: int = 64) -> bytes:
    """v3 bytes: the magic, header text (a document is written compact,
    in its own key order), space padding and a newline up to a multiple
    of align, the blocks."""
    if isinstance(header, dict):
        header = json.dumps(header, ensure_ascii=False, separators=(",", ":"))
    if isinstance(header, str):
        header = header.encode("utf-8")
    head = V3_MAGIC + header
    return head + b" " * (-(len(head) + 1) % align) + b"\n" + blocks
