"""Spectral integration: panel quadrature, principal values, and the
imaginary-axis representation, checked against independent oracles
(closed-form integrals and scipy's Cauchy-weight rule)."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from polyemit.constants import C0
from polyemit.emitter import MultipoleEmitter, moment_product_bundle
from polyemit.errors import (CoincidentPointError, ModelDomainError,
                             PartFlagError, QuadratureError)
from polyemit.homogeneous import Medium, eval_homogeneous_jet
from polyemit.jets import GreensJet
from polyemit.quadrature import (_LAGUERRE_SWITCH, SpectralGreenModel,
                                 _adaptive, _exp_moments,
                                 _integrate_to_infinity,
                                 homogeneous_pair_model, imaginary_axis_form,
                                 integrate_adaptive, lorentzian_model)
from polyemit.rates import collective_rate, coupling_strength

from oracles import (adaptive_pair_model, check_imaginary_axis_reality,
                     exp_moment_reference, kk_residual, pv_integral,
                     pv_spectral_form)

WR1, ETA1 = 2.50e15, 6.0e13
WR2, ETA2 = 3.30e15, 1.1e14


def real_blocks(rng, scale):
    """Real amplitude tensors: a causal resonance needs real residues for
    the response to be real on the imaginary axis."""
    return {
        "value": rng.standard_normal((3, 3)) * scale,
        "d_obs": rng.standard_normal((3, 3, 3)) * scale * 5,
        "d_src": rng.standard_normal((3, 3, 3)) * scale * 5,
        "d_mixed": rng.standard_normal((3, 3, 3, 3)) * scale * 25,
    }


def over_w2(S_blk, w):
    """S / w^2 for every entry of the frequency batch w."""
    w = np.asarray(w)
    return S_blk / w.reshape(w.shape + (1,) * S_blk.ndim) ** 2


def random_pair_bundle(rng):
    def emitter(pos):
        d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
        m = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-23
        Q = (rng.standard_normal((3, 3))
             + 1j * rng.standard_normal((3, 3))) * 1e-39
        return MultipoleEmitter(position=pos, omega0=WR1, d=d, m=m, Q=Q)

    return moment_product_bundle(emitter([0, 0, 0]),
                                 emitter([0, 0, 50e-9]))


# ---------------------------------------------------------------------------
# panel integrator


def test_polynomial_exact():
    # Gauss-7 is exact through degree 13, so the error estimate collapses
    res = integrate_adaptive(lambda x: x ** 5, 0.0, 1.0)
    assert abs(res.value - 1.0 / 6.0) < 1e-15
    assert res.panels == 1


def test_oscillatory_against_closed_form():
    res = integrate_adaptive(lambda x: math.sin(50 * x), 0.0, 1.0)
    assert abs(res.value - (1 - math.cos(50.0)) / 50.0) < 1e-13


def test_complex_integrand():
    res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, 1.0)
    assert abs(res.value - (np.exp(1j) - 1) / 1j) < 1e-13


def test_matches_library_quadrature():
    f = lambda x: math.exp(-x * x) * math.cos(3 * x)
    ref = quad(f, 0.0, 4.0, epsabs=1e-14, epsrel=1e-13)[0]
    res = integrate_adaptive(f, 0.0, 4.0)
    assert abs(res.value - ref) < 1e-12


def test_budget_exhaustion_raises():
    f = lambda x: abs(x - 0.3) ** -0.6
    with pytest.raises(QuadratureError, match="budget"):
        integrate_adaptive(f, 0.0, 1.0, max_panels=8)


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_adaptive(lambda x: float("nan"), 0.0, 1.0)


def test_empty_interval_raises():
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: x, 1.0, 1.0)


def test_semi_infinite_map_against_closed_form_and_library():
    # int_1^inf x^-2 dx = 1, with a scale that keeps the mapped integrand
    # nonconstant
    res = _integrate_to_infinity(lambda x: 1.0 / (x * x), 1.0, 2.5,
                                 rel_tol=1e-8)
    assert abs(res.value - 1.0) < 1e-13
    ref = quad(lambda x: math.exp(-x) / (1.0 + x * x), 1.0, np.inf,
               epsabs=1e-15, epsrel=1e-13)[0]
    res = _integrate_to_infinity(lambda x: np.exp(-x) / (1.0 + x * x), 1.0,
                                 1.0, rel_tol=1e-8)
    assert abs(res.value - ref) < 1e-12


def test_semi_infinite_map_refuses_divergent_tail():
    # a 1/x tail is log-divergent: singular at t = 1 after the map, refused
    # by the engine without a division by zero and without evaluating f at
    # a non-finite abscissa
    seen = []

    def f(xs):
        seen.append(np.array(xs))
        return 1.0 / xs

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError,
                           match="at floating-point resolution"):
            _integrate_to_infinity(f, 1.0, 1.0, rel_tol=1e-8)
    assert seen and all(np.all(np.isfinite(xs)) for xs in seen)


# ---------------------------------------------------------------------------
# principal values


def test_pv_constant_is_zero():
    # symmetric interval around the pole: exact cancellation
    res = pv_integral(lambda w: 1.0 + 0j, 1.7, upper=3.4)
    assert abs(res.value) < 1e-12


def test_pv_linear_closed_form():
    # P int_0^{2a} w/(w-a) dw = 2a
    a = 1.7
    res = pv_integral(lambda w: w + 0j, a, upper=2 * a)
    assert abs(res.value - 2 * a) < 1e-12


def test_pv_lorentzian_matches_cauchy_weight_oracle():
    wr, eta, pole, cut = 2.3, 0.4, 1.9, 60.0
    f = lambda w: 1.0 / ((wr ** 2 - w ** 2) ** 2 + (eta * w) ** 2)
    oracle = quad(f, 0, 2 * pole, weight='cauchy', wvar=pole, limit=400,
                  epsabs=1e-13, epsrel=1e-12)[0]
    oracle += quad(lambda w: f(w) / (w - pole), 2 * pole, cut, limit=400,
                   epsabs=1e-13, epsrel=1e-12)[0]
    oracle += quad(lambda w: f(w) / (w - pole), cut, np.inf, limit=400,
                   epsabs=1e-14)[0]
    res = pv_integral(f, pole)
    assert abs(res.value - oracle) / abs(oracle) < 1e-9


def test_pv_pole_must_be_interior():
    with pytest.raises(QuadratureError):
        pv_integral(lambda w: 1.0, -1.0)
    with pytest.raises(QuadratureError):
        pv_integral(lambda w: 1.0, 2.0, upper=1.5)


def test_pv_divergent_tail_guard():
    # f = w gives a non-decaying tail integrand; must refuse, not truncate
    with pytest.raises(QuadratureError):
        pv_integral(lambda w: w + 0j, 1.0)


# ---------------------------------------------------------------------------
# imaginary-axis representation


def test_identity_matches_brute_pv_full_bundle(rng):
    model = lorentzian_model([
        (real_blocks(rng, 1e5), WR1, ETA1),
        (real_blocks(rng, 0.6e5), WR2, ETA2),
    ])
    bundle = random_pair_bundle(rng)
    for w0 in (0.5 * WR1, WR1, 1.4 * WR1, 2.0 * WR1):
        lhs = pv_spectral_form(model, bundle, w0)
        rhs = imaginary_axis_form(model, bundle, w0)
        rel = abs(lhs.value - rhs.value) / max(abs(lhs.value), 1e-300)
        assert rel < 1e-7, f"w0={w0:.3e}: rel={rel:.2e}"


def test_identity_with_static_double_pole(rng):
    # model = S/w^2 + resonance; S is real so Im G on the real axis is the
    # resonance's alone, and the principal value of the resonance-only
    # model is an independent oracle for the full model's imaginary-axis
    # evaluation (every pole correction term must conspire to cancel S)
    lor_blocks = real_blocks(rng, 1e5)
    lor_only = lorentzian_model([(lor_blocks, WR1, ETA1)])
    S = {"value": rng.standard_normal((3, 3)) * 4e5 / WR1 ** 2,
         "d_obs": rng.standard_normal((3, 3, 3)) * 2e6 / WR1 ** 2,
         "d_src": rng.standard_normal((3, 3, 3)) * 2e6 / WR1 ** 2}

    def synth_eval(w):
        base = lor_only.evaluator(w)
        return GreensJet(value=base.value + over_w2(S["value"], w),
                         d_obs=base.d_obs + over_w2(S["d_obs"], w),
                         d_src=base.d_src + over_w2(S["d_src"], w),
                         d_mixed=base.d_mixed, part="full")

    g2inf = {k: lor_only.uhp_quadratic_limit.get(k, 0) + S.get(k, 0)
             for k in ("value", "d_obs", "d_src", "d_mixed")}
    synth = SpectralGreenModel(evaluator=synth_eval,
                               uhp_quadratic_limit=g2inf,
                               static_pole_blocks=S)
    bundle = random_pair_bundle(rng)
    for w0 in (0.8 * WR1, 1.3 * WR1):
        lhs = pv_spectral_form(lor_only, bundle, w0)
        rhs = imaginary_axis_form(synth, bundle, w0)
        rel = abs(lhs.value - rhs.value) / abs(lhs.value)
        assert rel < 1e-7, f"w0={w0:.3e}: rel={rel:.2e}"


def test_identity_rejects_f2_with_static_pole(rng):
    lor_only = lorentzian_model([(real_blocks(rng, 1e5), WR1, ETA1)])
    S = {"d_mixed": rng.standard_normal((3, 3, 3, 3)) / WR1 ** 2}

    def synth_eval(w):
        base = lor_only.evaluator(w)
        return GreensJet(value=base.value, d_obs=base.d_obs,
                         d_src=base.d_src,
                         d_mixed=base.d_mixed + over_w2(S["d_mixed"], w),
                         part="full")

    synth = SpectralGreenModel(evaluator=synth_eval,
                               static_pole_blocks=S)
    bundle = random_pair_bundle(rng)  # has magnetic moments, so f2 != 0
    with pytest.raises(ModelDomainError, match="static pole"):
        imaginary_axis_form(synth, bundle, WR1)


def test_identity_refuses_imaginary_part_jets(rng):
    # the contour replacement needs Re G; a model that only resolves the
    # fluctuation spectrum is refused for what it is
    full = lorentzian_model([(real_blocks(rng, 1e5), WR1, ETA1)])
    im_only = dataclasses.replace(
        full, evaluator=lambda w: full.evaluator(w).imag_part())
    with pytest.raises(PartFlagError, match="no real part"):
        imaginary_axis_form(im_only, random_pair_bundle(rng), WR1)


def test_absolute_floor_stops_a_roundoff_integrand():
    # an integrand that is pure roundoff has no relative accuracy to reach
    def noise(x):
        return (0.1 * x + 1.0) - 1.0 - 0.1 * x

    def decaying_noise(x):
        return np.exp(-x) * ((0.3 * x + 1.0) - 1.0 - 0.3 * x)

    with pytest.raises(QuadratureError, match="budget exhausted"):
        _adaptive(noise, 0.0, 1.0)
    res = _adaptive(noise, 0.0, 1.0, abs_tol=1e-14)
    assert abs(res.value) <= 1e-14 and res.error <= 1e-13
    with pytest.raises(QuadratureError, match="budget exhausted"):
        _integrate_to_infinity(decaying_noise, 1.0, 1.0, rel_tol=1e-8)
    res = _integrate_to_infinity(decaying_noise, 1.0, 1.0, rel_tol=1e-8,
                                 abs_tol=1e-14)
    assert abs(res.value) <= 1e-14 and res.panels > 0


def test_schwarz_reality_check(rng):
    good = lorentzian_model([(real_blocks(rng, 1e5), WR1, ETA1)])
    residue = check_imaginary_axis_reality(good, [1e14, 1e15, 1e16])
    assert residue < 1e-12
    # complex residues break reflection symmetry: G(ik) picks up an
    # imaginary part and the check must flag it
    bad_blocks = {"value": (1 + 1j) * np.ones((3, 3))}
    bad = lorentzian_model([(bad_blocks, WR1, ETA1)])
    with pytest.raises(ModelDomainError, match="Schwarz"):
        check_imaginary_axis_reality(bad, [1e15])


def test_zero_frequency_probe_rejects_singular_numerator(rng):
    def nan_eval(w):
        bad = complex(np.nan, np.nan)
        return GreensJet(value=np.full((3, 3), bad),
                         d_obs=np.full((3, 3, 3), bad),
                         d_src=np.full((3, 3, 3), bad),
                         d_mixed=np.full((3, 3, 3, 3), bad))

    model = SpectralGreenModel(evaluator=nan_eval)
    bundle = random_pair_bundle(rng)
    with pytest.raises(QuadratureError):
        pv_spectral_form(model, bundle, WR1)


# ---------------------------------------------------------------------------
# homogeneous-medium models on the imaginary axis


def ed_bundle(d, positions):
    ea = MultipoleEmitter(position=positions[0], omega0=WR1, d=d)
    eb = MultipoleEmitter(position=positions[1], omega0=WR1, d=d)
    return moment_product_bundle(ea.restricted("ED"), eb.restricted("ED"))


def test_homogeneous_model_real_and_tolerance_stable(rng):
    med = Medium(1.5)
    pos = [np.zeros(3), np.array([0.0, 0.0, 120e-9])]
    model = homogeneous_pair_model(med, pos[0], pos[1])
    check_imaginary_axis_reality(model, [1e14, 1e15])
    d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
    bundle = ed_bundle(d, pos)
    res = imaginary_axis_form(model, bundle, WR1)
    assert abs(res.value.imag) < 1e-10 * abs(res.value)
    tight = imaginary_axis_form(model, bundle, WR1, rel_tol=1e-10)
    assert abs(res.value - tight.value) < 1e-7 * abs(tight.value)


class CountingCalls:
    """Counts the frequencies fn is asked for (np.size of its argument)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.values = []

    @property
    def peak(self):
        return max(float(np.max(np.abs(v))) for v in self.values)

    def __call__(self, x):
        value = self.fn(x)
        self.calls += np.size(x)
        self.values.append(value)
        return value


def test_neval_counts_every_evaluation(rng):
    f = CountingCalls(lambda x: np.exp(-x) / (1.0 + x * x))
    tail = _integrate_to_infinity(f, 1.0, 1.0, rel_tol=1e-8)
    assert tail.neval == f.calls
    assert tail.peak == f.peak
    assert tail.panels > 0

    # ED+EQ pair in n = 1.5 at 0.2 wavelengths
    sep = 0.2 * 2 * math.pi * C0 / (1.5 * WR1)
    pos = [np.zeros(3), np.array([0.0, 0.0, sep])]

    def emitter(p):
        d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
        Q = rng.standard_normal((3, 3)) * 1e-39
        return MultipoleEmitter(position=p, omega0=WR1, d=d, Q=Q + Q.T)

    model = adaptive_pair_model(Medium(1.5), pos[0], pos[1])
    jet = CountingCalls(model.evaluator)
    counted = dataclasses.replace(model, evaluator=jet)
    bundle = moment_product_bundle(emitter(pos[0]), emitter(pos[1]))
    res = imaginary_axis_form(counted, bundle, WR1)
    assert res.neval == jet.calls
    assert res.panels > 0 and res.peak > 0.0


def test_pv_neval_counts_every_evaluation(rng):
    f = CountingCalls(lambda w: math.exp(-w) + 0j)
    res = pv_integral(f, 1.0)
    assert res.neval == f.calls
    assert res.peak == f.peak
    assert res.panels > 0

    model = lorentzian_model([(real_blocks(rng, 1e5), WR1, ETA1)])
    jet = CountingCalls(model.evaluator)
    counted = dataclasses.replace(model, evaluator=jet)
    res = pv_spectral_form(counted, random_pair_bundle(rng), 0.8 * WR1)
    assert res.neval == jet.calls
    assert res.panels > 0 and res.peak > 0.0


def test_lorentzian_batched_equals_scalar_calls_bitwise(rng):
    blocks = real_blocks(rng, 1e5)
    del blocks["d_src"]
    model = lorentzian_model([(blocks, WR1, ETA1),
                              ({"value": np.eye(3) * 3e4}, WR2, ETA2)])
    omegas = np.concatenate([np.linspace(0.1, 3.0, 7) * WR1,
                             1j * np.geomspace(1e12, 1e18, 8)])
    batched = model.jet(omegas)
    assert batched.batch_shape == omegas.shape and batched.d_src is None
    for i, w in enumerate(omegas):
        single = model.jet(w)
        assert single.batch_shape == ()
        for name in ("value", "d_obs", "d_mixed"):
            got, want = getattr(batched, name)[i], getattr(single, name)
            assert got.tobytes() == want.tobytes()
    grid = model.jet(omegas.reshape(5, 3))
    assert grid.d_mixed.tobytes() == batched.d_mixed.tobytes()


def pointwise_imaginary_axis_form(model, bundle, w0, rel_tol=1e-8):
    """Reference: the imaginary-axis form with one jet and one contraction
    per frequency, its k-integrand lifted node by node onto the panels."""
    f0, f1, f2 = bundle.f0, bundle.f1, bundle.f2
    names = list(dict.fromkeys([*f0, *f1, *f2]))

    def integrand(kappa):
        jet = model.jet(1j * kappa)
        blocks = {name: getattr(jet, name).real for name in names}
        k2 = kappa * kappa
        coeffs = {name: f0.get(name, 0.0) * (w0 * k2)
                  + f1.get(name, 0.0) * k2 - f2.get(name, 0.0) * w0
                  for name in names}
        return bundle.contract(blocks, coeffs) / (k2 + w0 ** 2)

    spectral = _integrate_to_infinity(
        lambda ks: np.array([integrand(k) for k in ks], dtype=complex),
        0.0, w0, rel_tol=rel_tol)
    jet0 = model.jet(w0)
    p0 = {name: f0.get(name, 0.0) * w0 ** 2 + f1.get(name, 0.0) * w0
          + f2.get(name, 0.0) for name in names}
    resonant = math.pi * bundle.contract(
        {name: getattr(jet0, name).real for name in names}, p0)
    statics = model.static_pole_blocks
    pole = -(0.5 * math.pi / w0) * bundle.contract(
        statics, {name: f1[name] for name in f1})
    assert model.uhp_quadratic_limit is None  # no arc term
    return resonant + spectral.value + pole


@pytest.mark.parametrize("n", [1.0, 1.5])
@pytest.mark.parametrize("wavelengths", [0.03, 0.4])
def test_imaginary_axis_form_matches_pointwise_reference(rng, n, wavelengths):
    sep = wavelengths * 2 * math.pi * C0 / (n * WR1)
    pos = [np.zeros(3), sep * np.array([0.36, -0.48, 0.8])]

    def emitter(p):
        d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
        m = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-23
        Q = rng.standard_normal((3, 3)) * 1e-39
        return MultipoleEmitter(position=p, omega0=WR1, d=d, m=m,
                                Q=Q + Q.T)

    bundle = moment_product_bundle(emitter(pos[0]), emitter(pos[1]))
    assert bundle.f0 and bundle.f1 and bundle.f2  # ED, EQ, MD all enter
    model = adaptive_pair_model(Medium(n), pos[0], pos[1])
    got = imaginary_axis_form(model, bundle, WR1).value
    want = pointwise_imaginary_axis_form(model, bundle, WR1)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_one_jet_evaluation_per_panel(rng):
    sizes = []

    def recorded(model):
        def evaluator(w):
            sizes.append(np.size(w))
            return model.evaluator(w)
        return dataclasses.replace(model, evaluator=evaluator)

    bundle = random_pair_bundle(rng)
    pos = [np.zeros(3), np.array([0.0, 0.0, 50e-9])]
    homogeneous = adaptive_pair_model(Medium(1.5), pos[0], pos[1])
    res = imaginary_axis_form(recorded(homogeneous),
                              ed_bundle(np.array([1e-29, 0, 0]), pos), WR1)
    # the resonant jet, then one call on the 15 nodes of each panel
    assert sizes[0] == 1 and set(sizes[1:]) == {15}
    assert sum(sizes) == res.neval

    sizes.clear()
    model = lorentzian_model([(real_blocks(rng, 1e5), WR1, ETA1)])
    res = pv_spectral_form(recorded(model), bundle, 0.8 * WR1)
    # one jet at the zero-frequency probe and the pole, then one call per
    # panel node array
    assert sizes[0] == 2 and set(sizes[1:]) == {15}
    assert sum(sizes) == res.neval

    sizes.clear()
    check_imaginary_axis_reality(recorded(model), [1e14, 1e15, 1e16])
    assert sizes == [3]


def test_pair_model_declares_its_laurent_form_without_a_jet(monkeypatch):
    # building the model evaluates no jet: the Laurent coefficients come
    # from the closed forms, and the static pole is exactly S = -G_-2
    import polyemit.homogeneous as homogeneous
    calls = []
    original = homogeneous.eval_homogeneous_jet

    def counted(r_obs, r_src, omega, medium):
        calls.append(np.shape(omega))
        return original(r_obs, r_src, omega, medium)

    monkeypatch.setattr(homogeneous, "eval_homogeneous_jet", counted)
    pos = [np.zeros(3), np.array([20e-9, -50e-9, 120e-9])]
    model = homogeneous_pair_model(Medium(1.5), *pos)
    assert calls == []
    alpha, blocks = model.imaginary_axis_laurent
    assert alpha == 1.5 * np.linalg.norm(pos[1]) / C0
    assert list(blocks) == list(model.static_pole_blocks)
    for name, blk in blocks.items():
        assert blk.shape[0] == 5
        assert np.array_equal(model.static_pole_blocks[name], -blk[0])


# ---------------------------------------------------------------------------
# closed-form k-integrals of uniform-medium pairs


@pytest.mark.parametrize("omega0", [WR1, 1.0])
def test_exp_moments_match_mpmath(omega0):
    # each J_m on both sides of the switch, z = alpha omega0 from 1e-4 to
    # 1e4, against 40-digit exponential integrals
    zs = np.concatenate([np.geomspace(1e-4, 1e4, 49),
                         [np.nextafter(_LAGUERRE_SWITCH, 0.0),
                          _LAGUERRE_SWITCH]])
    for z in zs:
        alpha = z / omega0
        got = _exp_moments(alpha, omega0)
        for m in range(5):
            want = exp_moment_reference(alpha, omega0, m)
            assert abs(got[m] - want) <= 1e-13 * abs(want), (z, m)


def dual_pair_xi(n, kR, kind):
    """xi of two x-oriented MD emitters (kind "m") separated along z by
    kR / k0 in the index n, or of their dual ED pair (kind "d",
    d = n m / c)."""
    m = np.array([1e-23, 0.0, 0.0])
    moments = {"m": m} if kind == "m" else {"d": n * m / C0}
    a = MultipoleEmitter(position=np.zeros(3), omega0=WR1, **moments)
    b = MultipoleEmitter(position=np.array([0.0, 0.0, kR * C0 / WR1]),
                         omega0=WR1, **moments)
    model = homogeneous_pair_model(Medium(n), a.position, b.position)
    return coupling_strength(a, b, model).xi


@pytest.mark.parametrize("n", [1.0, 1.0001, 1.33, 1.5])
def test_md_pairs_at_small_separation_match_their_dual_electric_pairs(n):
    # the adaptive route refused 9 of these 24 points ("adaptive budget
    # exhausted"); duality makes every one equal to its ED pair
    for kR in (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2):
        xi_md = dual_pair_xi(n, kR, "m")
        xi_ed = dual_pair_xi(n, kR, "d")
        assert abs(xi_md - xi_ed) <= 1e-13 * abs(xi_ed), kR


PAIRINGS = ("d", "m", "q", "dm", "dq", "mq", "dmq")


@pytest.mark.parametrize("channels", PAIRINGS)
def test_closed_form_matches_the_adaptive_oracle(rng, channels):
    # every channel pairing, on both sides of the J_m switch (z = n kR):
    # the closed-form sum within the oracle's own error estimate, and the
    # decay entry bit for bit, since it never touches the k-integral
    def emitter(p):
        d = m = np.zeros(3)
        Q = np.zeros((3, 3))
        if "d" in channels:
            d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
        if "m" in channels:
            m = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-23
        if "q" in channels:
            Q = rng.standard_normal((3, 3)) * 1e-39
        return MultipoleEmitter(position=p, omega0=WR1, d=d, m=m, Q=Q + Q.T)

    for n in (1.0, 1.5):
        for kR in (0.3, 3.0, 30.0):
            u = rng.standard_normal(3)
            pos = [np.zeros(3), kR * C0 / WR1 * u / np.linalg.norm(u)]
            a, b = emitter(pos[0]), emitter(pos[1])
            model = homogeneous_pair_model(Medium(n), *pos)
            oracle = adaptive_pair_model(Medium(n), *pos)
            got = coupling_strength(a, b, model)
            want = coupling_strength(a, b, oracle)
            assert (abs(got.xi - want.xi)
                    <= want.xi_error + 1e-13 * abs(want.xi)), (n, kR)
            assert got.xi_error <= 1e-12 * abs(got.xi)
            gamma = collective_rate(a, b, model).gamma_cross
            assert gamma == collective_rate(a, b, oracle).gamma_cross
            jet = eval_homogeneous_jet(pos[0], pos[1], WR1, Medium(n))
            assert gamma == collective_rate(a, b, jet).gamma_cross


def test_dispersive_index_stays_adaptive(rng):
    # a callable index has no Laurent form; a flat one gives the constant
    # index's static pole and, within the adaptive error, its coupling
    pos = [np.zeros(3), np.array([30e-9, 0.0, 90e-9])]
    flat = homogeneous_pair_model(Medium(lambda w: 1.5 + 0j), *pos)
    const = homogeneous_pair_model(Medium(1.5), *pos)
    assert flat.imaginary_axis_laurent is None
    for name, S in const.static_pole_blocks.items():
        assert np.array_equal(flat.static_pole_blocks[name], S)
    d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
    a = MultipoleEmitter(position=pos[0], omega0=WR1, d=d)
    b = MultipoleEmitter(position=pos[1], omega0=WR1, d=d)
    got = coupling_strength(a, b, flat)
    want = coupling_strength(a, b, const).xi
    assert got.xi_error > 0.0
    assert abs(got.xi - want) <= got.xi_error + 1e-13 * abs(want)


def test_wrapped_scalar_evaluator_matches_batched_model(rng):
    # the wrapping recipe of the SpectralGreenModel docstring
    model = lorentzian_model([(real_blocks(rng, 1e5), WR1, ETA1)])

    def scalar(w):
        assert isinstance(w, complex)
        return model.evaluator(w)

    def batched(w):
        jets = [scalar(complex(x)) for x in np.ravel(w)]
        blocks = {name: np.reshape([j.blocks[name] for j in jets],
                                   np.shape(w) + blk.shape)
                  for name, blk in jets[0].blocks.items()}
        return GreensJet(**blocks, part=jets[0].part)

    wrapped = dataclasses.replace(model, evaluator=batched)
    bundle = random_pair_bundle(rng)
    for form in (imaginary_axis_form, pv_spectral_form):
        want = form(model, bundle, 0.9 * WR1)
        got = form(wrapped, bundle, 0.9 * WR1)
        assert got.value == want.value and got.neval == want.neval


def test_homogeneous_real_axis_pv_refuses(rng):
    # the real-axis spectral integrand oscillates with a growing envelope;
    # the tail guard must refuse rather than silently truncate
    med = Medium(1.0)
    pos = [np.zeros(3), np.array([0.0, 0.0, 120e-9])]
    model = homogeneous_pair_model(med, pos[0], pos[1])
    d = np.array([1e-29, 0, 0], dtype=complex)
    with pytest.raises(QuadratureError, match="use imaginary_axis_form"):
        pv_spectral_form(model, ed_bundle(d, pos), WR1)


def test_homogeneous_static_pole_extraction():
    # independent oracle: the electrostatic tensor (3 RhRh - I) c^2 /
    # (4 pi n^2 R^3) is the exact -lim w^2 G
    n, dist = 1.5, 120e-9
    med = Medium(n)
    model = homogeneous_pair_model(med, np.zeros(3),
                                   np.array([0.0, 0.0, dist]))
    rh = np.array([0.0, 0.0, -1.0])
    expected = ((3 * np.outer(rh, rh) - np.eye(3)) * C0 ** 2
                / (4 * math.pi * n ** 2 * dist ** 3))
    got = model.static_pole_blocks["value"]
    assert np.max(np.abs(got - expected)) < 1e-8 * np.max(np.abs(expected))


def test_homogeneous_static_pole_derivative_consistency():
    # d_obs static block == gradient of the value static block in the
    # observation point (central differences across shifted factories)
    n, dist = 1.3, 150e-9
    med = Medium(n)
    base = np.array([0.0, 0.0, dist])
    model = homogeneous_pair_model(med, np.zeros(3), base)
    h = 1e-6 * dist
    fd = np.zeros((3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        sp = homogeneous_pair_model(med, e, base).static_pole_blocks["value"]
        sm = homogeneous_pair_model(med, -e, base).static_pole_blocks["value"]
        fd[:, :, k] = (sp - sm) / (2 * h)
    got = model.static_pole_blocks["d_obs"]
    assert np.max(np.abs(got - fd)) < 1e-5 * np.max(np.abs(got))


def test_homogeneous_model_rejects_coincident_points():
    with pytest.raises(CoincidentPointError):
        homogeneous_pair_model(Medium(1.0), np.zeros(3), np.zeros(3))


def test_imaginary_axis_integrand_flatter_than_real_axis(rng):
    # the point of the contour move: on a pair separated by several
    # wavelengths the real-axis integrand oscillates, the imaginary-axis
    # integrand does not; compare total variation on matched dense grids
    med = Medium(1.0)
    w0 = WR1
    dist = 10.0 * C0 / w0  # k R = 10
    pos = [np.zeros(3), np.array([0.0, 0.0, dist])]
    model = homogeneous_pair_model(med, pos[0], pos[1])
    d = np.array([1e-29, 0, 0], dtype=complex)
    bundle = ed_bundle(d, pos)
    f0 = bundle.f0["value"]

    def tv(samples):
        return float(np.sum(np.abs(np.diff(samples))))

    ks = np.linspace(w0 / 1000, 8 * w0, 4001)
    kappa_vals = []
    for kappa in ks:
        jet = model.jet(1j * kappa)
        kappa_vals.append((w0 * kappa ** 2 / (kappa ** 2 + w0 ** 2))
                          * np.einsum('mn,mn->', f0, jet.value.real))
    omegas = np.concatenate([np.linspace(w0 / 1000, 0.95 * w0, 2000),
                             np.linspace(1.05 * w0, 8 * w0, 2001)])
    real_vals = []
    for w in omegas:
        jet = model.jet(w)
        real_vals.append(w ** 2 * np.einsum('mn,mn->', f0, jet.value.imag)
                         / (w - w0))
    assert tv(np.real(kappa_vals)) < 0.05 * tv(np.real(real_vals))


# ---------------------------------------------------------------------------
# dispersion-consistency residuals


def test_kk_residual_small_for_causal_samples():
    ws = np.linspace(1e-4, 40.0, 200001)
    vals = 1.0 / (1.0 - ws ** 2 - 0.3j * ws)
    resid = kk_residual(ws, vals, [0.7, 1.0, 1.5])
    assert np.max(np.abs(resid)) < 1e-4


def test_kk_residual_flags_broken_causality():
    ws = np.linspace(1e-4, 40.0, 200001)
    vals = 1.0 / (1.0 - ws ** 2 - 0.3j * ws)
    broken = 2.0 * vals.real + 1j * vals.imag
    resid = kk_residual(ws, broken, [1.5])
    # the doubled real part leaves a residual of the size of Re v itself
    assert abs(resid[0]) > 0.5


def test_kk_residual_coverage_guard():
    ws = np.linspace(0.5, 2.0, 64)
    vals = 1.0 / (1.0 - ws ** 2 - 0.3j * ws)
    with pytest.raises(QuadratureError, match="coverage"):
        kk_residual(ws, vals, [0.5])
    with pytest.raises(QuadratureError):
        kk_residual(ws[:4], vals[:4], [1.0])


def test_lorentzian_model_validation():
    with pytest.raises(ModelDomainError):
        lorentzian_model([({"value": np.eye(3)}, -1.0, 0.1)])
    with pytest.raises(ModelDomainError):
        lorentzian_model([({"bogus": np.eye(3)}, 1.0, 0.1)])
    with pytest.raises(ModelDomainError):
        lorentzian_model([({"value": np.eye(4)}, 1.0, 0.1)])
