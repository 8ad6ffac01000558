"""Rates and couplings: closed-form cross-oracles, spectral-integral level
shifts, Hermiticity, and free-space anchors."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from polyemit.constants import C0, EPS0, HBAR
from polyemit.emitter import (MultipoleEmitter, moment_product_bundle,
                              moment_product_stack)
from polyemit.errors import (InputError, MissingDerivativeError,
                             ModelDomainError)
from polyemit.grid import TensorGrid
from polyemit.homogeneous import (Medium, coincident_im_jet,
                                  eval_homogeneous_jet, pair_terms)
from polyemit.jets import GreensJet
from polyemit.quadrature import (homogeneous_pair_model, imaginary_axis_form,
                                 laurent_pairs_model, lorentzian_model)
from polyemit.rates import (build_ensemble, collective_rate,
                            coupling_strength, emission_rate, enhancement_map,
                            free_space_rates, lamb_shift)

from oracles import far_field_rate, pv_spectral_form

W0 = 2.4e15


def random_emitter(rng, pos=(0, 0, 0), omega0=W0, channels="dmq",
                   symmetric_traceless_q=True):
    d = np.zeros(3, complex)
    m = np.zeros(3, complex)
    Q = np.zeros((3, 3), complex)
    if "d" in channels:
        d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
    if "m" in channels:
        m = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-23
    if "q" in channels:
        Q = (rng.standard_normal((3, 3))
             + 1j * rng.standard_normal((3, 3))) * 1e-39
        if symmetric_traceless_q:
            Q = 0.5 * (Q + Q.T)
            Q -= np.trace(Q) / 3.0 * np.eye(3)
    return MultipoleEmitter(position=pos, omega0=omega0, d=d, m=m, Q=Q)


def reciprocal_blocks(rng, scale):
    """Random resonance amplitudes obeying source-observer reciprocity, so
    that self spectral densities are real."""
    v = rng.standard_normal((3, 3)) * scale
    v = 0.5 * (v + v.T)
    dob = rng.standard_normal((3, 3, 3)) * scale * 5
    dsr = np.transpose(dob, (1, 0, 2)).copy()
    dm = rng.standard_normal((3, 3, 3, 3)) * scale * 25
    dm = 0.5 * (dm + np.transpose(dm, (1, 0, 3, 2)))
    return {"value": v, "d_obs": dob, "d_src": dsr, "d_mixed": dm}


# ---------------------------------------------------------------------------
# emission rate and free-space closed forms


def test_weisskopf_wigner_frozen_oracle():
    # literal SI/CODATA-2022 constants, typed independently of the package
    # (h, e, c are exact by definition; a0 and eps0 are measured)
    hbar = 6.62607015e-34 / (2 * math.pi)
    e_charge = 1.602176634e-19
    a0 = 5.29177210544e-11
    eps0 = 8.8541878188e-12
    c = 2.99792458e8
    w0 = 2 * math.pi * 384e12
    d_mag = e_charge * a0
    oracle = w0 ** 3 * d_mag ** 2 / (3 * math.pi * hbar * eps0 * c ** 3)
    assert abs(oracle - 4257926.9227325665) < 1e-3  # frozen value

    em = MultipoleEmitter(position=[0, 0, 0], omega0=w0,
                          d=[0, 0, d_mag])
    rep = emission_rate(em, coincident_im_jet(w0, Medium(1.0)))
    assert abs(rep.gamma_total - oracle) < 1e-10 * oracle


def test_machinery_matches_closed_forms(rng):
    for n in (1.0, 1.5, 2.3):
        med = Medium(n)
        e = random_emitter(rng)
        jet = coincident_im_jet(W0, med)
        rep = emission_rate(e, jet)
        g_ed, g_md, g_eq = free_space_rates(e, n, W0)
        closed = g_ed + g_md + g_eq
        assert abs(rep.gamma_total - closed) < 1e-10 * closed
        cross = sum(abs(v) for (ca, cb), v in
                    rep.gamma_by_channel_pair.items() if ca != cb)
        assert cross < 1e-12 * rep.gamma_total
        assert abs(rep.gamma_by_channel_pair[("ED", "ED")] - g_ed) < 1e-10 * closed
        assert abs(rep.gamma_by_channel_pair[("MD", "MD")] - g_md) < 1e-10 * closed
        assert abs(rep.gamma_by_channel_pair[("EQ", "EQ")] - g_eq) < 1e-10 * closed


def test_refractive_index_scaling(rng):
    e = random_emitter(rng)
    g1 = free_space_rates(e, 1.0, W0)
    g2 = free_space_rates(e, 2.0, W0)
    assert abs(g2[0] / g1[0] - 2.0) < 1e-12
    assert abs(g2[1] / g1[1] - 8.0) < 1e-12
    assert abs(g2[2] / g1[2] - 8.0) < 1e-12


def test_free_space_rates_validation(rng):
    e = random_emitter(rng)
    with pytest.raises(InputError):
        free_space_rates(e, 0.5, W0)
    with pytest.raises(InputError):
        free_space_rates(e, 1.0, -W0)
    e_d = random_emitter(rng, channels="d")
    g_ed, g_md, g_eq = free_space_rates(e_d, 1.0, W0)
    assert g_ed > 0 and g_md == 0 and g_eq == 0


def test_free_space_rates_refuse_q_outside_the_closed_form():
    # the EQ closed form holds for a symmetric traceless Q; a trace or an
    # antisymmetric part above 1e-12 of max|Q| is sent to emission_rate
    def emitter(Q):
        return MultipoleEmitter(position=np.zeros(3), omega0=W0,
                                Q=np.asarray(Q, dtype=complex) * 1e-39)

    traceless = np.diag([1.0, -0.5, -0.5])

    def skewed(x):
        # antisymmetric part x/2 in the (0, 1) and (1, 0) entries
        Q = traceless.copy()
        Q[0, 1] = x
        return Q

    for Q in (np.eye(3), np.diag([1.0, 0.0, 0.0]),
              [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
              traceless + np.diag([0.0, 0.0, 2e-12]), skewed(3e-12)):
        with pytest.raises(InputError,
                           match="emission_rate on coincident_im_jet"):
            free_space_rates(emitter(Q), 1.0, W0)
    # within the bound: a trace of 5e-13, an antisymmetric part of 7.5e-13
    for Q in (traceless + np.diag([0.0, 0.0, 5e-13]), skewed(1.5e-12)):
        g_eq = free_space_rates(emitter(Q), 1.0, W0)[2]
        rep = emission_rate(emitter(Q), coincident_im_jet(W0))
        assert abs(g_eq - rep.gamma_total) < 1e-11 * g_eq


def test_inert_emitter_zero_rate():
    e = MultipoleEmitter(position=[0, 0, 0], omega0=W0)
    rep = emission_rate(e, coincident_im_jet(W0, Medium(1.0)))
    assert rep.gamma_total == 0.0


def test_emission_rate_channel_masking(rng):
    # a channel is left out by zeroing its moment
    e = random_emitter(rng)
    jet = coincident_im_jet(W0, Medium(1.0))
    rep = emission_rate(dataclasses.replace(e, m=np.zeros(3),
                                            Q=np.zeros((3, 3))), jet)
    g_ed, _, _ = free_space_rates(e, 1.0, W0)
    assert abs(rep.gamma_total - g_ed) < 1e-10 * g_ed
    assert rep.gamma_by_channel_pair[("MD", "MD")] == 0.0


def test_emission_rate_missing_blocks(rng):
    e = random_emitter(rng, channels="m")
    jet = coincident_im_jet(W0, Medium(1.0))
    stripped = GreensJet(value=jet.value, part="imag")
    with pytest.raises(MissingDerivativeError):
        emission_rate(e, stripped)


def test_emission_rate_rejects_unphysical_jet(rng):
    e = random_emitter(rng, channels="d")
    good = coincident_im_jet(W0, Medium(1.0))
    flipped = GreensJet(value=-good.value, d_obs=good.d_obs,
                        d_src=good.d_src, d_mixed=good.d_mixed, part="imag")
    with pytest.raises(InputError, match="positivity|negative"):
        emission_rate(e, flipped)


def test_emission_rate_on_stacked_jet_equals_each_entry(rng):
    # one rate path for every batch shape: a (2, 3) stack of jets gives
    # per-entry lists equal bit for bit to the single-point rates
    e = random_emitter(rng)
    jets = [coincident_im_jet(W0, Medium(n))
            for n in (1.0, 1.2, 1.5, 2.0, 2.3, 3.1)]
    stacked = GreensJet(
        **{name: np.stack([j.blocks[name] for j in jets]).reshape(
            (2, 3) + jets[0].blocks[name].shape)
           for name in jets[0].blocks}, part="imag")
    rep = emission_rate(e, stacked)
    assert np.shape(rep.gamma_total) == (2, 3)
    for i, jet in enumerate(jets):
        ref = emission_rate(e, jet)
        assert isinstance(ref.gamma_total, float)
        assert rep.gamma_total[i // 3][i % 3] == ref.gamma_total
        for pair, v in ref.gamma_by_channel_pair.items():
            assert rep.gamma_by_channel_pair[pair][i // 3][i % 3] == v


def test_emission_rate_total_is_the_collective_rate_bit_for_bit(rng):
    # one decay-rate formula: the total is collective_rate of the emitter
    # with itself, clamped at zero, for a single jet and a grid's batch
    e = random_emitter(rng)
    jet = coincident_im_jet(W0, Medium(1.3))
    ref = collective_rate(e, e, jet, omega_bar=e.omega0).gamma_cross
    assert emission_rate(e, jet).gamma_total == max(ref.real, 0.0)
    nodes = kernel_grid(rng).node_jet()
    ref = collective_rate(e, e, nodes, omega_bar=e.omega0).gamma_cross
    assert emission_rate(e, nodes).gamma_total == \
        np.maximum(ref.real, 0.0).tolist()


def test_rate_report_serialization(rng):
    e = random_emitter(rng, channels="d")
    rep = emission_rate(e, coincident_im_jet(W0, Medium(1.0)))
    d = rep.to_dict()
    assert d["gamma_total"]["unit"] == "1/s"
    assert "ED-ED" in d["gamma_by_channel_pair"]


def test_scaling_covariance(rng):
    lam = 1.9
    e = random_emitter(rng)
    scaled = MultipoleEmitter(position=e.position, omega0=e.omega0,
                              d=lam * e.d, m=lam * e.m, Q=lam * e.Q)
    jet = coincident_im_jet(W0, Medium(1.4))
    r1 = emission_rate(e, jet)
    r2 = emission_rate(scaled, jet)
    for key, v in r1.gamma_by_channel_pair.items():
        assert abs(r2.gamma_by_channel_pair[key] - lam ** 2 * v) \
            <= 1e-12 * max(abs(lam ** 2 * v), r2.gamma_total)


# ---------------------------------------------------------------------------
# level shift


def test_lamb_shift_zero_model(rng):
    zero = lorentzian_model([({"value": np.zeros((3, 3))}, W0, 0.05 * W0)])
    e = random_emitter(rng, channels="d")
    assert lamb_shift(e, zero) == 0.0
    inert = MultipoleEmitter(position=[0, 0, 0], omega0=W0)
    any_model = lorentzian_model([({"value": np.eye(3)}, W0, 0.05 * W0)])
    assert lamb_shift(inert, any_model) == 0.0


def test_lamb_shift_methods_agree(rng):
    model = lorentzian_model([
        (reciprocal_blocks(rng, 1e5), 1.2 * W0, 0.04 * W0),
        (reciprocal_blocks(rng, 4e4), 2.1 * W0, 0.08 * W0),
    ])
    e = random_emitter(rng)
    bundle = moment_product_bundle(e, e)
    d_pv = -pv_spectral_form(model, bundle, W0).value.real
    d_ia = -imaginary_axis_form(model, bundle, W0).value.real
    assert abs(d_pv - d_ia) < 5e-6 * abs(d_pv)
    # lamb_shift is the imaginary-axis form
    assert lamb_shift(e, model) == d_ia


def test_lamb_shift_is_the_self_coupling_bit_for_bit(rng):
    # one shift formula: lamb_shift is coupling_strength of the emitter
    # with itself at its own frequency
    model = lorentzian_model([
        (reciprocal_blocks(rng, 1e5), 1.2 * W0, 0.04 * W0)])
    e = random_emitter(rng)
    xi = coupling_strength(e, e, model, omega_bar=e.omega0).xi
    assert lamb_shift(e, model) == xi.real


def test_lamb_shift_sign_and_dense_grid_oracle(rng):
    # a resonance above the transition pulls the level down; oracle is a
    # dense-trapezoid principal value with the singularity subtracted
    wr, eta, amp = 1.3 * W0, 0.05 * W0, 1e5
    model = lorentzian_model([({"value": amp * np.eye(3)}, wr, eta)])
    e = random_emitter(rng, channels="d")
    delta = lamb_shift(e, model)
    assert delta < 0

    bundle = moment_product_bundle(e, e)
    f0 = bundle.f0["value"]

    ws = np.linspace(1e-4 * W0, 200 * W0, 4_000_001)
    im_g = amp * eta * ws / ((wr ** 2 - ws ** 2) ** 2 + (eta * ws) ** 2)
    g = ws ** 2 * np.einsum('mn,mn->', f0, np.eye(3)).real * im_g
    g0 = float(np.interp(W0, ws, g))
    integrand = (g - g0) / (ws - W0)
    ipole = int(np.searchsorted(ws, W0))
    integrand[ipole] = 0.0  # removable point, value irrelevant at h scale
    pv = float(np.trapezoid(integrand, ws))
    pv += g0 * math.log((ws[-1] - W0) / (W0 - ws[0]))
    # analytic 1/w tail beyond the grid
    coeff = amp * eta * np.einsum('mn,mn->', f0, np.eye(3)).real
    pv += coeff / ws[-1]
    oracle = -pv
    assert abs(delta - oracle) < 1e-3 * abs(oracle)


def test_lamb_shift_requires_scattered_model(rng):
    med = Medium(1.0)
    model = homogeneous_pair_model(med, np.zeros(3),
                                   np.array([0, 0, 100e-9]))
    with pytest.raises(ModelDomainError, match="scattered"):
        lamb_shift(random_emitter(rng, channels="d"), model)


# ---------------------------------------------------------------------------
# pairwise couplings


def ed_pair(sep, d_vec=(1e-29, 0, 0), omega0=W0):
    pa = np.zeros(3)
    pb = np.array([0.0, 0.0, sep])
    a = MultipoleEmitter(position=pa, omega0=omega0, d=np.asarray(d_vec))
    b = MultipoleEmitter(position=pb, omega0=omega0, d=np.asarray(d_vec))
    return a, b


def test_coupling_free_space_textbook_anchor():
    # coherent coupling equals -pi wbar^2 ReF . Re G at the pair, up to the
    # off-resonant remainder that falls off as (kR)^-3
    med = Medium(1.0)
    k = W0 / C0
    sep = 8.0 / k
    a, b = ed_pair(sep)
    model = homogeneous_pair_model(med, a.position, b.position)
    rep = coupling_strength(a, b, model)
    bundle = moment_product_bundle(a, b)
    jet = eval_homogeneous_jet(a.position, b.position, W0, med)
    anchor = -math.pi * W0 ** 2 * np.einsum(
        'mn,mn->', bundle.f0["value"].real, jet.value.real)
    assert abs(rep.xi - anchor) < 0.05 * abs(anchor)
    assert rep.method == "imaginary-axis"


def test_coupling_near_zone_half_static():
    # perpendicular parallel dipoles, k R = 1e-3: the rotating-frame
    # coupling approaches half the electrostatic dipole-dipole shift
    med = Medium(1.0)
    k = W0 / C0
    sep = 1e-3 / k
    a, b = ed_pair(sep)
    model = homogeneous_pair_model(med, a.position, b.position)
    rep = coupling_strength(a, b, model)
    static_half = 0.5 * 1e-58 / (4 * math.pi * EPS0 * HBAR * sep ** 3)
    assert abs(rep.xi.real / static_half - 1.0) < 0.01


@pytest.mark.parametrize("kR", [1e-3, 2e-3])
def test_magnetic_coupling_near_zone_half_static(kR):
    # the magnetostatic analogue: parallel magnetic dipoles perpendicular
    # to their separation approach half the magnetostatic dipole-dipole
    # shift mu0 m^2 / (4 pi hbar R^3) (n = 1 at kR = 2e-3 was refused by
    # the adaptive route)
    sep = kR * C0 / W0
    m = np.array([1e-23, 0.0, 0.0])
    a = MultipoleEmitter(position=np.zeros(3), omega0=W0, m=m)
    b = MultipoleEmitter(position=np.array([0.0, 0.0, sep]), omega0=W0, m=m)
    model = homogeneous_pair_model(Medium(1.0), a.position, b.position)
    rep = coupling_strength(a, b, model)
    static_half = 0.5 * 1e-46 / (4 * math.pi * EPS0 * C0 ** 2 * HBAR
                                 * sep ** 3)
    assert abs(rep.xi.real / static_half - 1.0) < 0.01


def test_coupling_near_zone_exponent():
    med = Medium(1.0)
    k = W0 / C0
    seps = np.array([1e-3, 3e-3, 1e-2]) / k
    vals = []
    for sep in seps:
        a, b = ed_pair(sep)
        model = homogeneous_pair_model(med, a.position, b.position)
        vals.append(abs(coupling_strength(a, b, model).xi))
    slope = np.polyfit(np.log(seps), np.log(vals), 1)[0]
    assert abs(slope + 3.0) < 0.05


def test_magnetic_pair_coupling_matches_dual_electric_pair(rng):
    # electromagnetic duality in vacuum: magnetic dipoles m couple exactly
    # like electric dipoles d = m/c, at every separation
    med = Medium(1.0)
    lam = 2 * math.pi * C0 / W0
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    ma = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-23
    mb = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-23
    for frac in (0.01, 0.03, 0.1, 0.3, 1.0, 2.0):
        pb = frac * lam * u
        values = []
        for kw_a, kw_b in (({"m": ma}, {"m": mb}),
                           ({"d": ma / C0}, {"d": mb / C0})):
            a = MultipoleEmitter(position=np.zeros(3), omega0=W0, **kw_a)
            b = MultipoleEmitter(position=pb, omega0=W0, **kw_b)
            model = homogeneous_pair_model(med, a.position, b.position)
            jet = eval_homogeneous_jet(a.position, b.position, W0, med)
            values.append((coupling_strength(a, b, model).xi,
                           collective_rate(a, b, jet).gamma_cross))
        (xi_md, g_md), (xi_ed, g_ed) = values
        assert abs(xi_md - xi_ed) < 1e-8 * abs(xi_ed)
        assert abs(g_md - g_ed) < 1e-8 * abs(g_ed)


MD_PAIRINGS = ("m", "dm", "mq", "dmq")


@pytest.mark.parametrize("channels", MD_PAIRINGS)
def test_md_coupling_is_invariant_under_rigid_motion(channels):
    # rotate and translate a pair as a whole (d and m turn as vectors, Q
    # as a tensor): xi of MD-bearing pairs, which the adaptive route moved
    # by up to 3.1e-9 relative, holds to 1e-12
    rng = np.random.default_rng(MD_PAIRINGS.index(channels))
    lam = 2 * math.pi * C0 / W0
    for n in (1.0, 1.5):
        for _ in range(3):
            sep = lam / (2 * math.pi) * 10 ** rng.uniform(-2, 1)
            u = rng.standard_normal(3)
            a = random_emitter(rng, channels=channels)
            b = random_emitter(rng, pos=sep * u / np.linalg.norm(u),
                               channels=channels)
            q, r = np.linalg.qr(rng.standard_normal((3, 3)))
            rot = q * np.sign(np.diag(r))
            rot *= np.linalg.det(rot)
            shift = rng.uniform(-1e-6, 1e-6, size=3)

            def moved(e):
                return MultipoleEmitter(position=rot @ e.position + shift,
                                        omega0=e.omega0, d=rot @ e.d,
                                        m=rot @ e.m, Q=rot @ e.Q @ rot.T)

            xi = [coupling_strength(x, y, homogeneous_pair_model(
                Medium(n), x.position, y.position)).xi
                for x, y in ((a, b), (moved(a), moved(b)))]
            assert abs(xi[1] - xi[0]) <= 1e-12 * abs(xi[0])


def test_coupling_inert_and_frequency_guard(rng):
    med = Medium(1.0)
    a, b = ed_pair(100e-9)
    inert = MultipoleEmitter(position=b.position, omega0=W0)
    model = homogeneous_pair_model(med, a.position, b.position)
    rep = coupling_strength(a, inert, model)
    assert rep.xi == 0
    detuned = MultipoleEmitter(position=b.position, omega0=1.05 * W0,
                               d=b.d)
    with pytest.raises(InputError, match="deviate from the reference"):
        coupling_strength(a, detuned, model)


def test_real_axis_coupling_zero_by_symmetry_stops_at_roundoff():
    # ED dipoles along two eigenvectors of a rotated resonance amplitude:
    # the coupling vanishes by symmetry and the real-axis numerator is pure
    # roundoff, which only the absolute floor lets the integral stop at
    w = 2.4e15
    for seed in range(4):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        amplitude = q @ np.diag([1.0, 1.0, 2.0]) @ q.T * 1e5
        model = lorentzian_model([({"value": amplitude}, 1.1 * w,
                                   0.05 * w)])
        a = MultipoleEmitter(position=np.zeros(3), omega0=w,
                             d=q[:, 0] * 1e-29)
        b = MultipoleEmitter(position=np.array([100e-9, 0.0, 0.0]),
                             omega0=w, d=q[:, 2] * 1e-29)
        scale = abs(pv_spectral_form(
            model, moment_product_bundle(a, dataclasses.replace(b, d=a.d)),
            w).value)
        bundle = moment_product_bundle(a, b)
        pv = -pv_spectral_form(model, bundle, w).value
        ia = -imaginary_axis_form(model, bundle, w).value
        assert abs(pv) <= 1e-13 * scale
        # the floor: roundoff on the uncancelled resonant contraction
        p0 = w ** 2 * moment_product_bundle(a, b).at(w)["value"]
        im_g = model.jet(w).imag_part().value
        floor = 1e-14 * math.pi * np.sum(np.abs(p0) * np.abs(im_g))
        assert abs(pv - ia) <= floor
        # a callable environment stops at roundoff in build_ensemble too
        ens = build_ensemble([a, b], lambda x, y: model)
        assert abs(ens.xi[0, 1]) <= 1e-13 * scale


def test_explicit_mean_frequency_must_be_near_both_emitters():
    # the reference-frequency rule of build_ensemble holds for an explicit
    # omega_bar too, instead of evaluating the pair far off resonance
    a, b = ed_pair(100e-9)
    model = homogeneous_pair_model(Medium(1.0), a.position, b.position)
    with pytest.raises(InputError, match="deviate from the reference"):
        coupling_strength(a, b, model, omega_bar=1.5 * W0)
    with pytest.raises(InputError, match="deviate from the reference"):
        collective_rate(a, b, model, omega_bar=1.5 * W0)


def test_pair_frequency_rule_is_the_reference_rule():
    # each emitter within freq_ratio_tol of the mean, as for an ensemble:
    # 2.38e15 and 2.42e15 rad/s lie 0.83 % from their mean
    med = Medium(1.0)
    for w_a, w_b, ok in ((2.38e15, 2.42e15, True),
                         (2.4e15 * 0.988, 2.4e15 * 1.012, False)):
        a, b = ed_pair(100e-9)
        a = dataclasses.replace(a, omega0=w_a)
        b = dataclasses.replace(b, omega0=w_b)
        model = homogeneous_pair_model(med, a.position, b.position)
        if ok:
            assert coupling_strength(a, b, model).xi != 0
            assert collective_rate(a, b, model).gamma_cross != 0
            continue
        with pytest.raises(InputError, match="deviate from the reference"):
            coupling_strength(a, b, model)
        with pytest.raises(InputError, match="deviate from the reference"):
            collective_rate(a, b, model)


def test_spectral_route_follows_the_model_declaration(rng):
    # one route: lamb_shift and coupling_strength are the imaginary-axis
    # form, and the report names it
    model = lorentzian_model([(reciprocal_blocks(rng, 1e5), 1.2 * W0,
                               0.04 * W0)])
    a = random_emitter(rng)
    b = random_emitter(rng, pos=(0, 0, 50e-9))
    shift = -imaginary_axis_form(model, moment_product_bundle(a, a),
                                 W0).value.real
    assert lamb_shift(a, model) == shift
    xi = -imaginary_axis_form(model, moment_product_bundle(a, b), W0).value
    rep = coupling_strength(a, b, model)
    assert rep.xi == xi and rep.method == "imaginary-axis"


def transpose_reciprocal(blocks):
    """Blocks of the swapped point pair implied by reciprocity
    G_mn(r, r') = G_nm(r', r)."""
    return {"value": blocks["value"].T,
            "d_obs": np.transpose(blocks["d_src"], (1, 0, 2)),
            "d_src": np.transpose(blocks["d_obs"], (1, 0, 2)),
            "d_mixed": np.transpose(blocks["d_mixed"], (1, 0, 3, 2))}


def test_pair_hermiticity(rng):
    med = Medium(1.3)
    pa = np.zeros(3)
    pb = np.array([40e-9, -25e-9, 60e-9])
    ea = random_emitter(rng, pos=pa)
    eb = random_emitter(rng, pos=pb)

    # collective rates: jets only, all channels
    g_ab = collective_rate(ea, eb, homogeneous_pair_model(med, pa, pb)
                           ).gamma_cross
    g_ba = collective_rate(eb, ea, homogeneous_pair_model(med, pb, pa)
                           ).gamma_cross
    assert abs(g_ab - np.conj(g_ba)) < 1e-10 * abs(g_ab)

    # coherent coupling, all channels, on a resonance model pair related
    # by reciprocity
    blocks = {"value": rng.standard_normal((3, 3)) * 1e5,
              "d_obs": rng.standard_normal((3, 3, 3)) * 5e5,
              "d_src": rng.standard_normal((3, 3, 3)) * 5e5,
              "d_mixed": rng.standard_normal((3, 3, 3, 3)) * 25e5}
    m_ab = lorentzian_model([(blocks, 1.2 * W0, 0.05 * W0)])
    m_ba = lorentzian_model([(transpose_reciprocal(blocks),
                              1.2 * W0, 0.05 * W0)])
    x_ab = coupling_strength(ea, eb, m_ab).xi
    x_ba = coupling_strength(eb, ea, m_ba).xi
    assert abs(x_ab - np.conj(x_ba)) < 1e-8 * abs(x_ab)

    # coherent coupling through the uniform medium: the 1/w^2 MD-MD weight
    # passes the static-pole guard, since the two curls annihilate the
    # electrostatic pole's gradient field
    for channels in ("dq", "dmq"):
        ea2 = random_emitter(rng, pos=pa, channels=channels)
        eb2 = random_emitter(rng, pos=pb, channels=channels)
        x2_ab = coupling_strength(ea2, eb2,
                                  homogeneous_pair_model(med, pa, pb)).xi
        x2_ba = coupling_strength(eb2, ea2,
                                  homogeneous_pair_model(med, pb, pa)).xi
        assert abs(x2_ab - np.conj(x2_ba)) < 1e-7 * abs(x2_ab)


def test_coupling_scaling_covariance(rng):
    med = Medium(1.0)
    lam = 2.3
    pa, pb = np.zeros(3), np.array([0, 0, 80e-9])
    ea = random_emitter(rng, pos=pa)
    eb = random_emitter(rng, pos=pb)
    sa = MultipoleEmitter(position=pa, omega0=ea.omega0, d=lam * ea.d,
                          m=lam * ea.m, Q=lam * ea.Q)
    sb = MultipoleEmitter(position=pb, omega0=eb.omega0, d=lam * eb.d,
                          m=lam * eb.m, Q=lam * eb.Q)
    jet = eval_homogeneous_jet(pa, pb, W0, med)
    g1 = collective_rate(ea, eb, jet).gamma_cross
    g2 = collective_rate(sa, sb, jet).gamma_cross
    assert abs(g2 - lam ** 2 * g1) < 1e-12 * abs(g2)


def test_collective_rate_self_reduces_to_emission(rng):
    e = random_emitter(rng)
    jet = coincident_im_jet(W0, Medium(1.6))
    rep = emission_rate(e, jet)
    cr = collective_rate(e, e, jet)
    assert abs(cr.gamma_cross.real - rep.gamma_total) \
        < 1e-12 * rep.gamma_total


def test_collective_rate_colocated_identical(rng):
    # two identical emitters at the same point: the cross rate equals the
    # single-emitter rate (zero-separation limit of the two-point jet)
    e1 = random_emitter(rng)
    e2 = MultipoleEmitter(position=e1.position, omega0=e1.omega0,
                          d=e1.d, m=e1.m, Q=e1.Q)
    jet = coincident_im_jet(W0, Medium(1.0))
    g11 = emission_rate(e1, jet).gamma_total
    g12 = collective_rate(e1, e2, jet).gamma_cross
    assert abs(g12.real - g11) < 1e-12 * g11
    assert abs(g12.imag) < 1e-12 * g11


def test_collective_rate_inert(rng):
    e = random_emitter(rng)
    inert = MultipoleEmitter(position=[0, 0, 0], omega0=W0)
    jet = coincident_im_jet(W0, Medium(1.0))
    assert collective_rate(e, inert, jet).gamma_cross == 0


FAR_FIELD_CHANNELS = {"ED": "d", "MD": "m", "EQ": "q", "ED+MD+EQ": "dmq"}


@pytest.mark.parametrize("index", [1.0, 1.5])
@pytest.mark.parametrize("bra, ket",
                         list(itertools.product(FAR_FIELD_CHANNELS, repeat=2)))
def test_collective_rate_is_the_far_field_integral(bra, ket, index):
    # ROADMAP item 14, step 1: gamma_ab against the sphere integral of the
    # two far-field amplitudes (oracles.far_field_rate), which evaluates no
    # Green jet, from 5 nm to 1.5 um (kR from 0.04 to 18) in seeded
    # orientations; the bound was fixed before the first run
    names = list(FAR_FIELD_CHANNELS)
    rng = np.random.default_rng([names.index(bra), names.index(ket),
                                 int(10 * index)])
    med = Medium(index)
    for sep in (5e-9, 100e-9, 1.5e-6):
        u = rng.standard_normal(3)
        a = random_emitter(rng, channels=FAR_FIELD_CHANNELS[bra])
        b = random_emitter(rng, pos=sep * u / np.linalg.norm(u),
                           channels=FAR_FIELD_CHANNELS[ket])
        got = collective_rate(a, b, homogeneous_pair_model(
            med, a.position, b.position)).gamma_cross
        gaa, gbb = (emission_rate(e, coincident_im_jet(W0, med)).gamma_total
                    for e in (a, b))
        want = far_field_rate(a, b, index, W0)
        assert abs(got - want) <= 1e-12 * math.sqrt(gaa * gbb), (sep, got,
                                                                want)


# ---------------------------------------------------------------------------
# enhancement maps


class _StubGrid:
    """Grid double: coincident homogeneous jets at every node."""

    def __init__(self, frequency, n, points):
        self.frequency = frequency
        self._med = Medium(n)
        self._pts = points

    def node_points(self):
        return self._pts

    def node_jet(self):
        jet = coincident_im_jet(self.frequency, self._med)
        n = len(self._pts)

        def tile(blk):
            return None if blk is None else np.broadcast_to(
                blk, (n,) + blk.shape)

        return GreensJet(value=tile(jet.value), d_obs=tile(jet.d_obs),
                         d_src=tile(jet.d_src), d_mixed=tile(jet.d_mixed),
                         part="imag")


def test_enhancement_map_unity_and_index_scaling(rng):
    pts = [np.zeros(3), np.array([1e-8, 0, 0]), np.array([0, 2e-8, 0])]
    for channels, expected in (("d", 2.0), ("m", 8.0), ("q", 8.0)):
        e = random_emitter(rng, channels=channels)
        unity = enhancement_map(_StubGrid(W0, 1.0, pts), e)
        assert all(abs(v - 1.0) < 1e-10
                   for v in unity.normalization["enhancement_total"])
        doubled = enhancement_map(_StubGrid(W0, 2.0, pts), e)
        assert all(abs(v - expected) < 1e-10 * expected
                   for v in doubled.normalization["enhancement_total"])


def kernel_grid(rng, semantics="split", shape=(5, 4)):
    """Split grid whose node jets come from random positive semidefinite
    12 x 12 kernels over (ED index n; derivative pair (n, l)), so every
    node is a physical, non-uniform spectral density with nonzero
    cross-channel blocks."""
    nx, ny = shape
    k = W0 / C0
    scale = np.concatenate([np.ones(3), np.full(9, k)])
    a = rng.standard_normal((nx, ny, 1, 12, 12))
    K = (scale[:, None] * np.einsum('...ij,...kj->...ik', a, a)
         * scale[None, :] * 4e5 / 12)
    value = K[..., :3, :3]
    d_obs = K[..., 3:, :3].reshape(nx, ny, 1, 3, 3, 3).transpose(
        0, 1, 2, 3, 5, 4)          # [m, k, n] -> [m, n, k]
    d_src = K[..., :3, 3:].reshape(nx, ny, 1, 3, 3, 3)  # [m, n, l]
    d_mixed = K[..., 3:, 3:].reshape(nx, ny, 1, 3, 3, 3, 3).transpose(
        0, 1, 2, 3, 5, 4, 6)       # [m, k, n, l] -> [m, n, k, l]
    blocks = {"value": value}
    if semantics == "split":
        for i, a in enumerate("xyz"):
            blocks[f"d1_{a}"] = d_obs[..., i]
            blocks[f"d1_{a}_src"] = d_src[..., i]
            for j, b in enumerate("xyz"):
                blocks[f"d2_{a}{b}"] = d_mixed[..., i, j]
    return TensorGrid(frequency=W0, length_unit="m", value_unit_exponent=-1,
                      derivative_semantics=semantics,
                      axes=(np.arange(nx) * 1e-8, np.arange(ny) * 1e-8,
                            np.array([0.0])),
                      fixed_axes=(False, False, True), blocks=blocks)


def test_enhancement_map_matches_per_node_emission_rate(rng):
    g = kernel_grid(rng)
    e = random_emitter(rng)
    rep = enhancement_map(g, e)
    points = g.node_points()
    assert len(rep.gamma_total) == len(points)
    norm = rep.normalization
    gamma_fs = norm["gamma_fs"]["value"]
    cross = 0.0
    for i, point in enumerate(points):
        ref = emission_rate(e, g.jet_at(point))
        tol = 1e-14 * ref.gamma_total
        assert abs(rep.gamma_total[i] - ref.gamma_total) <= tol
        assert list(rep.gamma_by_channel_pair) == list(
            ref.gamma_by_channel_pair)
        for pair, v in ref.gamma_by_channel_pair.items():
            assert abs(rep.gamma_by_channel_pair[pair][i] - v) <= tol
            assert norm["enhancement_by_channel_pair"]["-".join(pair)][i] \
                == rep.gamma_by_channel_pair[pair][i] / gamma_fs
            if pair[0] != pair[1]:
                cross = max(cross, abs(v) / ref.gamma_total)
        assert norm["enhancement_total"][i] == rep.gamma_total[i] / gamma_fs
    # the kernels drive every cross-channel pair, not only the diagonal
    assert cross > 1e-3


def test_enhancement_map_rejects_one_unphysical_node(rng):
    g = kernel_grid(rng)
    blocks = {key: blk.copy() for key, blk in g.blocks.items()}
    for blk in blocks.values():
        blk[3, 2] *= -1.0
    bad = dataclasses.replace(g, blocks=blocks)
    e = random_emitter(rng)
    enhancement_map(g, e)
    with pytest.raises(InputError, match="negative"):
        enhancement_map(bad, e)


def test_enhancement_map_total_semantics_is_dipole_only(rng):
    g = kernel_grid(rng, semantics="total")
    rep = enhancement_map(g, random_emitter(rng, channels="d"))
    assert all(gamma > 0 for gamma in rep.gamma_total)
    with pytest.raises(MissingDerivativeError):
        enhancement_map(g, random_emitter(rng, channels="q"))


def test_enhancement_map_reference_is_the_vacuum_emission_rate():
    # gamma_fs comes from the one rate path, so a Q outside the closed
    # form's domain and the MD-EQ interference of i times an antisymmetric
    # Q with m along z both enter it
    pts = [np.zeros(3), np.array([1e-8, 0, 0])]
    antisym = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    e = MultipoleEmitter(position=np.zeros(3), omega0=W0,
                         d=np.array([1e-29, 0, 0]), m=np.array([0, 0, 1e-23]),
                         Q=(np.diag([1.0, 0.0, 0.0]) + 1j * antisym) * 1e-39)
    vacuum = emission_rate(e, coincident_im_jet(W0))
    assert vacuum.gamma_by_channel_pair[("MD", "EQ")] < 0
    norm = enhancement_map(_StubGrid(W0, 1.0, pts), e).normalization
    assert norm["gamma_fs"]["value"] == vacuum.gamma_total
    assert norm["gamma_fs_by_channel"] == {
        c: vacuum.gamma_by_channel_pair[(c, c)] for c in ("ED", "EQ", "MD")}
    assert norm["enhancement_total"] == [1.0, 1.0]


def test_enhancement_map_guards(rng):
    pts = [np.zeros(3)]
    e = random_emitter(rng)
    with pytest.raises(InputError, match="frequency"):
        enhancement_map(_StubGrid(1.01 * W0, 1.0, pts), e)
    inert = MultipoleEmitter(position=[0, 0, 0], omega0=W0)
    with pytest.raises(InputError, match="inert"):
        enhancement_map(_StubGrid(W0, 1.0, pts), inert)
    # a pure-trace quadrupole has no free-space rate to normalize to
    trace = MultipoleEmitter(position=[0, 0, 0], omega0=W0,
                             Q=np.eye(3) * 1e-39)
    with pytest.raises(InputError, match="does not radiate in free space"):
        enhancement_map(_StubGrid(W0, 1.0, pts), trace)


# ---------------------------------------------------------------------------
# ensemble assembly in a uniform medium: every pair in one pass

def ring(n, spacing=60e-9):
    """n identical ED+EQ emitters on a ring: z dipoles and the axial
    quadrupole Q = diag(-1/2, -1/2, 1), symmetric about the ring axis."""
    radius = spacing / (2.0 * math.sin(math.pi / n))
    angles = 2.0 * math.pi * np.arange(n) / n
    return [MultipoleEmitter(
                position=radius * np.array([math.cos(t), math.sin(t), 0.0]),
                omega0=W0, d=np.array([0.0, 0.0, 1e-29]),
                Q=1e-29 * C0 / W0 * np.diag([-0.5, -0.5, 1.0]))
            for t in angles]


def test_ring_coefficients_are_circulant_with_dft_eigenvalues():
    n = 50
    model = build_ensemble(ring(n), Medium(1.5))
    for mat in (model.gamma, model.xi):
        scale = np.max(np.abs(mat))
        shifted = np.array([np.roll(row, -i) for i, row in enumerate(mat)])
        assert np.max(np.abs(shifted - mat[0])) <= 1e-13 * scale
    # each Fourier vector is an eigenvector of xi - i gamma / 2, with the
    # DFT of the first row as its eigenvalue
    h = model.xi - 0.5j * model.gamma
    fourier = np.exp(2j * math.pi * np.outer(np.arange(n), np.arange(n)) / n)
    eigenvalues = fourier @ h[0]
    residual = h @ fourier - fourier * eigenvalues
    assert (np.max(np.linalg.norm(residual, axis=0)) / math.sqrt(n)
            <= 1e-12 * np.linalg.norm(h, 2))


SUBSETS = ("d", "m", "q", "dm", "dq", "mq", "dmq")


def sellmeier(w):
    # one Lorentz resonance at 2 W0: real on the real axis below it and on
    # the whole imaginary axis
    return np.sqrt(1.0 + 1.2 * (2.0 * W0) ** 2 / ((2.0 * W0) ** 2 - w * w)
                   + 0j)


@pytest.mark.parametrize("index", [1.0, 1.5, lambda w: 1.5, sellmeier])
def test_ensemble_entries_are_the_per_pair_formulas(rng, index):
    # random ensembles of 3 to 8 emitters over all seven channel subsets:
    # every entry a <= b is collective_rate or coupling_strength of its
    # pair, bit for bit, each entry b > a is its conjugate, and so the
    # pair formulas of (b, a) up to roundoff. A dispersive (callable)
    # index integrates each coupling alone, so 3 to 5 emitters, which
    # still cover every subset, are enough
    med = Medium(index)
    for size in range(3, 6 if callable(index) else 9):
        ems = [random_emitter(rng, rng.uniform(-200e-9, 200e-9, 3),
                              omega0=W0 * (1 + 1e-3 * rng.standard_normal()),
                              channels=SUBSETS[(size + i) % 7])
               for i in range(size)]
        model = build_ensemble(ems, med)
        wbar = model.omega_ref
        gamma, xi, gamma_ba, xi_ba = np.zeros((4, size, size), complex)
        jet0 = coincident_im_jet(wbar, med)
        for a, ea in enumerate(ems):
            gamma[a, a] = collective_rate(ea, ea, jet0, wbar).gamma_cross.real
            for b in range(a + 1, size):
                eb = ems[b]
                pm = homogeneous_pair_model(med, ea.position, eb.position)
                gamma[a, b] = collective_rate(ea, eb, pm, wbar).gamma_cross
                xi[a, b] = coupling_strength(ea, eb, pm, wbar).xi
                gamma[b, a], xi[b, a] = np.conj(gamma[a, b]), np.conj(xi[a, b])
                pm = homogeneous_pair_model(med, eb.position, ea.position)
                gamma_ba[b, a] = collective_rate(eb, ea, pm, wbar).gamma_cross
                xi_ba[b, a] = coupling_strength(eb, ea, pm, wbar).xi
        assert np.array_equal(model.gamma, gamma)
        assert np.array_equal(model.xi, xi)
        lower = np.tril_indices(size, -1)
        for got, want in ((model.gamma, gamma_ba), (model.xi, xi_ba)):
            assert (np.max(np.abs(got[lower] - want[lower]))
                    <= 1e-14 * np.max(np.abs(got)))


@pytest.mark.parametrize("channels", SUBSETS)
def test_a_stacked_pair_computes_as_the_pair_alone(rng, channels):
    # four emitters of one channel subset, each paired with emitters of
    # every subset, in glass: row p of the stacked bundle contracts like
    # the bundle of its pair alone, against the coincident jet and a
    # grid's node jets, and the Laurent sum of a chunk gives each pair's
    # coupling_strength, near (z < 5) and far (Gauss-Laguerre J_m) alike
    med = Medium(1.5)
    ems = [random_emitter(rng, rng.uniform(-400e-9, 400e-9, 3),
                          channels=c) for c in (channels,) * 4 + SUBSETS]
    bra, ket = (ix.ravel() for ix in np.indices((4, len(ems))))
    stack = moment_product_stack(ems, bra, ket)
    jet0 = coincident_im_jet(W0, med)
    diagonal = stack.spectral_density(jet0, W0)
    nodes = kernel_grid(rng).node_jet().imag_part().blocks
    rows = stack.at(W0)
    for p, (a, b) in enumerate(zip(bra, ket)):
        pair = moment_product_bundle(ems[a], ems[b])
        assert diagonal[p] == pair.spectral_density(jet0, W0)
        assert np.array_equal(
            stack.contract(nodes, {name: t[p] for name, t in rows.items()}),
            pair.contract(nodes, pair.at(W0)))

    a, b = bra[bra != ket], ket[bra != ket]
    positions = np.array([e.position for e in ems])
    _, laurent = pair_terms(positions[a] - positions[b], W0, med)
    z = laurent[0] * W0
    assert np.any(z < 5.0) and np.any(z >= 5.0)
    xi = -imaginary_axis_form(laurent_pairs_model(laurent),
                              moment_product_stack(ems, a, b), W0).value
    for p, (i, j) in enumerate(zip(a, b)):
        assert xi[p] == coupling_strength(
            ems[i], ems[j], homogeneous_pair_model(
                med, ems[i].position, ems[j].position), W0).xi


def test_chunked_assembly_equals_one_batch(rng, monkeypatch):
    import polyemit.rates
    ems = [random_emitter(rng, rng.uniform(-200e-9, 200e-9, 3),
                          channels=SUBSETS[i % 7]) for i in range(9)]
    ems.insert(4, MultipoleEmitter(position=[0, 0, 1e-6], omega0=W0))
    whole = build_ensemble(ems, Medium(1.5))
    monkeypatch.setattr(polyemit.rates, "_PAIR_CHUNK", 4)
    chunked = build_ensemble(ems, Medium(1.5))
    assert np.array_equal(whole.gamma, chunked.gamma)
    assert np.array_equal(whole.xi, chunked.xi)
    # the inert emitter keeps a zero row and column
    assert not np.any(chunked.gamma[4]) and not np.any(chunked.xi[:, 4])


def test_assembly_evaluates_one_geometry_and_no_complex_jet(rng,
                                                            monkeypatch):
    # up to _PAIR_CHUNK pairs share one geometry, whatever their number,
    # and no pair evaluates the complex closed forms
    import polyemit.homogeneous as homogeneous
    calls = {"_geometry": 0, "_radial": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(homogeneous, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(homogeneous, name, counted)
    for size in (2, 5, 12):
        for key in calls:
            calls[key] = 0
        ems = [random_emitter(rng, rng.uniform(-200e-9, 200e-9, 3))
               for _ in range(size)]
        build_ensemble(ems, Medium(1.5))
        assert calls == {"_geometry": 1, "_radial": 0}, size


def test_assembly_memory_does_not_grow_with_the_pair_count():
    # the pairs are assembled in chunks of a fixed size: four times the
    # pairs (40 -> 80 emitters) add only the n x n matrices
    peaks = []
    for n in (40, 80):
        ems = ring(n)
        tracemalloc.start()
        try:
            build_ensemble(ems, Medium(1.5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_underflowing_moment_products_leave_zero_entries():
    # moments whose products underflow to zero give zero entries, as an
    # inert pair does, rather than a failed sum
    tiny = [MultipoleEmitter(position=[0.0, 0.0, z], omega0=W0,
                             d=[1e-180, 0.0, 0.0]) for z in (0.0, 1e-7)]
    model = build_ensemble(tiny, Medium(1.5))
    assert not np.any(model.gamma) and not np.any(model.xi)
