"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line carrying the measured
numbers next to the tolerance it was held to; run with

    pytest tests/test_acceptance.py -v -s

to see the lines live (pytest shows them on failure either way).

The external-scatterer ordering test needs sampled Green-tensor data for
a real structure, which nothing in this package can synthesize; it is
skipped unless POLYEMIT_DIMER_GRID and POLYEMIT_DIMER_EMITTER point at
such files.
"""
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from polyemit.cli import main
from polyemit.dynamics import (EmitterEnsembleModel, evolve_ensemble,
                               product_density, pure_density)
from polyemit.emitter import MultipoleEmitter, moment_product_bundle
from polyemit.homogeneous import (Medium, coincident_im_jet, eval_homogeneous,
                                  eval_homogeneous_jet)
from polyemit.grid import grid_from_homogeneous
from polyemit.quadrature import (homogeneous_pair_model, imaginary_axis_form,
                                 lorentzian_model)
from polyemit.rates import (collective_rate, coupling_strength, emission_rate,
                            enhancement_map, free_space_rates)

from oracles import pv_spectral_form, small_R_series_im

C_LIGHT = 2.99792458e8
W0 = 2.4e15


def gate(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def random_moments(rng):
    """Random complex transition moments at laboratory scales; the
    quadrupole is drawn symmetric traceless (the multipole convention
    the closed forms are written in)."""
    d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-29
    m = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e-23
    Q = (rng.standard_normal((3, 3))
         + 1j * rng.standard_normal((3, 3))) * 1e-39
    Q = 0.5 * (Q + Q.T)
    Q -= np.trace(Q) / 3.0 * np.eye(3)
    return d, m, Q


def test_closure_of_channel_rates_for_random_emitters():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    worst_rel, worst_cross = 0.0, 0.0
    for _ in range(1000):
        n = rng.uniform(1.0, 3.0)
        w = 2.0 * math.pi * rng.uniform(100e12, 1000e12)
        d, m, Q = random_moments(rng)
        e = MultipoleEmitter(position=[0, 0, 0], omega0=w, d=d, m=m, Q=Q)
        rep = emission_rate(e, coincident_im_jet(w, Medium(n)))
        closed = sum(free_space_rates(e, n, w))
        worst_rel = max(worst_rel, abs(rep.gamma_total - closed) / closed)
        cross = sum(abs(v) for (ca, cb), v in
                    rep.gamma_by_channel_pair.items() if ca != cb)
        worst_cross = max(worst_cross, cross / rep.gamma_total)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and worst_cross <= 1e-12 and elapsed < 5.0
    gate("closure, 1000 random emitters", ok,
         f"general vs closed-form rel {worst_rel:.2e} (tol 1e-10), "
         f"cross-channel {worst_cross:.2e} of total (tol 1e-12), "
         f"{elapsed:.2f}s (limit 5s)")


def test_refractive_index_scaling_of_channel_rates():
    w = 2.0 * math.pi * 500e12
    pure = {
        "ED": MultipoleEmitter(position=[0, 0, 0], omega0=w,
                               d=[1e-29, 2e-30j, 0]),
        "MD": MultipoleEmitter(position=[0, 0, 0], omega0=w,
                               m=[0, 1e-23, 3e-24j]),
        "EQ": MultipoleEmitter(position=[0, 0, 0], omega0=w,
                               Q=[[1e-39, 2e-40, 0], [2e-40, -1e-39, 0],
                                  [0, 0, 0]]),
    }
    jets = {n: coincident_im_jet(w, Medium(n)) for n in (1.0, 2.0)}
    ratios = {c: (emission_rate(e, jets[2.0]).gamma_total
                  / emission_rate(e, jets[1.0]).gamma_total)
              for c, e in pure.items()}
    expected = {"ED": 2.0, "MD": 8.0, "EQ": 8.0}
    errs = {c: abs(ratios[c] - expected[c]) for c in ratios}
    ok = all(v <= 1e-12 for v in errs.values())
    gate("index scaling n=2 vs n=1", ok,
         "rate ratios ED {ED:.14f}, MD {MD:.14f}, EQ {EQ:.14f} "
         "vs 2/8/8 (tol 1e-12)".format(**ratios))


def test_small_separation_series_residual_is_quartic():
    w = W0
    k = w / C_LIGHT
    u = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    krs = np.geomspace(1e-3, 1e-1, 9)
    res = []
    for kr in krs:
        R = u * (kr / k)
        exact = eval_homogeneous(R, w).imag
        series = small_R_series_im(R, w)
        res.append(np.linalg.norm(exact - series))
    slope = float(np.polyfit(np.log(krs), np.log(res), 1)[0])
    ok = abs(slope - 4.0) <= 0.1
    gate("series residual order", ok,
         f"fitted exponent {slope:.4f} over k|R| in [1e-3, 1e-1] "
         f"(want 4.0 +- 0.1)")


def test_analytic_jets_match_central_differences():
    med = Medium(1.4)
    k = 1.4 * W0 / C_LIGHT
    R = np.array([1.0, -0.6, 0.8])
    R *= 1.1 / (k * np.linalg.norm(R))

    def fd_errors(h):
        jet = eval_homogeneous_jet(R, np.zeros(3), W0, med)
        worst = {"d_obs": 0.0, "d_src": 0.0, "d_mixed": 0.0}
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            gp = eval_homogeneous(R + e, W0, med)
            gm = eval_homogeneous(R - e, W0, med)
            fd = (gp - gm) / (2.0 * h)
            worst["d_obs"] = max(worst["d_obs"],
                                 np.max(np.abs(jet.d_obs[:, :, a] - fd)))
            worst["d_src"] = max(worst["d_src"],
                                 np.max(np.abs(jet.d_src[:, :, a] + fd)))
            jp = eval_homogeneous_jet(R + e, np.zeros(3), W0, med)
            jm = eval_homogeneous_jet(R - e, np.zeros(3), W0, med)
            fd1 = (jp.d_src - jm.d_src) / (2.0 * h)
            worst["d_mixed"] = max(
                worst["d_mixed"],
                np.max(np.abs(jet.d_mixed[:, :, a, :] - fd1)))
        scale = {b: np.max(np.abs(getattr(jet, b))) for b in worst}
        return {b: worst[b] / scale[b] for b in worst}

    length = float(np.linalg.norm(R))
    h1 = 1e-3 * length
    e1 = fd_errors(h1)
    e2 = fd_errors(0.5 * h1)
    orders = [math.log2(e1[b] / e2[b]) for b in e1]
    rel = max(fd_errors(1e-6 * length).values())
    ok = all(1.8 <= p <= 2.2 for p in orders) and rel < 1e-6
    gate("derivative blocks vs finite differences", ok,
         f"observed orders {[f'{p:.3f}' for p in orders]} "
         f"(want within [1.8, 2.2]); max rel {rel:.2e} at h=1e-6|R| "
         f"(tol 1e-6)")


def reciprocal_blocks(rng, scale):
    v = rng.standard_normal((3, 3)) * scale
    v = 0.5 * (v + v.T)
    dob = rng.standard_normal((3, 3, 3)) * scale * 5.0
    dsr = np.transpose(dob, (1, 0, 2)).copy()
    dm = rng.standard_normal((3, 3, 3, 3)) * scale * 25.0
    dm = 0.5 * (dm + np.transpose(dm, (1, 0, 3, 2)))
    return {"value": v, "d_obs": dob, "d_src": dsr, "d_mixed": dm}


def test_principal_value_equals_imaginary_axis():
    rng = np.random.default_rng(11)
    wr = 1.5e15
    models = {
        "single": lorentzian_model([(reciprocal_blocks(rng, 1e5),
                                     wr, 0.05 * wr)]),
        "double": lorentzian_model([(reciprocal_blocks(rng, 1e5),
                                     wr, 0.04 * wr),
                                    (reciprocal_blocks(rng, 4e4),
                                     1.7 * wr, 0.08 * wr)]),
    }
    t0 = time.perf_counter()
    worst = 0.0
    for model in models.values():
        for f in np.geomspace(0.5, 2.0, 5):
            w = f * wr
            d, m, Q = (x * 1.0 for x in random_moments(rng))
            a = MultipoleEmitter(position=[0, 0, 0], omega0=w, d=d, m=m, Q=Q)
            d2, m2, Q2 = random_moments(rng)
            b = MultipoleEmitter(position=[0, 0, 0], omega0=w,
                                 d=d2, m=m2, Q=Q2)
            # the two routes on the same bundles: the self bundle carries
            # the level shift, the pair bundle the coupling
            for bundle in (moment_product_bundle(a, a),
                           moment_product_bundle(a, b)):
                pv = pv_spectral_form(model, bundle, w).value
                ia = imaginary_axis_form(model, bundle, w).value
                worst = max(worst, abs(pv - ia) / abs(ia))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-6 and elapsed < 10.0
    gate("principal value vs imaginary axis", ok,
         f"shift and coupling, single+double resonance, w0 in "
         f"[0.5, 2]x resonance: worst rel {worst:.2e} (tol 5e-6), "
         f"{elapsed:.2f}s (limit 10s)")


def test_free_space_coupling_scales_as_inverse_cube():
    k = W0 / C_LIGHT
    krs = np.geomspace(1e-3, 1e-2, 6)
    xis = []
    for kr in krs:
        pa = np.zeros(3)
        pb = np.array([0.0, 0.0, kr / k])
        a = MultipoleEmitter(position=pa, omega0=W0, d=[1e-29, 0, 0])
        b = MultipoleEmitter(position=pb, omega0=W0, d=[1e-29, 0, 0])
        model = homogeneous_pair_model(Medium(1.0), pa, pb)
        xis.append(abs(coupling_strength(a, b, model).xi))
    slope = float(np.polyfit(np.log(krs), np.log(xis), 1)[0])
    ok = abs(slope + 3.0) <= 0.05
    gate("dipole-dipole coupling near zone", ok,
         f"|coupling| exponent {slope:.4f} over k|R| in [1e-3, 1e-2] "
         f"(want -3.0 +- 0.05)")


def test_collective_rate_limits():
    med = Medium(1.25)
    rng = np.random.default_rng(404)
    jet0 = coincident_im_jet(W0, med)

    # identical colocated emitters: cross rate falls back to the single rate
    d, m, Q = random_moments(rng)
    a = MultipoleEmitter(position=[0, 0, 0], omega0=W0, d=d, m=m, Q=Q)
    b = MultipoleEmitter(position=[0, 0, 0], omega0=W0, d=d, m=m, Q=Q)
    g_cross = collective_rate(a, b, jet0).gamma_cross
    g_self = emission_rate(a, jet0).gamma_total
    zero_sep_rel = abs(g_cross - g_self) / g_self

    # conjugate symmetry under emitter exchange
    worst_herm = 0.0
    for _ in range(100):
        pa = rng.uniform(-100e-9, 100e-9, 3)
        pb = pa + rng.uniform(20e-9, 200e-9) * _random_direction(rng)
        da, ma, Qa = random_moments(rng)
        db, mb, Qb = random_moments(rng)
        ea = MultipoleEmitter(position=pa, omega0=W0, d=da, m=ma, Q=Qa)
        eb = MultipoleEmitter(position=pb, omega0=W0, d=db, m=mb, Q=Qb)
        g_ab = collective_rate(ea, eb,
                               homogeneous_pair_model(med, pa, pb)).gamma_cross
        g_ba = collective_rate(eb, ea,
                               homogeneous_pair_model(med, pb, pa)).gamma_cross
        bound = math.sqrt(emission_rate(ea, jet0).gamma_total
                          * emission_rate(eb, jet0).gamma_total)
        worst_herm = max(worst_herm, abs(g_ab - np.conj(g_ba)) / bound)
    ok = zero_sep_rel <= 1e-8 and worst_herm <= 1e-12
    gate("collective rate limits", ok,
         f"zero-separation cross vs self rel {zero_sep_rel:.2e} (tol 1e-8); "
         f"exchange conjugacy over 100 random pairs {worst_herm:.2e} "
         f"(tol 1e-12)")


def _random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _brute_pair_states(gamma, rho0, times):
    """4x4 master-equation propagation by matrix exponential of the
    column-stacked superoperator; written without the package machinery."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    ops = [np.kron(sm, eye2), np.kron(eye2, sm)]
    lind = np.zeros((16, 16), dtype=complex)
    for a in range(2):
        for b in range(2):
            sa, sb = ops[a], ops[b]
            anti = sa.conj().T @ sb
            lind += gamma[a, b] * (np.kron(sa.conj(), sb)
                                   - 0.5 * np.kron(np.eye(4), anti)
                                   - 0.5 * np.kron(anti.T, np.eye(4)))
    v0 = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    return np.array([(scipy.linalg.expm(lind * t) @ v0).reshape((4, 4),
                                                                order="F")
                     for t in times])


def test_collective_decay_dynamics():
    # single emitter against the closed form
    g1 = 2e7
    times1 = np.linspace(0.0, 1.5e-7, 40)
    single = EmitterEnsembleModel(omega_ref=3e8, delta=[0.0],
                                  xi=[[0.0]], gamma=[[g1]])
    traj1 = evolve_ensemble(single, product_density("e"), times1)
    err_single = float(np.max(np.abs(
        traj1.sigma_z[:, 0] - (-1.0 + 2.0 * np.exp(-g1 * times1)))))

    # identical colocated pair: bright state at twice the single rate,
    # dark state frozen, both checked against the brute oracle
    g = 2.5e7
    gamma = np.full((2, 2), g)
    model = EmitterEnsembleModel(omega_ref=3e8, delta=[0.0, 0.0],
                                 xi=np.zeros((2, 2)), gamma=gamma)
    times = np.linspace(0.0, 1.2e-8, 25)
    span = times[-1] - times[0]

    def run(amplitudes):
        rho0 = pure_density(amplitudes)
        traj = evolve_ensemble(model, rho0, times)
        oracle = _brute_pair_states(gamma, rho0, times)
        dev = float(np.max(np.abs(traj.rho - oracle)))
        exc = 0.5 * np.sum(traj.sigma_z + 1.0, axis=1)
        rate = -math.log(exc[-1] / exc[0]) / span
        return rate, dev

    rate_sym, dev_sym = run([0.0, 1.0, 1.0, 0.0])
    rate_anti, dev_anti = run([0.0, 1.0, -1.0, 0.0])
    dev_oracle = max(dev_sym, dev_anti)

    ok = (err_single <= 1e-9
          and abs(rate_sym - 2.0 * g) <= 0.01 * 2.0 * g
          and abs(rate_anti) < 1e-3 * g
          and dev_oracle <= 1e-9)
    gate("collective decay dynamics", ok,
         f"single-emitter inversion error {err_single:.2e} (tol 1e-9); "
         f"bright-state rate {rate_sym / g:.4f}g (want 2g +- 1%), "
         f"dark-state rate {abs(rate_anti) / g:.2e}g (< 1e-3 g); "
         f"worst deviation from brute oracle {dev_oracle:.2e} (tol 1e-9)")


def test_grid_pipeline_enhancements():
    w = 2.0 * math.pi * 400e12
    e = MultipoleEmitter(position=np.zeros(3), omega0=w,
                         d=np.array([2e-30, 0.5e-30, 0]),
                         m=np.array([0, 1.2e-23, 0.4e-23]),
                         Q=np.array([[1e-39, 0, 0], [0, -0.5e-39, 0.3e-39],
                                     [0, 0.3e-39, -0.5e-39]]))
    ax = np.array([-40e-9, 0.0, 40e-9])
    expected = {1.0: {"ED": 1.0, "MD": 1.0, "EQ": 1.0},
                2.0: {"ED": 2.0, "MD": 8.0, "EQ": 8.0}}

    def residual(n, h):
        grid = grid_from_homogeneous(Medium(n), w, (ax, ax, 0.0), fd_step=h)
        worst = 0.0
        rep = enhancement_map(grid, e)
        fs_by = rep.normalization["gamma_fs_by_channel"]
        for c in ("ED", "MD", "EQ"):
            for gamma in rep.gamma_by_channel_pair[(c, c)]:
                enh = gamma / fs_by[c]
                worst = max(worst, abs(enh - expected[n][c]))
        return worst

    h = 2e-9
    ok = True
    details = []
    shrink = math.inf
    for n in (1.0, 2.0):
        # second-order stencils on a field oscillating at wavenumber nk
        # leave a relative truncation error C (n k h)^2 with C < 1 for
        # every channel contraction here, so (n k h)^2 bounds it
        bound = (n * (w / C_LIGHT) * h) ** 2
        r_h = residual(n, h)
        r_half = residual(n, 0.5 * h)
        shrink = min(shrink, r_h / r_half)
        ok = ok and r_h <= bound
        details.append(f"n={n:g}: residual {r_h:.2e} <= bound {bound:.2e}")
    ok = ok and shrink >= 3.5
    gate("sampled-grid enhancement pipeline", ok,
         "; ".join(details) + f"; halving the step shrinks the residual "
         f"{shrink:.2f}x (want >= 3.5x)")


needs_external_data = pytest.mark.skipif(
    not (os.environ.get("POLYEMIT_DIMER_GRID")
         and os.environ.get("POLYEMIT_DIMER_EMITTER")),
    reason="needs externally computed Green data: set POLYEMIT_DIMER_GRID "
           "and POLYEMIT_DIMER_EMITTER to run")


@needs_external_data
def test_external_scatterer_map_ordering(tmp_path):
    """Qualitative channel ordering on a supplied scatterer grid: the
    magnetic-magnetic enhancement dominates the quadrupole-quadrupole
    one by about two orders of magnitude and the magnetic-quadrupole
    cross term is negative at every node."""
    out = tmp_path / "dimer_map.json"
    rc = main(["map", "--grid", os.environ["POLYEMIT_DIMER_GRID"],
               "--emitter", os.environ["POLYEMIT_DIMER_EMITTER"],
               "--format", "json", "--out", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    ratios, crosses = [], []
    for node in doc["nodes"]:
        pairs = node["enhancement_by_channel_pair"]
        ratios.append(pairs["MD-MD"] / pairs["EQ-EQ"])
        crosses.append(pairs["MD-EQ"])
    ratios = np.asarray(ratios)
    crosses = np.asarray(crosses)
    # "two orders of magnitude" read with a factor-3 slack on the median
    ok = (np.all(crosses < 0.0) and np.min(ratios) >= 10.0
          and 100.0 / 3.0 <= np.median(ratios) <= 300.0)
    gate("external scatterer channel ordering", ok,
         f"MD-MD/EQ-EQ min {np.min(ratios):.3g}, median "
         f"{np.median(ratios):.3g} (want about 1e2); MD-EQ cross negative "
         f"at {int(np.sum(crosses < 0.0))}/{crosses.size} nodes")
