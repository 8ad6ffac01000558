"""Homogeneous Green tensor: closed forms, jets, and coincident limits.

Oracles used here, in decreasing order of independence:
  * mpmath 60-digit evaluation of the raw trig expressions for Im G
    (immune to the float cancellation the package works around), and
    mpmath.diff of the 50-digit complex closed form for every Im block,
  * central finite differences of the value/first-derivative blocks,
  * exact limit values such as Im G_jj -> k/6pi.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from polyemit import (CoincidentPointError, InputError, Medium,
                      MultipoleEmitter, coincident_im_jet, collective_rate,
                      eval_homogeneous, eval_homogeneous_jet)
from polyemit.constants import ATOMIC_QUADRUPOLE, BOHR_MAGNETON, C0
from polyemit.emitter import moment_product_bundle

from oracles import small_R_series_im

W0 = 2 * math.pi * 384e12  # optical test frequency, rad/s


def im_green_reference(R, omega, n):
    """Im G via 60-digit arithmetic on the naive trig forms (independent
    of the package's stabilized series)."""
    with mp.workdps(60):
        k = mp.mpf(n) * mp.mpf(omega) / mp.mpf(C0)
        r = mp.sqrt(sum(mp.mpf(c) ** 2 for c in R))
        x = k * r
        s, c = mp.sin(x), mp.cos(x)
        ima = (s * (x * x - 1) + x * c) / (4 * mp.pi * k * k * r ** 3)
        imb = (s * (3 - x * x) - 3 * x * c) / (4 * mp.pi * k * k * r ** 5)
        out = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                out[i, j] = float(ima * (i == j) + imb * mp.mpf(R[i]) * mp.mpf(R[j]))
        return out


def jet_for(kr, n=1.0, direction=(0.36, -0.48, 0.8), omega=W0):
    k = n * omega / C0
    R = np.asarray(direction) * (kr / k)
    return R, eval_homogeneous_jet(R, np.zeros(3), omega, Medium(n))


def test_value_symmetric_and_reciprocal(rng):
    for _ in range(20):
        R = rng.normal(size=3) * 80e-9
        n = rng.uniform(1, 3)
        w = rng.uniform(0.5, 3) * W0
        G = eval_homogeneous(R, w, Medium(n))
        Gm = eval_homogeneous(-R, w, Medium(n))
        assert np.allclose(G, G.T, rtol=1e-12, atol=0)
        assert np.max(np.abs(G - Gm.T)) < 1e-14 * np.max(np.abs(G))


def test_rejects_coincident_and_bad_frequency():
    with pytest.raises(CoincidentPointError):
        eval_homogeneous(np.zeros(3), W0)
    with pytest.raises(InputError):
        eval_homogeneous(np.array([1e-9, 0, 0]), 0.0)
    with pytest.raises(InputError):
        eval_homogeneous(np.array([1e-9, 0, 0]), -W0)


def test_medium_validation():
    with pytest.raises(InputError):
        Medium(0.5)
    with pytest.raises(InputError):
        Medium(1 + 0.1j)
    # an int too large for a float is not finite either
    for n in (math.nan, math.inf, 10 ** 400):
        with pytest.raises(InputError, match="finite"):
            Medium(n)
    m = Medium(lambda w: 1.5 + 0j)
    assert m.index(W0) == 1.5 + 0j


@pytest.mark.parametrize("index", ["1.5", True, "glass", None, [1.5]],
                         ids=["numeric_string", "bool", "word", "none",
                              "list"])
def test_medium_index_must_be_a_number(index):
    with pytest.raises(InputError, match="real number"):
        Medium(index)


def test_im_diagonal_limit_small_kr():
    # Im G_jj -> k/(6 pi) as kR -> 0
    k = W0 / C0
    G = eval_homogeneous(np.array([1e-4 / k, 0, 0]), W0)
    want = k / (6 * math.pi)
    assert abs(G[1, 1].imag - want) < 1e-7 * want
    assert abs(G[0, 0].imag - want) < 1e-7 * want


def test_im_against_highprecision_reference():
    # spans the series/trig switch at x = 0.5
    worst = 0.0
    for kr in [1e-6, 1e-4, 1e-2, 0.3, 0.499, 0.5, 0.51, 2.0, 10.0]:
        for n in [1.0, 2.3]:
            k = n * W0 / C0
            R = np.array([0.6, 0.64, 0.48]) / np.linalg.norm([0.6, 0.64, 0.48]) * kr / k
            G = eval_homogeneous(R, W0, Medium(n))
            ref = im_green_reference(R, W0, n)
            scale = np.max(np.abs(ref))
            worst = max(worst, np.max(np.abs(G.imag - ref)) / scale)
    assert worst < 5e-14


def test_imaginary_axis_value_is_real():
    # Green tensor evaluated at omega = i kappa must be purely real
    for kappa in [W0 * 1e-3, W0, 10 * W0]:
        G = eval_homogeneous(np.array([30e-9, 40e-9, 0]), 1j * kappa, Medium(1.7))
        assert np.max(np.abs(G.imag)) < 1e-13 * np.max(np.abs(G.real))


def test_imaginary_axis_static_limit():
    # kappa -> 0: G(i kappa) -> (delta - 3 RhRh) c^2 / (4 pi n^2 kappa^2 R^3)
    n, R = 1.4, np.array([25e-9, -40e-9, 10e-9])
    r = np.linalg.norm(R)
    rh = R / r
    kappa = W0 * 1e-6
    G = eval_homogeneous(R, 1j * kappa, Medium(n)).real
    want = (np.eye(3) - 3 * np.outer(rh, rh)) * C0 ** 2 / (
        4 * math.pi * n ** 2 * kappa ** 2 * r ** 3)
    assert np.max(np.abs(G - want)) < 1e-9 * np.max(np.abs(want))


def test_jet_value_matches_eval():
    R, jet = jet_for(1.3, n=1.8)
    G = eval_homogeneous(R, W0, Medium(1.8))
    assert np.array_equal(jet.value, G)


def test_jet_first_derivatives_against_fd(rng):
    # central differences of eval_homogeneous, step 1e-6 |R|
    for kr in [0.3, 1.7, 6.0]:
        R, jet = jet_for(kr, n=1.4)
        h = 1e-6 * np.linalg.norm(R)
        scale = np.max(np.abs(jet.d_obs))
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            fd = (eval_homogeneous(R + e, W0, Medium(1.4))
                  - eval_homogeneous(R - e, W0, Medium(1.4))) / (2 * h)
            assert np.max(np.abs(jet.d_obs[:, :, a] - fd)) < 1e-6 * scale
            assert np.max(np.abs(jet.d_src[:, :, a] + fd)) < 1e-6 * scale


def test_jet_mixed_against_fd_of_first_block():
    # d_mixed is the field-point derivative of the analytic d_src block;
    # differencing the analytic first-order block keeps the comparison
    # first order in the step, so roundoff stays far below the tolerance
    for kr in [0.4, 2.1]:
        R, jet = jet_for(kr, n=1.2)
        h = 1e-6 * np.linalg.norm(R)
        scale = np.max(np.abs(jet.d_mixed))
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            jp = eval_homogeneous_jet(R + e, np.zeros(3), W0, Medium(1.2))
            jm = eval_homogeneous_jet(R - e, np.zeros(3), W0, Medium(1.2))
            fd = (jp.d_src - jm.d_src) / (2 * h)
            assert np.max(np.abs(jet.d_mixed[:, :, a, :] - fd)) < 1e-6 * scale


def test_jet_mixed_against_double_fd_of_value():
    # direct second differences of the value confirm the same block at a
    # larger step where their roundoff floor is still below tolerance
    R, jet = jet_for(1.1, n=1.6)
    h = 1e-4 * np.linalg.norm(R)
    scale = np.max(np.abs(jet.d_mixed))
    worst = 0.0
    for a in range(3):
        for b in range(3):
            ea, eb = np.zeros(3), np.zeros(3)
            ea[a], eb[b] = h, h
            med = Medium(1.6)
            fd = (eval_homogeneous(R + ea - eb, W0, med)
                  - eval_homogeneous(R + ea + eb, W0, med)
                  - eval_homogeneous(R - ea - eb, W0, med)
                  + eval_homogeneous(R - ea + eb, W0, med)) / (4 * h * h)
            worst = max(worst, np.max(np.abs(jet.d_mixed[:, :, a, b] - fd)))
    assert worst < 1e-5 * scale


def test_jet_rejects_coincident():
    p = np.array([1e-9, 2e-9, 3e-9])
    with pytest.raises(CoincidentPointError):
        eval_homogeneous_jet(p, p, W0)


def lossless_dispersion(w):
    # an ultraviolet resonance far above the test frequencies: real on
    # both frequency axes, n(-conj w) = conj n(w)
    return np.sqrt(1.69 + 0.2 / (1.0 - (w / (50 * W0)) ** 2))


def lossy_dispersion(w):
    # complex on the real axis, real on the imaginary axis
    return np.sqrt(2.25 + 0.3j * W0 / (w + 1j * W0))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("index", [1.0, 1.5, lossless_dispersion,
                                   lossy_dispersion])
def test_batched_jet_equals_scalar_calls_bitwise(index):
    med = Medium(index)
    r_obs, r_src = np.array([40e-9, -25e-9, 60e-9]), np.array([5e-9, 0, 1e-9])
    dist = float(np.linalg.norm(r_obs - r_src))
    # real axis on both sides of the series switch (k r / n from 0.05 to
    # 3), and the imaginary axis over seven decades
    real = np.array([0.05, 0.3, 0.49, 0.51, 0.8, 3.0]) * C0 / dist
    omegas = np.concatenate([real, 1j * np.geomspace(1e10, 1e17, 9)])
    batched = eval_homogeneous_jet(r_obs, r_src, omegas, med)
    assert batched.batch_shape == omegas.shape
    for i, w in enumerate(omegas):
        single = eval_homogeneous_jet(r_obs, r_src, w, med)
        assert single.batch_shape == ()
        for name in ("value", "d_obs", "d_src", "d_mixed"):
            assert same_bits(getattr(batched, name)[i], getattr(single, name))
        assert same_bits(eval_homogeneous(r_obs - r_src, omegas, med)[i],
                         eval_homogeneous(r_obs - r_src, w, med))
    grid = eval_homogeneous_jet(r_obs, r_src, omegas.reshape(3, 5), med)
    assert same_bits(grid.d_mixed.reshape(batched.d_mixed.shape),
                     batched.d_mixed)


@pytest.mark.parametrize("index", [1.0, 1.5, lossless_dispersion,
                                   lossy_dispersion])
@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
def test_value_equals_jet_value_bitwise(index, shape):
    # eval_homogeneous assembles the value block alone
    med = Medium(index)
    r_obs, r_src = np.array([40e-9, -25e-9, 60e-9]), np.array([5e-9, 0, 1e-9])
    dist = float(np.linalg.norm(r_obs - r_src))
    # both sides of the series switch on the real axis, then the
    # imaginary axis
    omegas = np.concatenate([np.array([0.05, 0.49, 0.51, 3.0]) * C0 / dist,
                             1j * np.geomspace(1e10, 1e17, 2)])
    omega = omegas[0] if shape == () else omegas[:math.prod(shape)].reshape(shape)
    value = eval_homogeneous(r_obs - r_src, omega, med)
    assert value.shape == shape + (3, 3)
    assert same_bits(value, eval_homogeneous_jet(r_obs, r_src, omega, med).value)


def test_callable_index_is_evaluated_once_per_frequency():
    seen = []

    def index(w):
        seen.append(w)
        return lossless_dispersion(w)

    omegas = W0 * np.array([0.5, 1.0, 1.5, 2.0j])
    eval_homogeneous_jet(np.array([30e-9, 0, 0]), np.zeros(3), omegas,
                         Medium(index))
    assert seen == [complex(w) for w in omegas]
    assert all(type(w) is complex for w in seen)


def test_batched_jet_rejects_any_bad_frequency():
    p = np.array([30e-9, 0, 0])
    with pytest.raises(InputError, match="nonzero"):
        eval_homogeneous_jet(p, np.zeros(3), np.array([W0, 0.0]))
    with pytest.raises(InputError, match="positive"):
        eval_homogeneous_jet(p, np.zeros(3), np.array([W0, -W0]))


def test_coincident_jet_values():
    k = 1.0  # pick omega so that k = 1/m at n = 1
    omega = k * C0
    jet = coincident_im_jet(omega, Medium(1.0))
    assert jet.part == "imag"
    assert np.allclose(jet.value, np.eye(3) / (6 * math.pi), rtol=1e-15)
    assert np.all(jet.d_obs == 0) and np.all(jet.d_src == 0)
    # diagonal mixed entry with derivative axis != tensor axis
    assert jet.d_mixed[2, 2, 0, 0] == pytest.approx(1 / (15 * math.pi), rel=1e-15)
    assert jet.d_mixed[0, 0, 0, 0] == pytest.approx(
        1 / (15 * math.pi) - 1 / (30 * math.pi), rel=1e-15)
    # off-diagonal pattern
    assert jet.d_mixed[0, 1, 0, 1] == pytest.approx(-1 / (60 * math.pi), rel=1e-15)
    assert jet.d_mixed[0, 1, 1, 0] == pytest.approx(-1 / (60 * math.pi), rel=1e-15)
    assert jet.d_mixed[0, 1, 2, 2] == 0.0


def test_coincident_jet_scales_linearly_with_n():
    j1 = coincident_im_jet(W0, Medium(1.0))
    j2 = coincident_im_jet(W0, Medium(2.0))
    assert np.allclose(j2.value, 2 * j1.value, rtol=1e-14)
    assert np.allclose(j2.d_mixed, 8 * j1.d_mixed, rtol=1e-14)


def test_coincident_jet_is_smallsep_limit_of_full_jet():
    # mixed block of the full jet approaches the closed-form limit as
    # O((kR)^2); check value and second-order shrink between two radii
    lim = coincident_im_jet(W0, Medium(1.0)).d_mixed
    scale = np.max(np.abs(lim))
    res = []
    for kr in [0.1, 0.05]:
        _, jet = jet_for(kr)
        res.append(np.max(np.abs(jet.d_mixed.imag - lim)))
    assert res[0] < 1e-2 * scale
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.6)


def test_coincident_jet_rejects_lossy_medium():
    with pytest.raises(InputError):
        coincident_im_jet(W0, Medium(lambda w: 1.5 + 0.2j))


def test_series_exact_values():
    k = W0 / C0
    S0 = small_R_series_im(np.zeros(3), W0)
    assert np.allclose(S0, np.eye(3) * k / (6 * math.pi), rtol=1e-15)
    a = 0.02 / k
    S = small_R_series_im(np.array([a, a, 0.0]), W0)
    assert S[0, 1] == pytest.approx(k ** 3 * a * a / (60 * math.pi), rel=1e-15)
    with pytest.raises(InputError):
        small_R_series_im(np.array([0.6 / k, 0, 0]), W0)


def test_series_residual_is_fourth_order():
    k = 1.9 * W0 / C0
    u = np.array([0.48, 0.6, 0.64])
    u /= np.linalg.norm(u)
    krs = np.geomspace(1e-3, 1e-1, 9)
    resid = []
    for kr in krs:
        R = u * kr / k
        full = eval_homogeneous(R, W0, Medium(1.9)).imag
        ser = small_R_series_im(R, W0, Medium(1.9))
        resid.append(np.max(np.abs(full - ser)) / (k / (6 * math.pi)))
    slope = np.polyfit(np.log(krs), np.log(resid), 1)[0]
    assert 3.9 < slope < 4.1


# --- imaginary-part jets at small separation --------------------------------

def im_jet_reference(s, n, omega=W0):
    """Im-part jet blocks at R = s / k, from 50-digit arithmetic on the
    complex closed form of G, differentiated by mpmath.diff (independent of
    the package's radial split and generating function)."""
    out = {"value": np.empty((3, 3)), "d_obs": np.empty((3, 3, 3)),
           "d_mixed": np.empty((3, 3, 3, 3))}
    with mp.workdps(50):
        k = mp.mpf(n) * mp.mpf(omega) / mp.mpf(C0)
        S = [mp.mpf(c) for c in s]
        for m in range(3):
            for q in range(m, 3):
                # G_mq(R) = k g_mq(kR)
                def g(s1, s2, s3, m=m, q=q):
                    v = (s1, s2, s3)
                    x = mp.sqrt(s1 * s1 + s2 * s2 + s3 * s3)
                    e = mp.expj(x) / (4 * mp.pi)
                    a = e * (x * x + 1j * x - 1) / x ** 3
                    b = e * (3 - 3j * x - x * x) / x ** 5
                    return a * (m == q) + b * v[m] * v[q]

                def part(orders):
                    return float(mp.im(mp.diff(g, S, orders))
                                 * k ** (1 + sum(orders)))

                for mn in {(m, q), (q, m)}:
                    out["value"][mn] = part((0, 0, 0))
                for a in range(3):
                    val = part(tuple(int(i == a) for i in range(3)))
                    for mn in {(m, q), (q, m)}:
                        out["d_obs"][mn + (a,)] = val
                    for b in range(a, 3):
                        # one source-point derivative flips the sign
                        val = -part(tuple(int(i == a) + int(i == b)
                                          for i in range(3)))
                        for idx in {(m, q, a, b), (q, m, a, b),
                                    (m, q, b, a), (q, m, b, a)}:
                            out["d_mixed"][idx] = val
    out["d_src"] = -out["d_obs"]
    return out


@pytest.mark.parametrize("n", [1.0, 1.5])
def test_im_jet_blocks_against_mpmath(n):
    # every block, not just the value, keeps full relative accuracy down to
    # kR = 1e-4, where the closed forms cancel in their imaginary parts
    u = np.array([0.36, -0.48, 0.8])
    for kr in [1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0]:
        R, jet = jet_for(kr, n=n, direction=u)
        ref = im_jet_reference(u * kr, n)
        for name, got in jet.imag_part().blocks.items():
            scale = np.max(np.abs(ref[name]))
            assert np.max(np.abs(got - ref[name])) < 1e-14 * scale, (kr, name)


def multipole(kind, position):
    if kind == "EQ":
        return MultipoleEmitter(position=position, omega0=W0,
                                Q=np.diag([-0.5, -0.5, 1.0]) * ATOMIC_QUADRUPOLE)
    return MultipoleEmitter(position=position, omega0=W0,
                            m=np.array([0, 0, BOHR_MAGNETON]))


@pytest.mark.parametrize("kind", ["EQ", "MD"])
def test_subradiant_rate_against_mpmath(kind):
    # gamma_aa - gamma_ab of two identical z-separated emitters vanishes
    # like a power of kR: it resolves the small-R Im derivative blocks
    n = 1.0
    med = Medium(n)
    k = n * W0 / C0
    u = np.array([0.0, 0.0, 1.0])
    jet0 = coincident_im_jet(W0, med)
    for kr in [0.003, 0.01, 0.1]:
        a, b = multipole(kind, np.zeros(3)), multipole(kind, u * kr / k)
        jet = eval_homogeneous_jet(a.position, b.position, W0, med)
        got = (collective_rate(a, a, jet0).gamma_cross
               - collective_rate(a, b, jet).gamma_cross)
        ref_jet = im_jet_reference(u * kr, n)
        diff = {name: blk - ref_jet[name] for name, blk in jet0.blocks.items()}
        bundle = moment_product_bundle(a, b)
        want = 2 * math.pi * W0 ** 2 * bundle.contract(diff, bundle.at(W0))
        assert want.real > 0
        assert abs(got - want) < 1e-8 * abs(want), kr


def test_im_jet_continuous_at_coincidence():
    # at kR = 1e-6 the Im jet is the first-order Taylor expansion of the
    # coincident jet up to O((kR)^2)
    R, jet = jet_for(1e-6, n=1.3)
    lim = coincident_im_jet(W0, Medium(1.3))
    slope = np.einsum('mnkl,l->mnk', lim.d_mixed, R)
    want = {"value": lim.value, "d_obs": -slope, "d_src": slope,
            "d_mixed": lim.d_mixed}
    for name, got in jet.imag_part().blocks.items():
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(got - want[name])) < 1e-10 * scale, name


def test_coincident_jet_has_no_negative_zeros():
    jet = coincident_im_jet(W0, Medium(1.5))
    for name, blk in jet.blocks.items():
        assert not np.any(np.signbit(blk[blk == 0])), name
