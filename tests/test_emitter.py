"""Moment machinery: bilinear pairings, channel split, coefficient bundles.

Independent oracles: explicit-loop contractions with a hand-built
Levi-Civita symbol, and closed-form coincident values derived by hand from
the delta-function structure of the coincident mixed-derivative block:

    ED-ED:  |d|^2 k/(6 pi)
    MD-MD:  (|m|^2/w^2) k^3/(6 pi)
    EQ-EQ:  k^3/pi [ |S|^2/20 + |A|^2/12 - |Tr Q|^2/60 ],  S/A = sym/antisym
"""

import math

import numpy as np
import pytest

from polyemit import (InputError, Medium, MissingDerivativeError,
                      coincident_im_jet, eval_homogeneous_jet)
from polyemit.constants import (ATOMIC_DIPOLE, ATOMIC_QUADRUPOLE,
                                BOHR_MAGNETON, C0, EPS0, HBAR)
from polyemit.emitter import (CHANNELS, MultipoleEmitter, bilinear_form,
                              moment_product_bundle)

W0 = 2 * math.pi * 384e12
K0 = W0 / C0


def eps_symbol():
    e = np.zeros((3, 3, 3))
    for i, j, k, s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
        e[i, j, k] = s
    return e


def random_emitter(rng, position=None, omega0=W0, channels="dmq"):
    kw = {}
    if "d" in channels:
        kw["d"] = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 1e-29
    if "m" in channels:
        kw["m"] = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 1e-23
    if "q" in channels:
        kw["Q"] = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * 1e-39
    pos = np.zeros(3) if position is None else position
    return MultipoleEmitter(position=pos, omega0=omega0, **kw)


def test_ed_coincident_closed_form():
    d0 = 2.5e-29
    e = MultipoleEmitter(position=np.zeros(3), omega0=W0,
                         d=np.array([0, 0, d0], dtype=complex))
    jet = coincident_im_jet(W0, Medium(1.0))
    val = bilinear_form(e, e, jet, W0)
    assert val.imag == pytest.approx(0.0, abs=1e-30)
    assert val.real == pytest.approx(d0 ** 2 * K0 / (6 * math.pi), rel=1e-14)


def test_md_coincident_closed_form():
    m0 = 3e-23
    e = MultipoleEmitter(position=np.zeros(3), omega0=W0,
                         m=np.array([0, 0, m0], dtype=complex))
    jet = coincident_im_jet(W0, Medium(1.0))
    val = bilinear_form(e, e, jet, W0)
    want = (m0 ** 2 / W0 ** 2) * K0 ** 3 / (6 * math.pi)
    assert val.real == pytest.approx(want, rel=1e-13)
    assert abs(val.imag) < 1e-13 * want


def test_eq_coincident_closed_form(rng):
    Q = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * 1e-39
    e = MultipoleEmitter(position=np.zeros(3), omega0=W0, Q=Q)
    jet = coincident_im_jet(W0, Medium(1.0))
    val = bilinear_form(e, e, jet, W0)
    S = 0.5 * (Q + Q.T)
    A = 0.5 * (Q - Q.T)
    want = K0 ** 3 / math.pi * (np.sum(np.abs(S) ** 2) / 20
                                + np.sum(np.abs(A) ** 2) / 12
                                - abs(np.trace(Q)) ** 2 / 60)
    assert val.real == pytest.approx(want, rel=1e-12)
    assert abs(val.imag) < 1e-12 * want


def test_bilinear_matches_explicit_loops(rng):
    # full complex jet at finite separation, contracted entry by entry
    a = random_emitter(rng)
    b = random_emitter(rng)
    jet = eval_homogeneous_jet(np.array([40e-9, -25e-9, 60e-9]), np.zeros(3),
                               W0, Medium(1.3))
    eps = eps_symbol()

    def coeff(em):
        c = np.array(em.Q, dtype=complex)
        for mu in range(3):
            for k in range(3):
                c[mu, k] += (1j / W0) * sum(eps[p, k, mu] * em.m[p]
                                            for p in range(3))
        return c

    ca, cb = coeff(a), coeff(b)
    want = 0j
    for mu in range(3):
        for n in range(3):
            want += np.conj(a.d[mu]) * b.d[n] * jet.value[mu, n]
            for k in range(3):
                want += np.conj(ca[mu, k]) * b.d[n] * jet.d_obs[mu, n, k]
                want += np.conj(a.d[mu]) * cb[n, k] * jet.d_src[mu, n, k]
                for l in range(3):
                    want += (np.conj(ca[mu, k]) * cb[n, l]
                             * jet.d_mixed[mu, n, k, l])
    got = bilinear_form(a, b, jet, W0)
    assert got == pytest.approx(want, rel=1e-13)


def test_sesquilinear(rng):
    a = random_emitter(rng)
    b = random_emitter(rng)
    jet = eval_homogeneous_jet(np.array([30e-9, 0, 0]), np.zeros(3), W0,
                               Medium(1.0))
    lam = 0.7 - 1.9j
    a2 = MultipoleEmitter(position=a.position, omega0=a.omega0,
                          d=lam * a.d, m=lam * a.m, Q=lam * a.Q)
    b2 = MultipoleEmitter(position=b.position, omega0=b.omega0,
                          d=lam * b.d, m=lam * b.m, Q=lam * b.Q)
    base = bilinear_form(a, b, jet, W0)
    assert bilinear_form(a2, b, jet, W0) == pytest.approx(
        np.conj(lam) * base, rel=1e-13)
    assert bilinear_form(a, b2, jet, W0) == pytest.approx(lam * base,
                                                          rel=1e-13)


def channel_parts(a, b, jet):
    """(channel_a, channel_b) -> that channel pairing's bilinear form."""
    return {(ca, cb): bilinear_form(a.restricted(ca), b.restricted(cb), jet,
                                    W0)
            for ca in CHANNELS for cb in CHANNELS}


def spectral_coefficients(a, b):
    """Real and imaginary spectral coefficient tensors at W0, per block."""
    F = moment_product_bundle(a, b).at(W0)
    return ({name: t.real for name, t in F.items()},
            {name: t.imag for name, t in F.items()})


def test_channel_additivity(rng):
    a = random_emitter(rng)
    b = random_emitter(rng)
    jet = eval_homogeneous_jet(np.array([20e-9, 10e-9, -35e-9]), np.zeros(3),
                               W0, Medium(2.0))
    parts = channel_parts(a, b, jet)
    assert len(parts) == 9
    total = bilinear_form(a, b, jet, W0)
    assert sum(parts.values()) == pytest.approx(total, rel=1e-12)


def test_cross_channels_vanish_at_coincidence(rng):
    # the MD-EQ interference picks out the antisymmetric part of Q through
    # the Levi-Civita contraction, so the coincident cancellation holds for
    # symmetric Q (the standard quadrupole convention); trace may be nonzero
    e = random_emitter(rng)
    e = MultipoleEmitter(position=e.position, omega0=e.omega0, d=e.d, m=e.m,
                         Q=0.5 * (e.Q + e.Q.T))
    jet = coincident_im_jet(W0, Medium(1.4))
    parts = channel_parts(e, e, jet)
    total = abs(sum(parts.values()))
    for pair, val in parts.items():
        if pair[0] != pair[1]:
            assert abs(val) < 1e-12 * total


def test_positivity_real_moments(rng):
    jet = coincident_im_jet(W0, Medium(1.0))
    for _ in range(25):
        e = MultipoleEmitter(position=np.zeros(3), omega0=W0,
                             d=rng.normal(size=3) * 1e-29 + 0j,
                             m=rng.normal(size=3) * 1e-23 + 0j,
                             Q=rng.normal(size=(3, 3)) * 1e-39 + 0j)
        val = bilinear_form(e, e, jet, W0)
        assert abs(val.imag) <= 1e-12 * abs(val)
        assert val.real >= 0


def test_inert_emitter_zero():
    e = MultipoleEmitter(position=np.zeros(3), omega0=W0)
    jet = coincident_im_jet(W0)
    assert bilinear_form(e, e, jet, W0) == 0


def test_missing_derivative_blocks_raise(rng):
    e = random_emitter(rng, channels="m")
    jet_novalue_derivs = coincident_im_jet(W0)
    stripped = type(jet_novalue_derivs)(value=jet_novalue_derivs.value,
                                        part="imag")
    with pytest.raises(MissingDerivativeError):
        bilinear_form(e, e, stripped, W0)


def test_bundle_matches_direct_coefficients(rng):
    # F(w) = f0 + f1/w + f2/w^2 must reproduce the directly built
    # conj(C_a) x C_b coefficient at any real frequency
    a = random_emitter(rng)
    b = random_emitter(rng)
    bundle = moment_product_bundle(a, b)
    for w in [0.3 * W0, W0, 7.7 * W0]:
        F = bundle.at(w)
        norm = 1.0 / (HBAR * math.pi * EPS0 * C0 ** 2)
        ca = a.Q + (1j / w) * np.einsum('pkm,p->mk', eps_symbol(), a.m)
        cb = b.Q + (1j / w) * np.einsum('pkm,p->mk', eps_symbol(), b.m)
        want_mixed = norm * np.einsum('mk,nl->mnkl', ca.conj(), cb)
        assert np.allclose(F["d_mixed"], want_mixed, rtol=1e-13)
        want_obs = norm * np.einsum('mk,n->mnk', ca.conj(), b.d)
        assert np.allclose(F["d_obs"], want_obs, rtol=1e-13)


def test_bundle_spectral_density_equals_bilinear(rng):
    a = random_emitter(rng)
    b = random_emitter(rng)
    jet = eval_homogeneous_jet(np.array([45e-9, 5e-9, 0]), np.zeros(3), W0,
                               Medium(1.1))
    bundle = moment_product_bundle(a, b)
    z = bundle.spectral_density(jet, W0)
    norm = 1.0 / (HBAR * math.pi * EPS0 * C0 ** 2)
    want = norm * bilinear_form(a, b, jet.imag_part(), W0)
    assert z == pytest.approx(want, rel=1e-13)


def test_rmn_imn_examples(rng):
    d = rng.normal(size=3)
    # identical real-d emitters: I vanishes, R value = d d / (hbar pi eps0 c^2)
    e = MultipoleEmitter(position=np.zeros(3), omega0=W0, d=d + 0j)
    R, I = spectral_coefficients(e, e)
    norm = 1.0 / (HBAR * math.pi * EPS0 * C0 ** 2)
    assert np.allclose(R["value"], norm * np.outer(d, d), rtol=1e-13)
    assert all(np.max(np.abs(t)) == 0 for t in I.values())

    # real Q against real d: only first-derivative R coefficients
    q = rng.normal(size=(3, 3))
    eq = MultipoleEmitter(position=np.zeros(3), omega0=W0, Q=q + 0j)
    ed = MultipoleEmitter(position=np.zeros(3), omega0=W0, d=d + 0j)
    R, I = spectral_coefficients(eq, ed)
    assert set(R) == {"d_obs"}
    assert all(np.max(np.abs(t)) == 0 for t in I.values())
    assert np.allclose(R["d_obs"], norm * np.einsum('mk,n->mnk', q, d),
                       rtol=1e-13)

    # real m against real d: purely imaginary cross coefficient, 1/w weight
    mv = rng.normal(size=3)
    em = MultipoleEmitter(position=np.zeros(3), omega0=W0, m=mv + 0j)
    R, I = spectral_coefficients(em, ed)
    assert all(np.max(np.abs(t)) == 0 for t in R.values())
    eps = eps_symbol()
    want = np.zeros((3, 3, 3))
    for mu in range(3):
        for n in range(3):
            for k in range(3):
                want[mu, n, k] = -norm / W0 * sum(
                    eps[p, k, mu] * mv[p] for p in range(3)) * d[n]
    assert np.allclose(I["d_obs"], want, rtol=1e-13, atol=1e-30)


def test_emitter_file_parsing(tmp_path):
    import json
    path = tmp_path / "emitter.json"
    spec = {
        "position_m": [0, 0, 10e-9],
        "omega0_rad_per_s": W0,
        "d_atomic": [[0, 0], [0, 0], [1, 0]],
        "m_bohr_magnetons": [[0, 0], [0, 0], [0, 2]],
        "Q_atomic": [[[0, 0], [1, 0], [0, 0]],
                     [[1, 0], [0, 0], [0, 0]],
                     [[0, 0], [0, 0], [0, 0]]],
    }
    path.write_text(json.dumps(spec))
    e = MultipoleEmitter.from_file(path)
    assert e.d[2] == pytest.approx(ATOMIC_DIPOLE)
    assert e.m[2] == pytest.approx(2j * BOHR_MAGNETON)
    assert e.Q[0, 1] == pytest.approx(ATOMIC_QUADRUPOLE)
    assert e.Q[1, 0] == pytest.approx(ATOMIC_QUADRUPOLE)

    bad = dict(spec)
    bad["d_Cm"] = [[1e-29, 0], [0, 0], [0, 0]]
    path.write_text(json.dumps(bad))
    with pytest.raises(InputError):
        MultipoleEmitter.from_file(path)

    bad2 = dict(spec)
    bad2["flux_capacitor"] = 1
    path.write_text(json.dumps(bad2))
    with pytest.raises(InputError):
        MultipoleEmitter.from_file(path)


def test_emitter_validation():
    with pytest.raises(InputError):
        MultipoleEmitter(position=np.zeros(3), omega0=-1.0)
    with pytest.raises(InputError):
        MultipoleEmitter(position=np.zeros(2), omega0=W0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError, match="finite"):
            MultipoleEmitter(position=[bad, 0.0, 0.0], omega0=W0)
    with pytest.raises(InputError):
        MultipoleEmitter(position=np.zeros(3), omega0=W0).restricted(["XX"])
