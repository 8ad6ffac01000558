"""Open-system dynamics: closed forms, sector propagation, model assembly.

The reference for every multi-emitter trajectory here is a brute-force
Liouvillian built as an explicit superoperator matrix and exponentiated
with scipy, written before and independently of the package integrator
(direct pair sums, column-stacked vec convention, no eigenbasis of the
decay matrix, no ODE stepping). Beyond its reach (8 and 10 emitters) the
references are the single-excitation propagator and the Dicke ladder.
"""
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import polyemit.dynamics
from polyemit.dynamics import (EmitterEnsembleModel, Trajectory,
                               build_ensemble, evolve_ensemble,
                               evolve_single, lowering_operators,
                               product_density, pure_density)
from polyemit.emitter import MultipoleEmitter
from polyemit.errors import (CoincidentPointError, InputError,
                             IntegrationError)
from polyemit.grid import grid_from_homogeneous
from polyemit.homogeneous import (Medium, coincident_im_jet,
                                  eval_homogeneous_jet)
from polyemit.quadrature import homogeneous_pair_model, lorentzian_model
from polyemit.rates import (collective_rate, coupling_strength,
                            emission_rate, lamb_shift)


# --- independent reference propagator --------------------------------------

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # (ground, excited)


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _sigmas(n):
    eye = np.eye(2, dtype=complex)
    return [_kron_chain([_LOWER if k == a else eye for k in range(n)])
            for a in range(n)]


def brute_states(delta, xi, gamma, rho0, times):
    """Rotating-frame master equation via expm of the dense superoperator.

    Column stacking: vec(A rho B) = (B^T kron A) vec(rho). The dissipator
    is the raw double sum over emitter pairs.
    """
    delta = np.asarray(delta, dtype=float)
    xi = np.asarray(xi, dtype=complex)
    gamma = np.asarray(gamma, dtype=complex)
    n = delta.size
    dim = 2 ** n
    sig = _sigmas(n)
    eye = np.eye(dim, dtype=complex)

    h = np.zeros((dim, dim), dtype=complex)
    for a in range(n):
        h += delta[a] * (sig[a].conj().T @ sig[a])
        for b in range(n):
            h += xi[a, b] * (sig[a].conj().T @ sig[b])
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for a in range(n):
        for b in range(n):
            sasb = sig[a].conj().T @ sig[b]
            sup += gamma[a, b] * (np.kron(sig[a].conj(), sig[b])
                                  - 0.5 * np.kron(eye, sasb)
                                  - 0.5 * np.kron(sasb.T, eye))

    v0 = np.asarray(rho0, dtype=complex).ravel(order="F")
    out = []
    for t in times:
        v = expm(sup * (t - times[0])) @ v0
        out.append(v.reshape(dim, dim, order="F"))
    return np.array(out)


def brute_expectations(states, n):
    sig = _sigmas(n)
    nt = states.shape[0]
    sg = np.empty((nt, n), dtype=complex)
    sz = np.empty((nt, n))
    for a in range(n):
        num = sig[a].conj().T @ sig[a]
        for i in range(nt):
            sg[i, a] = np.trace(states[i] @ sig[a])
            sz[i, a] = 2.0 * np.trace(states[i] @ num).real - 1.0
    return sg, sz


def random_model(rng, n, scale=3e7):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    xi = 0.5 * (a + a.conj().T) * scale
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gamma = (b @ b.conj().T) * (scale / n)
    delta = rng.normal(size=n) * 0.05 * scale
    return EmitterEnsembleModel(omega_ref=2e8, delta=delta, xi=xi,
                                gamma=gamma)


def random_density(rng, dim):
    return pure_density(rng.normal(size=dim) + 1j * rng.normal(size=dim))


# --- single-emitter closed forms --------------------------------------------

def test_single_excited_population_decay():
    gamma = 2.3e7
    t = np.linspace(0.0, 2.0e-7, 41)
    traj = evolve_single(gamma, 0.0, 3.1e15, "excited", t)
    expected = -1.0 + 2.0 * np.exp(-gamma * t)
    assert np.max(np.abs(traj.sigma_z[:, 0] - expected)) < 1e-9
    assert np.max(np.abs(traj.sigma)) == 0.0
    assert traj.rho is not None
    assert np.max(np.abs(np.trace(traj.rho, axis1=1, axis2=2) - 1.0)) < 1e-12


def test_single_free_precession():
    omega0 = 7.5e5
    sig0 = 0.3 + 0.2j
    t = np.linspace(0.0, 4.0e-6, 29)
    traj = evolve_single(0.0, 0.0, omega0, (sig0, 0.1), t)
    expected = sig0 * np.exp(-1j * omega0 * t)
    assert np.max(np.abs(traj.sigma[:, 0] - expected)) < 1e-12
    assert np.max(np.abs(traj.sigma_z[:, 0] - 0.1)) < 1e-15


def test_single_ground_state_is_stationary():
    t = np.linspace(0.0, 1e-6, 11)
    traj = evolve_single(5e7, 2e6, 2.4e15, "ground", t)
    assert np.all(traj.sigma_z == -1.0)
    assert np.all(traj.sigma == 0.0)


def test_single_general_initial_state():
    gamma, delta, omega0 = 1.6e7, -4e6, 9e8
    sig0, sz0 = 0.25 - 0.1j, 0.4
    t = np.linspace(1e-8, 3e-7, 23)  # grid need not start at zero
    traj = evolve_single(gamma, delta, omega0, (sig0, sz0), t)
    dt = t - t[0]
    assert np.allclose(traj.sigma[:, 0],
                       sig0 * np.exp(-(0.5 * gamma + 1j * (omega0 + delta)) * dt),
                       rtol=0, atol=1e-12)
    assert np.allclose(traj.sigma_z[:, 0],
                       -1.0 + (1.0 + sz0) * np.exp(-gamma * dt),
                       rtol=0, atol=1e-12)


def test_single_input_guards():
    t = np.linspace(0.0, 1e-7, 5)
    with pytest.raises(InputError, match="negative"):
        evolve_single(-1.0, 0.0, 1e15, "excited", t)
    with pytest.raises(InputError, match="initial"):
        evolve_single(1e7, 0.0, 1e15, "sideways", t)
    with pytest.raises(InputError, match="qubit"):
        evolve_single(1e7, 0.0, 1e15, (0.9, 0.5), t)
    with pytest.raises(InputError, match="qubit"):
        evolve_single(1e7, 0.0, 1e15, (0.0, 1.5), t)
    with pytest.raises(InputError, match="increasing"):
        evolve_single(1e7, 0.0, 1e15, "excited", [0.0, 0.0, 1e-8])


# --- trajectory container invariants ----------------------------------------

def test_trajectory_refuses_unphysical_data():
    t = np.array([0.0, 1e-8])
    ok_sigma = np.zeros((2, 1), dtype=complex)
    with pytest.raises(InputError, match="sigma_z"):
        Trajectory(times=t, sigma=ok_sigma, sigma_z=np.array([[0.0], [1.2]]))
    with pytest.raises(InputError, match="magnitude"):
        Trajectory(times=t, sigma=np.full((2, 1), 1.5 + 0j),
                   sigma_z=np.zeros((2, 1)))
    bad_rho = np.zeros((2, 2, 2), dtype=complex)
    bad_rho[:, 0, 0] = 0.9  # trace 0.9
    with pytest.raises(InputError, match="trace"):
        Trajectory(times=t, sigma=ok_sigma, sigma_z=np.zeros((2, 1)),
                   rho=bad_rho)
    with pytest.raises(InputError, match="shape"):
        Trajectory(times=t, sigma=ok_sigma, sigma_z=np.zeros((3, 1)))


def test_trajectory_serialization():
    traj = evolve_single(2e7, 0.0, 5e8, "excited", np.linspace(0, 1e-7, 6))
    headers, data = traj.table()
    assert headers == ["time_s", "re_sigma_1", "im_sigma_1", "sigma_z_1"]
    assert data.shape == (6, 4)
    assert data[0, 3] == pytest.approx(1.0)
    doc = json.loads(json.dumps(traj.to_dict()))
    assert doc["sigma_z"][0][0] == pytest.approx(1.0)
    assert len(doc["times_s"]) == 6


# --- ensemble model container -----------------------------------------------

def test_model_validation():
    ok = EmitterEnsembleModel(omega_ref=1e15, delta=[0.0, 0.0],
                              xi=np.zeros((2, 2)),
                              gamma=np.array([[2.0, 1.0], [1.0, 2.0]]) * 1e7)
    assert ok.n_emitters == 2
    with pytest.raises(InputError, match="Hermitian"):
        EmitterEnsembleModel(omega_ref=1e15, delta=[0.0, 0.0],
                             xi=np.array([[0.0, 1e6], [0.0, 0.0]]),
                             gamma=np.eye(2))
    with pytest.raises(InputError, match="semidefinite"):
        EmitterEnsembleModel(omega_ref=1e15, delta=[0.0, 0.0],
                             xi=np.zeros((2, 2)),
                             gamma=np.array([[1.0, 2.2], [2.2, 1.0]]) * 1e6)
    with pytest.raises(InputError, match="shape"):
        EmitterEnsembleModel(omega_ref=1e15, delta=[0.0, 0.0],
                             xi=np.zeros((3, 3)), gamma=np.eye(2))
    with pytest.raises(InputError, match="reference frequency"):
        EmitterEnsembleModel(omega_ref=-1.0, delta=[0.0], xi=np.zeros((1, 1)),
                             gamma=np.zeros((1, 1)))
    # negative eigenvalue within the stated tolerance band is accepted
    eps = 1e-12
    g = np.array([[1.0, 1.0 + eps], [1.0 + eps, 1.0]]) * 1e7
    EmitterEnsembleModel(omega_ref=1e15, delta=[0.0, 0.0],
                         xi=np.zeros((2, 2)), gamma=g)


def test_model_echo_is_json_ready():
    model = random_model(np.random.default_rng(3), 2)
    doc = json.loads(json.dumps(model.to_dict()))
    assert doc["n_emitters"] == 2
    assert doc["gamma_rad_per_s"]["re"][0][0] > 0


# --- ensemble propagation vs independent oracle -----------------------------

def test_ensemble_single_emitter_reduces_to_closed_form():
    gamma, delta, wref = 1.7e7, 3e6, 2e8
    model = EmitterEnsembleModel(omega_ref=wref, delta=[delta],
                                 xi=np.zeros((1, 1)),
                                 gamma=np.array([[gamma]]))
    amp = np.array([0.6, 0.8j])  # ground/excited superposition
    rho0 = pure_density(amp)
    t = np.linspace(0.0, 2.5e-7, 17)
    ens = evolve_ensemble(model, rho0, t)
    ref = evolve_single(gamma, delta, wref, (amp[1] * np.conj(amp[0]),
                                             abs(amp[1]) ** 2 - abs(amp[0]) ** 2), t)
    assert np.max(np.abs(ens.sigma - ref.sigma)) < 1e-9
    assert np.max(np.abs(ens.sigma_z - ref.sigma_z)) < 1e-9


def test_ensemble_matches_brute_oracle():
    rng = np.random.default_rng(7)
    model = random_model(rng, 2)
    rho0 = random_density(rng, 4)
    t = np.linspace(0.0, 1.2e-7, 7)
    traj = evolve_ensemble(model, rho0, t)
    ref_states = brute_states(model.delta, model.xi, model.gamma, rho0, t)
    ref_sig, ref_sz = brute_expectations(ref_states, 2)
    phase = np.exp(-1j * model.omega_ref * (t - t[0]))[:, None]
    assert np.max(np.abs(traj.sigma - ref_sig * phase)) < 1e-9
    assert np.max(np.abs(traj.sigma_z - ref_sz)) < 1e-9
    assert traj.rho is not None
    assert np.max(np.abs(traj.rho - ref_states)) < 1e-9


def test_symmetric_state_decays_at_twice_single_rate():
    g0 = 2.9e7
    model = EmitterEnsembleModel(omega_ref=3e8, delta=[0.0, 0.0],
                                 xi=np.zeros((2, 2)),
                                 gamma=np.full((2, 2), g0))
    sym = pure_density([0.0, 1.0, 1.0, 0.0])
    t = np.linspace(0.0, 0.35 / g0, 9)
    traj = evolve_ensemble(model, sym, t)
    exc = 0.5 * np.sum(traj.sigma_z + 1.0, axis=1)
    rate = -np.log(exc[-1] / exc[0]) / (t[-1] - t[0])
    assert abs(rate - 2.0 * g0) < 0.01 * 2.0 * g0
    # pointwise against the reference propagator as well
    ref_sig, ref_sz = brute_expectations(
        brute_states(model.delta, model.xi, model.gamma, sym, t), 2)
    assert np.max(np.abs(traj.sigma_z - ref_sz)) < 1e-9


def test_antisymmetric_state_is_dark():
    g0 = 2.9e7
    model = EmitterEnsembleModel(omega_ref=3e8, delta=[0.0, 0.0],
                                 xi=np.zeros((2, 2)),
                                 gamma=np.full((2, 2), g0))
    anti = pure_density([0.0, 1.0, -1.0, 0.0])
    t = np.linspace(0.0, 0.35 / g0, 9)
    traj = evolve_ensemble(model, anti, t)
    exc = 0.5 * np.sum(traj.sigma_z + 1.0, axis=1)
    rate = abs(np.log(exc[-1] / exc[0])) / (t[-1] - t[0])
    assert rate < 1e-3 * g0


def test_coherent_exchange_oscillation():
    # one excitation hopping between two emitters: the two single-excitation
    # eigenstates split by 2 xi, so the populations breathe at that frequency
    # inside the radiative envelope
    g0, xi12 = 1.4e7, 6e7
    model = EmitterEnsembleModel(
        omega_ref=3e8, delta=[0.0, 0.0],
        xi=np.array([[0.0, xi12], [xi12, 0.0]]),
        gamma=np.diag([g0, g0]).astype(complex))
    t = np.linspace(0.0, 1.5e-7, 31)
    traj = evolve_ensemble(model, product_density("eg"), t)
    n1 = 0.5 * (traj.sigma_z[:, 0] + 1.0)
    n2 = 0.5 * (traj.sigma_z[:, 1] + 1.0)
    assert np.max(np.abs(n1 - np.exp(-g0 * t) * np.cos(xi12 * t) ** 2)) < 1e-8
    assert np.max(np.abs(n2 - np.exp(-g0 * t) * np.sin(xi12 * t) ** 2)) < 1e-8


def test_total_excitation_never_increases():
    rng = np.random.default_rng(11)
    model = random_model(rng, 3, scale=4e7)
    rho0 = random_density(rng, 8)
    t = np.linspace(0.0, 2e-7, 9)
    traj = evolve_ensemble(model, rho0, t)
    exc = 0.5 * np.sum(traj.sigma_z + 1.0, axis=1)
    assert np.all(np.diff(exc) <= 1e-9)
    assert traj.rho is not None
    for snap in traj.rho:
        assert abs(np.trace(snap) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(snap).min() > -1e-9


# --- sector propagation vs the brute-force oracle --------------------------

def _popcount_mask(n, counts):
    return np.isin(np.bitwise_count(np.arange(2 ** n)), counts)


def _assert_matches_brute(model, rho0, t, tol=1e-9):
    n = model.n_emitters
    traj = evolve_ensemble(model, rho0, t, keep_states=True)
    states = brute_states(model.delta, model.xi, model.gamma, rho0, t)
    ref_sig, ref_sz = brute_expectations(states, n)
    phase = np.exp(-1j * model.omega_ref * (t - t[0]))[:, None]
    assert np.max(np.abs(traj.sigma - ref_sig * phase)) < tol
    assert np.max(np.abs(traj.sigma_z - ref_sz)) < tol
    assert np.max(np.abs(traj.rho - states)) < tol
    return traj


@pytest.mark.parametrize("labels", ["eee", "egg", "geg", "eeg",
                                    "eeee", "gege", "egee"])
def test_sector_propagation_product_starts(labels):
    rng = np.random.default_rng(len(labels))
    model = random_model(rng, len(labels))
    t = np.linspace(0.0, 1.2e-7, 6)
    traj = _assert_matches_brute(model, product_density(labels), t)
    assert np.all(traj.sigma == 0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_sector_propagation_pure_superposition(n):
    rng = np.random.default_rng(20 + n)
    model = random_model(rng, n)
    t = np.linspace(0.0, 1.2e-7, 6)
    traj = _assert_matches_brute(model, random_density(rng, 2 ** n), t)
    assert np.max(np.abs(traj.sigma)) > 1e-2


@pytest.mark.parametrize("n", [3, 4])
def test_sector_propagation_mixed_state_with_coherences(n):
    rng = np.random.default_rng(30 + n)
    model = random_model(rng, n)
    a = rng.normal(size=(2 ** n, 3)) + 1j * rng.normal(size=(2 ** n, 3))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    t = np.linspace(0.0, 1.2e-7, 6)
    traj = _assert_matches_brute(model, rho0, t)
    assert np.max(np.abs(traj.sigma)) > 1e-2


@pytest.mark.parametrize("n", [3, 4])
def test_sector_propagation_neighbouring_sectors(n):
    # one and two excitations: only the k - l = 0 and +-1 families
    rng = np.random.default_rng(40 + n)
    model = random_model(rng, n)
    amp = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amp[~_popcount_mask(n, [1, 2])] = 0.0
    t = np.linspace(0.0, 1.2e-7, 6)
    traj = _assert_matches_brute(model, pure_density(amp), t)
    assert np.max(np.abs(traj.sigma)) > 1e-2


def test_sector_propagation_without_neighbouring_coherence():
    # zero and two excitations: no k - l = +-1 family, so <sigma> is 0
    rng = np.random.default_rng(50)
    model = random_model(rng, 3)
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    amp[~_popcount_mask(3, [0, 2])] = 0.0
    t = np.linspace(0.0, 1.2e-7, 6)
    traj = _assert_matches_brute(model, pure_density(amp), t)
    assert np.all(traj.sigma == 0.0)


def test_single_excitation_of_ten_emitters_follows_effective_hamiltonian(
        monkeypatch):
    def no_dense_operators(n):
        raise AssertionError("evolve_ensemble built 2**n operators")
    monkeypatch.setattr(polyemit.dynamics, "lowering_operators",
                        no_dense_operators)
    n = 10
    model = random_model(np.random.default_rng(60), n)
    t = np.linspace(0.0, 1.5e-7, 13)
    traj = evolve_ensemble(model, product_density("e" + "g" * (n - 1)), t)
    h_eff = np.diag(model.delta) + model.xi - 0.5j * model.gamma
    c0 = np.zeros(n, dtype=complex)
    c0[0] = 1.0
    want = np.array([2.0 * np.abs(expm(-1j * h_eff * s) @ c0) ** 2 - 1.0
                     for s in t])
    assert np.max(np.abs(traj.sigma_z - want)) < 1e-7
    assert np.all(traj.sigma == 0.0)


def test_superradiant_cascade_follows_dicke_ladder():
    # identical emitters at one point: |J, M> decays to |J, M-1> at
    # g (J + M)(J - M + 1), and the total inversion is 2 M
    n, g = 8, 2.0e7
    model = EmitterEnsembleModel(omega_ref=3e8, delta=np.zeros(n),
                                 xi=np.zeros((n, n)),
                                 gamma=np.full((n, n), g))
    t = np.linspace(0.0, 1.0 / g, 21)
    traj = evolve_ensemble(model, product_density("e" * n), t)
    j = 0.5 * n
    m = j - np.arange(n + 1)
    rate = g * (j + m) * (j - m + 1.0)
    ladder = np.diag(-rate) + np.diag(rate[:-1], -1)
    p0 = np.zeros(n + 1)
    p0[0] = 1.0
    want = np.array([2.0 * m @ (expm(ladder * s) @ p0) for s in t])
    assert np.max(np.abs(traj.sigma_z.sum(axis=1) - want)) < 1e-7
    assert want[-1] < -0.9 * n      # the cascade has run its course


@pytest.mark.parametrize("start", ["product", "superposition"])
def test_invariant_checks_catch_a_corrupted_state(monkeypatch, start):
    # 2 rho(T) - rho(0) keeps the trace but, once the fidelity with the
    # start has fallen below 1/2, not positivity; 1.5 rho(T) keeps neither
    real_solve = polyemit.dynamics.solve_ivp
    rng = np.random.default_rng(70)
    model = random_model(rng, 2)
    rho0 = (product_density("eg") if start == "product"
            else random_density(rng, 4))
    t = np.linspace(0.0, 3e-7, 4)

    def corrupt(edit):
        def solve(*args, **kwargs):
            sol = real_solve(*args, **kwargs)
            sol.y[:, -1] = edit(sol.y)
            return sol
        monkeypatch.setattr(polyemit.dynamics, "solve_ivp", solve)

    corrupt(lambda y: 2.0 * y[:, -1] - y[:, 0])
    with pytest.raises(IntegrationError, match="positivity"):
        evolve_ensemble(model, rho0, t)
    corrupt(lambda y: 1.5 * y[:, -1])
    with pytest.raises(IntegrationError, match="trace"):
        evolve_ensemble(model, rho0, t)


def test_halved_tolerance_stays_within_reported_estimate():
    rng = np.random.default_rng(7)
    model = random_model(rng, 2)
    rho0 = random_density(rng, 4)
    t = np.linspace(0.0, 1.2e-7, 5)
    coarse = evolve_ensemble(model, rho0, t, rtol=1e-8, atol=1e-10)
    fine = evolve_ensemble(model, rho0, t, rtol=5e-9, atol=5e-11)
    assert coarse.error_estimate is not None and coarse.error_estimate > 0
    drift = max(np.max(np.abs(coarse.sigma - fine.sigma)),
                np.max(np.abs(coarse.sigma_z - fine.sigma_z)))
    assert drift < coarse.error_estimate
    assert coarse.error_estimate < 1e-4  # the bound stays meaningful


def test_ensemble_input_guards():
    model = random_model(np.random.default_rng(5), 2)
    t = np.linspace(0.0, 1e-7, 5)
    with pytest.raises(InputError, match="trace"):
        evolve_ensemble(model, np.diag([0.7, 0.4, 0.0, 0.0]), t)
    with pytest.raises(InputError, match="Hermitian"):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.3
        evolve_ensemble(model, rho, t)
    with pytest.raises(InputError, match="semidefinite"):
        evolve_ensemble(model, np.diag([1.4, -0.4, 0.0, 0.0]), t)
    with pytest.raises(InputError, match="shape"):
        evolve_ensemble(model, np.eye(2) / 2.0, t)
    with pytest.raises(InputError, match="increasing"):
        evolve_ensemble(model, np.diag([1.0, 0, 0, 0]), [1e-8, 0.0])
    with pytest.raises(InputError, match="tolerance"):
        evolve_ensemble(model, np.diag([1.0, 0, 0, 0]), t, rtol=-1.0)
    big = EmitterEnsembleModel(omega_ref=1e15, delta=np.zeros(11),
                               xi=np.zeros((11, 11)),
                               gamma=np.zeros((11, 11)))
    with pytest.raises(InputError, match="10 emitters"):
        evolve_ensemble(big, np.eye(2 ** 11) / 2 ** 11, t)
    seven = EmitterEnsembleModel(omega_ref=1e15, delta=np.zeros(7),
                                 xi=np.zeros((7, 7)), gamma=np.zeros((7, 7)))
    rho7 = np.zeros((128, 128), dtype=complex)
    rho7[0, 0] = 1.0
    with pytest.raises(InputError, match="6 emitters"):
        evolve_ensemble(seven, rho7, t, keep_states=True)


def test_block_diagonal_start_with_negative_sector_eigenvalue_is_rejected():
    # no coherence between sectors: positivity is checked on each (k, k)
    # block. The one-excitation block [[0.3, 0.4], [0.4, 0.2]] has the
    # eigenvalue 0.25 - sqrt(0.1625) < 0 although every diagonal entry of
    # the state is nonnegative.
    model = random_model(np.random.default_rng(5), 2)
    t = np.linspace(0.0, 1e-7, 5)
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    rho[1, 2] = rho[2, 1] = 0.4
    with pytest.raises(InputError, match="semidefinite"):
        evolve_ensemble(model, rho, t)
    # coherence with the ground state: the full matrix is checked
    rho[0, 1] = rho[1, 0] = 0.01
    with pytest.raises(InputError, match="semidefinite"):
        evolve_ensemble(model, rho, t)


def test_single_excitation_start_of_ten_emitters_is_checked_by_sector(
        monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    n = 10
    model = random_model(np.random.default_rng(61), n)
    evolve_ensemble(model, product_density("e" + "g" * (n - 1)),
                    np.linspace(0.0, 1e-8, 3))
    assert sizes and max(sizes) < 2 ** n


def test_state_helpers():
    rho = product_density("eg")
    assert rho.shape == (4, 4)
    assert rho[2, 2] == 1.0  # emitter 1 excited is the third basis state
    with pytest.raises(InputError, match="label"):
        product_density("ex")
    with pytest.raises(InputError, match="normalizable"):
        pure_density([0.0, 0.0])
    with pytest.raises(InputError, match="power of two"):
        pure_density([1.0, 0.0, 0.0])
    ops = lowering_operators(2)
    assert np.array_equal(ops[0], _sigmas(2)[0])
    assert np.array_equal(ops[1], _sigmas(2)[1])


# --- assembling models from environments ------------------------------------

def _pair(separation=80e-9, omega0=3.2e15, d=(8e-30, 0.0, 0.0)):
    e1 = MultipoleEmitter(position=np.zeros(3), omega0=omega0, d=d)
    e2 = MultipoleEmitter(position=np.array([0.0, 0.0, separation]),
                          omega0=omega0, d=d)
    return e1, e2


def test_build_ensemble_homogeneous():
    e1, e2 = _pair()
    med = Medium(1.0)
    model = build_ensemble([e1, e2], med)
    wbar = e1.omega0
    assert model.omega_ref == pytest.approx(wbar)
    assert np.all(model.delta == 0.0)

    jet0 = coincident_im_jet(wbar, med)
    g11 = collective_rate(e1, e1, jet0, omega_bar=wbar).gamma_cross
    assert model.gamma[0, 0] == pytest.approx(g11.real, rel=1e-12)
    jet12 = eval_homogeneous_jet(e1.position, e2.position, wbar, med)
    g12 = collective_rate(e1, e2, jet12, omega_bar=wbar).gamma_cross
    assert model.gamma[0, 1] == pytest.approx(g12, rel=1e-12)
    assert model.gamma[1, 0] == np.conj(model.gamma[0, 1])
    assert abs(model.gamma[0, 1]) < model.gamma[0, 0].real

    pm = homogeneous_pair_model(med, e1.position, e2.position)
    xi12 = coupling_strength(e1, e2, pm, omega_bar=wbar).xi
    assert model.xi[0, 1] == pytest.approx(xi12, rel=1e-9)
    assert model.xi[1, 0] == np.conj(model.xi[0, 1])
    assert np.linalg.eigvalsh(model.gamma).min() > -1e-10 * abs(g11)


def test_build_ensemble_random_multipole_sets(rng):
    # every channel pairing, MD-MD included, in vacuum and in a dielectric
    w0 = 3.2e15
    moments = {"d": ((3,), 1e-29), "m": ((3,), 1e-23), "Q": ((3, 3), 1e-39)}

    def moment(kind):
        shape, scale = moments[kind]
        return scale * (rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))

    for draw in range(6):
        med = Medium((1.0, 1.5)[draw % 2])
        ems = []
        for _ in range(3):
            kinds = [k for k in moments if rng.random() < 0.6] or ["m"]
            ems.append(MultipoleEmitter(
                position=rng.uniform(-150e-9, 150e-9, 3), omega0=w0,
                **{k: moment(k) for k in kinds}))
        model = build_ensemble(ems, med)
        assert np.array_equal(model.xi, model.xi.conj().T)
        assert np.array_equal(model.gamma, model.gamma.conj().T)
        scale = np.max(np.abs(model.gamma))
        assert np.linalg.eigvalsh(model.gamma).min() >= -1e-9 * scale
        jet0 = coincident_im_jet(w0, med)
        for a, e in enumerate(ems):
            rate = emission_rate(e, jet0).gamma_total
            assert abs(model.gamma[a, a] - rate) <= 1e-12 * rate


def test_build_ensemble_magnetic_pair_coupled_by_symmetry_to_zero():
    # crossed MDs along x + y and x - y, 120 nm apart along x + y: the
    # coupling vanishes by symmetry and its integrand is pure roundoff,
    # down to the overflow of the jet at kappa -> 0 if bisection chased it
    s = 1.0 / math.sqrt(2.0)
    w0, mu = 2.4127e15, 9.2740100783e-24
    a = MultipoleEmitter(position=np.zeros(3), omega0=w0,
                         m=mu * np.array([s, s, 0.0]))
    b = MultipoleEmitter(position=120e-9 * np.array([s, s, 0.0]), omega0=w0,
                         m=mu * np.array([s, -s, 0.0]))
    model = build_ensemble([a, b], Medium(1.0))
    gamma_a = model.gamma[0, 0].real
    assert gamma_a > 0 and model.gamma[1, 1] == model.gamma[0, 0]
    assert abs(model.xi[0, 1]) <= 1e-10 * gamma_a


def test_build_ensemble_inert_pair():
    a = MultipoleEmitter(position=np.zeros(3), omega0=3.2e15)
    b = MultipoleEmitter(position=np.array([0.0, 0.0, 50e-9]), omega0=3.2e15)
    for pair in ([a, b], [a, a]):   # inert twins at one position: no error
        model = build_ensemble(pair, Medium(1.0))
        assert np.all(model.gamma == 0.0)
        assert np.all(model.xi == 0.0)
        assert np.all(model.delta == 0.0)


def test_build_ensemble_colocated_coupling_diverges():
    e1, e2 = _pair(separation=0.0)
    with pytest.raises(CoincidentPointError):
        build_ensemble([e1, e2], Medium(1.0))
    # the diagonal is decided by index: one emitter listed twice is a pair
    with pytest.raises(CoincidentPointError, match="same position"):
        build_ensemble([e1, e1], Medium(1.0))


def test_build_ensemble_frequency_guard():
    e1, _ = _pair()
    e2 = MultipoleEmitter(position=np.array([0.0, 0.0, 80e-9]),
                          omega0=3.3e15, d=(8e-30, 0.0, 0.0))
    with pytest.raises(InputError, match="frequenc"):
        build_ensemble([e1, e2], Medium(1.0))


def test_build_ensemble_from_grid():
    e1, e2 = _pair(separation=60e-9)
    med = Medium(1.0)
    wbar = e1.omega0
    ax = np.array([-60e-9, 0.0, 60e-9])
    grid = grid_from_homogeneous(med, wbar, (ax, ax, ax))
    model = build_ensemble([e1, e2], grid)
    assert model.omega_ref == pytest.approx(wbar)
    ref = build_ensemble([e1, e2], med)
    assert model.gamma[0, 0] == pytest.approx(ref.gamma[0, 0].real, rel=1e-9)
    assert model.gamma[1, 1] == pytest.approx(ref.gamma[1, 1].real, rel=1e-9)
    # a coincident-map grid carries no two-point data
    assert model.gamma[0, 1] == 0.0
    assert np.all(model.xi == 0.0)


def test_build_ensemble_from_pair_models():
    e1, e2 = _pair()
    wbar = e1.omega0
    amp = 5e12 * np.eye(3)

    def factory(a, b):
        return lorentzian_model([({"value": amp}, 1.05 * wbar, 0.02 * wbar)])

    model = build_ensemble([e1, e2], factory)
    m = factory(e1, e1)
    g11 = collective_rate(e1, e1, m, omega_bar=wbar).gamma_cross
    assert model.gamma[0, 0] == pytest.approx(g11.real, rel=1e-12)
    assert model.delta[0] == pytest.approx(lamb_shift(e1, m), rel=1e-9)
    xi12 = coupling_strength(e1, e2, factory(e1, e2), omega_bar=wbar).xi
    assert model.xi[0, 1] == pytest.approx(xi12, rel=1e-9)
    assert model.delta[0] != 0.0


def test_build_ensemble_rejects_unknown_environment():
    e1, e2 = _pair()
    with pytest.raises(InputError, match="environment"):
        build_ensemble([e1, e2], object())
    # a jet has no frequency dependence to integrate for the coupling xi
    jet = coincident_im_jet(e1.omega0, Medium(1.0))
    with pytest.raises(InputError, match="spectral model"):
        build_ensemble([e1, e2], lambda a, b: jet)
