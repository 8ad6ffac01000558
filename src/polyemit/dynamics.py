"""Open quantum dynamics of interacting two-level multipole emitters.

The electromagnetic environment enters only through ensemble coefficients
(all rad/s): per-emitter level shifts delta_a, a Hermitian coherent
coupling matrix xi_ab, and a positive-semidefinite collective decay matrix
gamma_ab. With sigma_a the lowering operator of emitter a and n_a its
excited-state projector, the density matrix evolves in the frame rotating
at the reference frequency w_ref under

    drho/dt = -i [sum_a delta_a n_a + sum_ab xi_ab sigma_a^+ sigma_b, rho]
              + sum_ab gamma_ab (sigma_b rho sigma_a^+
                                 - (sigma_a^+ sigma_b rho
                                    + rho sigma_a^+ sigma_b) / 2)

Heisenberg equations close for one emitter but couple ever higher operator
products once two or more emitters interact, so the density matrix itself
is propagated. H conserves the number of excited emitters and every jump
lowers it by one, so rho splits into blocks rho_(k,l) between the sectors
of k and l excitations, and the blocks with one value of k - l form a
closed family, each fed only by the block one sector up. Only the
families and sectors the initial state populates are integrated (a single
excitation is an (n+1)-dimensional problem); exact, capped at 10 emitters
(dimension 1024). Two index arrays per sector, read off the basis bit
patterns, give each member's unexcited emitters and its place one sector
up once one of them is raised. The dense drift block of every sector and
one sparse jump operator over all carried blocks are built from them.
Negative decay-matrix eigenvalues inside the model's tolerance band are
clipped to zero.

Rate convention: gamma_aa is the population decay rate of emitter a, so a
lone coherence decays at gamma_aa / 2. The diagonal of xi acts as an
additional frequency shift; model builders in this module keep it at zero
and put self shifts into delta.

Reported <sigma_a> values are lab frame, carrying the full
exp(-i w_ref (t - t0)) phase; density matrix snapshots stay in the
rotating frame. The lab phase is formed in double precision, so
w_ref * t products beyond ~1e12 rad lose phase digits; populations and
<sigma_z> are frame independent and unaffected.

Basis conventions: per emitter, index 0 is ground and 1 is excited;
emitter 0 is the leftmost Kronecker factor; sigma = |g><e| and
sigma_z = 2 n - 1.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import csr_matrix

from .emitter import MultipoleEmitter
from .errors import (CoincidentPointError, InputError, IntegrationError,
                     increasing_axis, positive_number)
from .grid import TensorGrid
from .homogeneous import Medium, coincident_im_jet
from .quadrature import SpectralGreenModel, homogeneous_pair_model
from .rates import (_FREQ_RATIO_TOL, _real_entry, _reference_frequency,
                    collective_rate, coupling_strength, lamb_shift)

_MAX_EMITTERS = 10       # propagation cap, state dimension 2**10
_MAX_SNAPSHOT = 6        # density matrices retained on trajectories
_HERM_RTOL = 1e-8        # relative asymmetry allowed before rejection
_PSD_RTOL = 1e-10        # decay-matrix eigenvalue floor, relative to norm
_TRACE_TOL = 1e-9
_BOUND_TOL = 1e-7        # slack on [-1, 1] expectation bounds


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _finite(arr: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag)))


def product_density(labels: str) -> np.ndarray:
    """Density matrix of a product state given per-emitter labels,
    e.g. "eg" puts emitter 1 excited and emitter 2 in the ground state."""
    single = {"g": np.array([1.0, 0.0], dtype=complex),
              "e": np.array([0.0, 1.0], dtype=complex)}
    if not labels or any(c not in single for c in labels):
        raise InputError(
            f"unknown state label in {labels!r}; use 'g' and 'e' only")
    vec = np.ones(1, dtype=complex)
    for c in labels:
        vec = np.kron(vec, single[c])
    return np.outer(vec, vec.conj())


def pure_density(amplitudes) -> np.ndarray:
    """Density matrix of a pure state from its basis amplitudes."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    dim = vec.size
    if dim < 2 or dim & (dim - 1):
        raise InputError("amplitude count must be a power of two (2**N)")
    if not _finite(vec):
        raise InputError("state amplitudes must be finite")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise InputError("zero state vector is not normalizable")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def _hermitize(mat: np.ndarray, name: str) -> np.ndarray:
    scale = float(np.max(np.abs(mat)))
    if scale > 0.0:
        asym = float(np.max(np.abs(mat - mat.conj().T)))
        if asym > _HERM_RTOL * scale:
            raise InputError(
                f"{name} must be Hermitian; relative asymmetry "
                f"{asym / scale:.2e} exceeds {_HERM_RTOL:g}")
    return 0.5 * (mat + mat.conj().T)


@dataclass(frozen=True, eq=False)
class EmitterEnsembleModel:
    """Coefficients of the ensemble master equation.

    omega_ref is the common reference frequency (rad/s); emitter a
    oscillates at omega_ref + delta[a]. xi (Hermitian) couples excitation
    exchange, gamma (Hermitian, positive semidefinite up to a relative
    tolerance of 1e-10) drives collective decay. Matrices are stored
    exactly symmetrized.
    """

    omega_ref: float
    delta: np.ndarray
    xi: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega_ref", positive_number(
            self.omega_ref, "reference frequency omega_ref"))

        delta = np.asarray(self.delta, dtype=float)
        if delta.ndim != 1 or delta.size == 0:
            raise InputError("delta must be a 1-D array, one entry per emitter")
        if not np.all(np.isfinite(delta)):
            raise InputError("delta entries must be finite")
        n = delta.size

        mats = {}
        for name in ("xi", "gamma"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            if mat.shape != (n, n):
                raise InputError(
                    f"{name} has shape {mat.shape}, expected ({n}, {n}) "
                    f"for {n} emitters")
            if not _finite(mat):
                raise InputError(f"{name} entries must be finite")
            mats[name] = _hermitize(mat, name)

        eig = np.linalg.eigvalsh(mats["gamma"])
        norm = float(np.max(np.abs(eig))) if eig.size else 0.0
        if norm > 0.0 and eig[0] < -_PSD_RTOL * norm:
            raise InputError(
                f"decay matrix must be positive semidefinite; smallest "
                f"eigenvalue {eig[0]:.3e} is below -{_PSD_RTOL:g} of the "
                f"norm {norm:.3e}")

        object.__setattr__(self, "delta", _frozen(delta))
        object.__setattr__(self, "xi", _frozen(mats["xi"]))
        object.__setattr__(self, "gamma", _frozen(mats["gamma"]))

    @property
    def n_emitters(self) -> int:
        return self.delta.size

    def to_dict(self) -> dict:
        return {"n_emitters": int(self.n_emitters),
                "omega_ref_rad_per_s": self.omega_ref,
                "delta_rad_per_s": self.delta.tolist(),
                "xi_rad_per_s": {"re": self.xi.real.tolist(),
                                 "im": self.xi.imag.tolist()},
                "gamma_rad_per_s": {"re": self.gamma.real.tolist(),
                                    "im": self.gamma.imag.tolist()}}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Expectation values on a time grid, one column per emitter.

    sigma holds lab-frame <sigma_a> (complex), sigma_z the inversion.
    rho, when kept, holds density-matrix snapshots in the frame rotating
    at omega_ref (omega_ref = 0 means lab frame). Construction re-checks
    the physical bounds and refuses data that violates them:
    sigma_z within [-1, 1] and |<sigma>| <= 1 up to a slack of 1e-7,
    snapshot traces equal to one within 1e-9.
    """

    times: np.ndarray
    sigma: np.ndarray
    sigma_z: np.ndarray
    omega_ref: float = 0.0
    rho: Optional[np.ndarray] = None
    error_estimate: Optional[float] = None

    def __post_init__(self):
        times = _time_grid(self.times)
        nt = times.size

        sigma = np.asarray(self.sigma, dtype=complex)
        sigma_z = np.asarray(self.sigma_z, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != nt:
            raise InputError(f"sigma has shape {sigma.shape}, expected "
                             f"({nt}, n_emitters)")
        if sigma_z.shape != sigma.shape:
            raise InputError(f"sigma_z shape {sigma_z.shape} does not match "
                             f"sigma shape {sigma.shape}")
        if not (_finite(sigma) and np.all(np.isfinite(sigma_z))):
            raise InputError("expectation values must be finite")
        if np.any(np.abs(sigma_z) > 1.0 + _BOUND_TOL):
            raise InputError("sigma_z leaves [-1, 1] beyond tolerance")
        if np.any(np.abs(sigma) > 1.0 + _BOUND_TOL):
            raise InputError("coherence magnitude exceeds 1 beyond tolerance")

        rho = self.rho
        if rho is not None:
            rho = np.asarray(rho, dtype=complex)
            dim = 2 ** sigma.shape[1]
            if rho.shape != (nt, dim, dim):
                raise InputError(f"rho has shape {rho.shape}, expected "
                                 f"({nt}, {dim}, {dim})")
            if not _finite(rho):
                raise InputError("density snapshots must be finite")
            traces = np.trace(rho, axis1=1, axis2=2)
            if np.max(np.abs(traces - 1.0)) > _TRACE_TOL:
                raise InputError("density matrix trace deviates from one "
                                 f"beyond {_TRACE_TOL:g}")
            rho = _frozen(rho)

        err = self.error_estimate
        if err is not None:
            err = float(err)
            if not (err >= 0.0 and math.isfinite(err)):
                raise InputError("error estimate must be a finite "
                                 "non-negative number")

        object.__setattr__(self, "times", _frozen(times))
        object.__setattr__(self, "sigma", _frozen(sigma))
        object.__setattr__(self, "sigma_z", _frozen(sigma_z))
        object.__setattr__(self, "omega_ref", float(self.omega_ref))
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "error_estimate", err)

    @property
    def n_emitters(self) -> int:
        return self.sigma.shape[1]

    def table(self) -> tuple:
        """Column headers plus a float matrix, one row per grid time."""
        headers = ["time_s"]
        cols = [self.times]
        for a in range(self.n_emitters):
            headers += [f"re_sigma_{a + 1}", f"im_sigma_{a + 1}",
                        f"sigma_z_{a + 1}"]
            cols += [self.sigma[:, a].real, self.sigma[:, a].imag,
                     self.sigma_z[:, a]]
        return headers, np.column_stack(cols)

    def to_dict(self) -> dict:
        return {"times_s": self.times.tolist(),
                "omega_ref_rad_per_s": self.omega_ref,
                "sigma_re": self.sigma.real.tolist(),
                "sigma_im": self.sigma.imag.tolist(),
                "sigma_z": self.sigma_z.tolist(),
                "error_estimate": self.error_estimate}


def _time_grid(times) -> np.ndarray:
    return increasing_axis(times, "time grid")


def _check_density(rho: np.ndarray, members: list, what: str) -> np.ndarray:
    """rho as a Hermitian, unit-trace, positive semidefinite density over
    the basis that members splits into excitation sectors (see _sectors).

    Without coherence between sectors (exactly zero entries there) the
    spectrum is checked block by block on the populated (k, k) blocks;
    otherwise on the full matrix.
    """
    dim = sum(m.size for m in members)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise InputError(f"{what} has shape {rho.shape}, expected "
                         f"({dim}, {dim})")
    if not _finite(rho):
        raise InputError(f"{what} must be finite")
    rho = _hermitize(rho, what)
    if abs(np.trace(rho) - 1.0) > _TRACE_TOL:
        raise InputError(f"{what} must have unit trace within {_TRACE_TOL:g}")
    sector = np.empty(dim, dtype=np.intp)
    for k, m in enumerate(members):
        sector[m] = k
    if np.any(rho[sector[:, None] != sector]):
        blocks = [rho]
    else:
        blocks = [blk for blk in (rho[np.ix_(m, m)] for m in members)
                  if np.any(blk)]
    if min(np.linalg.eigvalsh(blk)[0] for blk in blocks) < -1e-9:
        raise InputError(f"{what} must be positive semidefinite")
    return rho


def _sectors(n: int) -> tuple:
    """Excitation sectors of the 2**n basis, read off the bit patterns.

    members[k] lists the basis indices with k excited emitters, ascending
    (emitter a is excited when bit n-1-a is set), and occupation[k] is
    their (C(n,k), n) excitation table. lift[k] = (free, up), two
    (C(n,k), n-k) index arrays: free holds the unexcited emitters of each
    member, ascending, and up that member's place in sector k+1 once the
    emitter beside it is raised.
    """
    index = np.arange(2 ** n)
    count = np.bitwise_count(index)
    members = [np.flatnonzero(count == k) for k in range(n + 1)]
    place = np.empty(index.size, dtype=np.intp)
    for m in members:
        place[m] = np.arange(m.size)
    bits = 1 << (n - 1 - np.arange(n))
    occupation = [(m[:, None] & bits) != 0 for m in members]
    lift = []
    for k in range(n):
        free = np.nonzero(~occupation[k])[1].reshape(-1, n - k)
        lift.append((free, place[members[k][:, None] | bits[free]]))
    return members, occupation, lift


def _sector_operators(model: EmitterEnsembleModel, lift: list,
                      layout: dict, size: int) -> tuple:
    """Drift blocks and the jump operator of the carried blocks.

    drift[k] is D = -i H - (1/2) sum_ab gamma_ab sigma_a^+ sigma_b on
    sector k, read off the index arrays of sector k-1: each member j
    there, with unexcited emitters a and b, adds coef_ab to entry
    (up_a(j), up_b(j)).

    jump (size x size, CSR over the packed state of layout) maps every
    carried block rho_(k+1,l+1) to the jump term
    sum_ab gamma_ab sigma_b rho_(k+1,l+1) sigma_a^+ of block (k, l). Entry
    (i, j) of that term has exactly (n-k)(n-l) terms: over the unexcited
    emitters b of i and a of j, rho_(k+1,l+1)[up_b(i), up_a(j)] with
    weight gamma_ab. Every row of a block thus has one count, so the
    row pointers are known before any entry is written. Negative decay
    eigenvalues inside the model's tolerance band are clipped to zero.
    """
    n = model.n_emitters
    eig, vec = np.linalg.eigh(model.gamma)
    gamma = (vec * np.where(eig > 0.0, eig, 0.0)) @ vec.conj().T
    coef = -1j * (np.diag(model.delta) + model.xi) - 0.5 * gamma
    top = max(k for k, _ in layout)
    drift = [np.zeros((1, 1), dtype=complex)]
    for k in range(1, top + 1):
        free, up = lift[k - 1]
        block = np.zeros((math.comb(n, k),) * 2, dtype=complex)
        np.add.at(block, (up[:, :, None], up[:, None, :]),
                  coef[free[:, :, None], free[:, None, :]])
        drift.append(block)

    # the blocks whose block one sector up is carried
    fed = {(k, l): part for (k, l), (part, _) in layout.items()
           if (k + 1, l + 1) in layout}
    indptr = np.zeros(size + 1, dtype=np.int32)
    for (k, l), part in fed.items():
        indptr[part.start + 1:part.stop + 1] = (n - k) * (n - l)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    for (k, l), part in fed.items():
        # entries of block (k, l) as (row i, column j, raised b, raised a)
        (free_b, up_b), (free_a, up_a) = lift[k], lift[l]
        free_b, up_b = free_b[:, None, :, None], up_b[:, None, :, None]
        free_a, up_a = free_a[None, :, None, :], up_a[None, :, None, :]
        shape = np.broadcast_shapes(up_b.shape, up_a.shape)
        entries = slice(indptr[part.start], indptr[part.stop])
        upper, (_, width) = layout[k + 1, l + 1]
        np.add(upper.start + width * up_b, up_a, casting="unsafe",
               out=indices[entries].reshape(shape))
        np.take(gamma, n * free_a + free_b, out=data[entries].reshape(shape))
    jump = csr_matrix((data, indices, indptr), shape=(size, size))
    return drift, jump


def _dense(blocks: dict, members: list, dim: int) -> np.ndarray:
    """Full (nt, dim, dim) states from the carried (k, l) blocks, k >= l."""
    nt = next(iter(blocks.values())).shape[0]
    out = np.zeros((nt, dim, dim), dtype=complex)
    for (k, l), arr in blocks.items():
        out[:, members[k][:, None], members[l]] = arr
        if k != l:
            out[:, members[l][:, None], members[k]] = \
                np.conj(np.swapaxes(arr, 1, 2))
    return out


def _integrate(model: EmitterEnsembleModel, lift: list, layout: dict,
               size: int, y0: np.ndarray, tau: np.ndarray, rtol: float,
               atol: float) -> np.ndarray:
    """Packed blocks (size, len(tau)) at the offsets tau from y0. The
    operators live only for the solve."""
    drift, jump = _sector_operators(model, lift, layout, size)
    drift_h = [d.conj().T for d in drift]

    def rhs(_t, y):
        z = y[:size] + 1j * y[size:]
        out = jump @ z
        for (k, l), (part, shape) in layout.items():
            rho = z[part].reshape(shape)
            if k == l:
                der = drift[k] @ rho
                der += der.conj().T
            else:
                der = drift[k] @ rho + rho @ drift_h[l]
            out[part] += der.ravel()
        return np.concatenate([out.real, out.imag])

    sol = solve_ivp(rhs, (0.0, float(tau[-1])),
                    np.concatenate([y0.real, y0.imag]), method="DOP853",
                    t_eval=tau, rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"step control failed: {sol.message}")
    return sol.y[:size] + 1j * sol.y[size:]


def evolve_ensemble(model: EmitterEnsembleModel, rho0, times,
                    rtol: float = 1e-10, atol: float = 1e-12,
                    keep_states: Optional[bool] = None) -> Trajectory:
    """Master-equation propagation of the ensemble state, sector by sector.

    The state is split into blocks rho_(k,l) between the sectors of k and
    l excited emitters. Only the families k - l in which rho0 has an
    exactly nonzero entry are carried, up to the highest excitation rho0
    populates, and of each Hermitian pair of families only k >= l; all
    other blocks stay exactly zero. Each block obeys

        d rho_kl/dt = D_k rho_kl + rho_kl D_l^+
                      + sum_ab gamma_ab sigma_b rho_(k+1,l+1) sigma_a^+

    with D = -i H - (1/2) sum_ab gamma_ab sigma_a^+ sigma_b restricted to
    a sector. Every right-hand side makes one dense drift product per
    carried block and one sparse mat-vec for all the jump terms together:
    the jump operator, built once per call, stores exactly the
    (n-k)(n-l) terms of each entry of block (k, l). The blocks are
    integrated together with an adaptive high-order Runge-Kutta scheme;
    no 2**n x 2**n operator is formed.

    Expectations are evaluated on the requested grid, and at every output
    time the trace must stay at one (within 1e-9) and the state positive.
    A start with only the k = l family stays block diagonal, so every
    (k, k) block gets a spectral check; otherwise the state is assembled
    and checked spectrally up to dimension 64, by diagonal and purity
    bounds beyond that. Violations raise IntegrationError (loosened
    rtol/atol surface here first).

    Density snapshots are retained for up to 6 emitters by default;
    keep_states forces or suppresses that. The returned error_estimate is
    a deliberately conservative bound on the endpoint expectation error,
    scaled from the requested tolerances and the dimensionless horizon.
    """
    if not isinstance(model, EmitterEnsembleModel):
        raise InputError("model must be an EmitterEnsembleModel")
    n = model.n_emitters
    if n > _MAX_EMITTERS:
        raise InputError(
            f"propagation is capped at {_MAX_EMITTERS} emitters "
            f"(state dimension {2 ** _MAX_EMITTERS})")
    dim = 2 ** n
    if keep_states is None:
        keep_states = n <= _MAX_SNAPSHOT
    elif keep_states and n > _MAX_SNAPSHOT:
        raise InputError(f"state snapshots are kept only up to "
                         f"{_MAX_SNAPSHOT} emitters")
    rtol = positive_number(rtol, "tolerance rtol")
    atol = positive_number(atol, "tolerance atol")
    if rtol > 1e-6 or atol > 1e-6:
        raise InputError("tolerances must be at most 1e-6")
    times = _time_grid(times)
    members, occupation, lift = _sectors(n)
    rho_init = _check_density(rho0, members, "initial state")
    top = max(k for k in range(n + 1) if np.any(rho_init[members[k]] != 0))
    families = [d for d in range(top + 1)
                if any(np.any(rho_init[np.ix_(members[k], members[k - d])]
                              != 0) for k in range(d, top + 1))]
    layout = {}     # (k, l) -> (slice of the packed state, block shape)
    size = 0
    for d in families:
        for k in range(d, top + 1):
            shape = (members[k].size, members[k - d].size)
            layout[k, k - d] = (slice(size, size + shape[0] * shape[1]), shape)
            size += shape[0] * shape[1]
    tau = times - times[0]
    y0 = np.concatenate([rho_init[np.ix_(members[k], members[l])].ravel()
                         for k, l in layout])
    if times.size == 1:
        path = y0[:, None]
    else:
        path = _integrate(model, lift, layout, size, y0, tau, rtol, atol)
    nt = times.size
    blocks = {}
    for (k, l), (part, shape) in layout.items():
        arr = path[part].T.reshape(nt, *shape)
        if k == l:
            arr = 0.5 * (arr + np.conj(np.swapaxes(arr, 1, 2)))
        blocks[k, l] = arr
    diagonals = [np.diagonal(blocks[k, k], axis1=1, axis2=2).real
                 for k in range(top + 1)]

    # state invariants at every output time
    pos_tol = _BOUND_TOL
    trace = sum(diag.sum(axis=1) for diag in diagonals)
    block_diagonal = families == [0]
    if block_diagonal:
        # the state stays block diagonal: exact spectral check per sector
        lowest = np.min([np.linalg.eigvalsh(blocks[k, k])[:, 0]
                         for k in range(top + 1)], axis=0)
    for i in range(nt):
        if abs(trace[i] - 1.0) > _TRACE_TOL:
            raise IntegrationError(
                f"trace drifted beyond {_TRACE_TOL:g} at output time "
                f"{times[i]:.6g}; tighten rtol/atol")
        if block_diagonal:
            bad = lowest[i] < -pos_tol
        else:
            snap = _dense({key: arr[i:i + 1] for key, arr in blocks.items()},
                          members, dim)[0]
            bad = (np.min(np.diagonal(snap).real) < -pos_tol
                   or float(np.sum(np.abs(snap) ** 2)) > 1.0 + pos_tol)
            if not bad and dim <= 64:
                bad = np.linalg.eigvalsh(snap)[0] < -pos_tol
        if bad:
            raise IntegrationError(
                f"state positivity violated beyond {pos_tol:g} at output "
                f"time {times[i]:.6g}; tighten rtol/atol")

    sz = 2.0 * sum(diag @ occupation[k]
                   for k, diag in enumerate(diagonals)) - 1.0
    sig_rot = np.zeros((nt, n), dtype=complex)
    if 1 in families:
        # <sigma_a> sums the (k, k-1) entries that pair a member of sector
        # k-1 with the same member with emitter a excited
        for k in range(1, top + 1):
            free, up = lift[k - 1]
            cols = np.arange(free.shape[0])[:, None]
            np.add.at(sig_rot, (slice(None), free), blocks[k, k - 1][:, up, cols])
    sigma_lab = sig_rot * np.exp(-1j * model.omega_ref * tau)[:, None]

    rate_scale = max(float(np.max(np.abs(np.linalg.eigvalsh(model.gamma)))),
                     float(np.linalg.norm(model.xi, 2)) if n else 0.0,
                     float(np.max(np.abs(model.delta))))
    horizon = float(tau[-1]) * rate_scale
    estimate = (50.0 + 10.0 * horizon) * rtol + 10.0 * (1.0 + horizon) * atol

    return Trajectory(times=times, sigma=sigma_lab, sigma_z=sz,
                      omega_ref=model.omega_ref,
                      rho=_dense(blocks, members, dim) if keep_states else None,
                      error_estimate=estimate)


# --- assembling ensemble coefficients from an environment -------------------

def _pair_source(environment, omega_ref: float):
    """environment as (a, b, diagonal) -> GreensJet, spectral model or None."""
    if isinstance(environment, Medium):
        jet0 = coincident_im_jet(omega_ref, environment)

        def medium(a, b, diagonal):
            if diagonal:
                return jet0
            if float(np.linalg.norm(a.position - b.position)) == 0.0:
                raise CoincidentPointError(
                    "coherent coupling diverges for emitters at the "
                    "same position; assemble the model directly with "
                    "the xi you intend")
            return homogeneous_pair_model(environment, a.position,
                                          b.position)
        return medium
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


def build_ensemble(emitters, environment, omega_ref: Optional[float] = None,
                   rel_tol: float = 1e-8) -> EmitterEnsembleModel:
    """Ensemble coefficients from pairwise environment responses.

    environment selects what each emitter pair sees:

    * Medium: uniform-medium analytics. Decay entries come from the
      two-point imaginary-part jet (coincident jet on the diagonal),
      couplings from the imaginary-axis form of the pair-bound spectral
      model. Level shifts are zero by convention (the uniform background
      shift is absorbed into the transition frequencies). Emitters at the
      same position have a divergent coherent coupling and are rejected.
    * TensorGrid: sampled coincident data. Only the decay diagonal can be
      filled (a coincident map carries no two-point propagation), so
      cross couplings and shifts are zero; emitters must lie inside the
      grid. When omega_ref is omitted it is taken from the grid.
    * callable (a, b) -> spectral model or None: fully custom. Diagonal
      models supply the decay entry, and the level shift when they
      declare themselves scattered; off-diagonal models supply decay and
      coherent coupling (a bare jet is rejected there). None leaves the
      pair at zero.

    One loop over the pairs a <= b serves every environment, with the
    diagonal decided by index. Off-diagonal entries are computed once and
    mirrored, so the matrices are exactly Hermitian; positive
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
    source = _pair_source(environment, wbar)

    n = len(ems)
    delta = np.zeros(n)
    xi = np.zeros((n, n), dtype=complex)
    gamma = np.zeros((n, n), dtype=complex)
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
                    delta[a] = lamb_shift(ea, pair, rel_tol=rel_tol)
                continue
            if not isinstance(pair, SpectralGreenModel):
                raise InputError(
                    f"emitters {a} and {b} need a spectral model for their "
                    f"coupling, not a {type(pair).__name__}")
            gamma[a, b] = rate
            gamma[b, a] = np.conj(rate)
            xi[a, b] = coupling_strength(
                ea, eb, pair, omega_bar=wbar, rel_tol=rel_tol).xi
            xi[b, a] = np.conj(xi[a, b])

    return EmitterEnsembleModel(omega_ref=wbar, delta=delta, xi=xi,
                                gamma=gamma)
