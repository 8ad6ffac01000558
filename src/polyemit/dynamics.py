"""Open quantum dynamics of interacting two-level multipole emitters.

This module only propagates: the environment enters through ensemble
coefficients (rad/s, from rates.build_ensemble or a model document), the
level shifts delta_a, a Hermitian coupling matrix xi_ab and a
positive-semidefinite decay matrix gamma_ab. With sigma_a the lowering
operator of emitter a and n_a its excited-state projector, the density
matrix evolves in the frame rotating at the reference frequency w_ref under

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
The solver carries each Hermitian (k, k) block as its lower triangle
only, and every other block whole. Negative decay-matrix eigenvalues
inside the model's tolerance band are clipped to zero.

Rate convention: gamma_aa is the population decay rate of emitter a, so a
lone coherence decays at gamma_aa / 2. The diagonal of xi acts as an
additional frequency shift; rates.build_ensemble keeps it at zero and
puts self shifts into delta.

Reported <sigma_a> values are lab frame, carrying the full
exp(-i w_ref (t - t0)) phase; density matrix snapshots stay in the
rotating frame. The lab phase is formed in double precision, so
w_ref * t products beyond ~1e12 rad lose phase digits; populations and
<sigma_z> are frame independent and unaffected.

Basis conventions: per emitter, index 0 is ground and 1 is excited;
emitter a is bit n-1-a of a basis index (_bits), so emitter 0 is the
leftmost Kronecker factor; sigma = |g><e| and sigma_z = 2 n - 1.
"""
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.sparse import csr_matrix

from .errors import (InputError, IntegrationError, finite_array,
                     increasing_axis, is_number, positive_number)

_MAX_EMITTERS = 10       # propagation cap, state dimension 2**10
_MAX_SNAPSHOT = 6        # snapshots; 2**6 states cap the exact coherent check
_HERM_RTOL = 1e-8        # relative asymmetry allowed before rejection
_PSD_RTOL = 1e-10        # decay-matrix eigenvalue floor, relative to norm
_TRACE_TOL = 1e-9
_BOUND_TOL = 1e-7        # slack on [-1, 1] expectation bounds


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def product_density(labels: str) -> np.ndarray:
    """Density matrix of a product state given per-emitter labels,
    e.g. "eg" puts emitter 1 excited and emitter 2 in the ground state:
    one basis state, whose set bits (see _bits) are the excited emitters."""
    if not labels or any(c not in ("g", "e") for c in labels):
        raise InputError(
            f"unknown state label in {labels!r}; use 'g' and 'e' only")
    state = int(_bits(len(labels)) @ [c == "e" for c in labels])
    rho = np.zeros((2 ** len(labels),) * 2, dtype=complex)
    rho[state, state] = 1.0
    return rho


def pure_density(amplitudes) -> np.ndarray:
    """Density matrix of a pure state from its basis amplitudes."""
    vec = finite_array(amplitudes, "state amplitudes").reshape(-1)
    dim = vec.size
    if dim < 2 or dim & (dim - 1):
        raise InputError("amplitude count must be a power of two (2**N)")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise InputError("zero state vector is not normalizable")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def _hermitize(mat: np.ndarray, name: str) -> np.ndarray:
    scale = float(np.max(np.abs(mat), initial=0.0))
    if scale > 0.0:
        asym = float(np.max(np.abs(mat - mat.conj().T)))
        if asym > _HERM_RTOL * scale:
            raise InputError(
                f"{name} must be Hermitian; relative asymmetry "
                f"{asym / scale:.2e} exceeds {_HERM_RTOL:g}")
    # halved before the sum, which would overflow for entries above 9e307
    return 0.5 * mat + 0.5 * mat.conj().T


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

        delta = finite_array(self.delta, "delta", real=True)
        if delta.ndim != 1 or delta.size == 0:
            raise InputError("delta must be a 1-D array, one entry per emitter")
        n = delta.size

        mats = {}
        for name in ("xi", "gamma"):
            mat = finite_array(getattr(self, name), name, (n, n))
            mats[name] = _hermitize(mat, name)

        eig = np.linalg.eigvalsh(mats["gamma"])
        norm = float(np.max(np.abs(eig)))
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
        """The model document, e.g. for two emitters

            {"n_emitters": 2, "omega_ref_rad_per_s": 3e8,
             "delta_rad_per_s": [0, 0],
             "xi_rad_per_s": {"re": [[0, 0], [0, 0]],
                              "im": [[0, 0], [0, 0]]},
             "gamma_rad_per_s": {"re": [[g, g], [g, g]],
                                 "im": [[0, 0], [0, 0]]}}

        which from_dict reads back bit for bit."""
        return {"n_emitters": int(self.n_emitters),
                "omega_ref_rad_per_s": self.omega_ref,
                "delta_rad_per_s": self.delta.tolist(),
                "xi_rad_per_s": {"re": self.xi.real.tolist(),
                                 "im": self.xi.imag.tolist()},
                "gamma_rad_per_s": {"re": self.gamma.real.tolist(),
                                    "im": self.gamma.imag.tolist()}}

    @classmethod
    def from_dict(cls, doc) -> "EmitterEnsembleModel":
        """The model of a to_dict document. Each field passes the rule of
        its kind, named by its key; n_emitters may be left out, but when
        given must be the length of delta_rad_per_s."""
        keys = {"omega_ref_rad_per_s", "delta_rad_per_s", "xi_rad_per_s",
                "gamma_rad_per_s"}
        if not isinstance(doc, dict):
            raise InputError("model must be an object")
        unknown = set(doc) - keys - {"n_emitters"}
        if unknown:
            raise InputError(f"unknown model keys {sorted(unknown)}")
        missing = keys - set(doc)
        if missing:
            raise InputError(f"model needs {sorted(missing)}")
        delta = finite_array(doc["delta_rad_per_s"], "delta_rad_per_s",
                             real=True)
        if delta.ndim != 1 or delta.size == 0:
            raise InputError("delta_rad_per_s must be a 1-D array, one "
                             "entry per emitter")
        n = delta.size
        count = doc.get("n_emitters", n)
        if not (is_number(count) and count == n):
            raise InputError(f"n_emitters is {count!r} but delta_rad_per_s "
                             f"has {n} entries")

        def matrix(key):
            node = doc[key]
            if not (isinstance(node, dict) and set(node) == {"re", "im"}):
                raise InputError(f"{key} must be an object with re and im "
                                 f"matrices")
            re, im = (finite_array(node[p], f"{key}.{p}", (n, n), real=True)
                      for p in ("re", "im"))
            # set part by part so that -0.0 survives (re + 1j * im drops it)
            out = re.astype(complex)
            out.imag = im
            return out

        return cls(omega_ref=positive_number(doc["omega_ref_rad_per_s"],
                                             "omega_ref_rad_per_s"),
                   delta=delta, xi=matrix("xi_rad_per_s"),
                   gamma=matrix("gamma_rad_per_s"))


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

        sigma = finite_array(self.sigma, "sigma")
        sigma_z = finite_array(self.sigma_z, "sigma_z", real=True)
        if sigma.ndim != 2 or sigma.shape[0] != nt:
            raise InputError(f"sigma has shape {sigma.shape}, expected "
                             f"({nt}, n_emitters)")
        if sigma_z.shape != sigma.shape:
            raise InputError(f"sigma_z shape {sigma_z.shape} does not match "
                             f"sigma shape {sigma.shape}")
        if np.any(np.abs(sigma_z) > 1.0 + _BOUND_TOL):
            raise InputError("sigma_z leaves [-1, 1] beyond tolerance")
        if np.any(np.abs(sigma) > 1.0 + _BOUND_TOL):
            raise InputError("coherence magnitude exceeds 1 beyond tolerance")

        rho = self.rho
        if rho is not None:
            dim = 2 ** sigma.shape[1]
            rho = finite_array(rho, "density snapshots rho", (nt, dim, dim))
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


def _check_density(rho: np.ndarray, n: int, what: str) -> tuple:
    """The support of rho (the basis states with an exactly nonzero entry,
    ascending) and rho's block over it, checked as a Hermitian, unit-trace,
    positive semidefinite density; every other entry is zero, so it decides
    as rho would. The block is positive when each group of states that its
    nonzero entries link is (_positive at 1e-9, the groups of one size in
    one stacked call). Also the families k - l >= 0 in which the block is
    nonzero, and the highest sector (bit count) it has."""
    rho = finite_array(rho, what, (2 ** n, 2 ** n))
    nonzero = rho != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    block = _hermitize(rho[np.ix_(support, support)], what)
    if abs(np.trace(block) - 1.0) > _TRACE_TOL:
        raise InputError(f"{what} must have unit trace within {_TRACE_TOL:g}")
    # group labels: least linked label, pointer jumping, to a fixed point
    linked, label, last = block != 0, np.arange(support.size), None
    while not np.array_equal(label, last):
        last = label
        label = np.minimum(label, np.where(linked, label, label.size).min(1))
        label = label[label]
    width = np.bincount(label)[label]
    order = np.lexsort((label, width))
    for size in np.unique(width):
        take = order[width[order] == size].reshape(-1, size)
        stack = block if size == support.size else block[take[:, :, None],
                                                         take[:, None]]
        if not _positive(stack, 1e-9).all():
            raise InputError(f"{what} must be positive semidefinite")
    sector = np.bitwise_count(support).astype(np.intp)
    rows, cols = (sector[i] for i in np.nonzero(linked))
    top = int(rows.max())
    families = np.flatnonzero(np.bincount(rows - cols + top)[top:]).tolist()
    return support, block, families, top


def _bits(n: int) -> np.ndarray:
    """Emitter a's bit in a basis index, 2**(n-1-a): set when a is excited."""
    return 1 << (n - 1 - np.arange(n))


def _sectors(n: int) -> tuple:
    """Excitation sectors of the 2**n basis, read off the bit patterns.

    members[k] lists the basis indices with k excited emitters (k set
    bits, see _bits), ascending, and occupation[k] is their (C(n,k), n)
    excitation table. lift[k] = (free, up), two (C(n,k), n-k) index
    arrays: free holds the unexcited emitters of each member, ascending,
    and up that member's place in sector k+1 once the emitter beside it
    is raised.
    """
    index = np.arange(2 ** n)
    count = np.bitwise_count(index)
    members = [np.flatnonzero(count == k) for k in range(n + 1)]
    place = np.empty(index.size, dtype=np.intp)
    for m in members:
        place[m] = np.arange(m.size)
    bits = _bits(n)
    occupation = [(m[:, None] & bits) != 0 for m in members]
    lift = []
    for k in range(n):
        free = np.nonzero(~occupation[k])[1].reshape(-1, n - k)
        lift.append((free, place[members[k][:, None] | bits[free]]))
    return members, occupation, lift


def _sector_operators(model: EmitterEnsembleModel, lift: list,
                      layout: dict, size: int, pack: np.ndarray) -> tuple:
    """Drift blocks and the jump operator of the carried blocks.

    drift[k] is D = -i H - (1/2) sum_ab gamma_ab sigma_a^+ sigma_b on
    sector k, read off the index arrays of sector k-1: each member j
    there, with unexcited emitters a and b, adds coef_ab to entry
    (up_a(j), up_b(j)).

    jump (CSR, one row per packed entry and one column per entry of the
    full state of layout, see _packing) maps every carried block
    rho_(k+1,l+1) to the jump term
    sum_ab gamma_ab sigma_b rho_(k+1,l+1) sigma_a^+ of block (k, l). Entry
    (i, j) of that term has exactly (n-k)(n-l) terms: over the unexcited
    emitters b of i and a of j, rho_(k+1,l+1)[up_b(i), up_a(j)] with
    weight gamma_ab. A (k, k) block is Hermitian and packed as its lower
    triangle (i >= j), so only those entries store terms. Every stored row
    of a block thus has one count, so the row pointers over the full state
    are known before any entry is written; the rows of the upper entries
    are empty, and dropping them from the row pointers leaves the entries
    in place. Negative decay eigenvalues inside the model's tolerance band
    are clipped to zero.
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

    # the blocks whose block one sector up is carried, each with the mask
    # of its entries that store terms
    fed = {(k, l): (part, np.tri(*shape, dtype=bool) if k == l
                    else np.ones(shape, dtype=bool))
           for (k, l), (part, shape) in layout.items()
           if (k + 1, l + 1) in layout}
    indptr = np.zeros(size + 1, dtype=np.int32)
    for (k, l), (part, stored) in fed.items():
        indptr[part.start + 1:part.stop + 1] = \
            (n - k) * (n - l) * stored.ravel()
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    for (k, l), (part, stored) in fed.items():
        # stored entries of block (k, l) as (entry (i, j), raised b, raised a)
        rows, cols = np.nonzero(stored)
        (free_b, up_b), (free_a, up_a) = lift[k], lift[l]
        free_b, up_b = free_b[rows, :, None], up_b[rows, :, None]
        free_a, up_a = free_a[cols, None, :], up_a[cols, None, :]
        shape = (rows.size, n - k, n - l)
        entries = slice(indptr[part.start], indptr[part.stop])
        upper, (_, width) = layout[k + 1, l + 1]
        np.add(upper.start + width * up_b, up_a, casting="unsafe",
               out=indices[entries].reshape(shape))
        np.take(gamma, n * free_a + free_b, out=data[entries].reshape(shape))
    jump = csr_matrix((data, indices, np.append(indptr[pack], indptr[-1])),
                      shape=(pack.size, size))
    return drift, jump


def _dense(blocks: dict, members: list) -> np.ndarray:
    """States of the carried (k, l) blocks, k >= l, sector k at members[k]."""
    nt = next(iter(blocks.values())).shape[0]
    dim = sum(m.size for m in members)
    out = np.zeros((nt, dim, dim), dtype=complex)
    for (k, l), arr in blocks.items():
        out[:, members[k][:, None], members[l]] = arr
        if k != l:
            out[:, members[l][:, None], members[k]] = \
                np.conj(np.swapaxes(arr, 1, 2))
    return out


def _positive(stack: np.ndarray, tol: float) -> np.ndarray:
    """Whether each Hermitian matrix of stack (..., m, m) has no eigenvalue
    below -tol. One Cholesky factorization of stack + tol I decides for
    the whole stack; only when it fails is the spectrum computed, to tell
    the matrices apart."""
    try:
        np.linalg.cholesky(stack + tol * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(stack)[..., 0] >= -tol
    return np.ones(stack.shape[:-2], dtype=bool)


def _bounds(blocks: dict) -> tuple:
    """Smallest diagonal entry and purity sum_ij |rho_ij|^2, at each time,
    of the state of the carried (k, l) blocks, k >= l (see _dense); a
    k != l block counts for its mirror too."""
    low = np.min([np.diagonal(arr, axis1=1, axis2=2).real.min(axis=1)
                  for (k, l), arr in blocks.items() if k == l], axis=0)
    return low, sum((1 + (k != l)) * np.sum(np.abs(arr) ** 2, axis=(1, 2))
                    for (k, l), arr in blocks.items())


class _Dop853(DOP853):
    """DOP853 that refuses a non-finite start and keeps no reference cycle.

    scipy's OdeSolver wraps the right-hand side in closures over the
    solver itself (fun, which counts nfev, and fun_vectorized, which
    DOP853 never calls). That cycle would keep the stage arrays and the
    right-hand side, with its operators, alive until a full garbage
    collection. Calling fun_single directly breaks it, so the solver is
    freed by reference counting when solve_ivp returns; nfev stays 0.
    """

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.fun = self.fun_single
        del self.fun_vectorized
        # a NaN first step never falls below the minimum step, so the
        # step loop would spin forever
        if not np.all(np.isfinite(self.f)):
            raise IntegrationError(
                "the right-hand side is not finite at the start: the model "
                "coefficients overflow float64 arithmetic")


def _packing(layout: dict, size: int) -> tuple:
    """The packed solver state of the full state of layout.

    pack lists, ascending, the full-state entries the solver carries: the
    lower triangle (i >= j) of each (k, k) block and every entry of the
    other blocks. src maps each full-state entry to its packed entry, and
    an upper (k, k) entry (i < j) to that of its mirror (j, i); upper
    marks those entries, whose values are their sources' conjugates.
    diagonal lists the diagonal entries of the (k, k) blocks."""
    upper = np.zeros(size, dtype=bool)
    mirror = np.arange(size)
    diagonal = []
    for (k, l), (part, (m, _)) in layout.items():
        if k == l:
            i, j = np.triu_indices(m, 1)
            upper[part.start + m * i + j] = True
            mirror[part.start + m * i + j] = part.start + m * j + i
            diagonal.append(part.start + (m + 1) * np.arange(m))
    pack = np.flatnonzero(~upper)
    place = np.empty(size, dtype=np.intp)
    place[pack] = np.arange(pack.size)
    return pack, place[mirror], upper, np.concatenate(diagonal)


def _integrate(model: EmitterEnsembleModel, lift: list, layout: dict,
               size: int, y0: np.ndarray, tau: np.ndarray, rtol: float,
               atol: float) -> np.ndarray:
    """Full-state blocks (size, len(tau)) at the offsets tau from y0.

    The solver carries the packed state (see _packing), complex and
    viewed as floats with real and imaginary parts interleaved, so rhs
    reads and returns views. rhs rebuilds the full state with one gather,
    conjugating the upper (k, k) entries, and makes one batched drift
    product per run of equal-shape blocks in layout: D_k rho + (D_k rho)^+
    for a run of (k, k) blocks, D_k rho + rho D_l^+ for a run holding any
    other block. The jump operator gives the packed entries of the jump
    terms, to which the packed entries of the drift are added. The path
    is unpacked once: each upper (k, k) entry is its mirror's conjugate
    and each diagonal entry its real part, so every (k, k) block is
    exactly Hermitian. The operators live only for the solve: the solver
    holds no reference cycle, so it, its stage arrays and rhs with the
    jump operator are freed by reference counting when solve_ivp
    returns."""
    pack, src, upper, diagonal = _packing(layout, size)
    drift, jump = _sector_operators(model, lift, layout, size, pack)
    # runs of equal-shape blocks: (full-state slice, stacked shape,
    # stacked D_k, stacked D_l^+ or None for a run of (k, k) blocks)
    runs = []
    for shape, run in itertools.groupby(layout.items(),
                                        key=lambda item: item[1][1]):
        keys, parts = zip(*((key, part) for key, (part, _) in run))
        right = (None if all(k == l for k, l in keys) else
                 np.stack([drift[l].conj().T for _, l in keys]))
        runs.append((slice(parts[0].start, parts[-1].stop),
                     (len(keys), *shape),
                     np.stack([drift[k] for k, _ in keys]), right))

    def rhs(_t, y):
        z = np.ascontiguousarray(y).view(complex)[src]
        np.conjugate(z, out=z, where=upper)
        der = np.empty(size, dtype=complex)
        for part, shape, left, right in runs:
            rho, d = z[part].reshape(shape), der[part].reshape(shape)
            np.matmul(left, rho, out=d)
            d += d.conj().swapaxes(1, 2) if right is None else rho @ right
        out = jump @ z
        out += der[pack]
        return out.view(float)

    sol = solve_ivp(rhs, (0.0, float(tau[-1])), y0[pack].view(float),
                    method=_Dop853, t_eval=tau, rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"step control failed: {sol.message}")
    path = np.ascontiguousarray(sol.y.T).view(complex).T[src]
    np.conjugate(path, out=path, where=upper[:, None])
    path.imag[diagonal] = 0.0
    return path


def evolve_ensemble(model: EmitterEnsembleModel, rho0, times,
                    rtol: float = 1e-10, atol: float = 1e-12,
                    keep_states: Optional[bool] = None) -> Trajectory:
    """Master-equation propagation of the ensemble state, sector by sector.

    The state is split into blocks rho_(k,l) between the sectors of k and
    l excited emitters. rho0 is only read, and checked on its support
    (_check_density); only the families k - l in which it has an exactly
    nonzero entry are carried, up to the highest excitation it populates,
    and of each Hermitian pair of families only k >= l; all other blocks
    stay exactly zero. Each block obeys

        d rho_kl/dt = D_k rho_kl + rho_kl D_l^+
                      + sum_ab gamma_ab sigma_b rho_(k+1,l+1) sigma_a^+

    with D = -i H - (1/2) sum_ab gamma_ab sigma_a^+ sigma_b restricted to
    a sector. The blocks are integrated together with an adaptive
    high-order Runge-Kutta scheme, each Hermitian (k, k) block carried as
    its lower triangle only, the upper entries being their mirrors'
    conjugates; no 2**n x 2**n operator is formed. The blocks are laid
    out by shape, so every right-hand side makes one batched dense drift
    product per run of equal-shape blocks and one sparse mat-vec for all
    the jump terms together: the jump operator, built once per call,
    stores exactly the (n-k)(n-l) terms of each carried entry of block
    (k, l). The path is unpacked once, mirrors as exact conjugates and
    diagonals as their real parts, so every snapshot is exactly Hermitian
    with no further pass.

    Expectations are evaluated on the requested grid, and at every output
    time the trace must stay at one (within 1e-9) and the state positive,
    no eigenvalue below -1e-7 (_positive): each (k, k) block of a start
    with only the k = l family, which stays block diagonal; otherwise the
    smallest diagonal entry and the purity, read off the blocks, and the
    assembled state of the populated sectors when they span at most 64
    states. The first failing time, trace before positivity, raises
    IntegrationError (loosened rtol/atol surface here first), and so do
    step-control failure and model coefficients that overflow float64.

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
    support, init, families, top = _check_density(rho0, n, "initial state")
    # (k, l) -> (slice of the full state, block shape), with blocks of
    # equal shape adjacent so that their drift is one batched product
    layout = {}
    size = 0
    for k, l in sorted(((k, k - d) for d in families
                        for k in range(d, top + 1)),
                       key=lambda kl: (members[kl[0]].size,
                                       members[kl[1]].size)):
        shape = (members[k].size, members[l].size)
        layout[k, l] = (slice(size, size + shape[0] * shape[1]), shape)
        size += shape[0] * shape[1]
    tau = times - times[0]
    # y0 from the checked block, each state of the support at its place
    sector = np.bitwise_count(support)
    pick = [np.flatnonzero(sector == k) for k in range(top + 1)]
    place = [np.searchsorted(m, support[i]) for m, i in zip(members, pick)]
    y0 = np.zeros(size, dtype=complex)
    for (k, l), (part, shape) in layout.items():
        y0[part].reshape(shape)[np.ix_(place[k], place[l])] = \
            init[np.ix_(pick[k], pick[l])]
    path = (y0[:, None] if times.size == 1 else
            _integrate(model, lift, layout, size, y0, tau, rtol, atol))
    nt = times.size
    blocks = {(k, l): path[part].T.reshape(nt, *shape)
              for (k, l), (part, shape) in layout.items()}
    diagonals = [np.diagonal(blocks[k, k], axis1=1, axis2=2).real
                 for k in range(top + 1)]

    # state invariants at every output time: the trace, then positivity
    trace = sum(diag.sum(axis=1) for diag in diagonals)
    if families == [0]:
        # the state stays block diagonal: exact check per sector
        bad = ~np.all([_positive(blocks[k, k], _BOUND_TOL)
                       for k in range(top + 1)], axis=0)
    else:
        low, purity = _bounds(blocks)
        bad = (low < -_BOUND_TOL) | (purity > 1.0 + _BOUND_TOL)
        span = np.cumsum([m.size for m in members[:top + 1]])
        if span[-1] <= 2 ** _MAX_SNAPSHOT:
            # and exactly, on the populated sectors only, 16 output times at
            # a time to bound memory
            sectors = np.split(np.arange(span[-1]), span[:-1])
            for i in range(0, nt, 16):
                part = {key: arr[i:i + 16] for key, arr in blocks.items()}
                bad[i:i + 16] |= ~_positive(_dense(part, sectors), _BOUND_TOL)
    drift = np.abs(trace - 1.0) > _TRACE_TOL
    if np.any(drift | bad):
        i = np.argmax(drift | bad)
        what, tol = (("trace drifted", _TRACE_TOL) if drift[i] else
                     ("state positivity violated", _BOUND_TOL))
        raise IntegrationError(f"{what} beyond {tol:g} at output time "
                               f"{times[i]:.6g}; tighten rtol/atol")

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
                     float(np.linalg.norm(model.xi, 2)),
                     float(np.max(np.abs(model.delta))))
    horizon = float(tau[-1]) * rate_scale
    estimate = (50.0 + 10.0 * horizon) * rtol + 10.0 * (1.0 + horizon) * atol

    return Trajectory(times=times, sigma=sigma_lab, sigma_z=sz,
                      omega_ref=model.omega_ref,
                      rho=_dense(blocks, members) if keep_states else None,
                      error_estimate=estimate)
