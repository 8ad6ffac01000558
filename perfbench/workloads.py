"""The benchmark's workloads: seeded inputs, the timed CLI calls, the oracles.

Every workload follows one pattern:

* ``setup()`` writes all input files of the run into the work directory,
  using the package's public API, and returns set-up timings of single
  layers (seconds, keyed by per-layer metric name);
* ``warmup()`` runs the workload's CLI subcommands once on tiny inputs;
* ``calls(i)`` gives the CLI argument lists of op ``i`` (one op may be
  several CLI calls);
* ``check(i)`` reads the outputs op ``i`` wrote and raises
  ``OracleError`` if they disagree with an independent reference.

Inputs depend on the seed only through transformations under which the
physics, and therefore the work each op does, is invariant: rigid
rotations and translations of the geometry, phases and magnitudes of
transition moments, grid offsets and spacings. Different seeds thus give
different files but the same operation count, which keeps run-to-run
spreads small while the outputs still have to be computed afresh.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy import constants as sc
from scipy.linalg import expm

import polyemit
from polyemit import (Medium, MultipoleEmitter, build_ensemble,
                      free_space_rates, grid_from_homogeneous, save_grid)
import polyemit.cli

HERE = Path(__file__).resolve().parent
XI_REFERENCE = HERE / "xi_reference.json"

E_A0 = sc.e * sc.physical_constants["Bohr radius"][0]   # C m
LAMBDA = 600e-9                                        # m, couple/dynamics
OMEGA = 2.0 * math.pi * sc.c / LAMBDA                   # rad/s
BASE_SEED = 20191114    # fixes the geometry the seeded transforms act on


class OracleError(Exception):
    """An op's output disagrees with its reference."""


class CliError(Exception):
    """A CLI call exited non-zero or raised."""


def run_cli(argv: list) -> None:
    # looked up at call time so that the traced run sees its wrapper
    try:
        code = polyemit.cli.main(argv)
    except SystemExit as exc:           # argparse rejects the arguments
        code = exc.code
    if code != 0:
        raise CliError(f"polyemit {argv[0]} exited with code {code}")


# --- seeded geometry --------------------------------------------------------

def rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def complex_vector(rng: np.random.Generator, scale: float) -> np.ndarray:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return scale * v / np.linalg.norm(v)


def traceless_quadrupole(rng: np.random.Generator, scale: float) -> np.ndarray:
    """Real, symmetric, traceless Q, as the closed-form EQ rate assumes."""
    a = rng.normal(size=(3, 3))
    q = a + a.T
    q -= np.trace(q) / 3.0 * np.eye(3)
    return scale * q / np.linalg.norm(q)


def moved(e: MultipoleEmitter, rot: np.ndarray, shift: np.ndarray,
          factor: complex) -> MultipoleEmitter:
    """Rigidly rotated and shifted emitter with all moments times factor."""
    return MultipoleEmitter(position=rot @ e.position + shift, omega0=e.omega0,
                            d=factor * (rot @ e.d), m=factor * (rot @ e.m),
                            Q=factor * (rot @ e.Q @ rot.T))


def emitter_doc(e: MultipoleEmitter) -> dict:
    """Emitter JSON in SI units; channels without a moment are left out."""
    def cplx(arr):
        if arr.ndim == 1:
            return [[float(z.real), float(z.imag)] for z in arr]
        return [cplx(row) for row in arr]

    doc = {"position_m": [float(x) for x in e.position],
           "omega0_rad_per_s": e.omega0}
    for key, arr in (("d_Cm", e.d), ("m_J_per_T", e.m), ("Q_Cm2", e.Q)):
        if np.any(arr != 0):
            doc[key] = cplx(arr)
    return doc


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def rates_sum(e: MultipoleEmitter, index: float) -> float:
    return sum(free_space_rates(e, index, e.omega0))


# Moment scales at which the three channels decay at comparable rates, so
# an error in any one channel shows in the totals.
D_SCALE = E_A0
M_SCALE = sc.c * E_A0
Q_SCALE = E_A0 * LAMBDA / (2.0 * math.pi)


def make_emitter(rng, position, omega, channels: str) -> MultipoleEmitter:
    kw = {}
    if "ED" in channels:
        kw["d"] = complex_vector(rng, D_SCALE)
    if "MD" in channels:
        kw["m"] = complex_vector(rng, M_SCALE)
    if "EQ" in channels:
        kw["Q"] = traceless_quadrupole(rng, Q_SCALE)
    return MultipoleEmitter(position=position, omega0=omega, **kw)


class Workload:
    name = ""
    cycle = 1           # ops per full pass over the distinct inputs
    kernel = "interpreter"  # calibration kernel with the ops' kind of work

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def label(self, i: int) -> str:
        return self.name

    def input_files(self) -> list:
        raise NotImplementedError

    def setup(self) -> dict:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def calls(self, i: int) -> list:
        raise NotImplementedError

    def check(self, i: int) -> None:
        raise NotImplementedError


# --- map --------------------------------------------------------------------

class MapWorkload(Workload):
    """validate then map over a 40 x 40 split-semantics grid of a uniform
    n = 1.5 medium; grid parsing and per-node work dominate."""

    name = "map"
    NODES = 40
    INDEX = 1.5

    def _grid_axes(self, rng, nodes):
        step = rng.uniform(2e-9, 20e-9, size=2)
        origin = rng.uniform(-1e-6, 1e-6, size=3)
        return (origin[0] + step[0] * np.arange(nodes),
                origin[1] + step[1] * np.arange(nodes), float(origin[2]))

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, 1])
        wavelength = rng.uniform(500e-9, 900e-9)
        self.omega = 2.0 * math.pi * sc.c / wavelength
        self.axes = self._grid_axes(rng, self.NODES)
        self.emitter = make_emitter(rng, np.zeros(3), self.omega, "ED+MD+EQ")
        medium = Medium(self.INDEX)

        grid = grid_from_homogeneous(medium, self.omega, self.axes)
        t0 = time.perf_counter()
        data = save_grid(grid)
        save_s = time.perf_counter() - t0
        Path(self.path("grid.json")).write_bytes(data)
        self.grid_bytes = len(data)
        write_json(Path(self.path("emitter.json")), emitter_doc(self.emitter))

        small = grid_from_homogeneous(medium, self.omega,
                                      self._grid_axes(rng, 3))
        Path(self.path("warmup_grid.json")).write_bytes(save_grid(small))
        return {"grid.save_grid_s": save_s}

    def input_files(self) -> list:
        return ["grid.json", "emitter.json", "warmup_grid.json"]

    def _calls(self, grid: str) -> list:
        return [["validate", "--grid", grid, "--quiet",
                 "--out", self.path("validate.csv")],
                ["map", "--grid", grid, "--emitter", self.path("emitter.json"),
                 "--quiet", "--out", self.path("map.csv")]]

    def warmup(self) -> None:
        for argv in self._calls(self.path("warmup_grid.json")):
            run_cli(argv)

    def calls(self, i: int) -> list:
        return self._calls(self.path("grid.json"))

    def check(self, i: int) -> None:
        """Each node of a uniform medium enhances each channel by the
        closed-form index scaling of its free-space rate."""
        with open(self.path("map.csv"), encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        table = np.array([[float(v) for v in ln.split(",")]
                          for ln in lines[1:]])
        if table.shape != (self.NODES * self.NODES, len(header)):
            raise OracleError(f"map table has shape {table.shape}")
        col = {h: table[:, k] for k, h in enumerate(header)}

        gx, gy = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        for name, want in (("x_m", gx.ravel()), ("y_m", gy.ravel()),
                           ("z_m", np.full(gx.size, self.axes[2]))):
            if not np.array_equal(col[name], want):
                raise OracleError(f"map column {name} is not the grid nodes")

        e = self.emitter
        g_medium = dict(zip(("ED", "MD", "EQ"),
                            free_space_rates(e, self.INDEX, e.omega0)))
        gamma_fs = rates_sum(e, 1.0)
        expect_total = 0.0
        for a in ("ED", "MD", "EQ"):
            for b in ("ED", "MD", "EQ"):
                got = col[f"enh_{a}_{b}"]
                if a == b:
                    want = g_medium[a] / gamma_fs
                    expect_total += want
                    bad = np.abs(got - want) > 1e-9 * want
                else:   # interference of distinct channels vanishes here
                    bad = np.abs(got) > 1e-9 * sum(g_medium.values()) / gamma_fs
                if np.any(bad):
                    raise OracleError(f"enhancement {a}-{b} off the closed "
                                      f"form at {int(np.sum(bad))} nodes")
        for name, want in (("enhancement_total", expect_total),
                           ("gamma_total_per_s", expect_total * gamma_fs)):
            if np.any(np.abs(col[name] - want) > 1e-9 * want):
                raise OracleError(f"{name} off the closed form")


# --- couple -----------------------------------------------------------------

PAIRINGS = (("ED", "ED"), ("ED+EQ", "ED+EQ"), ("EQ", "EQ"), ("MD", "ED"),
            ("ED+MD+EQ", "ED+EQ"))
N_PAIRS = 20


def base_pairs() -> list:
    """The 20 base pairs (emitter a, emitter b, index): every channel
    pairing at n = 1 and n = 1.5, twice, with separations log-uniform over
    0.02 to 2 wavelengths. Fixed by BASE_SEED; the run's seed only moves
    and rephases them."""
    rng = np.random.default_rng(BASE_SEED)
    out = []
    for i in range(N_PAIRS):
        chan_a, chan_b = PAIRINGS[i % len(PAIRINGS)]
        index = (1.0, 1.5)[(i // len(PAIRINGS)) % 2]
        sep = LAMBDA * 10.0 ** rng.uniform(math.log10(0.02), math.log10(2.0))
        a = make_emitter(rng, np.zeros(3), OMEGA, chan_a)
        b = make_emitter(rng, sep * unit_vector(rng), OMEGA, chan_b)
        out.append((a, b, index))
    return out


def base_pairs_digest() -> str:
    doc = [[emitter_doc(a), emitter_doc(b), n] for a, b, n in base_pairs()]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def couple_argv(a_file: str, b_file: str, index: float, out: str) -> list:
    return ["couple", "--emitter", a_file, "--emitter", b_file,
            "--index", repr(index), "--format", "json", "--quiet",
            "--out", out]


def dipole_im_green(r: np.ndarray, k: float) -> np.ndarray:
    """Textbook imaginary part of the dipole Green tensor,
    Im{e^{ikr}/(4 pi r) [(1 + i/x - 1/x^2) I + (3/x^2 - 3i/x - 1) rr]}."""
    dist = float(np.linalg.norm(r))
    x = k * dist
    phase = np.exp(1j * x) / (4.0 * math.pi * dist)
    rr = np.outer(r, r) / dist ** 2
    g = phase * ((1 + 1j / x - 1 / x ** 2) * np.eye(3)
                 + (3 / x ** 2 - 3j / x - 1) * rr)
    return g.imag


class CoupleWorkload(Workload):
    """One couple call per op, cycling through 20 pairs; the spectral
    integrals of the coherent coupling dominate."""

    name = "couple"
    cycle = N_PAIRS

    def setup(self) -> dict:
        ref = json.loads(XI_REFERENCE.read_text(encoding="utf-8"))
        if ref["base_pairs_sha256"] != base_pairs_digest():
            raise RuntimeError("xi_reference.json does not describe the "
                               "base pairs of this benchmark")
        rng = np.random.default_rng([self.seed, 2])
        self.pairs = []
        for k, (a, b, index) in enumerate(base_pairs()):
            rot, shift = rotation(rng), rng.uniform(-1e-6, 1e-6, size=3)
            fa = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            fb = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            a, b = moved(a, rot, shift, fa), moved(b, rot, shift, fb)
            base_xi = complex(*ref["xi_rad_per_s"][k])
            # xi is bilinear in conj(moments of a) and moments of b
            self.pairs.append((a, b, index, np.conj(fa) * fb * base_xi))
            write_json(Path(self.path(f"a{k:02d}.json")), emitter_doc(a))
            write_json(Path(self.path(f"b{k:02d}.json")), emitter_doc(b))
        return {}

    def input_files(self) -> list:
        return [f"{s}{k:02d}.json" for k in range(N_PAIRS) for s in "ab"]

    def warmup(self) -> None:
        run_cli(self.calls(0)[0])

    def calls(self, i: int) -> list:
        k = i % N_PAIRS
        return [couple_argv(self.path(f"a{k:02d}.json"),
                            self.path(f"b{k:02d}.json"), self.pairs[k][2],
                            self.path("couple.json"))]

    def check(self, i: int) -> None:
        k = i % N_PAIRS
        a, b, index, xi_want = self.pairs[k]
        doc = json.loads(Path(self.path("couple.json")).read_text("utf-8"))

        def value(key):
            node = doc[key]
            return complex(node["re"], node["im"])

        rates = {}
        for key, e in (("gamma_a_per_s", a), ("gamma_b_per_s", b)):
            want = rates_sum(e, index)
            rates[key] = want
            if abs(value(key) - want) > 1e-9 * want:
                raise OracleError(f"pair {k}: {key} {value(key)!r} is not the "
                                  f"free-space rate {want!r}")
        if not (a.active_channels() | b.active_channels()) - {"ED"}:
            # gamma_ab = 2 w^2 / (hbar eps0 c^2) conj(d_a) . Im G . d_b
            k_med = index * OMEGA / sc.c
            im_g = dipole_im_green(a.position - b.position, k_med)
            want = (2.0 * OMEGA ** 2 / (sc.hbar * sc.epsilon_0 * sc.c ** 2)
                    * (a.d.conj() @ im_g @ b.d))
            scale = math.sqrt(rates["gamma_a_per_s"] * rates["gamma_b_per_s"])
            if abs(value("gamma_cross_per_s") - want) > 1e-9 * scale:
                raise OracleError(f"pair {k}: gamma_cross is not the "
                                  f"textbook dipole value")
        if abs(value("xi_rad_per_s") - xi_want) > 1e-6 * abs(xi_want):
            raise OracleError(f"pair {k}: xi {value('xi_rad_per_s')!r} is "
                              f"not the stored reference {xi_want!r}")


# --- dynamics ---------------------------------------------------------------

N_EMITTERS = 7
STARTS = (("n7-full", "e" * N_EMITTERS),
          ("n7-single", "e" + "g" * (N_EMITTERS - 1)))
T_POINTS = 41


def base_ensemble() -> list:
    """Seven electric dipoles in a 0.3-wavelength cube in vacuum."""
    rng = np.random.default_rng(BASE_SEED + 1)
    return [MultipoleEmitter(position=rng.uniform(0, 0.3 * LAMBDA, size=3),
                             omega0=OMEGA, d=D_SCALE * unit_vector(rng))
            for _ in range(N_EMITTERS)]


class DynamicsWorkload(Workload):
    """One dynamics call per op on a prebuilt 7-emitter model, alternating
    a fully excited and a singly excited start; the dense 128 x 128
    Lindblad right-hand side dominates."""

    name = "dynamics"
    cycle = len(STARTS)
    # The ops run in multithreaded BLAS, whose speed followed neither an
    # interpreter nor a BLAS kernel: rescaling widened the spread between
    # runs, so dynamics reports wall time.
    kernel = "none"

    def label(self, i: int) -> str:
        return STARTS[i % len(STARTS)][0]

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, 3])
        rot, shift = rotation(rng), rng.uniform(-1e-6, 1e-6, size=3)
        emitters = [moved(e, rot, shift, np.exp(1j * rng.uniform(0, 2 * math.pi)))
                    for e in base_ensemble()]
        t0 = time.perf_counter()
        model = build_ensemble(emitters, Medium(1.0))
        build_s = time.perf_counter() - t0
        self.model = model
        self.t_max = 2.0 / float(np.linalg.eigvalsh(model.gamma)[-1])
        for label, initial in STARTS:
            write_json(Path(self.path(f"{label}.json")),
                       {"model": model.to_dict(), "initial": initial})
        pair = build_ensemble(emitters[:2], Medium(1.0))
        write_json(Path(self.path("warmup.json")),
                   {"model": pair.to_dict(), "initial": "eg"})
        return {"dynamics.build_ensemble_s": build_s}

    def input_files(self) -> list:
        return [f"{label}.json" for label, _ in STARTS] + ["warmup.json"]

    def _argv(self, spec: str, t_points: int) -> list:
        return ["dynamics", "--ensemble", self.path(spec),
                "--t-max", repr(self.t_max), "--t-points", str(t_points),
                "--format", "json", "--quiet",
                "--out", self.path("trajectory.json")]

    def warmup(self) -> None:
        run_cli(self._argv("warmup.json", 5))

    def calls(self, i: int) -> list:
        return [self._argv(f"{self.label(i)}.json", T_POINTS)]

    def rhs_flops(self) -> float:
        """Real flops of one dense right-hand side: two drift products and
        two products per jump operator, each a complex dim^3 matmul."""
        dim = 2 ** N_EMITTERS
        jumps = int(np.sum(np.linalg.eigvalsh(self.model.gamma) > 0.0))
        return 8.0 * dim ** 3 * (2 + 2 * jumps)

    def check(self, i: int) -> None:
        doc = json.loads(Path(self.path("trajectory.json")).read_text("utf-8"))
        traj = doc["trajectory"]
        times = np.array(traj["times_s"])
        sz = np.array(traj["sigma_z"])
        if sz.shape != (T_POINTS, N_EMITTERS) or not np.allclose(
                times, np.linspace(0.0, self.t_max, T_POINTS),
                rtol=1e-12, atol=0.0):
            raise OracleError("trajectory has the wrong time grid or shape")
        # gamma is positive semidefinite: total inversion never rises
        if np.any(np.diff(sz.sum(axis=1)) > 1e-9):
            raise OracleError(f"{self.label(i)}: total sigma_z increases")
        if self.label(i) == "n7-single":
            # one excitation: amplitudes follow exp(-i H_eff t) exactly
            m = self.model
            h_eff = np.diag(m.delta) + m.xi - 0.5j * m.gamma
            c0 = np.zeros(N_EMITTERS, dtype=complex)
            c0[0] = 1.0
            want = np.array([2.0 * np.abs(expm(-1j * h_eff * t) @ c0) ** 2 - 1.0
                             for t in times])
            err = float(np.max(np.abs(sz - want)))
            if err > 1e-7:
                raise OracleError(f"n7-single: sigma_z off the "
                                  f"single-excitation propagator by {err:.2e}")


WORKLOADS = {w.name: w for w in (MapWorkload, CoupleWorkload, DynamicsWorkload)}
