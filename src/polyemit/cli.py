"""Command-line surface for rates, maps, couplings, and trajectories.

Subcommands: free-space, map, couple, dynamics, validate. Every subcommand
supports --format {csv,json}, --out, and --quiet; results are computed
fully before any byte is written, and files are written to a temporary
name and renamed, so a failing run never leaves a partial output file.
Exit codes: 0 success, 2 input error (bad flags, malformed files, domain
violations), 3 numerical failure (quadrature or time stepping).

Unit discipline at the boundary: frequencies must carry an explicit
suffix, either THz (linear frequency, converted as w = 2 pi f) or rad/s
(angular, used as given). Transition moments enter through emitter JSON
files, which accept SI values (d_Cm, m_J_per_T, Q_Cm2) or atomic units
(d_atomic, m_bohr_magnetons, Q_atomic); see MultipoleEmitter.from_dict.

Emitter file example:

    {"position_m": [0, 0, 0], "omega0_rad_per_s": 2.4e15,
     "d_atomic": [1, 0, 0]}

Ensemble spec for the dynamics subcommand, either a prebuilt model

    {"model": {"omega_ref_rad_per_s": 3e8,
               "delta_rad_per_s": [0, 0],
               "xi_rad_per_s": {"re": [[0, 0], [0, 0]],
                                "im": [[0, 0], [0, 0]]},
               "gamma_rad_per_s": {"re": [[g, g], [g, g]],
                                   "im": [[0, 0], [0, 0]]}},
     "initial": "eg"}

or emitters plus a uniform background

    {"emitters": [<emitter objects>], "medium_index": 1.0,
     "initial_amplitudes": [0, 1, 1, 0]}

with optional "rtol"/"atol" integrator overrides. Unknown keys anywhere in
the spec are rejected before any computation starts.

couple reads xi and rates of separated emitters from build_ensemble; its
1 % reference-frequency rule holds at every separation, and at zero
separation xi is divergent.

CSV output starts with versioned schema comments ("# polyemit-csv 1",
subcommand, column docs) followed by a header row; JSON output is a
single sorted-key document. Output bytes are deterministic for fixed
inputs and any PYTHONHASHSEED; map node order is grid-major.
"""
import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .dynamics import (EmitterEnsembleModel, build_ensemble, evolve_ensemble,
                       product_density, pure_density)
from .emitter import (MultipoleEmitter, _numbers, _numeric_field,
                      _parse_complex, normalize_channels)
from .errors import (InputError, IntegrationError, MissingDerivativeError,
                     PartFlagError, PolyemitError, QuadratureError, is_number,
                     positive_number)
from .grid import TensorGrid, load_grid, validate_grid
from .homogeneous import Medium, coincident_im_jet
from .rates import (_reference_frequency, collective_rate, enhancement_map,
                    free_space_rates)
# not called here (couple goes through build_ensemble); perfbench/tracing.py
# wraps these two names on this module
from .quadrature import homogeneous_pair_model  # noqa: F401
from .rates import coupling_strength  # noqa: F401

_CSV_SCHEMA = "polyemit-csv 1"


# --- run configuration -------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: everything a subcommand needs, checked before
    any computation. Unknown keys are rejected when built from a dict."""

    subcommand: str
    emitters: tuple = ()
    grid: Optional[str] = None
    ensemble: Optional[str] = None
    out: Optional[str] = None
    format: str = "csv"
    tol_rel: Optional[float] = None
    channels: Optional[frozenset] = None
    quiet: bool = False
    index: float = 1.0
    frequency: Optional[float] = None
    t_max: Optional[float] = None
    t_points: int = 201

    _COMMANDS = ("free-space", "map", "couple", "dynamics", "validate")

    def __post_init__(self):
        if self.subcommand not in self._COMMANDS:
            raise InputError(f"unknown subcommand {self.subcommand!r}")
        if self.format not in ("csv", "json"):
            raise InputError("format must be csv or json")
        if self.tol_rel is not None and not (is_number(self.tol_rel)
                                             and 0.0 < self.tol_rel < 1.0):
            raise InputError("tol-rel must lie in (0, 1)")
        object.__setattr__(self, "index", Medium(self.index).refractive_index)
        if self.frequency is not None:
            positive_number(self.frequency, "frequency")
        if self.t_max is not None:
            positive_number(self.t_max, "t-max (seconds)")
        if not (isinstance(self.t_points, int) and self.t_points >= 2):
            raise InputError("t-points must be an integer >= 2")
        object.__setattr__(self, "emitters", tuple(self.emitters))
        need = {"free-space": 1, "couple": 2}.get(self.subcommand)
        if need is not None and len(self.emitters) != need:
            raise InputError(f"{self.subcommand} needs exactly {need} "
                             f"--emitter file(s)")
        if self.subcommand == "map" and (not self.grid
                                         or len(self.emitters) != 1):
            raise InputError("map needs --grid and exactly one --emitter")
        if self.subcommand == "validate" and not self.grid:
            raise InputError("validate needs --grid")
        if self.subcommand == "dynamics":
            if not self.ensemble:
                raise InputError("dynamics needs --ensemble")
            if self.t_max is None:
                raise InputError("dynamics needs --t-max (seconds)")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown run-config keys {sorted(unknown)}")
        return cls(**data)


def parse_frequency(text: str) -> float:
    """Angular frequency in rad/s from a suffixed literal.

    '384THz' is linear frequency (w = 2 pi f); '2.4e15rad/s' is angular.
    A bare number is rejected: silent unit guesses are how rate
    calculations go quietly wrong.
    """
    s = str(text).strip()
    for suffix, scale in (("rad/s", 1.0), ("THz", 2.0 * math.pi * 1e12)):
        if s.endswith(suffix):
            body = s[: -len(suffix)].strip()
            try:
                value = float(body)
            except ValueError:
                raise InputError(
                    f"cannot parse frequency value {body!r}") from None
            return positive_number(value, "frequency") * scale
    raise InputError(
        f"frequency {s!r} needs an explicit unit suffix: THz or rad/s")


def _parse_channels(text: Optional[str]) -> Optional[frozenset]:
    if text is None:
        return None
    return normalize_channels([p.strip() for p in text.split(",")
                               if p.strip()])


# --- output plumbing ---------------------------------------------------------

def _fmt(value) -> str:
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


def _render_csv(subcommand: str, comments: list, headers: list,
                rows: list) -> str:
    lines = [f"# {_CSV_SCHEMA}", f"# subcommand: {subcommand}"]
    lines += [f"# {c}" for c in comments]
    lines.append(",".join(headers))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise InputError(f"cannot write {path}: {exc}") from exc


def _deliver(cfg: RunConfig, csv_parts: tuple, doc: dict) -> None:
    if cfg.format == "csv":
        comments, headers, rows = csv_parts
        text = _render_csv(cfg.subcommand, comments, headers, rows)
    else:
        text = _render_json(doc)
    if cfg.out:
        _write_atomic(cfg.out, text)
        if not cfg.quiet:
            print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------

def _cmd_free_space(cfg: RunConfig) -> int:
    e = MultipoleEmitter.from_file(cfg.emitters[0]).restricted(cfg.channels)
    omega = cfg.frequency if cfg.frequency is not None else e.omega0
    g_ed, g_md, g_eq = free_space_rates(e, cfg.index, omega)
    rows = [["ED", g_ed], ["MD", g_md], ["EQ", g_eq],
            ["total", g_ed + g_md + g_eq]]
    comments = [f"refractive index: {cfg.index!r}",
                f"frequency_rad_per_s: {omega!r}",
                "columns: channel, decay rate in 1/s"]
    doc = {"subcommand": "free-space", "refractive_index": cfg.index,
           "frequency_rad_per_s": omega,
           "gamma_per_s": {"ED": g_ed, "MD": g_md, "EQ": g_eq,
                           "total": g_ed + g_md + g_eq}}
    _deliver(cfg, (comments, ["channel", "gamma_per_s"], rows), doc)
    return 0


def _cmd_map(cfg: RunConfig) -> int:
    grid = _load_grid_file(cfg.grid)
    e = MultipoleEmitter.from_file(cfg.emitters[0]).restricted(cfg.channels)
    kwargs = {}
    if cfg.tol_rel is not None:
        kwargs["freq_rtol"] = cfg.tol_rel
    rep = enhancement_map(grid, e, **kwargs)
    norm = rep.normalization
    by_pair = norm["enhancement_by_channel_pair"]
    pairs = sorted(by_pair)
    headers = (["x_m", "y_m", "z_m", "enhancement_total"]
               + [f"enh_{p.replace('-', '_')}" for p in pairs]
               + ["gamma_total_per_s"])
    rows = []
    nodes = []
    for i, point in enumerate(grid.node_points().tolist()):
        enh = {p: by_pair[p][i] for p in pairs}
        rows.append(point + [norm["enhancement_total"][i]]
                    + list(enh.values()) + [rep.gamma_total[i]])
        nodes.append({"position_m": point,
                      "enhancement_total": norm["enhancement_total"][i],
                      "enhancement_by_channel_pair": enh,
                      "gamma_total_per_s": rep.gamma_total[i]})
    comments = [
        f"grid: {cfg.grid}",
        f"channels: {','.join(norm['channels'])}",
        f"gamma_free_space_per_s: {norm['gamma_fs']['value']!r}",
        "columns: node position (m), total enhancement over the free-space "
        "rate, per channel-pair enhancement, absolute rate (1/s)",
    ]
    doc = {"subcommand": "map", "grid": cfg.grid,
           "channels": norm["channels"],
           "gamma_free_space_per_s": norm["gamma_fs"]["value"],
           "gamma_free_space_by_channel": norm["gamma_fs_by_channel"],
           "nodes": nodes}
    _deliver(cfg, (comments, headers, rows), doc)
    return 0


def _cmd_couple(cfg: RunConfig) -> int:
    a, b = (MultipoleEmitter.from_file(path).restricted(cfg.channels)
            for path in cfg.emitters)
    med = Medium(cfg.index)
    wbar = _reference_frequency([a, b], cfg.frequency)
    rel_tol = cfg.tol_rel if cfg.tol_rel is not None else 1e-8
    separation = float(np.linalg.norm(a.position - b.position))

    if separation == 0.0:
        # coherent coupling diverges; every rate is the coincident jet's
        jet0 = coincident_im_jet(wbar, med)
        gamma = [[collective_rate(x, y, jet0, omega_bar=wbar).gamma_cross
                  for y in (a, b)] for x in (a, b)]
        xi = None
    else:
        model = build_ensemble([a, b], med, omega_ref=wbar, rel_tol=rel_tol)
        gamma = model.gamma
        xi = model.xi[0][1]
    gamma_a, cross, gamma_b = gamma[0][0], gamma[0][1], gamma[1][1]

    def split(z):
        return (0.0, 0.0) if z is None else (complex(z).real, complex(z).imag)

    rows = [["xi", *split(xi), "rad/s",
             "" if xi is not None else "divergent at zero separation"],
            ["gamma_cross", *split(cross), "1/s", ""],
            ["gamma_a", *split(gamma_a), "1/s", ""],
            ["gamma_b", *split(gamma_b), "1/s", ""]]
    comments = [f"refractive index: {cfg.index!r}",
                f"mean frequency rad/s: {wbar!r}",
                f"separation_m: {separation!r}",
                "columns: quantity, real part, imaginary part, unit, note"]

    def czdoc(z):
        return None if z is None else {"re": complex(z).real,
                                       "im": complex(z).imag}

    doc = {"subcommand": "couple", "refractive_index": cfg.index,
           "mean_frequency_rad_per_s": wbar, "separation_m": separation,
           "xi_rad_per_s": czdoc(xi),
           "gamma_cross_per_s": czdoc(cross),
           "gamma_a_per_s": czdoc(gamma_a), "gamma_b_per_s": czdoc(gamma_b)}
    _deliver(cfg, (comments, ["quantity", "re", "im", "unit", "note"], rows),
             doc)
    return 0


def _load_grid_file(path: str) -> TensorGrid:
    try:
        with open(path, "rb") as fh:
            return load_grid(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _matrix_from_doc(node, n: int, what: str) -> np.ndarray:
    if not (isinstance(node, dict) and set(node) == {"re", "im"}):
        raise InputError(f"{what} must be an object with re and im matrices")
    re = np.asarray(_numbers(node["re"], f"{what}.re"), dtype=float)
    im = np.asarray(_numbers(node["im"], f"{what}.im"), dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise InputError(f"{what} matrices must be {n}x{n}")
    return re + 1j * im


def _parse_ensemble_spec(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError(f"{path}: ensemble spec must be a JSON object")
    known = {"model", "emitters", "medium_index", "omega_ref_rad_per_s",
             "initial", "initial_amplitudes", "rtol", "atol"}
    unknown = set(spec) - known
    if unknown:
        raise InputError(f"{path}: unknown ensemble keys {sorted(unknown)}")

    if ("model" in spec) == ("emitters" in spec):
        raise InputError(f"{path}: give exactly one of model or emitters")
    if "model" in spec:
        node = spec["model"]
        if not isinstance(node, dict):
            raise InputError(f"{path}: model must be an object")
        mkeys = {"omega_ref_rad_per_s", "delta_rad_per_s", "xi_rad_per_s",
                 "gamma_rad_per_s", "n_emitters"}
        bad = set(node) - mkeys
        if bad:
            raise InputError(f"{path}: unknown model keys {sorted(bad)}")
        try:
            delta = np.asarray(_numbers(node["delta_rad_per_s"],
                                        "delta_rad_per_s"), dtype=float)
            n = delta.size
            model = EmitterEnsembleModel(
                omega_ref=_numbers(node["omega_ref_rad_per_s"],
                                   "omega_ref_rad_per_s"),
                delta=delta,
                xi=_matrix_from_doc(node["xi_rad_per_s"], n, "xi"),
                gamma=_matrix_from_doc(node["gamma_rad_per_s"], n, "gamma"))
        except KeyError as exc:
            raise InputError(f"{path}: model needs {exc.args[0]}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: model entries must be numeric "
                             f"({exc})") from None
        # written by EmitterEnsembleModel.to_dict; optional, but must agree
        count = node.get("n_emitters", n)
        if not (is_number(count) and count == n):
            raise InputError(f"{path}: n_emitters is {count!r} but "
                             f"delta_rad_per_s has {n} entries")
    else:
        if not isinstance(spec["emitters"], list) or not spec["emitters"]:
            raise InputError(f"{path}: emitters must be a non-empty list")
        ems = [MultipoleEmitter.from_dict(d) for d in spec["emitters"]]
        med = Medium(_numeric_field(f"{path}: medium_index", float,
                                    spec.get("medium_index", 1.0)))
        omega_ref = spec.get("omega_ref_rad_per_s")
        if omega_ref is not None:
            omega_ref = _numeric_field(f"{path}: omega_ref_rad_per_s",
                                       float, omega_ref)
        model = build_ensemble(ems, med, omega_ref=omega_ref)

    n = model.n_emitters
    if ("initial" in spec) == ("initial_amplitudes" in spec):
        raise InputError(f"{path}: give exactly one of initial or "
                         f"initial_amplitudes")
    if "initial" in spec:
        labels = spec["initial"]
        if not isinstance(labels, str) or len(labels) != n:
            raise InputError(f"{path}: initial must be a string of {n} "
                             f"'e'/'g' labels")
        rho0 = product_density(labels)
    else:
        raw = spec["initial_amplitudes"]
        if not isinstance(raw, list):
            raise InputError(f"{path}: initial_amplitudes must be a list")
        amps = np.array([_parse_complex(v, f"{path}: initial_amplitudes[{i}]")
                         for i, v in enumerate(raw)])
        if amps.size != 2 ** n:
            raise InputError(f"{path}: need {2 ** n} amplitudes for "
                             f"{n} emitters")
        rho0 = pure_density(amps)

    rtol = _numeric_field(f"{path}: rtol", float, spec.get("rtol", 1e-10))
    atol = _numeric_field(f"{path}: atol", float, spec.get("atol", 1e-12))
    return model, rho0, rtol, atol


def _cmd_dynamics(cfg: RunConfig) -> int:
    model, rho0, rtol, atol = _parse_ensemble_spec(cfg.ensemble)
    if cfg.tol_rel is not None:
        rtol = cfg.tol_rel
    times = np.linspace(0.0, cfg.t_max, cfg.t_points)
    traj = evolve_ensemble(model, rho0, times, rtol=rtol, atol=atol,
                           keep_states=False)
    headers, data = traj.table()
    comments = [f"ensemble: {cfg.ensemble}",
                f"model: {json.dumps(model.to_dict(), sort_keys=True)}",
                f"integrator rtol: {rtol!r}, atol: {atol!r}",
                f"error_estimate: {traj.error_estimate!r}",
                "columns: time (s), then per emitter Re<sigma>, Im<sigma>, "
                "<sigma_z> (lab frame)"]
    doc = {"subcommand": "dynamics", "model": model.to_dict(),
           "trajectory": traj.to_dict()}
    _deliver(cfg, (comments, headers, [list(r) for r in data]), doc)
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    grid = _load_grid_file(cfg.grid)
    kwargs = {}
    if cfg.tol_rel is not None:
        kwargs["derivative_rtol"] = cfg.tol_rel
    report = validate_grid(grid, **kwargs)
    rows = [[c.name, c.passed, c.residual, c.detail]
            for c in report.checks]
    comments = [f"grid: {cfg.grid}",
                f"all_pass: {'true' if report.all_pass else 'false'}",
                f"missing_blocks: {','.join(report.missing_blocks) or 'none'}",
                "columns: check name, pass flag, worst residual, detail"]
    doc = {"subcommand": "validate", "grid": cfg.grid}
    doc.update(report.to_dict())
    _deliver(cfg, (comments, ["check", "passed", "residual", "detail"], rows),
             doc)
    return 0 if report.all_pass else 2


_HANDLERS = {"free-space": _cmd_free_space, "map": _cmd_map,
             "couple": _cmd_couple, "dynamics": _cmd_dynamics,
             "validate": _cmd_validate}


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyemit",
        description="Decay rates, enhancement maps, pair couplings, and "
                    "trajectories of multipolar emitters.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, emitters=0, grid=False, ensemble=False):
        p.add_argument("--out", help="output file (atomic write-then-rename);"
                                     " stdout when omitted")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--quiet", action="store_true",
                       help="suppress status messages")
        p.add_argument("--tol-rel", type=float, default=None,
                       help="relative tolerance override (frequency match "
                            "for map, quadrature for couple, integrator "
                            "rtol for dynamics, derivative cross-check for "
                            "validate)")
        if emitters:
            p.add_argument("--emitter", action="append", default=[],
                           metavar="FILE", help="emitter JSON file"
                           + (" (repeat)" if emitters > 1 else ""))
            p.add_argument("--channels",
                           help="restrict to channels, e.g. ed,md")
        if grid:
            p.add_argument("--grid", required=True, help="grid JSON file")
        if ensemble:
            p.add_argument("--ensemble", required=True,
                           help="ensemble spec JSON file")

    p = sub.add_parser("free-space",
                       help="closed-form decay rates in a uniform medium")
    common(p, emitters=1)
    p.add_argument("--index", type=float, default=1.0,
                   help="refractive index (default 1)")
    p.add_argument("--frequency",
                   help="evaluation frequency with suffix, e.g. 384THz or "
                        "2.4e15rad/s (default: the emitter's)")

    p = sub.add_parser("map", help="enhancement map over a sampled grid")
    common(p, emitters=1, grid=True)

    p = sub.add_parser("couple",
                       help="pairwise coupling and collective decay in a "
                            "uniform medium")
    common(p, emitters=2)
    p.add_argument("--index", type=float, default=1.0,
                   help="refractive index (default 1)")
    p.add_argument("--frequency",
                   help="mean frequency with suffix (default: emitter mean)")

    p = sub.add_parser("dynamics", help="ensemble trajectory")
    common(p, ensemble=True)
    p.add_argument("--t-max", type=float, required=True,
                   help="trajectory end time in seconds")
    p.add_argument("--t-points", type=int, default=201,
                   help="number of grid times (default 201)")

    p = sub.add_parser("validate", help="grid file self-consistency checks")
    common(p, grid=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {"subcommand": args.subcommand, "out": args.out,
            "format": args.format, "quiet": args.quiet,
            "tol_rel": args.tol_rel}
    if hasattr(args, "emitter"):
        data["emitters"] = tuple(args.emitter)
        data["channels"] = _parse_channels(args.channels)
    if getattr(args, "grid", None) is not None:
        data["grid"] = args.grid
    if getattr(args, "ensemble", None) is not None:
        data["ensemble"] = args.ensemble
    if hasattr(args, "index"):
        data["index"] = args.index
    if getattr(args, "frequency", None) is not None:
        data["frequency"] = parse_frequency(args.frequency)
    if hasattr(args, "t_max"):
        data["t_max"] = args.t_max
        data["t_points"] = args.t_points
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.subcommand](cfg)
    except (QuadratureError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, MissingDerivativeError, PartFlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyemitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
