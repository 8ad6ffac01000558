"""Command-line surface for rates, maps, couplings, and trajectories.

Subcommands: free-space, map, couple, dynamics, validate. Every subcommand
supports --format {csv,json}, --out, and --quiet; results are computed
fully before any byte is written, and files are written to a temporary
name and renamed, so a failing run never leaves a partial output file.
Exit codes: 0 success, 2 input error (bad flags, malformed files, domain
violations), 3 numerical failure (quadrature or time stepping).

argparse hands its namespace straight to the subcommand; the parser is
built once per process (build_parser) and only read. It enforces the
required flags, the --format choices and the numeric types; each handler
then checks the values it reads (--index through Medium, --t-max through
errors.positive_number, --t-points >= 2, the --emitter count, --frequency
and --channels) before it reads any file. No flag sets a tolerance: they
are module constants, or the "rtol"/"atol" fields of an ensemble spec.

Unit discipline at the boundary: frequencies must carry an explicit
suffix, either THz (linear frequency, converted as w = 2 pi f) or rad/s
(angular, used as given). Transition moments enter through emitter JSON
files, which accept SI values (d_Cm, m_J_per_T, Q_Cm2) or atomic units
(d_atomic, m_bohr_magnetons, Q_atomic); see MultipoleEmitter.from_dict.

Emitter file example:

    {"position_m": [0, 0, 0], "omega0_rad_per_s": 2.4e15,
     "d_atomic": [1, 0, 0]}

Ensemble spec for the dynamics subcommand, either a prebuilt model, the
document EmitterEnsembleModel.to_dict writes and from_dict reads,

    {"model": <model document>, "initial": "eg"}

or emitters plus a uniform background

    {"emitters": [<emitter objects>], "medium_index": 1.0,
     "initial_amplitudes": [0, 1, 1, 0]}

with optional "omega_ref_rad_per_s" and "rtol"/"atol" integrator
settings. Unknown keys anywhere in the spec are rejected before any
computation starts. Each numeric field of an emitter, model or spec
passes the package's rule of its kind (errors.positive_number,
finite_point, finite_array, and Medium's rule for medium_index), named
by its key; no reader has a number check of its own.

free-space and map's free-space reference are emission_rate on the
coincident imaginary-part jet of the uniform medium: the ED, MD and EQ rows
are its diagonal channel pairs, and the total adds their interference.

couple reads xi and rates of separated emitters from build_ensemble; its
1 % reference-frequency rule holds at every separation, and at zero
separation xi is divergent.

CSV output starts with versioned schema comments ("# polyemit-csv 1",
subcommand, column docs) followed by a header row; JSON output is a
single sorted-key document. Output bytes are deterministic for fixed
inputs and any PYTHONHASHSEED; map node order is grid-major.
"""
import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .dynamics import (EmitterEnsembleModel, evolve_ensemble,
                       product_density, pure_density)
from .emitter import (CHANNELS, MultipoleEmitter, _parse_complex,
                      normalize_channels)
from .errors import (InputError, IntegrationError, MissingDerivativeError,
                     PartFlagError, PolyemitError, QuadratureError,
                     positive_number)
from .grid import TensorGrid, load_grid, validate_grid
from .homogeneous import Medium, coincident_im_jet
from .rates import (_reference_frequency, build_ensemble, collective_rate,
                    emission_rate, enhancement_map)
# not called here (couple goes through build_ensemble); perfbench/tracing.py
# wraps these two names on this module
from .quadrature import homogeneous_pair_model  # noqa: F401
from .rates import coupling_strength  # noqa: F401

_CSV_SCHEMA = "polyemit-csv 1"


# --- argv checks -------------------------------------------------------------

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
            # checked in rad/s, so a conversion past the float range fails
            return positive_number(value * scale, f"frequency {s!r} in rad/s")
    raise InputError(
        f"frequency {s!r} needs an explicit unit suffix: THz or rad/s")


def _emitter_files(args: argparse.Namespace, need: int) -> tuple:
    """The --emitter paths, exactly need of them, and the --channels
    selection (None keeps every channel), checked before any file is
    read."""
    if len(args.emitter) != need:
        raise InputError(f"{args.subcommand} needs exactly {need} "
                         f"--emitter file(s)")
    if args.channels is None:
        return args.emitter, None
    return args.emitter, normalize_channels(
        [p.strip() for p in args.channels.split(",") if p.strip()])


# --- output plumbing ---------------------------------------------------------

def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
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
                rows) -> str:
    """The CSV document: each row a sequence of cells, one _fmt each, or
    a str, a line its caller has already formatted."""
    lines = [f"# {_CSV_SCHEMA}", f"# subcommand: {subcommand}"]
    lines += [f"# {c}" for c in comments]
    lines.append(",".join(headers))
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(map(_fmt, row)))
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


def _deliver(args: argparse.Namespace, csv_parts: tuple, doc: dict) -> None:
    if args.format == "csv":
        comments, headers, rows = csv_parts
        text = _render_csv(args.subcommand, comments, headers, rows)
    else:
        text = _render_json(doc)
    if args.out:
        _write_atomic(args.out, text)
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------

def _cmd_free_space(args: argparse.Namespace) -> int:
    med = Medium(args.index)
    omega = (None if args.frequency is None
             else parse_frequency(args.frequency))
    paths, channels = _emitter_files(args, 1)
    e = MultipoleEmitter.from_file(paths[0]).restricted(channels)
    if omega is None:
        omega = e.omega0
    rep = emission_rate(replace(e, omega0=omega),
                        coincident_im_jet(omega, med))
    # the diagonal channel pairs; the total adds their interference
    g_ed, g_md, g_eq = (rep.gamma_by_channel_pair[(c, c)] for c in CHANNELS)
    rows = [["ED", g_ed], ["MD", g_md], ["EQ", g_eq],
            ["total", rep.gamma_total]]
    comments = [f"refractive index: {med.refractive_index!r}",
                f"frequency_rad_per_s: {omega!r}",
                "columns: channel, decay rate in 1/s"]
    doc = {"subcommand": "free-space",
           "refractive_index": med.refractive_index,
           "frequency_rad_per_s": omega,
           "gamma_per_s": {"ED": g_ed, "MD": g_md, "EQ": g_eq,
                           "total": rep.gamma_total}}
    _deliver(args, (comments, ["channel", "gamma_per_s"], rows), doc)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    paths, channels = _emitter_files(args, 1)
    grid = _load_grid_file(args.grid)
    e = MultipoleEmitter.from_file(paths[0]).restricted(channels)
    rep = enhancement_map(grid, e)
    norm = rep.normalization
    by_pair = norm["enhancement_by_channel_pair"]
    pairs = sorted(by_pair)
    headers = (["x_m", "y_m", "z_m", "enhancement_total"]
               + [f"enh_{p.replace('-', '_')}" for p in pairs]
               + ["gamma_total_per_s"])
    # lists of floats in node_points() order
    columns = [norm["enhancement_total"], *(by_pair[p] for p in pairs),
               rep.gamma_total]
    comments = [
        f"grid: {args.grid}",
        f"channels: {','.join(norm['channels'])}",
        f"gamma_free_space_per_s: {norm['gamma_fs']['value']!r}",
        "columns: node position (m), total enhancement over the free-space "
        "rate, per channel-pair enhancement, absolute rate (1/s)",
    ]
    if args.format == "csv":
        # the lines _fmt would give: each axis value formatted once, each
        # other cell by one repr
        xs, ys, zs = ([repr(v) for v in a.tolist()] for a in grid.axes_si())
        rows = map(",".join, zip([f"{x},{y},{z}" for x in xs for y in ys
                                  for z in zs],
                                 *(map(repr, col) for col in columns)))
        nodes = None
    else:
        rows = None
        nodes = [{"position_m": point, "enhancement_total": total,
                  "enhancement_by_channel_pair": dict(zip(pairs, enh)),
                  "gamma_total_per_s": gamma}
                 for point, total, *enh, gamma
                 in zip(grid.node_points().tolist(), *columns)]
    doc = {"subcommand": "map", "grid": args.grid,
           "channels": norm["channels"],
           "gamma_free_space_per_s": norm["gamma_fs"]["value"],
           "gamma_free_space_by_channel": norm["gamma_fs_by_channel"],
           "nodes": nodes}
    _deliver(args, (comments, headers, rows), doc)
    return 0


def _cmd_couple(args: argparse.Namespace) -> int:
    med = Medium(args.index)
    omega = (None if args.frequency is None
             else parse_frequency(args.frequency))
    paths, channels = _emitter_files(args, 2)
    a, b = (MultipoleEmitter.from_file(path).restricted(channels)
            for path in paths)
    wbar = _reference_frequency([a, b], omega)
    separation = float(np.linalg.norm(a.position - b.position))

    if separation == 0.0:
        # coherent coupling diverges; every rate is the coincident jet's
        jet0 = coincident_im_jet(wbar, med)
        gamma = [[collective_rate(x, y, jet0, omega_bar=wbar).gamma_cross
                  for y in (a, b)] for x in (a, b)]
        xi = None
    else:
        model = build_ensemble([a, b], med, omega_ref=wbar)
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
    comments = [f"refractive index: {med.refractive_index!r}",
                f"mean frequency rad/s: {wbar!r}",
                f"separation_m: {separation!r}",
                "columns: quantity, real part, imaginary part, unit, note"]

    def czdoc(z):
        return None if z is None else {"re": complex(z).real,
                                       "im": complex(z).imag}

    doc = {"subcommand": "couple", "refractive_index": med.refractive_index,
           "mean_frequency_rad_per_s": wbar, "separation_m": separation,
           "xi_rad_per_s": czdoc(xi),
           "gamma_cross_per_s": czdoc(cross),
           "gamma_a_per_s": czdoc(gamma_a), "gamma_b_per_s": czdoc(gamma_b)}
    _deliver(args, (comments, ["quantity", "re", "im", "unit", "note"], rows),
             doc)
    return 0


def _load_grid_file(path: str) -> TensorGrid:
    try:
        with open(path, "rb") as fh:
            return load_grid(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


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
        # a model carries its own reference frequency and environment
        stray = sorted({"medium_index", "omega_ref_rad_per_s"} & set(spec))
        if stray:
            raise InputError(f"{path}: {stray[0]} goes with emitters only")
        model = EmitterEnsembleModel.from_dict(spec["model"])
    else:
        if not isinstance(spec["emitters"], list) or not spec["emitters"]:
            raise InputError(f"{path}: emitters must be a non-empty list")
        ems = [MultipoleEmitter.from_dict(d) for d in spec["emitters"]]
        try:
            med = Medium(spec.get("medium_index", 1.0))
        except InputError as exc:
            raise InputError(f"medium_index: {exc}") from None
        omega_ref = spec.get("omega_ref_rad_per_s")
        if omega_ref is not None:
            omega_ref = positive_number(omega_ref, "omega_ref_rad_per_s")
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

    rtol = positive_number(spec.get("rtol", 1e-10), "rtol")
    atol = positive_number(spec.get("atol", 1e-12), "atol")
    return model, rho0, rtol, atol


def _cmd_dynamics(args: argparse.Namespace) -> int:
    t_max = positive_number(args.t_max, "t-max (seconds)")
    if args.t_points < 2:
        raise InputError("t-points must be an integer >= 2")
    model, rho0, rtol, atol = _parse_ensemble_spec(args.ensemble)
    times = np.linspace(0.0, t_max, args.t_points)
    traj = evolve_ensemble(model, rho0, times, rtol=rtol, atol=atol,
                           keep_states=False)
    headers, data = traj.table()
    comments = [f"ensemble: {args.ensemble}",
                f"model: {json.dumps(model.to_dict(), sort_keys=True)}",
                f"integrator rtol: {rtol!r}, atol: {atol!r}",
                f"error_estimate: {traj.error_estimate!r}",
                "columns: time (s), then per emitter Re<sigma>, Im<sigma>, "
                "<sigma_z> (lab frame)"]
    doc = {"subcommand": "dynamics", "model": model.to_dict(),
           "trajectory": traj.to_dict()}
    _deliver(args, (comments, headers, [list(r) for r in data]), doc)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    grid = _load_grid_file(args.grid)
    report = validate_grid(grid)
    rows = [[c.name, c.passed, c.residual, c.detail]
            for c in report.checks]
    comments = [f"grid: {args.grid}",
                f"all_pass: {'true' if report.all_pass else 'false'}",
                f"missing_blocks: {','.join(report.missing_blocks) or 'none'}",
                "columns: check name, pass flag, worst residual, detail"]
    doc = {"subcommand": "validate", "grid": args.grid}
    doc.update(report.to_dict())
    _deliver(args, (comments, ["check", "passed", "residual", "detail"], rows),
             doc)
    return 0 if report.all_pass else 2


_HANDLERS = {"free-space": _cmd_free_space, "map": _cmd_map,
             "couple": _cmd_couple, "dynamics": _cmd_dynamics,
             "validate": _cmd_validate}


# --- argument parsing --------------------------------------------------------

def _dash_value(flag: str) -> str:
    """Help text: argparse reads a value that starts with '-' (other than a
    plain negative number) as the next flag."""
    return f"; a value starting with '-' needs the {flag}=VALUE form"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call of main; read it, never change it. Each parse_args call returns a
    fresh namespace and copies the --emitter default before appending, so
    no value carries from one call to the next."""
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
        if emitters:
            p.add_argument("--emitter", action="append", default=[],
                           metavar="FILE", help="emitter JSON file"
                           + (" (repeat)" if emitters > 1 else ""))
            p.add_argument("--channels",
                           help="restrict to channels, e.g. ed,md")
        if grid:
            p.add_argument("--grid", required=True, help="grid file")
        if ensemble:
            p.add_argument("--ensemble", required=True,
                           help="ensemble spec JSON file")

    p = sub.add_parser("free-space",
                       help="decay rates in a uniform lossless medium")
    common(p, emitters=1)
    p.add_argument("--index", type=float, default=1.0,
                   help="refractive index (default 1)")
    p.add_argument("--frequency",
                   help="evaluation frequency with suffix, e.g. 384THz or "
                        "2.4e15rad/s (default: the emitter's)"
                        + _dash_value("--frequency"))

    p = sub.add_parser("map", help="enhancement map over a sampled grid")
    common(p, emitters=1, grid=True)

    p = sub.add_parser("couple",
                       help="pairwise coupling and collective decay in a "
                            "uniform medium")
    common(p, emitters=2)
    p.add_argument("--index", type=float, default=1.0,
                   help="refractive index (default 1)")
    p.add_argument("--frequency",
                   help="mean frequency with suffix (default: emitter mean)"
                        + _dash_value("--frequency"))

    p = sub.add_parser("dynamics", help="ensemble trajectory")
    common(p, ensemble=True)
    p.add_argument("--t-max", type=float, required=True,
                   help="trajectory end time in seconds"
                        + _dash_value("--t-max"))
    p.add_argument("--t-points", type=int, default=201,
                   help="number of grid times (default 201)")

    p = sub.add_parser("validate", help="grid file self-consistency checks")
    common(p, grid=True)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. The parser is the one
    build_parser made for the process, so a call builds no argparse tree."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
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
