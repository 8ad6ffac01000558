"""Command-line surface: parsing, outputs, exit codes, atomicity.

The free-space reference value is the closed-form rate of a unit
atomic-dipole emitter at 2 pi * 384 THz in vacuum, frozen from an
independent evaluation of w^3 d^2 / (3 pi hbar eps0 c^3) with CODATA
constants: 4257926.9227325665 1/s.
"""
import base64
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import OdeSolver

import polyemit
from polyemit.cli import (_fmt, _render_csv, build_parser, main,
                          parse_frequency)
from polyemit.constants import ATOMIC_QUADRUPOLE, C0, EPS0, HBAR
from polyemit.dynamics import (EmitterEnsembleModel, evolve_ensemble,
                               product_density, pure_density)
from polyemit.emitter import (MultipoleEmitter, bilinear_form,
                              moment_product_bundle)
from polyemit.errors import (GridFormatError, InputError, ModelDomainError,
                             finite_array, finite_point, increasing_axis,
                             positive_number)
from polyemit.grid import (grid_from_homogeneous, load_grid, save_grid,
                           validate_grid)
from polyemit.homogeneous import (Medium, coincident_im_jet, eval_homogeneous,
                                  eval_homogeneous_jet)
from polyemit.quadrature import (SpectralGreenModel, homogeneous_pair_model,
                                 imaginary_axis_form, lorentzian_model)
from polyemit.rates import (build_ensemble, collective_rate,
                            coupling_strength, emission_rate, enhancement_map,
                            free_space_rates, lamb_shift)

from oracles import csv_cell, v3_file, v3_split

W384 = 2 * math.pi * 384e12
GAMMA_ED_UNIT_ATOMIC = 4257926.9227325665


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def emitter_file(tmp_path):
    return write_json(tmp_path / "emitter.json",
                      {"position_m": [0.0, 0.0, 0.0],
                       "omega0_rad_per_s": W384,
                       "d_atomic": [1.0, 0.0, 0.0]})


@pytest.fixture
def grid_file(tmp_path):
    ax = np.array([-50e-9, 0.0, 50e-9])
    grid = grid_from_homogeneous(Medium(1.0), W384, (ax, ax, 0.0))
    out = tmp_path / "grid.json"
    out.write_bytes(save_grid(grid))
    return str(out)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    headers = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return comments, headers, rows


# --- configuration and unit parsing ------------------------------------------

def test_parse_frequency_suffixes():
    assert parse_frequency("384THz") == pytest.approx(W384, rel=1e-15)
    assert parse_frequency("2.4e15rad/s") == 2.4e15
    assert parse_frequency(" 384 THz ") == pytest.approx(W384, rel=1e-15)
    with pytest.raises(InputError, match="suffix"):
        parse_frequency("384")
    with pytest.raises(InputError, match="suffix"):
        parse_frequency("384GHz")
    with pytest.raises(InputError, match="positive"):
        parse_frequency("-1THz")
    # the rule holds in rad/s, after the unit conversion
    with pytest.raises(InputError, match="positive finite"):
        parse_frequency("1e300THz")


def refusal(argv, tmp_path, capsys):
    """Exit code and stderr of main(argv) with every FILE in argv, and
    each file a subcommand requires, naming a file that does not exist:
    an argv refusal must come before any file is read."""
    if "FILE" not in argv:
        argv = argv + {"free-space": ["--emitter", "FILE"],
                       "couple": ["--emitter", "FILE", "--emitter", "FILE"],
                       "dynamics": ["--ensemble", "FILE"]}[argv[0]]
    missing = str(tmp_path / "missing.json")
    argv = [missing if a == "FILE" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    err = capsys.readouterr().err
    assert "missing.json" not in err
    return code, err


def test_run_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys):
    # argparse owns the flag set, the required flags and the --format
    # choices; each handler checks its emitter count and channels
    for argv, message in [
            (["validate", "--grid", "FILE", "--bogus", "1"], "unrecognized"),
            (["free-space", "--tol-rel", "0.5"],
             "unrecognized arguments: --tol-rel"),
            (["map", "--emitter", "FILE"], "--grid"),
            (["validate", "--grid", "FILE", "--format", "yaml"], "--format"),
            (["dynamics", "--ensemble", "FILE"], "--t-max"),
            (["free-space", "--emitter", "FILE", "--emitter", "FILE"],
             "free-space needs exactly 1 --emitter"),
            (["couple", "--emitter", "FILE"],
             "couple needs exactly 2 --emitter"),
            (["couple", "--emitter", "FILE", "--emitter", "FILE",
              "--emitter", "FILE"], "couple needs exactly 2 --emitter"),
            (["map", "--grid", "FILE", "--emitter", "FILE", "--emitter",
              "FILE"], "map needs exactly 1 --emitter"),
            (["map", "--grid", "FILE", "--emitter", "FILE", "--channels",
              "ed,xx"], "unknown channels")]:
        code, err = refusal(argv, tmp_path, capsys)
        assert code == 2 and message in err, argv


T_MAX = "t-max (seconds) must be a positive finite number"
FREQUENCY = "in rad/s must be a positive finite number"


@pytest.mark.parametrize("argv, message", [
    (["dynamics", "--t-max", "True"], "--t-max: invalid float value"),
    (["dynamics", "--t-max", "1e-9s"], "--t-max: invalid float value"),
    (["dynamics", "--t-max", "1" + "0" * 400], T_MAX),
    (["free-space", "--frequency", "TrueTHz"], "cannot parse frequency"),
    (["free-space", "--frequency", "infTHz"], FREQUENCY),
    (["free-space", "--frequency", "2.4e15"], "suffix"),
    (["free-space", "--tol-rel", "1e-6"], "unrecognized arguments"),
    (["free-space", "--frequency", "1e300THz"], FREQUENCY),
    (["free-space", "--frequency", "1" + "0" * 400 + "rad/s"], FREQUENCY),
    (["free-space", "--index", "0.5"], "refractive index"),
    (["free-space", "--index", "nan"], "refractive index"),
    (["couple", "--index", "0.5"], "refractive index"),
    (["couple", "--index", "nan"], "refractive index"),
    (["free-space", "--frequency", "nanTHz"], FREQUENCY),
    (["free-space", "--frequency=-infTHz"], FREQUENCY),
    (["free-space", "--frequency=-1THz"], FREQUENCY),
    (["couple", "--frequency", "0rad/s"], FREQUENCY),
    (["dynamics", "--t-max", "-1"], T_MAX),
    (["dynamics", "--t-max", "0"], T_MAX),
    (["dynamics", "--t-max", "nan"], T_MAX),
    (["dynamics", "--t-max", "inf"], T_MAX),
    (["dynamics", "--t-max=-inf"], T_MAX),
    (["dynamics", "--t-max", "1e-9", "--t-points", "1"], "t-points")],
    ids=["t_max-bool", "t_max-string", "t_max-huge-int", "frequency-bool",
         "frequency-inf", "frequency-string", "tol_rel-string",
         "frequency-overflow", "frequency-huge-int",
         "free-space-index-below-1",
         "free-space-index-nan", "couple-index-below-1", "couple-index-nan",
         "frequency-nan", "frequency--inf", "frequency-negative",
         "frequency-zero", "t_max-negative", "t_max-zero", "t_max-nan",
         "t_max-inf", "t_max--inf", "t_points-1"])
def test_run_config_numeric_fields_follow_the_number_rule(tmp_path, capsys,
                                                          argv, message):
    # each numeric flag is a finite number by the package's rules (Medium,
    # errors.positive_number, the frequency suffix), and a bad one exits 2
    # naming the flag before any file is read
    code, err = refusal(argv, tmp_path, capsys)
    assert code == 2 and message in err


# one rule per input kind: errors.positive_number, finite_array,
# finite_point and increasing_axis, at every entry point that takes such
# an input

ED = MultipoleEmitter(position=np.zeros(3), omega0=W384, d=[1e-29, 0, 0])
ED2 = dataclasses.replace(ED, position=np.array([0.0, 0.0, 60e-9]))
AX = np.array([0.0, 1e-8])
GRID = grid_from_homogeneous(Medium(1.0), W384, (AX, AX, 0.0))
RESONANCE = lorentzian_model([({"value": 1e5 * np.eye(3)}, W384, 1e13)])


def ensemble(**kw):
    return EmitterEnsembleModel(**{"omega_ref": W384, "delta": [0.0],
                                   "xi": np.zeros((1, 1)),
                                   "gamma": [[1e7]], **kw})


def evolve(**kw):
    args = {"rho0": product_density("e"), "times": [0.0, 1e-9], **kw}
    return evolve_ensemble(ensemble(), **args)


SCALAR_SITES = {
    "TensorGrid.frequency": (lambda v: dataclasses.replace(GRID, frequency=v),
                             GridFormatError, "frequency_rad_per_s"),
    "TensorGrid.symmetry_tol": (
        lambda v: dataclasses.replace(GRID, symmetry_tol=v),
        GridFormatError, "symmetry_rtol"),
    "grid_from_homogeneous.fd_step": (
        lambda v: grid_from_homogeneous(Medium(1.0), W384, (AX, AX, 0.0),
                                        fd_step=v),
        InputError, "fd_step"),
    "EmitterEnsembleModel.omega_ref": (lambda v: ensemble(omega_ref=v),
                                       InputError, "omega_ref"),
    "evolve_ensemble.rtol": (lambda v: evolve(rtol=v), InputError, "rtol"),
    "evolve_ensemble.atol": (lambda v: evolve(atol=v), InputError, "atol"),
    "MultipoleEmitter.omega0": (lambda v: dataclasses.replace(ED, omega0=v),
                                InputError, "omega0"),
    "bilinear_form.omega": (
        lambda v: bilinear_form(ED, ED, coincident_im_jet(W384), v),
        InputError, "omega"),
    "free_space_rates.omega": (lambda v: free_space_rates(ED, 1.0, v),
                               InputError, "frequency"),
    "coupling_strength.omega_bar": (
        lambda v: coupling_strength(ED, ED2, RESONANCE, omega_bar=v),
        InputError, "reference frequency"),
    "build_ensemble.omega_ref": (
        lambda v: build_ensemble([ED, ED2], Medium(1.0), omega_ref=v),
        InputError, "reference frequency"),
    "lorentzian_model.omega_r": (
        lambda v: lorentzian_model([({"value": np.eye(3)}, v, 1e13)]),
        ModelDomainError, "omega_r"),
    "lorentzian_model.eta": (
        lambda v: lorentzian_model([({"value": np.eye(3)}, W384, v)]),
        ModelDomainError, "eta"),
    "imaginary_axis_form.omega0": (
        lambda v: imaginary_axis_form(RESONANCE,
                                      moment_product_bundle(ED, ED), v),
        ModelDomainError, "omega0"),
}
BAD_SCALARS = {"bool": True, "string": "1e-9", "nan": math.nan,
               "inf": math.inf, "-inf": -math.inf, "zero": 0,
               "negative": -1.0, "huge-int": 10 ** 400}

POINT_SITES = {
    "MultipoleEmitter.position": (
        lambda p: dataclasses.replace(ED, position=p), "emitter position"),
    "TensorGrid.jet_at": (GRID.jet_at, "query point"),
    "eval_homogeneous": (lambda p: eval_homogeneous(p, W384), "separation"),
    "eval_homogeneous_jet.r_obs": (
        lambda p: eval_homogeneous_jet(p, np.zeros(3), W384), "field point"),
    "eval_homogeneous_jet.r_src": (
        lambda p: eval_homogeneous_jet(np.zeros(3), p, W384), "source point"),
    "homogeneous_pair_model.r_obs": (
        lambda p: homogeneous_pair_model(Medium(1.0), p, np.zeros(3)),
        "field point"),
    "homogeneous_pair_model.r_src": (
        lambda p: homogeneous_pair_model(Medium(1.0), np.zeros(3), p),
        "source point"),
}
BAD_POINTS = {"nan": [1e-8, math.nan, 0.0], "inf": [math.inf, 0.0, 0.0],
              "string": ["1e-8", "0", "0"], "2-vector": [1e-8, 0.0],
              "bool-entry": [True, 0.0, 0.0]}

AXIS_SITES = {
    "TensorGrid.axes": (
        lambda ax: dataclasses.replace(GRID, axes=(ax, AX, 0.0)),
        GridFormatError, "axes.x"),
    "grid_from_homogeneous.axes": (
        lambda ax: grid_from_homogeneous(Medium(1.0), W384, (ax, AX, 0.0)),
        InputError, "axes.x"),
    "evolve_ensemble.times": (lambda t: evolve(times=t), InputError,
                              "time grid"),
}
BAD_AXES = {"nan": [math.nan, 1e-8], "inf": [0.0, math.inf],
            "decreasing": [1e-8, 0.0], "repeated": [0.0, 0.0], "empty": [],
            "2-d": [[0.0, 1e-8]], "string": ["0", "1e-8"],
            "ragged": [0.0, [1e-8]], "bool-entry": [True, 2]}


FREQUENCY_SITES = {
    "coincident_im_jet": coincident_im_jet,
    "eval_homogeneous": lambda w: eval_homogeneous([1e-8, 0.0, 0.0], w),
    "eval_homogeneous_jet": (
        lambda w: eval_homogeneous_jet([1e-8, 0.0, 0.0], np.zeros(3), w)),
    "homogeneous_pair_model.jet": (
        lambda w: homogeneous_pair_model(Medium(1.0), [1e-8, 0.0, 0.0],
                                         np.zeros(3)).jet(w)),
}
BAD_FREQUENCIES = {"string": "2.4e15", "bool": True, "none": None,
                   "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                   "nan+1j": complex(math.nan, 1.0), "huge-int": 10 ** 400}

# site: (call, shape of its array, error class, field named in the message)
ARRAY_SITES = {
    "MultipoleEmitter.d": (lambda a: dataclasses.replace(ED, d=a), (3,),
                           InputError, "moment d"),
    "MultipoleEmitter.m": (lambda a: dataclasses.replace(ED, m=a), (3,),
                           InputError, "moment m"),
    "MultipoleEmitter.Q": (lambda a: dataclasses.replace(ED, Q=a), (3, 3),
                           InputError, "moment Q"),
    "EmitterEnsembleModel.delta": (lambda a: ensemble(delta=a), (1,),
                                   InputError, "delta"),
    "EmitterEnsembleModel.xi": (lambda a: ensemble(xi=a), (1, 1),
                                InputError, "xi"),
    "EmitterEnsembleModel.gamma": (lambda a: ensemble(gamma=a), (1, 1),
                                   InputError, "gamma"),
    "evolve_ensemble.rho0": (lambda a: evolve(rho0=a), (2, 2), InputError,
                             "initial state"),
    "pure_density": (pure_density, (2,), InputError, "state amplitudes"),
    "lorentzian_model.amplitude": (
        lambda a: lorentzian_model([({"value": a}, W384, 1e13)]), (3, 3),
        ModelDomainError, "amplitude of block value"),
}
# the first entry of an otherwise zero list, nested to the site's shape
BAD_ENTRIES = {"string": "1", "bool": True, "none": None, "nan": math.nan,
               "inf": math.inf, "nan+1j": complex(math.nan, 1.0),
               "huge-int": 10 ** 400}


@pytest.mark.parametrize("site, value", [
    (site, value) for site in SCALAR_SITES for value in BAD_SCALARS],
    ids=lambda x: x)
def test_scalar_inputs_follow_the_positive_number_rule(site, value):
    # a frequency, step, time or tolerance is a finite number above zero:
    # never a bool, a string or an int past the float range
    call, error, field = SCALAR_SITES[site]
    with pytest.raises(error, match=field):
        call(BAD_SCALARS[value])


@pytest.mark.parametrize("site, value", [
    (site, value) for site in FREQUENCY_SITES for value in BAD_FREQUENCIES],
    ids=lambda x: x)
def test_frequency_inputs_follow_the_complex_frequency_rule(site, value):
    # a (complex) frequency is a finite int, float or complex: never a
    # bool, a string, None or an int past the float range
    with pytest.raises(InputError, match="frequency"):
        FREQUENCY_SITES[site](BAD_FREQUENCIES[value])


@pytest.mark.parametrize("site, value", [
    (site, value) for site in ARRAY_SITES for value in BAD_ENTRIES],
    ids=lambda x: x)
def test_array_inputs_follow_the_finite_array_rule(site, value):
    # an array entry is a finite int, float or complex, as for a
    # frequency: never a bool, a string, None or an int past the float
    # range
    call, shape, error, field = ARRAY_SITES[site]
    entries = [BAD_ENTRIES[value]] + [0] * (math.prod(shape) - 1)
    nested = np.array(entries, dtype=object).reshape(shape).tolist()
    with pytest.raises(error, match=field):
        call(nested)


@pytest.mark.parametrize("site, value", [
    (site, value) for site in POINT_SITES for value in BAD_POINTS],
    ids=lambda x: x)
def test_point_inputs_follow_the_finite_point_rule(site, value):
    call, field = POINT_SITES[site]
    with pytest.raises(InputError, match=field):
        call(BAD_POINTS[value])


@pytest.mark.parametrize("site, value", [
    (site, value) for site in AXIS_SITES for value in BAD_AXES],
    ids=lambda x: x)
def test_axis_inputs_follow_the_increasing_axis_rule(site, value):
    call, error, field = AXIS_SITES[site]
    with pytest.raises(error, match=field):
        call(BAD_AXES[value])


def test_ints_past_int64_follow_the_float_rules():
    # an int numpy stores as an object passes as the float it rounds to,
    # as it does for positive_number; 10 ** 400 stays refused (BAD_*)
    big = 2 ** 70
    assert finite_point([big, 0, 0], "p").tolist() == [float(big), 0.0, 0.0]
    assert increasing_axis([0, big], "a").tolist() == [0.0, float(big)]
    assert finite_array([big], "x").tolist() == [complex(big)]
    assert finite_array([big], "x", real=True).tolist() == [float(big)]
    assert positive_number(big, "f") == float(big)


# --- package surface ----------------------------------------------------------

def test_public_names_are_pinned():
    # test-only references live in tests/oracles.py, not in the package
    names = sorted(name for name, value in vars(polyemit).items()
                   if not name.startswith("_")
                   and not isinstance(value, type(polyemit)))
    assert names == [
        "CoincidentPointError", "CouplingReport", "EmitterEnsembleModel",
        "GreensJet", "GridDomainError", "GridFormatError",
        "GridValidationReport", "InputError", "IntegrationError", "Medium",
        "MissingDerivativeError", "ModelDomainError", "MultipoleEmitter",
        "PartFlagError", "PolyemitError", "QuadratureError",
        "QuadratureResult", "RateReport", "SpectralGreenModel", "TensorGrid",
        "Trajectory", "build_ensemble", "coincident_im_jet",
        "collective_rate", "coupling_strength", "emission_rate",
        "enhancement_map", "eval_homogeneous", "eval_homogeneous_jet",
        "evolve_ensemble", "free_space_rates",
        "grid_from_homogeneous", "homogeneous_pair_model",
        "imaginary_axis_form", "lamb_shift", "load_grid", "lorentzian_model",
        "normalize_channels", "product_density", "pure_density",
        "save_grid", "validate_grid"]


def test_spectral_model_fields_are_pinned():
    # the evaluator and the four declarations imaginary_axis_form reads
    assert [f.name for f in dataclasses.fields(SpectralGreenModel)] == [
        "evaluator", "uhp_quadratic_limit", "static_pole_blocks",
        "scattered", "imaginary_axis_laurent"]


def test_setting_lists_are_pinned():
    # no setting without a caller: the near-degeneracy bound is
    # rates._FREQ_RATIO_TOL, the map's grid-frequency bound
    # rates._GRID_FREQ_RTOL, the derivative cross-check's bound
    # grid._DERIVATIVE_RTOL, couplings and shifts use imaginary_axis_form's
    # default tolerance, and a generated grid carries the default symmetry
    # tolerance and its own provenance
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(coupling_strength) == ["a", "b", "model", "omega_bar"]
    assert params(collective_rate) == ["a", "b", "model_or_jet", "omega_bar"]
    assert params(lamb_shift) == ["e", "model"]
    assert params(build_ensemble) == ["emitters", "environment", "omega_ref"]
    assert params(grid_from_homogeneous) == ["medium", "frequency", "axes",
                                             "fd_step"]
    assert params(enhancement_map) == ["grid", "e"]
    assert params(validate_grid) == ["grid"]

    # no flag sets a tolerance: those are module constants or fields of
    # the ensemble spec
    sub = next(a for a in build_parser()._actions
               if a.dest == "subcommand")
    flags = {name: sorted(opt for a in p._actions for opt in a.option_strings
                          if opt not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    common = ["--format", "--out", "--quiet"]
    emitter = ["--channels", "--emitter"]
    assert flags == {
        "free-space": sorted(common + emitter + ["--frequency", "--index"]),
        "map": sorted(common + emitter + ["--grid"]),
        "couple": sorted(common + emitter + ["--frequency", "--index"]),
        "dynamics": sorted(common + ["--ensemble", "--t-max", "--t-points"]),
        "validate": sorted(common + ["--grid"])}


# --- free-space ---------------------------------------------------------------

def test_csv_cells_match_the_reference_formatter():
    cells = [True, False, np.bool_(True), 0, -7, 2 ** 70, np.int64(-2 ** 62),
             np.int32(5), 0.1, np.float64(0.1), np.float32(0.1), -0.0,
             np.float64(-0.0), 5e-324, -5e-324, 1.7976931348623157e308,
             "plain", "a,b", 'say "hi"', "two\nlines", '",\n', ""]
    rows = [cells, cells[::-1]]
    want = "".join(f"{line}\n" for line in [
        "# polyemit-csv 1", "# subcommand: map", "# a note", "h1,h2",
        *(",".join(csv_cell(v) for v in row) for row in rows)])
    # map hands its rows over as a zip of its columns
    for given in (rows, zip(*zip(*rows))):
        assert _render_csv("map", ["a note"], ["h1", "h2"], given) == want
    assert ",5e-324,-5e-324,1.7976931348623157e+308," in want
    assert ',"a,b","say ""hi""","two\nlines",' in want


def test_free_space_matches_frozen_value(emitter_file, capsys):
    assert main(["free-space", "--emitter", emitter_file]) == 0
    comments, headers, rows = parse_csv(capsys.readouterr().out)
    assert headers == ["channel", "gamma_per_s"]
    table = {r[0]: float(r[1]) for r in rows}
    assert table["ED"] == pytest.approx(GAMMA_ED_UNIT_ATOMIC, rel=1e-12)
    assert table["MD"] == 0.0 and table["EQ"] == 0.0
    assert table["total"] == pytest.approx(GAMMA_ED_UNIT_ATOMIC, rel=1e-12)
    assert any("polyemit-csv 1" in c for c in comments)


def test_free_space_json_and_explicit_frequency(emitter_file, capsys):
    assert main(["free-space", "--emitter", emitter_file,
                 "--frequency", "384THz", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma_per_s"]["ED"] == pytest.approx(GAMMA_ED_UNIT_ATOMIC,
                                                     rel=1e-12)
    assert doc["frequency_rad_per_s"] == pytest.approx(W384, rel=1e-15)


def test_free_space_ignores_scipy_constants(emitter_file):
    # scipy's constants set to their CODATA 2018 values before polyemit is
    # imported; the package holds its own, so the rate does not move
    child = f"""
import scipy.constants as sc
sc.epsilon_0 = 8.8541878128e-12
for key, value in (("Bohr radius", 5.29177210903e-11),
                   ("Bohr magneton", 9.2740100783e-24)):
    sc.physical_constants[key] = (value,) + sc.physical_constants[key][1:]
from polyemit.cli import main
raise SystemExit(main(["free-space", "--emitter", {emitter_file!r},
                       "--format", "json"]))
"""
    src = os.path.dirname(os.path.dirname(polyemit.__file__))
    proc = subprocess.run([sys.executable, "-c", child],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    total = json.loads(proc.stdout)["gamma_per_s"]["total"]
    assert total == pytest.approx(GAMMA_ED_UNIT_ATOMIC, rel=1e-12)


def test_free_space_inert_emitter(tmp_path, capsys):
    path = write_json(tmp_path / "inert.json",
                      {"position_m": [0, 0, 0], "omega0_rad_per_s": W384})
    assert main(["free-space", "--emitter", path]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert all(float(r[1]) == 0.0 for r in rows)


def free_space_doc(tmp_path, capsys, **moments):
    path = write_json(tmp_path / "emitter.json",
                      {"position_m": [0, 0, 0], "omega0_rad_per_s": W384,
                       **moments})
    assert main(["free-space", "--emitter", path, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["gamma_per_s"]


def test_free_space_is_the_emission_rate_of_any_quadrupole(tmp_path,
                                                           capsys):
    # free-space reports emission_rate on the coincident jet, which holds
    # for any Q; the EQ closed form holds for a symmetric traceless Q only
    closed = (W384 ** 5 * ATOMIC_QUADRUPOLE ** 2
              / (10 * math.pi * HBAR * EPS0 * C0 ** 5))
    # a pure trace does not radiate
    gamma = free_space_doc(tmp_path, capsys,
                           Q_atomic=np.eye(3).tolist())
    assert gamma["EQ"] == 0.0 and gamma["total"] == 0.0
    # diag(1, 0, 0) radiates as its traceless part, sum |Q|^2 = 2/3
    gamma = free_space_doc(tmp_path, capsys,
                           Q_atomic=np.diag([1.0, 0.0, 0.0]).tolist())
    assert gamma["EQ"] == pytest.approx(2.0 / 3.0 * closed, rel=1e-12)
    assert gamma["total"] == gamma["EQ"]


def test_free_space_total_keeps_md_eq_interference(tmp_path, capsys):
    # m along z with Q = i (e_xy - e_yx): the MD-EQ cross pairs are
    # nonzero, and the total is emission_rate's, not ED + MD + EQ
    moments = {"m_bohr_magnetons": [0, 0, 1],
               "Q_atomic": [[0, [0, 1], 0], [[0, -1], 0, 0], [0, 0, 0]]}
    gamma = free_space_doc(tmp_path, capsys, **moments)
    e = MultipoleEmitter.from_dict({"position_m": [0, 0, 0],
                                    "omega0_rad_per_s": W384, **moments})
    rep = emission_rate(e, coincident_im_jet(W384))
    assert gamma["total"] == rep.gamma_total
    interference = 2 * rep.gamma_by_channel_pair[("MD", "EQ")]
    assert interference < -1e-2 * gamma["total"]
    assert gamma["total"] == pytest.approx(
        gamma["ED"] + gamma["MD"] + gamma["EQ"] + interference, rel=1e-12)


def test_free_space_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["free-space", "--emitter", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing_frequency = write_json(tmp_path / "m.json",
                                   {"position_m": [0, 0, 0]})
    assert main(["free-space", "--emitter", missing_frequency]) == 2


def test_bare_frequency_number_exits_2(emitter_file, capsys):
    assert main(["free-space", "--emitter", emitter_file,
                 "--frequency", "384"]) == 2
    assert "suffix" in capsys.readouterr().err


# --- map -----------------------------------------------------------------------

def test_map_homogeneous_grid_is_flat(grid_file, emitter_file, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["map", "--grid", grid_file, "--emitter", emitter_file,
                 "--out", str(out), "--quiet"]) == 0
    comments, headers, rows = parse_csv(out.read_text())
    assert headers[:4] == ["x_m", "y_m", "z_m", "enhancement_total"]
    assert "enh_ED_ED" in headers
    assert len(rows) == 9
    for r in rows:
        assert float(r[3]) == pytest.approx(1.0, abs=1e-10)
    gamma_col = headers.index("gamma_total_per_s")
    assert float(rows[0][gamma_col]) == pytest.approx(GAMMA_ED_UNIT_ATOMIC,
                                                      rel=1e-10)


def test_map_json_document(grid_file, emitter_file, capsys):
    assert main(["map", "--grid", grid_file, "--emitter", emitter_file,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 9
    node = doc["nodes"][0]
    assert node["enhancement_total"] == pytest.approx(1.0, abs=1e-10)
    assert doc["channels"] == ["ED"]


def test_map_output_bytes_repeat_across_runs(grid_file, emitter_file,
                                             tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["map", "--grid", grid_file, "--emitter", emitter_file,
                 "--out", str(a), "--quiet"]) == 0
    assert main(["map", "--grid", grid_file, "--emitter", emitter_file,
                 "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_map_csv_equals_the_row_wise_rendering(tmp_path, capsys):
    # map formats its x, y and z columns from the distinct axis values and
    # every other cell by one repr; the oracle is the row-wise rendering,
    # one _fmt per cell of node_points() and the report's columns, on a
    # grid whose nodes all differ
    rng = np.random.default_rng(3232)
    axes = (np.cumsum(rng.uniform(1e-9, 9e-9, 5)) - 2e-8,
            np.cumsum(rng.uniform(1e-9, 9e-9, 4)), np.array([-1e-8, 3e-8]))
    base = grid_from_homogeneous(Medium(1.3), W384, axes)
    factor = rng.uniform(0.5, 1.5, size=base.shape + (1, 1))
    grid = dataclasses.replace(
        base, blocks={k: v * factor for k, v in base.blocks.items()})
    path = tmp_path / "grid.json"
    path.write_bytes(save_grid(grid))
    emitter = write_json(tmp_path / "emitter.json",
                         {"position_m": [0.0, 0.0, 0.0],
                          "omega0_rad_per_s": W384,
                          "d_atomic": [1.0, 0.2, 0.0],
                          "m_bohr_magnetons": [0.0, 1.0, 0.3],
                          "Q_atomic": [[1.0, 0.1, 0.0], [0.1, -0.5, 0.0],
                                       [0.0, 0.0, -0.5]]})
    assert main(["map", "--grid", str(path), "--emitter", emitter]) == 0
    out = capsys.readouterr().out

    rep = enhancement_map(grid, MultipoleEmitter.from_file(emitter))
    norm = rep.normalization
    pairs = sorted(norm["enhancement_by_channel_pair"])
    headers = (["x_m", "y_m", "z_m", "enhancement_total"]
               + [f"enh_{p.replace('-', '_')}" for p in pairs]
               + ["gamma_total_per_s"])
    rows = zip(*grid.node_points().T.tolist(), norm["enhancement_total"],
               *(norm["enhancement_by_channel_pair"][p] for p in pairs),
               rep.gamma_total)
    want = "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
    _, sep, body = out.partition("\n" + ",".join(headers) + "\n")
    assert sep and body == want
    assert len(set(norm["enhancement_total"])) == 5 * 4 * 2


def test_map_frequency_mismatch_exits_2_without_output(grid_file, tmp_path,
                                                       capsys):
    detuned = write_json(tmp_path / "detuned.json",
                         {"position_m": [0, 0, 0],
                          "omega0_rad_per_s": 1.01 * W384,
                          "d_atomic": [1, 0, 0]})
    out = tmp_path / "never.csv"
    assert main(["map", "--grid", grid_file, "--emitter", detuned,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "frequency" in capsys.readouterr().err


def test_map_quadrupole_on_total_semantics_grid_exits_2(tmp_path, capsys):
    # a total derivative cannot feed the quadrupole's split gradients
    ax = np.array([-50e-9, 0.0, 50e-9])
    split = grid_from_homogeneous(Medium(1.0), W384, (ax, ax, 0.0))
    total = dataclasses.replace(split, derivative_semantics="total",
                                blocks={"value": split.blocks["value"]})
    grid = tmp_path / "total.json"
    grid.write_bytes(save_grid(total))
    quad = write_json(tmp_path / "eq.json",
                      {"position_m": [0.0, 0.0, 0.0],
                       "omega0_rad_per_s": W384,
                       "Q_atomic": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                                    [0.0, 0.0, 0.0]]})
    out = tmp_path / "never.csv"
    assert main(["map", "--grid", str(grid), "--emitter", quad,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "d_" in capsys.readouterr().err


# --- couple ---------------------------------------------------------------------

def test_couple_free_space_pair(tmp_path, emitter_file, capsys):
    other = write_json(tmp_path / "b.json",
                       {"position_m": [0.0, 0.0, 80e-9],
                        "omega0_rad_per_s": W384,
                        "d_atomic": [1.0, 0.0, 0.0]})
    assert main(["couple", "--emitter", emitter_file, "--emitter", other,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separation_m"] == pytest.approx(80e-9)
    assert doc["gamma_a_per_s"]["re"] == pytest.approx(GAMMA_ED_UNIT_ATOMIC,
                                                       rel=1e-10)
    assert doc["xi_rad_per_s"]["re"] != 0.0
    assert abs(doc["gamma_cross_per_s"]["re"]) < doc["gamma_a_per_s"]["re"]


@pytest.mark.parametrize("index", ["1", "1.5"])
def test_couple_self_rate_is_the_free_space_total(tmp_path, capsys, index):
    # one decay-rate formula: couple's gamma_a and the free-space total of
    # the same emitter are one JSON token, in vacuum and in glass, for an
    # ED+MD+EQ emitter and for an MD-only one beside it (a layout-sensitive
    # case: alone, its moment product is not laid out as a stacked row)
    full = {"omega0_rad_per_s": 2.4e15, "d_atomic": [1, 0, 0.3],
            "m_bohr_magnetons": [0, 1, 0],
            "Q_atomic": [[1, 0, 0], [0, -0.5, 0], [0, 0, -0.5]]}
    md_only = {"omega0_rad_per_s": 2.4e15, "m_bohr_magnetons": [0.3, 0.6, 0.5]}
    b = write_json(tmp_path / "b.json", {"position_m": [0, 0, 30e-9], **full})
    for moments in (full, md_only):
        a = write_json(tmp_path / "a.json",
                       {"position_m": [0, 0, 0], **moments})
        tokens = []
        for argv in (["free-space", "--emitter", a],
                     ["couple", "--emitter", a, "--emitter", b]):
            assert main(argv + ["--index", index, "--format", "json"]) == 0
            tokens.append(json.loads(capsys.readouterr().out,
                                     parse_float=str))
        assert tokens[0]["gamma_per_s"]["total"] == \
            tokens[1]["gamma_a_per_s"]["re"]


def test_couple_colocated_reports_rate_but_no_coupling(tmp_path, emitter_file,
                                                       capsys):
    twin = write_json(tmp_path / "twin.json",
                      {"position_m": [0.0, 0.0, 0.0],
                       "omega0_rad_per_s": W384,
                       "d_atomic": [1.0, 0.0, 0.0]})
    assert main(["couple", "--emitter", emitter_file, "--emitter", twin,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["xi_rad_per_s"] is None
    assert doc["gamma_cross_per_s"]["re"] == pytest.approx(
        doc["gamma_a_per_s"]["re"], rel=1e-12)


def test_couple_magnetic_dipole_pair(tmp_path, capsys):
    docs = [{"position_m": [0.0, 0.0, z], "omega0_rad_per_s": W384,
             "m_bohr_magnetons": [1.0, 0.0, 0.0]} for z in (0.0, 80e-9)]
    a = write_json(tmp_path / "ma.json", docs[0])
    b = write_json(tmp_path / "mb.json", docs[1])
    assert main(["couple", "--emitter", a, "--emitter", b, "--index", "1.5",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    g_md = free_space_rates(MultipoleEmitter.from_dict(docs[0]), 1.5,
                            W384)[1]
    assert doc["gamma_a_per_s"]["re"] == pytest.approx(g_md, rel=1e-10)
    assert doc["xi_rad_per_s"]["re"] != 0.0


def test_couple_magnetic_pair_at_small_separation(tmp_path, capsys):
    # k0 R = 1e-3 in vacuum: the adaptive integral exited 3 ("adaptive
    # budget exhausted"); the closed form equals the dual ED pair, d = m/c
    sep = 1e-3 * C0 / W384
    docs = {kind: [{"position_m": [0.0, 0.0, z], "omega0_rad_per_s": W384,
                    key: [value, 0.0, 0.0]} for z in (0.0, sep)]
            for kind, key, value in (("md", "m_J_per_T", 1e-23),
                                     ("ed", "d_Cm", 1e-23 / C0))}
    xi = {}
    for kind, (da, db) in docs.items():
        a = write_json(tmp_path / f"{kind}a.json", da)
        b = write_json(tmp_path / f"{kind}b.json", db)
        assert main(["couple", "--emitter", a, "--emitter", b,
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        xi[kind] = complex(doc["xi_rad_per_s"]["re"],
                           doc["xi_rad_per_s"]["im"])
    assert abs(xi["md"] - xi["ed"]) <= 1e-13 * abs(xi["ed"])


def test_repeated_calls_in_one_process_keep_no_state(tmp_path, emitter_file,
                                                     capsys):
    # repeated calls in one process give the same bytes, and no --emitter
    # value carries over into the next call
    other = write_json(tmp_path / "b.json",
                       {"position_m": [0.0, 0.0, 80e-9],
                        "omega0_rad_per_s": W384,
                        "d_atomic": [1.0, 0.0, 0.0]})
    argv = ["couple", "--emitter", emitter_file, "--emitter", other,
            "--format", "json"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert main(["free-space", "--emitter", emitter_file]) == 0
    assert main(["couple", "--emitter", emitter_file]) == 2
    assert "couple needs exactly 2 --emitter" in capsys.readouterr().err
    # the parser is built once per process: no flag of one call carries
    # into the next, so each call gives the bytes it gives on its own
    mixed = write_json(tmp_path / "c.json",
                       {"position_m": [0.0, 60e-9, 0.0],
                        "omega0_rad_per_s": W384,
                        "d_atomic": [1.0, 0.0, 0.0],
                        "m_bohr_magnetons": [0.0, 0.0, 1.0]})
    pair = ["couple", "--emitter", mixed, "--emitter", other]
    alone = []
    for call in (pair + ["--channels", "ed"], pair):
        assert main(call) == 0
        alone.append(capsys.readouterr().out)
    assert alone[0] != alone[1]
    assert main(pair) == 0
    assert capsys.readouterr().out == alone[1]
    assert main(["free-space", "--emitter", emitter_file, "--frequency",
                 "400THz", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frequency_rad_per_s"] != W384
    assert main(["free-space", "--emitter", emitter_file, "--format",
                 "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frequency_rad_per_s"] == W384
    out = tmp_path / "out.json"
    assert main(pair + ["--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    written = out.read_bytes()
    assert main(pair) == 0
    assert capsys.readouterr().out == alone[1]
    assert out.read_bytes() == written


def test_calls_leave_no_parser_or_solver_in_cyclic_garbage(
        tmp_path, emitter_file, capsys, cyclic_garbage):
    # the parser is built once and a solve frees itself, so a call leaves
    # neither for a full collection to find
    other = write_json(tmp_path / "b.json",
                       {"position_m": [0.0, 0.0, 80e-9],
                        "omega0_rad_per_s": W384,
                        "d_atomic": [1.0, 0.0, 0.0]})
    g = 2.5e7
    spec = write_json(tmp_path / "pair.json",
                      {"model": _model_doc(2, [[g, g / 2], [g / 2, g]]),
                       "initial": "eg"})
    calls = (["couple", "--emitter", emitter_file, "--emitter", other],
             ["dynamics", "--ensemble", spec, "--t-max", "1e-7"])

    def run():
        for argv in calls:
            assert main(argv) == 0

    run()
    garbage = cyclic_garbage(run)
    capsys.readouterr()
    assert not [obj for obj in garbage
                if type(obj).__module__ == "argparse"
                or isinstance(obj, OdeSolver)]


def test_dash_values_need_the_equals_form(tmp_path, capsys):
    # argparse reads "--frequency -1THz" as a missing value; the help says
    # so, and the --flag=value form reaches the frequency rule
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    for name, flag in (("free-space", "--frequency"), ("couple", "--frequency"),
                       ("dynamics", "--t-max")):
        action = next(a for a in sub.choices[name]._actions
                      if flag in a.option_strings)
        assert f"needs the {flag}=VALUE form" in action.help
    code, err = refusal(["couple", "--frequency", "-1THz"], tmp_path, capsys)
    assert code == 2 and "expected one argument" in err
    code, err = refusal(["couple", "--frequency=-1THz"], tmp_path, capsys)
    assert code == 2 and FREQUENCY in err


def test_couple_inert_pair_is_zero(tmp_path, capsys):
    a = write_json(tmp_path / "ia.json",
                   {"position_m": [0, 0, 0], "omega0_rad_per_s": W384})
    b = write_json(tmp_path / "ib.json",
                   {"position_m": [0, 0, 50e-9], "omega0_rad_per_s": W384})
    assert main(["couple", "--emitter", a, "--emitter", b,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["xi_rad_per_s"] == {"re": 0.0, "im": 0.0}
    assert doc["gamma_cross_per_s"] == {"re": 0.0, "im": 0.0}


def test_couple_frequency_must_be_near_every_emitter(tmp_path, emitter_file):
    # the ensemble rule: each emitter within 1 % of the reference frequency
    other = write_json(tmp_path / "b.json",
                       {"position_m": [0.0, 0.0, 80e-9],
                        "omega0_rad_per_s": W384,
                        "d_atomic": [1.0, 0.0, 0.0]})
    assert main(["couple", "--emitter", emitter_file, "--emitter", other,
                 "--frequency", "450THz", "--quiet"]) == 2


def test_couple_colocated_frequency_must_be_near_every_emitter(
        tmp_path, emitter_file, capsys):
    # zero separation follows the same rule, with the same message
    other = write_json(tmp_path / "b.json",
                       {"position_m": [0.0, 0.0, 80e-9],
                        "omega0_rad_per_s": W384,
                        "d_atomic": [1.0, 0.0, 0.0]})
    messages = []
    for second in (other, emitter_file):
        assert main(["couple", "--emitter", emitter_file, "--emitter",
                     second, "--frequency", "450THz", "--quiet"]) == 2
        messages.append(capsys.readouterr().err)
    assert "deviate from the reference" in messages[0]
    assert messages[1] == messages[0]


def test_couple_frequency_rule_is_the_reference_rule(tmp_path, capsys):
    # every emitter within 1 % of the mean: 2.38e15 and 2.42e15 rad/s are
    # 0.83 % from it and pass; 1.2 % either side of the mean does not
    def pair(w_a, w_b):
        return [write_json(tmp_path / f"{name}.json",
                           {"position_m": [0.0, 0.0, z],
                            "omega0_rad_per_s": w, "d_atomic": [1, 0, 0]})
                for name, z, w in (("a", 0.0, w_a), ("b", 80e-9, w_b))]

    a, b = pair(2.38e15, 2.42e15)
    assert main(["couple", "--emitter", a, "--emitter", b,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_frequency_rad_per_s"] == 2.4e15
    a, b = pair(2.4e15 * (1 - 0.012), 2.4e15 * (1 + 0.012))
    assert main(["couple", "--emitter", a, "--emitter", b]) == 2
    assert "deviate from the reference" in capsys.readouterr().err


def symmetric_ed_pair(tmp_path):
    """Crossed ED pair whose coupling vanishes by symmetry: d_a along
    x + y, d_b along x - y, 120 nm apart along x + y. The imaginary-axis
    integrand is pure roundoff there."""
    s = 1.0 / math.sqrt(2.0)
    r = 120e-9 * s
    docs = [{"position_m": [0.0, 0.0, 0.0], "omega0_rad_per_s": 2.4127e15,
             "d_atomic": [s, s, 0.0]},
            {"position_m": [r, r, 0.0], "omega0_rad_per_s": 2.4127e15,
             "d_atomic": [s, -s, 0.0]}]
    return docs, [write_json(tmp_path / f"sym{i}.json", d)
                  for i, d in enumerate(docs)]


def test_couple_pair_coupled_by_symmetry_to_zero(tmp_path, capsys):
    _, files = symmetric_ed_pair(tmp_path)
    assert main(["couple", "--emitter", files[0], "--emitter", files[1],
                 "--format", "json", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    gamma_a = doc["gamma_a_per_s"]["re"]
    assert gamma_a == pytest.approx(GAMMA_ED_UNIT_ATOMIC * (2.4127e15 / W384)
                                    ** 3, rel=1e-10)
    assert abs(complex(doc["xi_rad_per_s"]["re"],
                       doc["xi_rad_per_s"]["im"])) <= 1e-10 * gamma_a


def test_dynamics_pair_coupled_by_symmetry_to_zero(tmp_path, capsys):
    docs, _ = symmetric_ed_pair(tmp_path)
    spec = write_json(tmp_path / "sym.json",
                      {"emitters": docs, "medium_index": 1.0,
                       "initial": "eg"})
    assert main(["dynamics", "--ensemble", spec, "--t-max", "1e-8",
                 "--t-points", "5", "--format", "json", "--quiet"]) == 0
    model = json.loads(capsys.readouterr().out)["model"]
    gamma_a = model["gamma_rad_per_s"]["re"][0][0]
    xi = complex(model["xi_rad_per_s"]["re"][0][1],
                 model["xi_rad_per_s"]["im"][0][1])
    assert abs(xi) <= 1e-10 * gamma_a


def test_couple_bytes_do_not_depend_on_hash_seed(tmp_path):
    # ED+EQ pair whose block contributions sum in a hash-dependent order
    # when blocks are iterated as a set (seeds 0 and 3 differ then)
    docs = [{"position_m": [0, 0, 0], "omega0_rad_per_s": 3.1394e15,
             "d_atomic": [0.61, 0.62, 0.03],
             "Q_atomic": [[0.387, -1.07, 0.77], [-1.07, -0.573, -0.6],
                          [0.77, -0.6, 0.187]]},
            {"position_m": [-2.6e-08, 1.9e-07, 1.59e-07],
             "omega0_rad_per_s": 3.1394e15,
             "d_atomic": [0.69, -0.22, -0.01],
             "Q_atomic": [[0.327, -1.34, 0.47], [-1.34, 1.147, -0.13],
                          [0.47, -0.13, -1.473]]}]
    files = [write_json(tmp_path / f"e{i}.json", d) for i, d in enumerate(docs)]
    src = os.path.dirname(os.path.dirname(polyemit.__file__))
    outs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "polyemit.cli", "couple",
             "--emitter", files[0], "--emitter", files[1], "--quiet"],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_map_bytes_do_not_depend_on_hash_seed(grid_file, tmp_path):
    # the free-space reference must sum its channels in a fixed order, not
    # in a set's iteration order, which varies with PYTHONHASHSEED; these
    # moments give a sum that depends on that order
    em = write_json(tmp_path / "multipole.json",
                    {"position_m": [0, 0, 0], "omega0_rad_per_s": W384,
                     "d_atomic": [1, 0, 0], "m_bohr_magnetons": [0, 2, 0],
                     "Q_atomic": [[1, 0, 0], [0, -0.5, 0], [0, 0, -0.5]]})
    src = os.path.dirname(os.path.dirname(polyemit.__file__))
    outs = []
    for seed in ("2", "3", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "polyemit.cli", "map", "--grid",
             grid_file, "--emitter", em, "--quiet"],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


# --- dynamics --------------------------------------------------------------------

def _model_doc(n, gamma, xi=None, omega_ref=3e8):
    zeros = [[0.0] * n for _ in range(n)]
    return {"omega_ref_rad_per_s": omega_ref,
            "delta_rad_per_s": [0.0] * n,
            "xi_rad_per_s": {"re": xi if xi is not None else zeros,
                             "im": zeros},
            "gamma_rad_per_s": {"re": gamma, "im": zeros}}


def test_dynamics_single_emitter_exponential(tmp_path, capsys):
    g = 2e7
    spec = write_json(tmp_path / "spec.json",
                      {"model": _model_doc(1, [[g]]), "initial": "e"})
    assert main(["dynamics", "--ensemble", spec, "--t-max", "2e-7",
                 "--t-points", "9"]) == 0
    comments, headers, rows = parse_csv(capsys.readouterr().out)
    assert headers == ["time_s", "re_sigma_1", "im_sigma_1", "sigma_z_1"]
    for r in rows:
        t, sz = float(r[0]), float(r[3])
        assert sz == pytest.approx(-1.0 + 2.0 * math.exp(-g * t), abs=1e-9)
    assert any("model:" in c for c in comments)


def test_dynamics_ground_state_constant(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json",
                      {"model": _model_doc(1, [[3e7]]), "initial": "g"})
    assert main(["dynamics", "--ensemble", spec, "--t-max", "1e-7",
                 "--t-points", "5"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    for r in rows:
        assert float(r[3]) == pytest.approx(-1.0, abs=1e-12)
        assert float(r[1]) == 0.0 and float(r[2]) == 0.0


def test_dynamics_superradiant_pair_json(tmp_path, capsys):
    g = 2.5e7
    spec = write_json(tmp_path / "pair.json",
                      {"model": _model_doc(2, [[g, g], [g, g]]),
                       "initial_amplitudes": [0.0, 1.0, 1.0, 0.0],
                       "rtol": 1e-10, "atol": 1e-12})
    assert main(["dynamics", "--ensemble", spec, "--t-max", "1.2e-8",
                 "--t-points", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["gamma_rad_per_s"]["re"][0][1] == g
    t = np.array(doc["trajectory"]["times_s"])
    sz = np.array(doc["trajectory"]["sigma_z"])
    exc = 0.5 * np.sum(sz + 1.0, axis=1)
    rate = -np.log(exc[-1] / exc[0]) / (t[-1] - t[0])
    assert rate == pytest.approx(2.0 * g, rel=1e-6)


def test_dynamics_spec_validation(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json",
                     {"model": _model_doc(1, [[1e7]]), "initial": "e",
                      "surprise": 1})
    assert main(["dynamics", "--ensemble", bad, "--t-max", "1e-8"]) == 2
    assert "unknown ensemble keys" in capsys.readouterr().err
    both = write_json(tmp_path / "both.json",
                      {"model": _model_doc(1, [[1e7]]),
                       "emitters": [], "initial": "e"})
    assert main(["dynamics", "--ensemble", both, "--t-max", "1e-8"]) == 2
    wrong_len = write_json(tmp_path / "len.json",
                           {"model": _model_doc(2, [[1e7, 0], [0, 1e7]]),
                            "initial": "e"})
    assert main(["dynamics", "--ensemble", wrong_len, "--t-max", "1e-8"]) == 2
    # each refusal of the spec's shape or of the model's names its key or
    # its rule
    model = _model_doc(1, [[1e7]])
    for spec, expect in (
            ([model], "ensemble spec must be a JSON object"),
            ({"emitters": [], "initial": "e"},
             "emitters must be a non-empty list"),
            ({"model": model, "initial": "e", "initial_amplitudes": [0, 1]},
             "give exactly one of initial or initial_amplitudes"),
            ({"model": model},
             "give exactly one of initial or initial_amplitudes"),
            ({"model": model, "initial_amplitudes": "01"},
             "initial_amplitudes must be a list"),
            ({"model": model, "initial_amplitudes": [0, 0, 1]},
             "need 2 amplitudes for 1 emitters"),
            ({"model": [model], "initial": "e"}, "model must be an object"),
            ({"model": dict(model, spin=1), "initial": "e"},
             "unknown model keys ['spin']"),
            ({"model": {key: value for key, value in model.items()
                        if key != "xi_rad_per_s"}, "initial": "e"},
             "model needs ['xi_rad_per_s']"),
            ({"model": dict(model, gamma_rad_per_s=[[1e7]]), "initial": "e"},
             "gamma_rad_per_s must be an object with re and im matrices")):
        path = write_json(tmp_path / "shape.json", spec)
        capsys.readouterr()
        assert main(["dynamics", "--ensemble", path, "--t-max", "1e-8"]) == 2
        assert expect in capsys.readouterr().err
    # a bool or a numeric string is not a number, as in grid files
    array = "must be a finite real number, or an array of them"
    scalar = "must be a positive finite number"
    for key, value, expect in (
            ("delta_rad_per_s", ["abc"], f"delta_rad_per_s {array}"),
            ("omega_ref_rad_per_s", "x", f"omega_ref_rad_per_s {scalar}"),
            ("delta_rad_per_s", ["0"], f"delta_rad_per_s {array}"),
            ("omega_ref_rad_per_s", True, f"omega_ref_rad_per_s {scalar}"),
            ("gamma_rad_per_s", {"re": [["1e7"]], "im": [[0]]},
             f"gamma_rad_per_s.re {array}"),
            ("xi_rad_per_s", {"re": [[0]], "im": [["0"]]},
             f"xi_rad_per_s.im {array}"),
            ("omega_ref_rad_per_s", 10 ** 400,
             f"omega_ref_rad_per_s {scalar}"),
            # the model is sized by delta, so its shape is checked first
            ("delta_rad_per_s", [[0.0, 0.0], [0.0, 0.0]],
             "delta_rad_per_s must be a 1-D array")):
        doc = _model_doc(1, [[1e7]])
        doc[key] = value
        path = write_json(tmp_path / "text.json",
                          {"model": doc, "initial": "e"})
        capsys.readouterr()
        assert main(["dynamics", "--ensemble", path, "--t-max", "1e-8"]) == 2
        assert expect in capsys.readouterr().err
    # n_emitters, as EmitterEnsembleModel.to_dict writes it, must agree
    for count, code in ((1, 0), (5, 2), (0, 2), (True, 2), ("1", 2)):
        doc = dict(_model_doc(1, [[1e7]]), n_emitters=count)
        path = write_json(tmp_path / "count.json",
                          {"model": doc, "initial": "e"})
        capsys.readouterr()
        assert main(["dynamics", "--ensemble", path, "--t-max", "1e-8",
                     "--t-points", "3"]) == code
        assert code == 0 or "n_emitters" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("medium_index", "glass"),
                                        ("omega_ref_rad_per_s", -5)])
def test_dynamics_model_spec_refuses_emitter_keys(tmp_path, capsys, key,
                                                  value):
    # a model carries its own reference frequency and environment, so a
    # key that only an emitters spec reads is refused, not ignored
    path = write_json(tmp_path / "spec.json",
                      {"model": _model_doc(1, [[1e7]]), "initial": "e",
                       key: value})
    assert main(["dynamics", "--ensemble", path, "--t-max", "1e-8",
                 "--t-points", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_dynamics_overflowing_model_exits_3_without_hanging(tmp_path):
    # finite coefficients whose sum overflows give a NaN right-hand side,
    # with which DOP853's step loop never ends; run in a child process so
    # that a hang fails the test instead of stalling the suite
    doc = _model_doc(1, [[1e6]], xi=[[1e308]])
    doc["delta_rad_per_s"] = [1e308]
    spec = write_json(tmp_path / "overflow.json",
                      {"model": doc, "initial": "e"})
    src = os.path.dirname(os.path.dirname(polyemit.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "polyemit.cli", "dynamics", "--ensemble",
         spec, "--t-max", "1e-6", "--t-points", "5"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert b"model coefficients overflow" in proc.stderr
    assert proc.stdout == b""


def emitter_pair_spec():
    return {"emitters": [{"position_m": [0, 0, 0], "omega0_rad_per_s": W384,
                          "d_atomic": [1, 0, 0]},
                         {"position_m": [0, 0, 60e-9],
                          "omega0_rad_per_s": W384, "d_atomic": [1, 0, 0]}],
            "medium_index": 1.0, "initial_amplitudes": [0, 1, 1, 0]}


@pytest.mark.parametrize("where, value, expect", [
    (("rtol",), "abc", "rtol"),
    (("atol",), [1e-12], "atol"),
    (("omega_ref_rad_per_s",), "x", "omega_ref_rad_per_s"),
    (("initial_amplitudes",), [0, "a", 1, 0], "initial_amplitudes[1]"),
    (("initial_amplitudes",), [0, [1, "i"], 1, 0], "initial_amplitudes[1]"),
    (("medium_index",), "glass", "medium_index"),
    (("emitters", 1, "position_m"), [0, 0, "z"], "position_m"),
    (("emitters", 1, "omega0_rad_per_s"), "fast", "omega0_rad_per_s"),
    # NaN passes json.load; the emitter and the medium refuse it
    (("emitters", 1, "position_m"), [math.nan, 0, 0], "finite"),
    (("medium_index",), math.nan, "finite"),
    # a bool or a numeric string is not a number, as in grid files
    (("rtol",), "1e-9", "rtol must be a positive finite number"),
    (("atol",), False, "atol must be a positive finite number"),
    (("initial_amplitudes",), [0, "0.6", "0.8", 0],
     "initial_amplitudes[1] must be numeric"),
    (("initial_amplitudes",), [0, [True, 0], 0.8, 0],
     "initial_amplitudes[1] must be numeric"),
    (("medium_index",), "1.5",
     "medium_index: constant refractive index must be a real number"),
    (("medium_index",), True,
     "medium_index: constant refractive index must be a real number"),
    (("emitters", 1, "position_m"), ["0", 0, 0],
     "position_m must be a finite real 3-vector"),
    (("emitters", 1, "omega0_rad_per_s"), True,
     "omega0_rad_per_s must be a positive finite number"),
    (("emitters", 1, "omega0_rad_per_s"), "2.4e15",
     "omega0_rad_per_s must be a positive finite number"),
    (("emitters", 1, "d_atomic"), [True, 0, 0], "d_atomic must be numeric"),
    (("emitters", 1, "d_atomic"), ["1", 0, 0], "d_atomic must be numeric"),
    # an integer no float holds is refused by the one complex-entry parser
    (("emitters", 1, "d_atomic"), [10 ** 400, 0, 0],
     "d_atomic: integer too large"),
    (("initial_amplitudes",), [0, 10 ** 400, 0, 0], "initial_amplitudes[1]"),
    (("emitters", 1, "position_m"), [10 ** 400, 0, 0],
     "position_m must be a finite real 3-vector"),
    # a moment is exactly its shape: no entry or row is dropped
    (("emitters", 1, "d_atomic"), [1, 0, 0, 7],
     "d_atomic: wrong shape, expected (3,)"),
    (("emitters", 1, "Q_atomic"), np.eye(4).tolist(),
     "Q_atomic: wrong shape, expected (3, 3)"),
], ids=["rtol", "atol", "omega_ref", "amplitude", "amplitude_pair",
        "medium_index", "position", "omega0", "nan_position", "nan_index",
        "rtol_string", "atol_bool", "amplitude_string", "amplitude_pair_bool",
        "index_string", "index_bool", "position_string", "omega0_bool",
        "omega0_string", "d_bool", "d_string", "d_huge_int",
        "amplitude_huge_int", "position_huge_int", "d_too_long",
        "Q_too_large"])
def test_dynamics_bad_number_exits_2(tmp_path, capsys, where, value, expect):
    spec = emitter_pair_spec()
    node = spec
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = write_json(tmp_path / "spec.json", spec)
    out = tmp_path / "never.csv"
    assert main(["dynamics", "--ensemble", path, "--t-max", "1e-8",
                 "--t-points", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expect in err
    assert not out.exists()


def test_dynamics_from_emitters_in_medium(tmp_path, capsys):
    # two parallel dipoles in vacuum, model assembled inside the CLI
    emitters = [{"position_m": [0, 0, 0], "omega0_rad_per_s": W384,
                 "d_atomic": [1, 0, 0]},
                {"position_m": [0, 0, 60e-9], "omega0_rad_per_s": W384,
                 "d_atomic": [1, 0, 0]}]
    spec = write_json(tmp_path / "pair.json",
                      {"emitters": emitters, "medium_index": 1.0,
                       "initial": "eg"})
    assert main(["dynamics", "--ensemble", spec, "--t-max", "1e-8",
                 "--t-points", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["gamma_rad_per_s"]["re"][0][0] == pytest.approx(
        GAMMA_ED_UNIT_ATOMIC, rel=1e-10)
    assert doc["model"]["xi_rad_per_s"]["re"][0][1] != 0.0


def test_dynamics_magnetic_dipole_emitters(tmp_path, capsys):
    em = {"position_m": [0, 0, 0], "omega0_rad_per_s": W384,
          "m_bohr_magnetons": [0.0, 1.0, 0.0]}
    g = free_space_rates(MultipoleEmitter.from_dict(em), 1.0, W384)[1]
    spec = write_json(tmp_path / "md.json",
                      {"emitters": [em], "medium_index": 1.0,
                       "initial": "e"})
    assert main(["dynamics", "--ensemble", spec, "--t-max", repr(2.0 / g),
                 "--t-points", "9"]) == 0
    _, headers, rows = parse_csv(capsys.readouterr().out)
    assert headers[-1] == "sigma_z_1"
    for r in rows:
        t, sz = float(r[0]), float(r[3])
        assert sz == pytest.approx(2.0 * math.exp(-g * t) - 1.0, abs=1e-9)

    pair = write_json(tmp_path / "md_pair.json",
                      {"emitters": [em, dict(em, position_m=[0, 0, 60e-9])],
                       "medium_index": 1.0, "initial": "eg"})
    assert main(["dynamics", "--ensemble", pair, "--t-max", repr(2.0 / g),
                 "--t-points", "5"]) == 0


# --- validate --------------------------------------------------------------------

def test_validate_good_grid(grid_file, capsys):
    assert main(["validate", "--grid", grid_file]) == 0
    _, headers, rows = parse_csv(capsys.readouterr().out)
    assert headers == ["check", "passed", "residual", "detail"]
    assert all(r[1] == "true" for r in rows)


def test_validate_broken_grid_exits_2(grid_file, tmp_path, capsys):
    with open(grid_file, "rb") as fh:
        grid = load_grid(fh)
    blocks = {k: np.array(v) for k, v in grid.blocks.items()}
    blocks["value"][0, 0, 0, 1, 0] = 1.0  # asymmetric entry
    bad = tmp_path / "broken.bin"
    bad.write_bytes(save_grid(dataclasses.replace(grid, blocks=blocks)))
    assert main(["validate", "--grid", str(bad), "--format", "json"]) == 2
    out = json.loads(capsys.readouterr().out)
    names = {c["name"]: c["passed"] for c in out["checks"]}
    assert names["value-symmetry"] is False


def test_validate_malformed_grid_file(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("[]", encoding="utf-8")
    assert main(["validate", "--grid", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_huge_integer_exits_2(grid_file, tmp_path, capsys):
    huge = 10 ** 400  # no float holds it
    for message, mutate in (
            ("frequency_rad_per_s must be a positive finite number",
             lambda d: d.update(frequency_rad_per_s=huge)),
            ("axes.x must be a nonempty finite strictly increasing",
             lambda d: d["axes"]["x"].__setitem__(-1, huge))):
        with open(grid_file, "rb") as fh:
            header, blocks = v3_split(fh.read())
        mutate(header)
        bad = tmp_path / "huge.bin"
        bad.write_bytes(v3_file(header, blocks))
        assert main(["validate", "--grid", str(bad)]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_v1_and_v2_grid_documents_exit_2(grid_file, emitter_file, tmp_path,
                                         capsys):
    # the JSON documents save_grid wrote before format version 3: the
    # header fields with the blocks inside, as nested [re, im] lists (v1)
    # or base64 strings (v2)
    with open(grid_file, "rb") as fh:
        header, data = v3_split(fh.read())
    size = len(data) // len(header["blocks"])
    raw = {key: data[i * size:(i + 1) * size]
           for i, key in enumerate(header["blocks"])}
    for version, encode in (
            (1, lambda b: np.frombuffer(b, "<f8").reshape(
                -1, 3, 3, 2).tolist()),
            (2, lambda b: base64.b64encode(b).decode("ascii"))):
        doc = dict(header, format_version=version,
                   blocks={key: encode(b) for key, b in raw.items()})
        old = write_json(tmp_path / f"v{version}.json", doc)
        for argv in (["validate", "--grid", old],
                     ["map", "--grid", old, "--emitter", emitter_file]):
            assert main(argv) == 2
            assert "of grid format version 3, got b'{" in \
                capsys.readouterr().err


# --- output discipline -------------------------------------------------------------

def test_quiet_suppresses_status_line(grid_file, emitter_file, tmp_path,
                                      capsys):
    out = tmp_path / "m.csv"
    assert main(["map", "--grid", grid_file, "--emitter", emitter_file,
                 "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["map", "--grid", grid_file, "--emitter", emitter_file,
                 "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out


def test_no_temp_files_left_behind(grid_file, emitter_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["map", "--grid", grid_file, "--emitter", emitter_file,
                 "--out", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()
                  if p.suffix != ".json") == ["m.csv"]


def test_output_bytes_deterministic(tmp_path, capsys):
    g = 2e7
    spec = write_json(tmp_path / "spec.json",
                      {"model": _model_doc(1, [[g]]), "initial": "e"})
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert main(["dynamics", "--ensemble", spec, "--t-max", "1e-7",
                     "--t-points", "11", "--format", "json",
                     "--out", str(out), "--quiet"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
