"""Grid ingest, serialization, interpolation, and finite differences."""

import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from polyemit import grid as grid_module
from polyemit.emitter import MultipoleEmitter
from polyemit.errors import (GridDomainError, GridFormatError, InputError,
                             MissingDerivativeError)
from polyemit.grid import (TensorGrid, finite_difference_blocks,
                           grid_from_homogeneous, load_grid,
                           save_grid, validate_grid)
from polyemit.homogeneous import (Medium, coincident_im_jet, eval_homogeneous,
                                  eval_homogeneous_jet)
from polyemit.rates import emission_rate, enhancement_map

W0 = 2.4e15


def dumps(doc):
    return json.dumps(doc).encode("utf-8")


def base_doc():
    """Valid minimal split-semantics document: 2 x 1 nodes, fixed z."""
    node = [[[0.1, 0.0] for _ in range(3)] for _ in range(3)]
    return {
        "format_version": 1,
        "frequency_rad_per_s": W0,
        "length_unit": "nm",
        "value_unit_exponent": -1,
        "derivative_semantics": "split",
        "axes": {"x": [0.0, 10.0], "y": [0.0], "z": 0.0},
        "blocks": {"value": [node, [row[:] for row in node]]},
    }


def hand_grid(rng, shape=(4, 3), unit="nm", semantics="split", extra=()):
    """Random-value grid with optional extra block keys."""
    nx, ny = shape
    blocks = {"value": rng.normal(size=(nx, ny, 1, 3, 3))
              + 1j * np.zeros((nx, ny, 1, 3, 3))}
    for key in extra:
        blocks[key] = rng.normal(size=(nx, ny, 1, 3, 3)).astype(complex)
    return TensorGrid(
        frequency=W0, length_unit=unit, value_unit_exponent=-1,
        derivative_semantics=semantics,
        axes=(np.arange(nx) * 10.0, np.arange(ny) * 5.0, np.array([2.0])),
        fixed_axes=(False, False, True), blocks=blocks)


# ---------------------------------------------------------------------------
# serialization round-trips

def test_roundtrip_bitwise():
    rng = np.random.default_rng(20240817)
    for shape in ((1, 1), (4, 3), (16, 16)):
        g = hand_grid(rng, shape=shape)
        data = save_grid(g)
        g2 = load_grid(data)
        assert g2.equals(g)
        # canonical bytes are idempotent and deterministic
        assert save_grid(g2) == data
        assert save_grid(g) == data


def test_roundtrip_file_like_and_producer_grid():
    g = grid_from_homogeneous(Medium(1.3), W0,
                              (np.linspace(0, 60e-9, 4),
                               np.linspace(0, 40e-9, 3), 0.0))
    g2 = load_grid(io.BytesIO(save_grid(g)))
    assert g2.equals(g)
    assert g2.provenance == {"generator": "uniform-medium analytic sampler",
                             "fd_step_m": None}


def test_roundtrip_preserves_imaginary_residue():
    rng = np.random.default_rng(3)
    g = hand_grid(rng)
    blocks = {k: np.array(v) for k, v in g.blocks.items()}
    blocks["value"][0, 0, 0, 1, 2] += 1e-3j
    g = TensorGrid(frequency=W0, length_unit="nm", value_unit_exponent=-1,
                   derivative_semantics="split", axes=g.axes,
                   fixed_axes=g.fixed_axes, blocks=blocks)
    g2 = load_grid(save_grid(g))
    assert g2.blocks["value"][0, 0, 0, 1, 2].imag == 1e-3


def test_minimal_file_unit_conversion():
    doc = base_doc()
    v = 1.0 / (6.0 * math.pi)
    eye = [[[v if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
    doc["axes"] = {"x": [0.0], "y": [0.0], "z": 0.0}
    doc["blocks"] = {"value": [eye]}
    g = load_grid(dumps(doc))
    assert g.shape == (1, 1, 1)
    # nm^-1 -> m^-1
    np.testing.assert_allclose(g.block_si("value")[0, 0, 0].real,
                               v * 1e9 * np.eye(3), rtol=1e-15)
    np.testing.assert_allclose(g.axes_si()[0], [0.0])
    jet = g.jet_at(np.zeros(3))
    np.testing.assert_allclose(jet.value, v * 1e9 * np.eye(3), rtol=1e-15)


# ---------------------------------------------------------------------------
# loader rejection diagnostics

def test_load_rejects_malformed():
    cases = [
        (b"{nope", "not valid JSON"),
        (b"\xff\xfe{}", "not UTF-8"),
        (b"[1, 2]", "top level"),
    ]
    for data, frag in cases:
        with pytest.raises(GridFormatError, match=frag):
            load_grid(data)

    def reject(mutate, frag):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(GridFormatError, match=frag):
            load_grid(dumps(doc))

    reject(lambda d: d.update(format_version=2), "format_version")
    reject(lambda d: d.pop("derivative_semantics"), "derivative_semantics")
    reject(lambda d: d.update(derivative_semantics="both"),
           "derivative_semantics")
    reject(lambda d: d.update(format_version=True), "format_version")
    reject(lambda d: d.update(length_unit="pm"), "length_unit")
    reject(lambda d: d.update(length_unit=["nm"]), "length_unit")
    reject(lambda d: d.update(length_unit={"nm": 1}), "length_unit")
    reject(lambda d: d.update(value_unit_exponent=1.5), "value_unit_exponent")
    reject(lambda d: d.update(frequency_rad_per_s="fast"),
           "frequency_rad_per_s")
    reject(lambda d: d.update(frequency_rad_per_s=-1.0),
           "frequency_rad_per_s")
    reject(lambda d: d["axes"].update(x=[10.0, 0.0]), "strictly increasing")
    reject(lambda d: d["axes"].update(x=5.0), "only z may be a fixed scalar")
    reject(lambda d: d["axes"].pop("y"), "axes.y")
    reject(lambda d: d["blocks"]["value"].pop(), "expected 2 nodes, got 1")
    reject(lambda d: d["blocks"]["value"][1][0].pop(), r"value\[1\]\[0\]")
    reject(lambda d: d["blocks"]["value"][0][2][1].__setitem__(slice(None),
                                                               [0.5]),
           r"value\[0\]\[2\]\[1\]")
    reject(lambda d: d["blocks"].update(d3_x=d["blocks"]["value"]),
           "unrecognized")
    reject(lambda d: d.update(derivative_semantics="total") or
           d["blocks"].update(d1_x_src=[row[:] for row in d["blocks"]["value"]]),
           "unrecognized")

    huge = 10 ** 400  # an integer literal no float can hold
    reject(lambda d: d.update(frequency_rad_per_s=huge),
           "frequency_rad_per_s: integer too large")
    reject(lambda d: d.update(symmetry_rtol=huge),
           "symmetry_rtol: integer too large")
    reject(lambda d: d["axes"].update(x=[0, huge]),
           "axes.x: integer too large")
    reject(lambda d: d["axes"].update(z=-huge), "axes.z: integer too large")
    reject(lambda d: d["blocks"]["value"][1][0][2].__setitem__(1, huge),
           "blocks.value: integer too large")

    # exponents whose SI scale unit^(exponent - order) no float can hold
    reject(lambda d: d.update(value_unit_exponent=400), "value_unit_exponent")
    reject(lambda d: d.update(value_unit_exponent=-400), "value_unit_exponent")
    reject(lambda d: d.update(length_unit="m", value_unit_exponent=huge),
           "value_unit_exponent")


def test_load_rejects_nonfinite():
    raw = dumps(base_doc()).decode()
    raw = raw.replace("0.1", "NaN", 1)
    with pytest.raises(GridFormatError, match="non-finite"):
        load_grid(raw)


# ---------------------------------------------------------------------------
# the block reader against the json route

def json_route(text):
    """load_grid's diagnostics route alone: json.loads, then the checks."""
    return grid_module._grid_from_doc(grid_module._read_json(text))


def outcome(load, text):
    try:
        return ("grid", load(text))
    except Exception as exc:  # the routes must fail alike, whatever the type
        return ("raises", type(exc), str(exc))


def same_grid(a, b):
    """equals, and every block bit for bit (equals lets -0.0 match 0.0)."""
    return a.equals(b) and all(a.blocks[k].tobytes() == b.blocks[k].tobytes()
                               for k in a.blocks)


def assert_routes_agree(text, fast):
    """load_grid and the json route give the same grid or the same error;
    fast says whether the block reader should take the document."""
    assert (grid_module._read_fast(text) is not None) == fast
    got, want = outcome(load_grid, text), outcome(json_route, text)
    if want[0] == "grid":
        assert got[0] == "grid", got
        assert same_grid(got[1], want[1])
    else:
        assert got == want


def compact(doc):
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def reference_save(grid):
    """The writer save_grid replaced: json.dumps of the whole document with
    every entry a nested [re, im] list."""
    doc = {
        "format_version": 1, "frequency_rad_per_s": grid.frequency,
        "length_unit": grid.length_unit,
        "value_unit_exponent": grid.value_unit_exponent,
        "derivative_semantics": grid.derivative_semantics,
        "symmetry_rtol": grid.symmetry_tol,
        "axes": {name: (float(arr[0]) if fx else [float(v) for v in arr])
                 for name, arr, fx in zip("xyz", grid.axes, grid.fixed_axes)},
        "blocks": {k: [[[[float(e.real), float(e.imag)] for e in row]
                        for row in node]
                       for node in grid.blocks[k].reshape(-1, 3, 3)]
                   for k in sorted(grid.blocks)},
    }
    if grid.provenance is not None:
        doc["provenance"] = grid.provenance
    return json.dumps(doc, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"), allow_nan=False).encode("utf-8")


def test_roundtrip_keeps_negative_zeros():
    rng = np.random.default_rng(5)
    g = hand_grid(rng, shape=(2, 1))
    blocks = {k: np.array(v) for k, v in g.blocks.items()}
    blocks["value"][0, 0, 0, 1, 2] = complex(-0.0, -0.0)
    blocks["value"][1, 0, 0, 2, 0] = complex(0.5, -0.0)
    blocks["value"][1, 0, 0, 0, 1] = complex(-0.0, 0.5)
    g = TensorGrid(frequency=W0, length_unit="nm", value_unit_exponent=-1,
                   derivative_semantics="split", axes=g.axes,
                   fixed_axes=g.fixed_axes, blocks=blocks)
    data = save_grid(g)
    assert len(re.findall(rb"-0\.0[,\]]", data)) == 4
    assert save_grid(load_grid(data)) == data
    assert save_grid(json_route(data.decode())) == data


def test_block_reader_matches_json_route():
    rng = np.random.default_rng(1010)
    base = save_grid(hand_grid(rng, shape=(2, 2),
                               extra=("d1_x", "d2_xy"))).decode()
    doc = json.loads(base)
    cases = [(base, True)]

    # number tokens: one entry of the value block, and the frequency
    entry = re.compile(r'("value":\[\[\[\[)([^,]*)')
    for token, fast in (("01", False), ("1.", False), (".5", False),
                        ("+1", False), ("1e", False), ("-", False),
                        ("1 2", False), ("NaN", False), ("Infinity", False),
                        ("-Infinity", False), ("true", False),
                        ("null", False), ('"0.5"', False), ("1e400", True),
                        ("-0", True), ("-0.0", True), ("4.9e-324", True),
                        ("2.2250738585072014e-308", True), ("1E+5", True),
                        ("7", True), ("12345678901234567890", True),
                        ("1e-400", True)):
        cases.append((entry.sub(lambda m: m.group(1) + token, base, 1), fast))
    for token, fast in (("01", False), ("NaN", False), ("1e400", True),
                        ("true", True), ("[]", True)):
        cases.append((re.sub(r'(?<="frequency_rad_per_s":)[^,]*', token,
                             base, 1), fast))

    # bracket layout, in the text
    first = re.search(r'"value":\[\[\[(\[([^,]*),([^\]]*)\])', base)
    a, b = first.group(2), first.group(3)
    for new in (f"[{a},]{b}", f"[{a}]{b}", f"{a},[{b}]", f"[{a} {b}]",
                f"[[{a},{b}]]", f"[{a},{b}],[{a},{b}]", f"[{a},{b},{a}]",
                f"[{a}],[{b}]", f"[{a},{b}]]", "[]"):
        cases.append((base[:first.start(1)] + new + base[first.end(1):],
                      False))
    for old, new in (("],[", "]["), ("],[", "],,["), ("],[", ",["),
                     ("]]],[[[", "]]][[["), ("]]]]", "]]],]")):
        cases.append((base.replace(old, new, 1), False))

    # bracket layout, built from the document
    def mutated(mutate):
        d = json.loads(base)
        mutate(d)
        return compact(d)

    value = doc["blocks"]["value"]
    for mutate, fast in (
            (lambda d: d["blocks"]["value"].pop(), True),
            (lambda d: d["blocks"]["value"].append(value[0]), True),
            (lambda d: d["blocks"].update(value=[]), True),
            (lambda d: d["blocks"]["value"][2].pop(), False),
            (lambda d: d["blocks"]["value"][1][2].pop(), False),
            (lambda d: d["blocks"]["value"][1][2].append([0.5, 0.5]), False),
            (lambda d: d["blocks"]["value"][3][0].__setitem__(1, [[1, 2]]),
             False),
            (lambda d: d["blocks"]["value"][0][0].__setitem__(0, [0.5]),
             False),
            (lambda d: d["blocks"]["value"].__setitem__(0, 0.5), False),
            (lambda d: d["blocks"].update(d1_x="data"), False),
            (lambda d: d["blocks"].update(d1_x={}), False),
            (lambda d: d.update(blocks=[value]), False),
            (lambda d: d.update(blocks={"d1_x": value}), True),
            (lambda d: d["blocks"].update(d3_x=value), True),
            (lambda d: d.update(format_version=True), True),
            (lambda d: d.update(length_unit=["nm"]), True)):
        cases.append((mutated(mutate), fast))

    # the whole document
    cases += [
        (base + " \r\n\t", True), ("\n " + base, True),
        ("\ufeff" + base, False), (base + "x", False), (base + "{}", False),
        ("[" + base + "]", False), (base.replace("]]]]}", "]]]],}", 1), False),
        (base[:-1] + ',}', False), ("{}", True), ("{", False), ("", False),
    ]

    # any JSON whitespace, keys in any order, repeated keys
    cases += [
        (json.dumps(doc), True),
        (json.dumps(doc, indent=2), True),
        (json.dumps(doc, indent=2).replace("\n", "\r\n"), True),
        (json.dumps(doc, indent="\t"), True),
        (re.sub(r"([\[\],:])", r"\1 \n", base), True),
        (compact(dict(reversed(list(doc.items())))), True),
        (compact(dict(doc, blocks=dict(reversed(
            list(doc["blocks"].items()))))), True),
        ('{"format_version":7,"blocks":{"value":[],"d1_x":[]},'
         + base[1:], True),
        (base[:-1] + ',"length_unit":"m","format_version":1}', True),
        (base.replace('"value":', '"value":[],"value":', 1), True),
        ('{"blocks":{"value":[[[[NaN,0]]]]},' + base[1:], False),
        ('{"provenance":NaN,' + base[1:], False),
    ]

    # provenance the reader must skip over as one value
    for prov in ('"blocks":[[[[1,2]]]]', {"blocks": value[:1]},
                 "Grün ∂G/∂r ✓ 😀",
                 ["]]]],{", {"a": [1, None, True]}]):
        cases.append((compact(dict(doc, provenance=prov)), True))

    # integer entries, negative zero and subnormals throughout a block
    tiny = [[[[0, -0.0], [5e-324, -5e-324], [1, -2]]] * 3] * 4
    cases.append((compact(dict(doc, blocks=dict(doc["blocks"],
                                                value=tiny))), True))

    for text, fast in cases:
        assert_routes_agree(text, fast)


def test_save_matches_reference_writer_on_random_bit_patterns():
    rng = np.random.default_rng(77)
    keys = ["value", *all_block_keys()]
    for shape in ((1, 1), (3, 2)):
        n = 2 * len(keys) * math.prod(shape) * 9
        bits = rng.integers(0, 2 ** 64, size=4 * n, dtype=np.uint64)
        floats = bits.view(float)
        floats = floats[np.isfinite(floats)][:n].reshape(2, len(keys),
                                                         *shape, 1, 3, 3)
        g = TensorGrid(
            frequency=W0, length_unit="um", value_unit_exponent=-3,
            derivative_semantics="split",
            axes=(np.arange(shape[0]) * 0.1, np.arange(shape[1]) - 7.25,
                  np.array([1e-3])),
            fixed_axes=(False, False, True),
            blocks={k: floats[0, i] + 1j * floats[1, i]
                    for i, k in enumerate(keys)},
            provenance={"note": "Grün ∂G ✓", "blocks": [[[[1, 2]]]]})
        data = save_grid(g)
        assert data == reference_save(g)
        text = data.decode("utf-8")
        loaded = load_grid(data)
        assert grid_module._read_fast(text) is not None
        assert same_grid(loaded, json_route(text))
        assert same_grid(loaded, g)


def test_load_memory_stays_near_file_size():
    g = grid_from_homogeneous(Medium(1.5), W0,
                              (np.linspace(0, 400e-9, 40),
                               np.linspace(0, 200e-9, 40), 0.0))
    data = save_grid(g)
    tracemalloc.start()
    try:
        load_grid(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(data)


def test_constructor_guards():
    rng = np.random.default_rng(0)
    g = hand_grid(rng)
    with pytest.raises(GridFormatError, match="only z may be fixed"):
        TensorGrid(frequency=W0, length_unit="m", value_unit_exponent=-1,
                   derivative_semantics="split",
                   axes=(np.array([0.0]), np.array([0.0, 1.0]),
                         np.array([0.0])),
                   fixed_axes=(True, False, False), blocks=g.blocks)
    with pytest.raises(GridFormatError, match="shape"):
        TensorGrid(frequency=W0, length_unit="m", value_unit_exponent=-1,
                   derivative_semantics="split",
                   axes=(np.array([0.0, 1.0]), np.array([0.0]),
                         np.array([0.0])),
                   fixed_axes=(False, False, True),
                   blocks={"value": np.zeros((3, 1, 1, 3, 3), dtype=complex)})


# ---------------------------------------------------------------------------
# interpolation

def test_jet_exact_at_nodes():
    med = Medium(1.5)
    g = grid_from_homogeneous(med, W0, (np.linspace(-30e-9, 30e-9, 4),
                                        np.linspace(0, 40e-9, 3), 10e-9))
    ana = coincident_im_jet(W0, med)
    for point in g.node_points():
        jet = g.jet_at(point)
        assert np.array_equal(jet.value, ana.value)
        assert np.array_equal(jet.d_mixed, ana.d_mixed)
        assert not np.any(jet.d_obs) and not np.any(jet.d_src)


def test_multilinear_reproduces_linear_fields():
    # value = A + B x + C y (tensor coefficients), nonuniform axes
    rng = np.random.default_rng(11)
    ax = np.array([0.0, 8.0, 30.0]) * 1e-9
    ay = np.array([-5.0, 15.0]) * 1e-9
    A, B, C = rng.normal(size=(3, 3, 3))
    value = (A
             + B * ax[:, None, None, None, None] * 1e9
             + C * ay[None, :, None, None, None] * 1e9).astype(complex)
    g = TensorGrid(frequency=W0, length_unit="m", value_unit_exponent=-1,
                   derivative_semantics="split",
                   axes=(ax, ay, np.array([0.0])),
                   fixed_axes=(False, False, True), blocks={"value": value})
    for p in ((1e-9, 0.0, 0.0), (7.3e-9, 11e-9, 0.0), (29.9e-9, -5e-9, 0.0)):
        jet = g.jet_at(np.array(p))
        want = A + B * p[0] * 1e9 + C * p[1] * 1e9
        np.testing.assert_allclose(jet.value, want, rtol=0, atol=1e-12)
        assert jet.d_obs is None and jet.d_mixed is None


def test_out_of_hull_and_off_plane():
    rng = np.random.default_rng(1)
    g = hand_grid(rng)  # x in [0, 30] nm, y in [0, 10] nm, z = 2 nm
    g.jet_at(np.array([1e-8, 5e-9, 2e-9]))
    with pytest.raises(GridDomainError, match="outside the grid range"):
        g.jet_at(np.array([31e-9, 5e-9, 2e-9]))
    with pytest.raises(GridDomainError, match="off the grid plane"):
        g.jet_at(np.array([1e-8, 5e-9, 3e-9]))
    with pytest.raises(InputError):
        g.jet_at(np.array([1e-8, np.nan, 2e-9]))


def quadrupole_emitter():
    q = np.diag([1.0, -1.0, 0.0]) * 1e-39
    return MultipoleEmitter(position=[5e-9, 5e-9, 2e-9], omega0=W0, Q=q)


def test_total_semantics_is_dipole_only():
    rng = np.random.default_rng(2)
    g = hand_grid(rng, semantics="total",
                  extra=("d1_x", "d1_y", "d1_z"))
    jet = g.jet_at(np.array([5e-9, 5e-9, 2e-9]))
    assert jet.value is not None
    assert jet.d_obs is None and jet.d_src is None and jet.d_mixed is None
    # the contraction refuses the blocks a quadrupole needs
    with pytest.raises(MissingDerivativeError, match="d_mixed"):
        emission_rate(quadrupole_emitter(), jet)


def test_split_semantics_partial_blocks():
    rng = np.random.default_rng(4)
    g = hand_grid(rng, extra=("d1_x", "d1_y", "d1_z"))
    jet = g.jet_at(np.array([5e-9, 5e-9, 2e-9]))
    assert jet.d_obs is not None
    assert jet.d_src is None and jet.d_mixed is None
    with pytest.raises(MissingDerivativeError, match="d_mixed"):
        emission_rate(quadrupole_emitter(), jet)


def all_block_keys():
    axes = "xyz"
    return ([f"d1_{a}" for a in axes] + [f"d1_{a}_src" for a in axes]
            + [f"d2_{a}{b}" for a in axes for b in axes])


def test_node_jet_matches_jet_at_bitwise():
    rng = np.random.default_rng(8)
    ax = (np.array([0.0, 4.0, 11.0]), np.array([-3.0, 2.0]),
          np.array([1.0, 6.0, 7.5, 9.0]))

    def grid(semantics, keys):
        shape = tuple(a.size for a in ax) + (3, 3)
        blocks = {k: rng.normal(size=shape) + 1e-3j * rng.normal(size=shape)
                  for k in ("value", *keys)}
        return TensorGrid(frequency=W0, length_unit="nm",
                          value_unit_exponent=-1,
                          derivative_semantics=semantics, axes=ax,
                          fixed_axes=(False, False, False), blocks=blocks)

    split = grid("split", all_block_keys())
    partial = grid("split", ["d1_x", "d1_y", "d1_z"])
    total = grid("total", ["d1_x", "d1_y", "d1_z", "d2_xy"])
    for g in (split, partial, total):
        batched = g.node_jet()
        assert batched.batch_shape == (24,)
        for i, point in enumerate(g.node_points()):
            jet = g.jet_at(point)
            for name in ("value", "d_obs", "d_src", "d_mixed"):
                want, got = getattr(jet, name), getattr(batched, name)
                if want is None:
                    assert got is None
                else:
                    assert got[i].tobytes() == want.tobytes()
    assert total.node_jet().d_obs is None
    assert split.node_jet().d_mixed.shape == (24, 3, 3, 3, 3)


def test_node_points_row_major():
    g = grid_from_homogeneous(Medium(1.0), W0,
                              (np.array([0.0, 1e-9]),
                               np.array([0.0, 1e-9, 2e-9]), 5e-9))
    pts = g.node_points()
    assert pts.shape == (6, 3)
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 5e-9])
    np.testing.assert_allclose(pts[1], [0.0, 1e-9, 5e-9])
    np.testing.assert_allclose(pts[3], [1e-9, 0.0, 5e-9])


# ---------------------------------------------------------------------------
# finite differences

def test_fd_constant_field_is_flat():
    T = np.arange(9.0).reshape(3, 3)
    ax = (np.linspace(0, 30e-9, 4),) * 3
    out = finite_difference_blocks(lambda p: T, ax, 3e-9)
    assert set(out) == {f"d1_{a}" for a in "xyz"} | \
        {f"d2_{a}{b}" for a in "xyz" for b in "xyz"}
    for key, arr in out.items():
        scale = 1.0 / 3e-9 if key.startswith("d1") else 1.0 / 3e-9 ** 2
        assert np.abs(arr).max() <= 1e-12 * scale


def test_fd_exact_on_polynomials():
    # second-order stencils, one-sided ones included, are exact for
    # f = T0 + T1 u^2 + T2 u v with u = x/s, v = y/s
    rng = np.random.default_rng(5)
    T0, T1, T2 = rng.normal(size=(3, 3, 3))
    s = 1e-9

    def field(p):
        u, v = p[0] / s, p[1] / s
        return T0 + T1 * u * u + T2 * u * v

    ax = (np.linspace(-8e-9, 8e-9, 5), np.linspace(-6e-9, 6e-9, 4),
          np.array([0.0]))
    out = finite_difference_blocks(field, ax, 2e-9)
    assert "d1_z" not in out and "d2_zz" not in out and "d2_xz" not in out
    for i, x in enumerate(ax[0]):
        for j, y in enumerate(ax[1]):
            u, v = x / s, y / s
            np.testing.assert_allclose(out["d1_x"][i, j, 0],
                                       (2 * T1 * u + T2 * v) / s,
                                       rtol=1e-8, atol=1e-4 / s)
            np.testing.assert_allclose(out["d1_y"][i, j, 0], T2 * u / s,
                                       rtol=1e-8, atol=1e-4 / s)
            np.testing.assert_allclose(out["d2_xx"][i, j, 0], 2 * T1 / s**2,
                                       rtol=1e-7)
            np.testing.assert_allclose(out["d2_xy"][i, j, 0], T2 / s**2,
                                       rtol=1e-7)
    np.testing.assert_array_equal(out["d2_xy"], out["d2_yx"])


def test_fd_guards():
    T = np.eye(3)
    ax3 = (np.linspace(0, 30e-9, 4),) * 3
    with pytest.raises(InputError, match="half the minimum node spacing"):
        finite_difference_blocks(lambda p: T, ax3, 6e-9)
    with pytest.raises(InputError, match="positive"):
        finite_difference_blocks(lambda p: T, ax3, 0.0)
    with pytest.raises(InputError, match="no extent"):
        finite_difference_blocks(lambda p: T,
                                 (np.array([0.0]),) * 3, 1e-9)
    with pytest.raises(InputError, match="3x3"):
        finite_difference_blocks(lambda p: np.zeros(3), ax3, 3e-9)
    with pytest.raises(InputError, match="3x3"):
        finite_difference_blocks(lambda p: np.full((3, 3), np.nan), ax3, 3e-9)


def test_fd_omits_unreachable_diagonal_blocks():
    # 2-node axis: extent 2h fits first derivatives only
    T = np.eye(3)
    ax = (np.array([0.0, 10e-9]), np.linspace(0, 30e-9, 4), np.array([0.0]))
    out = finite_difference_blocks(lambda p: T, ax, 5e-9)
    assert "d1_x" in out and "d2_xy" in out and "d2_yy" in out
    assert "d2_xx" not in out


def test_fd_converges_on_green_field():
    """Second-order convergence against the analytic jet of a held source."""
    med = Medium(1.3)
    r_src = np.array([310e-9, -40e-9, 25e-9])
    ax = (np.linspace(-30e-9, 30e-9, 3), np.linspace(-20e-9, 20e-9, 3),
          np.linspace(-25e-9, 25e-9, 3))
    p0 = np.array([ax[0][1], ax[1][1], ax[2][1]])
    jet = eval_homogeneous_jet(p0, r_src, W0, med)
    d_obs = jet.d_obs.imag
    d_mix = jet.d_mixed.imag

    def sampler(p):
        return eval_homogeneous(p - r_src, W0, med).imag

    err1, err2 = [], []
    for h in (5e-9, 2.5e-9):
        fd = finite_difference_blocks(sampler, ax, h)
        err1.append(max(
            np.abs(fd[f"d1_{a}"][1, 1, 1] - d_obs[:, :, i]).max()
            for i, a in enumerate("xyz")) / np.abs(d_obs).max())
        # a held source makes both derivatives land on the field point;
        # one sign flip converts to the mixed field/source block
        err2.append(max(
            np.abs(-fd[f"d2_{a}{b}"][1, 1, 1] - d_mix[:, :, i, j]).max()
            for i, a in enumerate("xyz")
            for j, b in enumerate("xyz")) / np.abs(d_mix).max())
    assert err1[0] < 3e-4 and err2[0] < 3e-4
    for err in (err1, err2):
        order = math.log2(err[0] / err[1])
        assert 1.8 <= order <= 2.2


# ---------------------------------------------------------------------------
# validation

def test_validate_all_pass_on_sampled_grid():
    g = load_grid(save_grid(grid_from_homogeneous(
        Medium(1.5), W0,
        (np.linspace(0, 60e-9, 4), np.linspace(0, 40e-9, 3), 0.0))))
    rep = validate_grid(g)
    assert rep.all_pass
    assert rep.missing_blocks == ()
    assert {c.name for c in rep.checks} == {
        "unit-sanity", "value-symmetry", "imaginary-residue",
        "derivative-consistency"}
    d = rep.to_dict()
    assert d["all_pass"] is True and len(d["checks"]) == 4


def test_validate_flags_symmetry_breach():
    g = grid_from_homogeneous(Medium(1.5), W0,
                              (np.linspace(0, 60e-9, 4),
                               np.linspace(0, 40e-9, 3), 0.0))
    blocks = {k: np.array(v) for k, v in g.blocks.items()}
    blocks["value"][2, 1, 0, 0, 1] += 1e-3 * abs(blocks["value"]).max()
    bad = TensorGrid(frequency=g.frequency, length_unit=g.length_unit,
                     value_unit_exponent=g.value_unit_exponent,
                     derivative_semantics=g.derivative_semantics,
                     axes=g.axes, fixed_axes=g.fixed_axes, blocks=blocks)
    rep = validate_grid(bad)
    assert not rep.all_pass
    sym = rep.check("value-symmetry")
    assert not sym.passed and sym.residual > 1e-4
    assert rep.check("imaginary-residue").passed


def test_validate_flags_imaginary_residue():
    rng = np.random.default_rng(6)
    g = hand_grid(rng)
    blocks = {k: np.array(v) for k, v in g.blocks.items()}
    sym = rng.normal(size=(3, 3))
    blocks["value"][...] = sym + sym.T
    blocks["value"][1, 0, 0] += 0.05j * np.abs(blocks["value"]).max()
    bad = TensorGrid(frequency=W0, length_unit="nm", value_unit_exponent=-1,
                     derivative_semantics="split", axes=g.axes,
                     fixed_axes=g.fixed_axes, blocks=blocks)
    rep = validate_grid(bad)
    assert not rep.check("imaginary-residue").passed
    assert rep.check("value-symmetry").passed


def test_validate_missing_blocks_flagged_not_failed():
    g = grid_from_homogeneous(Medium(1.5), W0,
                              (np.linspace(0, 30e-9, 3),
                               np.linspace(0, 20e-9, 3), 0.0))
    blocks = {k: g.blocks[k] for k in g.blocks if not k.startswith("d2")}
    thin = TensorGrid(frequency=g.frequency, length_unit="m",
                      value_unit_exponent=-1, derivative_semantics="split",
                      axes=g.axes, fixed_axes=g.fixed_axes, blocks=blocks)
    rep = validate_grid(thin)
    assert rep.all_pass
    assert set(rep.missing_blocks) == {f"d2_{a}{b}" for a in "xyz"
                                       for b in "xyz"}


def test_validate_derivative_cross_check():
    # linear field with deliberately wrong first-derivative blocks
    ax = np.linspace(0, 40e-9, 5)
    ay = np.linspace(0, 20e-9, 3)
    B = 2.5e16  # value slope per meter, in the m^-1 value unit
    value = np.broadcast_to(
        (B * ax)[:, None, None, None, None] * np.ones((3, 3)),
        (5, 3, 1, 3, 3)).astype(complex)
    zeros = np.zeros((5, 3, 1, 3, 3), dtype=complex)
    good = {"value": value,
            "d1_x": np.full((5, 3, 1, 3, 3), B, dtype=complex),
            "d1_x_src": zeros, "d1_y": zeros, "d1_y_src": zeros}
    grid_good = TensorGrid(frequency=W0, length_unit="m",
                           value_unit_exponent=-1,
                           derivative_semantics="split",
                           axes=(ax, ay, np.array([0.0])),
                           fixed_axes=(False, False, True), blocks=good)
    rep = validate_grid(grid_good)
    assert rep.check("derivative-consistency").passed

    bad = dict(good)
    bad["d1_x"] = zeros
    grid_bad = TensorGrid(frequency=W0, length_unit="m",
                          value_unit_exponent=-1,
                          derivative_semantics="split",
                          axes=(ax, ay, np.array([0.0])),
                          fixed_axes=(False, False, True), blocks=bad)
    rep = validate_grid(grid_bad)
    chk = rep.check("derivative-consistency")
    assert not chk.passed and chk.residual > 0.5
    # the knob widens the acceptance for noisy solver data
    assert validate_grid(grid_bad, derivative_rtol=2.0).all_pass


def test_validate_total_semantics_second_derivatives():
    # quadratic field: value = c x^2, d1_x = 2 c x, d2_xx = 2 c
    ax = np.linspace(0, 40e-9, 5)
    ay = np.linspace(0, 20e-9, 3)
    c = 1e25
    shape = (5, 3, 1, 3, 3)
    ones = np.ones((3, 3))
    value = np.broadcast_to(
        (c * ax**2)[:, None, None, None, None] * ones, shape).astype(complex)
    d1x = np.broadcast_to(
        (2 * c * ax)[:, None, None, None, None] * ones, shape).astype(complex)
    blocks = {"value": value, "d1_x": d1x,
              "d2_xx": np.full(shape, 2 * c, dtype=complex)}
    g = TensorGrid(frequency=W0, length_unit="m", value_unit_exponent=-1,
                   derivative_semantics="total",
                   axes=(ax, ay, np.array([0.0])),
                   fixed_axes=(False, False, True), blocks=blocks)
    rep = validate_grid(g)
    assert rep.check("derivative-consistency").passed

    blocks_bad = dict(blocks)
    blocks_bad["d2_xx"] = np.full(shape, -2 * c, dtype=complex)
    g_bad = TensorGrid(frequency=W0, length_unit="m", value_unit_exponent=-1,
                       derivative_semantics="total",
                       axes=(ax, ay, np.array([0.0])),
                       fixed_axes=(False, False, True), blocks=blocks_bad)
    assert not validate_grid(g_bad).check("derivative-consistency").passed


# ---------------------------------------------------------------------------
# the uniform-medium producer and the rate pipeline

def test_producer_fd_blocks_converge_to_analytic():
    med = Medium(2.0)
    ana = coincident_im_jet(W0, med)
    axes = (np.array([0.0, 30e-9]), np.array([-10e-9, 10e-9]), 0.0)
    res = []
    for h in (2e-9, 1e-9):
        g = grid_from_homogeneous(med, W0, axes, fd_step=h)
        jet = g.jet_at(np.array([30e-9, 10e-9, 0.0]))
        assert np.array_equal(jet.value, ana.value)
        res.append(np.abs(jet.d_mixed - ana.d_mixed).max()
                   / np.abs(ana.d_mixed).max())
        assert np.abs(jet.d_obs).max() <= 1e-10 * np.abs(ana.d_mixed).max()
    assert res[0] < 2e-4
    assert res[0] / res[1] >= 3.5


def test_producer_fd_grid_has_no_negative_zeros():
    # the source-point blocks flip the sign of sampled derivatives; exact
    # zeros must stay +0.0, as in the analytic grid
    axes = (np.linspace(0, 60e-9, 4), np.linspace(0, 40e-9, 3), 0.0)
    for fd_step in (None, 2e-9):
        data = save_grid(grid_from_homogeneous(Medium(1.5), 2.4e15, axes,
                                               fd_step=fd_step))
        assert not re.findall(rb"-0\.0[,\]]", data), fd_step


def test_grid_pipeline_enhancements_match_analytic():
    g = grid_from_homogeneous(Medium(2.0), W0,
                              (np.array([0.0, 30e-9]),
                               np.array([0.0, 20e-9]), 0.0), fd_step=1e-9)
    moments = {"ED": dict(d=np.array([1e-29, 0, 2e-30])),
               "MD": dict(m=np.array([1e-21, 5e-22, 0]))}
    q = np.diag([2e-38, -1e-38, -1e-38])
    moments["EQ"] = dict(Q=q)
    want = {"ED": 2.0, "MD": 8.0, "EQ": 8.0}
    for name, kw in moments.items():
        e = MultipoleEmitter(position=np.zeros(3), omega0=W0, **kw)
        reports = enhancement_map(g, e)
        for rep in reports:
            enh = rep.normalization["enhancement_total"]
            assert abs(enh - want[name]) <= 5e-5 * want[name]
