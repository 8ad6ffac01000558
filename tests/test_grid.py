"""Grid ingest, serialization, interpolation, and the uniform-medium
producer."""

import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from polyemit.emitter import MultipoleEmitter
from polyemit.errors import (GridDomainError, GridFormatError, InputError,
                             MissingDerivativeError)
from polyemit.grid import (TensorGrid, grid_from_homogeneous, load_grid,
                           save_grid, validate_grid)
from polyemit.homogeneous import Medium, coincident_im_jet
from polyemit.rates import emission_rate, enhancement_map

from oracles import V3_MAGIC as MAGIC, v3_file, v3_split

W0 = 2.4e15


def raw(blocks):
    """Block bytes: each (N, 3, 3) array's little-endian [re, im] pairs."""
    return b"".join(np.asarray(b, dtype="<c16").tobytes() for b in blocks)


def base_header():
    """Header of a valid minimal split-semantics file: 2 x 1 nodes, fixed
    z, the value block BASE_BLOCKS."""
    return {
        "format_version": 3,
        "frequency_rad_per_s": W0,
        "length_unit": "nm",
        "value_unit_exponent": -1,
        "derivative_semantics": "split",
        "axes": {"x": [0.0, 10.0], "y": [0.0], "z": 0.0},
        "blocks": ["value"],
    }


BASE_BLOCKS = raw([np.full((2, 3, 3), 0.1)])


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


def outcome(data):
    try:
        return ("grid", load_grid(data))
    except Exception as exc:  # any exception type is an outcome to compare
        return ("raises", type(exc), str(exc))


def same_grid(a, b):
    """equals, and every block bit for bit (equals lets -0.0 match 0.0)."""
    return a.equals(b) and all(a.blocks[k].tobytes() == b.blocks[k].tobytes()
                               for k in a.blocks)


def compact(doc):
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def dumps(doc):
    return json.dumps(doc).encode("utf-8")


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
    v = 1.0 / (6.0 * math.pi)
    header = dict(base_header(), axes={"x": [0.0], "y": [0.0], "z": 0.0})
    g = load_grid(v3_file(header, raw([v * np.eye(3)[None]])))
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
    # bytes without the v3 magic, the JSON documents of format versions 1
    # and 2 among them, and text are not grid files of format version 3
    doc = dict(base_header(), format_version=1,
               blocks={"value": [[[[0.1, 0.0]] * 3] * 3] * 2})
    for data in (b"{nope", b"\xff\xfe{}", b"[1, 2]", b"", dumps(doc),
                 dumps(dict(doc, format_version=2,
                            blocks={"value": "mpmZmZmZuT8AAAAAAAAAAA"}))):
        with pytest.raises(GridFormatError, match=re.escape(
                f"magic: expected {MAGIC!r} of grid format version 3, "
                f"got {data[:7]!r}")):
            load_grid(data)
    text = v3_file(base_header(), BASE_BLOCKS).decode("latin-1")
    for source in (text, io.StringIO(text), None):
        with pytest.raises(InputError, match="load_grid expects the bytes "
                                             "of grid format version 3"):
            load_grid(source)

    def reject(mutate, frag, blocks=BASE_BLOCKS):
        header = base_header()
        mutate(header)
        with pytest.raises(GridFormatError, match=frag):
            load_grid(v3_file(header, blocks))

    reject(lambda d: d.update(format_version=1), "format_version")
    reject(lambda d: d.pop("derivative_semantics"), "derivative_semantics")
    reject(lambda d: d.update(derivative_semantics="both"),
           "derivative_semantics")
    reject(lambda d: d.update(format_version=True), "format_version")
    reject(lambda d: d.update(length_unit="pm"), "length_unit")
    reject(lambda d: d.update(length_unit=["nm"]), "length_unit")
    reject(lambda d: d.update(length_unit={"nm": 1}), "length_unit")
    reject(lambda d: d.update(value_unit_exponent=1.5), "value_unit_exponent")
    reject(lambda d: d.update(value_unit_exponent=-1.0),
           "value_unit_exponent must be an integer")
    reject(lambda d: d.update(frequency_rad_per_s="fast"),
           "frequency_rad_per_s")
    reject(lambda d: d.update(frequency_rad_per_s=-1.0),
           "frequency_rad_per_s")
    reject(lambda d: d["axes"].update(x=[10.0, 0.0]), "strictly increasing")
    reject(lambda d: d["axes"].update(x=5.0), "only z may be a fixed scalar")
    reject(lambda d: d["axes"].pop("y"), "axes.y")
    reject(lambda d: None, re.escape("blocks: expected 288 bytes for 1 "
                                     "blocks of 2 nodes, got 144"),
           BASE_BLOCKS[:144])
    reject(lambda d: d.update(blocks=["value", "d3_x"]), "unrecognized",
           2 * BASE_BLOCKS)
    reject(lambda d: d.update(derivative_semantics="total",
                              blocks=["value", "d1_x_src"]),
           "unrecognized", 2 * BASE_BLOCKS)

    huge = 10 ** 400  # an integer literal no float can hold
    scalar = "must be a positive finite number"
    axis = "must be a nonempty finite strictly increasing"
    reject(lambda d: d.update(frequency_rad_per_s=huge),
           f"frequency_rad_per_s {scalar}")
    reject(lambda d: d.update(symmetry_rtol=huge), f"symmetry_rtol {scalar}")
    reject(lambda d: d["axes"].update(x=[0, huge]), f"axes.x {axis}")
    reject(lambda d: d["axes"].update(z=-huge), f"axes.z {axis}")
    # a bool or a numeric string is not a number
    reject(lambda d: d.update(frequency_rad_per_s=True),
           f"frequency_rad_per_s {scalar}")
    reject(lambda d: d.update(symmetry_rtol=True), f"symmetry_rtol {scalar}")
    reject(lambda d: d.update(symmetry_rtol="1e-6"), f"symmetry_rtol {scalar}")
    reject(lambda d: d["axes"].update(z=True), f"axes.z {axis}")
    reject(lambda d: d["axes"].update(x=[0, True]), f"axes.x {axis}")

    # exponents whose SI scale unit^(exponent - order) no float can hold
    reject(lambda d: d.update(value_unit_exponent=400), "value_unit_exponent")
    reject(lambda d: d.update(value_unit_exponent=-400), "value_unit_exponent")
    reject(lambda d: d.update(length_unit="m", value_unit_exponent=huge),
           "value_unit_exponent")


def test_load_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        parts = np.frombuffer(BASE_BLOCKS, dtype="<f8").copy()
        parts[7] = bad
        with pytest.raises(GridFormatError,
                           match="blocks.value: non-finite entries"):
            load_grid(v3_file(base_header(), parts.tobytes()))
        # the block bytes are counted before any entry is read
        with pytest.raises(GridFormatError, match=re.escape(
                "blocks: expected 288 bytes for 1 blocks of 2 nodes, got "
                "287")):
            load_grid(v3_file(base_header(), parts.tobytes()[:-1]))


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
    loaded = load_grid(data)
    assert same_grid(loaded, g)
    parts = loaded.blocks["value"].view(float)
    assert np.count_nonzero((parts == 0.0) & np.signbit(parts)) == 4
    assert save_grid(loaded) == data


# ---------------------------------------------------------------------------
# the format-version-3 container

# json words the rest of this message, differently across Python versions
NOT_JSON = "header is not valid JSON: "


def test_v3_header_outcomes_are_pinned():
    # every header text loads to the grid, or fails with the text, given
    # here: number tokens, the whole header, any JSON whitespace, keys in
    # any order, repeated keys, free-form provenance, and block names in
    # any order with their bytes in that order
    rng = np.random.default_rng(1010)
    g0 = hand_grid(rng, shape=(2, 2), extra=("d1_x", "d2_xy"))
    doc, data = v3_split(save_grid(g0))
    base = compact(doc)
    nan_text = "non-finite number 'NaN' in header"
    scalar = "frequency_rad_per_s must be a positive finite number, got "

    def replaced(**fields):
        return dataclasses.replace(g0, **fields)

    cases = [(base, g0)]
    for token, want in (("01", NOT_JSON), ("NaN", nan_text),
                        ("1e400", scalar + "inf"), ("true", scalar + "True"),
                        ("[]", scalar + "[]"), ("2.4E+15", g0),
                        ("2400000000000000", g0)):
        cases.append((re.sub(r'(?<="frequency_rad_per_s":)[^,]*', token,
                             base, 1), want))
    cases += [
        (base + " \r\t", g0), (" \r" + base, g0),
        ("\ufeff" + base, NOT_JSON),
        (base + "x", NOT_JSON), (base + "{}", NOT_JSON),
        ("[" + base + "]", "header must be a JSON object"),
        (base[:-1] + ',}', NOT_JSON),
        ("{}", "format_version: expected 3, got None"),
        ("{", NOT_JSON),
        (json.dumps(doc), g0),
        (json.dumps(doc, indent=2).replace("\n", " "), g0),
        (json.dumps(doc, indent=2).replace("\n", "\r"), g0),
        (json.dumps(doc, indent="\t").replace("\n", "\t"), g0),
        (compact(dict(reversed(list(doc.items())))), g0),
        ('{"format_version":7,"blocks":["value"],' + base[1:], g0),
        (base[:-1] + ',"length_unit":"m","format_version":3}',
         replaced(length_unit="m")),
        ('{"provenance":NaN,' + base[1:], nan_text),
    ]
    # provenance is free-form
    for prov in ('"blocks":[[[[1,2]]]]', {"blocks": [[[[1, 2]]]]},
                 "Grün ∂G/∂r ✓ 😀", ["]]]],{", {"a": [1, None, True]}]):
        cases.append((compact(dict(doc, provenance=prov)),
                      replaced(provenance=prov)))
    for header, want in cases:
        got = outcome(v3_file(header, data))
        if isinstance(want, TensorGrid):
            assert got[0] == "grid", (header, got)
            assert same_grid(got[1], want)
            assert save_grid(got[1]) == save_grid(want)
        else:
            assert got[:2] == ("raises", GridFormatError), (header, got)
            assert (got[2].startswith(want) if want == NOT_JSON
                    else got[2] == want), (header, got)

    # the block names in any order, their bytes following that order
    size = len(data) // len(doc["blocks"])
    parts = dict(zip(doc["blocks"], (data[i:i + size]
                                     for i in range(0, len(data), size))))
    for names in itertools.permutations(doc["blocks"]):
        loaded = load_grid(v3_file(dict(doc, blocks=list(names)),
                                   b"".join(parts[k] for k in names)))
        assert same_grid(loaded, g0)


def test_v3_layout_and_zero_copy_views():
    rng = np.random.default_rng(2929)
    g = hand_grid(rng, shape=(3, 2), extra=("d1_y", "d2_xz"))
    # a provenance of every length from 0 to 64 characters gives every
    # padding from 0 to 63 spaces
    pads = set()
    for n in range(65):
        grid = dataclasses.replace(g, provenance="p" * n)
        data = save_grid(grid)
        assert data == save_grid(grid)
        offset = data.index(b"\n") + 1
        assert offset % 64 == 0
        header = data[len(MAGIC):offset - 1]
        pads.add(len(header) - len(header.rstrip(b" ")))
        doc, raw = v3_split(data)
        assert header.rstrip(b" ") == compact(doc).encode("utf-8")
        assert list(doc) == sorted(doc)
        assert doc["format_version"] == 3
        assert doc["blocks"] == ["d1_y", "d2_xz", "value"]
        assert raw == b"".join(grid.blocks[k].astype("<c16").tobytes()
                               for k in doc["blocks"])
        assert len(raw) == 3 * 6 * 144
        loaded = load_grid(data)
        assert same_grid(loaded, grid)
        for key, arr in loaded.blocks.items():
            # a read-only view of the file's bytes, aligned for its dtype
            base = arr
            while isinstance(base, np.ndarray):
                assert not base.flags.owndata
                base = base.base
            assert base is data, key
            assert not arr.flags.writeable
            assert arr.flags.aligned
            assert arr.ctypes.data % arr.dtype.alignment == 0
    assert pads == set(range(64))
    # bytearray, memoryview and file input load the same grid, as views
    # of one bytes copy
    data = save_grid(g)
    for source in (bytearray(data), memoryview(data), io.BytesIO(data)):
        loaded = load_grid(source)
        assert same_grid(loaded, g)
        assert all(arr.flags.aligned for arr in loaded.blocks.values())


def test_v3_reader_refuses_bad_files():
    rng = np.random.default_rng(3131)
    g = hand_grid(rng, shape=(2, 2), extra=("d1_x",))
    data = save_grid(g)
    doc, raw = v3_split(data)
    assert v3_file(doc, raw) == data
    assert doc["blocks"] == ["d1_x", "value"]
    parts = np.frombuffer(raw, dtype="<f8").copy()
    parts[5] = math.nan  # in d1_x, the first block
    size = "blocks: expected 1152 bytes for 2 blocks of 4 nodes, got "
    names = "blocks: expected a list of distinct block names with 'value'"
    cases = [
        # the magic
        (b"\x93PEGRIX" + data[7:], "magic: expected "),
        (b"\x93NUMPY" + data[6:], "magic: expected "),
        (data[:3], "magic: expected "),
        # the header line
        (MAGIC + compact(doc).encode("utf-8"), "header: no terminating "
                                                "newline"),
        (v3_file(b'{"a":"\xff"}', raw), "header is not UTF-8: "),
        (v3_file(b"\xc3" + compact(doc).encode("utf-8"), raw),
         "header is not UTF-8: "),
        (v3_file("[1, 2]", raw), "header must be a JSON object"),
        (v3_file('"grid"', raw), "header must be a JSON object"),
        (v3_file("", raw), "header is not valid JSON: "),
        (v3_file(compact(doc)[:-1], raw), "header is not valid JSON: "),
        (v3_file(compact(doc) + "{}", raw), "header is not valid JSON: "),
        (v3_file(compact(doc)[:-1] + ',"provenance":NaN}', raw),
         "non-finite number 'NaN' in header"),
        (v3_file(compact(doc)[:-1] + ',"symmetry_rtol":-Infinity}', raw),
         "non-finite number '-Infinity' in header"),
        (MAGIC + b" " + data[len(MAGIC):],
         "header: block data starts at byte "),
        (v3_file(dict(doc, format_version=2), raw),
         "format_version: expected 3, got 2"),
        (v3_file(dict(doc, format_version=3.5), raw),
         "format_version: expected 3, got 3.5"),
        (v3_file(dict(doc, format_version=3.0), raw),
         "format_version: expected 3, got 3.0"),
        # the block names
        (v3_file(dict(doc, blocks={"d1_x": 0, "value": 1}), raw), names),
        (v3_file(dict(doc, blocks="value"), raw), names),
        (v3_file({k: v for k, v in doc.items() if k != "blocks"}, raw),
         names),
        (v3_file(dict(doc, blocks=["value", "value"]), raw), names),
        (v3_file(dict(doc, blocks=["d1_x", "d1_x"]), raw), names),
        (v3_file(dict(doc, blocks=["d1_x", 7]), raw), names),
        (v3_file(dict(doc, blocks=["d1_x", ["value"]]), raw), names),
        (v3_file(dict(doc, blocks=["d1_x", "d1_y"]), raw), names),
        (v3_file(dict(doc, blocks=["d3_x", "value"]), raw),
         "blocks.d3_x: unrecognized under 'split' semantics"),
        (v3_file(dict(doc, blocks=["d1_x_src", "value"],
                      derivative_semantics="total"), raw),
         "blocks.d1_x_src: unrecognized under 'total' semantics"),
        # the block bytes
        (data[:-1], size + "1151"),
        (data + b"\0", size + "1153"),
        (data + b"\n", size + "1153"),
        (data[:-576], size + "576"),
        (v3_file(doc, b""), size + "0"),
        (v3_file(dict(doc, blocks=["value"]), raw),
         "blocks: expected 576 bytes for 1 blocks of 4 nodes, got 1152"),
        (v3_file(doc, parts.tobytes()), "blocks.d1_x: non-finite entries"),
        # the other header fields, through the checks v1 and v2 share
        (v3_file(dict(doc, axes=dict(doc["axes"], x=[0.0, 0.0])), raw),
         "axes.x must be a nonempty finite strictly increasing"),
        (v3_file(dict(doc, length_unit="mm"), raw), "length_unit 'mm'"),
    ]
    for data, want in cases:
        got = outcome(data)
        assert got[:2] == ("raises", GridFormatError), (data[:80], got)
        assert got[2].startswith(want), (data[:80], got)


def test_save_matches_reference_writer_on_random_bit_patterns():
    # save_grid writes the reference writer's bytes (oracles.v3_file of
    # the header written out here, sorted keys, and the blocks' raw bytes
    # in sorted name order), and they load to the grid bit for bit, with
    # signed zeros and subnormals among random finite bit patterns
    rng = np.random.default_rng(77)
    keys = ["value", *all_block_keys()]
    for shape in ((1, 1), (3, 2)):
        n = 2 * len(keys) * math.prod(shape) * 9
        bits = rng.integers(0, 2 ** 64, size=4 * n, dtype=np.uint64)
        floats = bits.view(float)
        floats = floats[np.isfinite(floats)][:n]
        floats[:6] = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                      -1.7976931348623157e308)
        # [re, im] pairs viewed as complex: re + 1j * im would drop -0.0
        entries = rng.permutation(floats).reshape(
            len(keys), *shape, 1, 3, 3, 2).view(complex)[..., 0]
        g = TensorGrid(
            frequency=W0, length_unit="um", value_unit_exponent=-3,
            derivative_semantics="split",
            axes=(np.arange(shape[0]) * 0.1, np.arange(shape[1]) - 7.25,
                  np.array([1e-3])),
            fixed_axes=(False, False, True),
            blocks=dict(zip(keys, entries)),
            provenance={"note": "Grün ∂G ✓", "blocks": [[[[1, 2]]]]})
        header = {
            "axes": {"x": [float(v) for v in g.axes[0]],
                     "y": [float(v) for v in g.axes[1]], "z": 1e-3},
            "blocks": sorted(keys), "derivative_semantics": "split",
            "format_version": 3, "frequency_rad_per_s": W0,
            "length_unit": "um",
            "provenance": {"blocks": [[[[1, 2]]]], "note": "Grün ∂G ✓"},
            "symmetry_rtol": 1e-6, "value_unit_exponent": -3}
        data = save_grid(g)
        assert data == v3_file(header, raw(
            g.blocks[k] for k in sorted(keys)))
        assert same_grid(load_grid(data), g)


def test_blocks_are_private_and_read_only():
    # a loaded block is a read-only view of immutable bytes and is kept as
    # it is; any other array is copied, so its owner cannot change the
    # grid afterwards
    rng = np.random.default_rng(2727)
    g = hand_grid(rng, extra=("d1_x",))
    for arr in load_grid(save_grid(g)).blocks.values():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0, 0] = 1.0
    # a caller's array, and a view of a mutable buffer
    buffer = bytearray(g.blocks["value"].tobytes())
    for value in (np.array(g.blocks["value"]),
                  np.frombuffer(buffer, complex).reshape(
                      g.blocks["value"].shape)):
        mine = TensorGrid(
            frequency=W0, length_unit="nm", value_unit_exponent=-1,
            derivative_semantics="split", axes=g.axes,
            fixed_axes=g.fixed_axes, blocks={"value": value})
        value[...] = 0.0
        assert np.array_equal(mine.blocks["value"], g.blocks["value"])
        assert not mine.blocks["value"].flags.writeable


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


@pytest.mark.parametrize("step", [True, 10 ** 400, "3e-9", math.nan,
                                  math.inf, -3e-9],
                         ids=["bool", "huge-int", "string", "nan", "inf",
                              "negative"])
def test_fd_step_follows_the_number_rule(step):
    # a bool is not a length, and an int past the float range is refused
    # as an input, not by a raw OverflowError or TypeError
    ax3 = (np.linspace(0, 30e-9, 4),) * 3
    with pytest.raises(InputError, match="fd_step must be a positive"):
        grid_from_homogeneous(Medium(1.5), W0, ax3, fd_step=step)


def test_producer_fd_grid_bytes_are_pinned():
    # the bytes of two finite-difference grids, as the stencils and their
    # summation order give them: a change to either shows here
    pins = [
        (Medium(1.5), (np.linspace(0, 60e-9, 4), np.linspace(0, 40e-9, 3),
                       0.0), 2e-9,
         "8ca643103312f406546b1bc580363b74c0b104e0f57f268abcfa1bca6ac6b363"),
        (Medium(2.0), (np.linspace(0, 30e-9, 2), np.linspace(0, 30e-9, 2),
                       0.0), 1e-9,
         "2472ef303113d624a8f9417f22e26655cb9d5757785ddb970dad0e2679c1ab58"),
    ]
    for medium, axes, h, want in pins:
        grid = grid_from_homogeneous(medium, 2.4e15, axes, fd_step=h)
        assert hashlib.sha256(save_grid(grid)).hexdigest() == want, h


def test_producer_fd_grid_has_no_negative_zeros():
    # the source-point blocks flip the sign of sampled derivatives; exact
    # zeros must stay +0.0, as in the analytic grid
    axes = (np.linspace(0, 60e-9, 4), np.linspace(0, 40e-9, 3), 0.0)
    for fd_step in (None, 2e-9):
        g = grid_from_homogeneous(Medium(1.5), 2.4e15, axes, fd_step=fd_step)
        for key, blk in g.blocks.items():
            parts = blk.view(float)
            assert not np.any((parts == 0.0) & np.signbit(parts)), (fd_step,
                                                                    key)


def test_producer_fd_blocks_equal_at_every_node():
    # a uniform medium is translation invariant: every node of a
    # finite-difference grid carries the same blocks, bit for bit
    axes = (np.linspace(0, 60e-9, 4), np.linspace(0, 40e-9, 3), 0.0)
    g = grid_from_homogeneous(Medium(1.5), 2.4e15, axes, fd_step=2e-9)
    assert len(g.blocks) == 1 + 3 + 3 + 9
    for key, blk in g.blocks.items():
        assert np.array_equal(blk, np.broadcast_to(blk[0, 0, 0],
                                                   blk.shape)), key


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
        rep = enhancement_map(g, e)
        for enh in rep.normalization["enhancement_total"]:
            assert abs(enh - want[name]) <= 5e-5 * want[name]
