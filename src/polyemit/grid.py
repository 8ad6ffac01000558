"""Sampled Green-tensor grids: load, save, validate, interpolate.

Externally computed environments arrive as rectilinear grids of the
imaginary part of the Green tensor at coincident points, optionally with
derivative blocks. On-disk format is a UTF-8 JSON document:

    {"format_version": 1,
     "frequency_rad_per_s": 2.4e15,
     "length_unit": "nm",                  # "nm" | "um" | "m"
     "value_unit_exponent": -1,            # value ~ unit^exp, d1 ~ unit^(exp-1)
     "derivative_semantics": "split",      # "split" | "total", mandatory
     "symmetry_rtol": 1e-6,                # optional, default 1e-6
     "provenance": ...,                    # optional free-form metadata
     "axes": {"x": [...], "y": [...], "z": [...] or fixed scalar},
     "blocks": {"value": [...], "d1_x": [...], ...}}

Each block is a flat node-major list (row-major over x, y, z; z fastest)
of 3x3 tensors whose entries are serialized as [re, im]. The physical
content is Im G, which is real; a nonzero imaginary residue is tolerated
on load and flagged by validate_grid. Axis coordinates are in
length_unit; everything is converted to SI on access.

save_grid writes canonical bytes: sorted keys, compact separators, and
each block as one json.dumps of its flat [re, im, ...] number list set
into the block's bracket layout. load_grid accepts any JSON whitespace
and key order (a repeated key keeps its last value, as in json). It walks
the top-level and blocks objects itself and reads each block as one flat
number list, without building a list per node, row and entry. A document
it cannot read that way goes through json.loads instead, and that route
alone reports defects: any block that is more than JSON numbers in the
exact (N, 3, 3, [re, im]) layout (ragged or extra nesting, true, null,
strings), NaN or Infinity anywhere, invalid JSON, an integer too large
for a float, or text after the document.

The derivative_semantics declaration fixes what the d1/d2 blocks mean:

    "split":  d1_a      field-point gradient       dG/dr_a
              d1_a_src  source-point gradient      dG/dr'_a
              d2_ab     mixed second derivative    d2 G / dr_a dr'_b
    "total":  d1_a, d2_ab differentiate the coincident map r -> G(r, r),
              i.e. field and source point displaced together.

Split grids feed the full multipole machinery. A total derivative cannot
be decomposed into the separate field/source gradients that the
beyond-dipole contractions need, so total-semantics grids serve
dipole-only queries: jets carry the value block and nothing else.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from json.decoder import scanstring
from typing import Any, Callable, Optional

import numpy as np

from .errors import (GridDomainError, GridFormatError, InputError,
                     finite_point, increasing_axis, is_number,
                     positive_number)
from .homogeneous import Medium, coincident_im_jet, eval_homogeneous
from .jets import GreensJet

__all__ = [
    "TensorGrid", "CheckResult", "GridValidationReport",
    "load_grid", "save_grid", "validate_grid", "grid_from_homogeneous",
]

_METERS_PER_UNIT = {"nm": 1e-9, "um": 1e-6, "m": 1.0}
_AXES = "xyz"
_D1_KEYS = tuple(f"d1_{a}" for a in _AXES)
_D1_SRC_KEYS = tuple(f"d1_{a}_src" for a in _AXES)
_D2_KEYS = tuple(f"d2_{a}{b}" for a in _AXES for b in _AXES)
# validate_grid's bound on the imaginary residue of stored (real) tensors
_IMAG_RTOL = 1e-6


def _derivative_order(key: str) -> int:
    if key == "value":
        return 0
    return 1 if key.startswith("d1") else 2


def _allowed_keys(semantics: str) -> set:
    keys = {"value", *_D1_KEYS, *_D2_KEYS}
    if semantics == "split":
        keys |= set(_D1_SRC_KEYS)
    return keys


def _node_axis(ax, name: str, error=InputError) -> np.ndarray:
    """A grid axis by increasing_axis, with a scalar (a fixed plane) as a
    one-node axis."""
    if not isinstance(ax, (list, tuple)) and np.ndim(ax) == 0:
        ax = [ax]
    return increasing_axis(ax, name, error)


@dataclass(frozen=True, eq=False)
class TensorGrid:
    """Immutable rectilinear grid of Im-G tensor blocks.

    Coordinates and block entries are stored exactly as declared (in
    length_unit powers); SI views are computed on access, which keeps a
    save/load cycle bitwise faithful. x and y are always coordinate
    arrays; z may be a fixed scalar for planar data (fixed_axes records
    which). All queries are pure and safe for concurrent use.
    """

    frequency: float
    length_unit: str
    value_unit_exponent: int
    derivative_semantics: str
    axes: tuple
    fixed_axes: tuple
    blocks: dict
    symmetry_tol: float = 1e-6
    provenance: Any = None

    def __post_init__(self):
        object.__setattr__(self, "frequency", positive_number(
            self.frequency, "frequency_rad_per_s", GridFormatError))
        if (not isinstance(self.length_unit, str)
                or self.length_unit not in _METERS_PER_UNIT):
            raise GridFormatError(
                f"length_unit {self.length_unit!r} is not one of 'nm', 'um', 'm'")
        exp = self.value_unit_exponent
        if isinstance(exp, bool) or not isinstance(exp, (int, np.integer)):
            raise GridFormatError("value_unit_exponent must be an integer")
        object.__setattr__(self, "value_unit_exponent", int(exp))
        for order in range(3):
            try:
                scale = self.meters_per_unit ** (int(exp) - order)
            except OverflowError:
                scale = math.inf
            if not (math.isfinite(scale) and scale != 0.0):
                raise GridFormatError(
                    f"value_unit_exponent: the SI scale of order-{order} "
                    f"blocks in {self.length_unit} leaves the float range")
        if self.derivative_semantics not in ("total", "split"):
            raise GridFormatError(
                "derivative_semantics must be declared 'total' or 'split', "
                f"got {self.derivative_semantics!r}")
        object.__setattr__(self, "symmetry_tol", positive_number(
            self.symmetry_tol, "symmetry_rtol", GridFormatError))

        if len(self.axes) != 3 or len(self.fixed_axes) != 3:
            raise GridFormatError("axes and fixed_axes must give x, y and z")
        fixed = tuple(bool(f) for f in self.fixed_axes)
        if fixed[0] or fixed[1]:
            raise GridFormatError(
                "x and y must be coordinate arrays; only z may be fixed")
        axes = []
        for name, ax, fx in zip(_AXES, self.axes, fixed):
            arr = _node_axis(ax, f"axes.{name}", GridFormatError)
            if fx and arr.size != 1:
                raise GridFormatError(
                    f"axes.{name} is declared fixed but carries {arr.size} values")
            arr.flags.writeable = False
            axes.append(arr)
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "fixed_axes", fixed)

        if not isinstance(self.blocks, dict) or "value" not in self.blocks:
            raise GridFormatError("blocks must be a mapping with a 'value' block")
        want = tuple(a.size for a in axes) + (3, 3)
        allowed = _allowed_keys(self.derivative_semantics)
        norm = {}
        for key in sorted(self.blocks):
            if key not in allowed:
                raise GridFormatError(
                    f"blocks.{key}: unrecognized under "
                    f"{self.derivative_semantics!r} semantics")
            arr = np.asarray(self.blocks[key], dtype=complex).copy()
            if arr.shape != want:
                raise GridFormatError(
                    f"blocks.{key}: shape {arr.shape} does not match grid {want}")
            if not np.all(np.isfinite(arr)):
                raise GridFormatError(f"blocks.{key}: non-finite entries")
            arr.flags.writeable = False
            norm[key] = arr
        object.__setattr__(self, "blocks", norm)

    @property
    def meters_per_unit(self) -> float:
        return _METERS_PER_UNIT[self.length_unit]

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    def axes_si(self) -> tuple:
        m = self.meters_per_unit
        return tuple(a * m for a in self.axes)

    def _si_scale(self, key: str) -> float:
        return self.meters_per_unit ** (
            self.value_unit_exponent - _derivative_order(key))

    def block_si(self, key: str) -> np.ndarray:
        """One block converted to SI (m^(exponent - derivative order))."""
        if key not in self.blocks:
            raise GridDomainError(f"grid has no {key!r} block")
        return self.blocks[key] * self._si_scale(key)

    def node_points(self) -> np.ndarray:
        """All grid nodes as an (N, 3) SI array, row-major (z fastest)."""
        gx, gy, gz = np.meshgrid(*self.axes_si(), indexing="ij")
        return np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)

    def _locate(self, point) -> list:
        p = finite_point(point, "query point")
        axes = self.axes_si()
        span = max(a[-1] - a[0] for a in axes)
        scale = max(span, max(np.abs(a).max() for a in axes))
        tol = 1e-9 * (scale if scale > 0.0 else 1.0)
        locs = []
        for name, a, c in zip(_AXES, axes, p):
            if a.size == 1:
                if abs(c - a[0]) > tol:
                    raise GridDomainError(
                        f"point {name}={c:.9g} m is off the grid plane "
                        f"{name}={a[0]:.9g} m")
                locs.append((0, 0, 0.0))
                continue
            if c < a[0] - tol or c > a[-1] + tol:
                raise GridDomainError(
                    f"point {name}={c:.9g} m outside the grid range "
                    f"[{a[0]:.9g}, {a[-1]:.9g}] m")
            hi = int(np.searchsorted(a, c))
            hi = min(max(hi, 1), a.size - 1)
            lo = hi - 1
            t = (c - a[lo]) / (a[hi] - a[lo])
            locs.append((lo, hi, min(max(t, 0.0), 1.0)))
        return locs

    def _interp(self, key: str, locs: list) -> np.ndarray:
        # index the real part of the stored block first and rescale only
        # the 3x3 result
        arr = self.blocks[key].real
        for lo, hi, t in locs:
            # exact node hits keep the stored tensor bit-identical
            if t == 0.0:
                arr = arr[lo]
            elif t == 1.0:
                arr = arr[hi]
            else:
                arr = (1.0 - t) * arr[lo] + t * arr[hi]
        return arr * self._si_scale(key)

    def jet_at(self, point) -> GreensJet:
        """Multilinear imaginary-part jet at an SI point inside the hull.

        Split-semantics grids populate every derivative block the file
        carries; total-semantics grids yield value-only jets, since a
        total derivative cannot be separated into the field/source
        gradients the contraction machinery consumes. An absent block is
        left None; a contraction that needs it raises
        MissingDerivativeError (CoefficientBundle.contract).
        """
        locs = self._locate(point)
        return self._jet(lambda key: self._interp(key, locs))

    def node_jet(self) -> GreensJet:
        """Imaginary-part jet over every node, batched in node_points()
        order: block shapes (N, 3, 3), (N, 3, 3, 3), ...

        Entry i equals jet_at(node_points()[i]) bit for bit; the block and
        semantics rules are jet_at's.
        """
        n = math.prod(self.shape)
        return self._jet(
            lambda key: (self.blocks[key].real.reshape(n, 3, 3)
                         * self._si_scale(key)))

    def _jet(self, take: Callable) -> GreensJet:
        """Assemble a jet from take(key), the real SI 3x3 block(s) of one
        stored key: each derivative block whose stored keys are all
        present, under split semantics only."""
        value = take("value")

        d_obs = d_src = d_mixed = None
        if self.derivative_semantics == "split":
            if all(k in self.blocks for k in _D1_KEYS):
                d_obs = np.stack([take(k) for k in _D1_KEYS], axis=-1)
            if all(k in self.blocks for k in _D1_SRC_KEYS):
                d_src = np.stack([take(k) for k in _D1_SRC_KEYS], axis=-1)
            if all(k in self.blocks for k in _D2_KEYS):
                d_mixed = np.stack(
                    [np.stack([take(f"d2_{a}{b}") for b in _AXES], axis=-1)
                     for a in _AXES], axis=-2)
        return GreensJet(value=value, d_obs=d_obs, d_src=d_src,
                         d_mixed=d_mixed, part="imag")

    def equals(self, other: "TensorGrid") -> bool:
        """Exact equality of metadata, axes, and block arrays."""
        if not isinstance(other, TensorGrid):
            return False
        if (self.frequency, self.length_unit, self.value_unit_exponent,
                self.derivative_semantics, self.fixed_axes, self.symmetry_tol,
                self.provenance) != (
                other.frequency, other.length_unit, other.value_unit_exponent,
                other.derivative_semantics, other.fixed_axes,
                other.symmetry_tol, other.provenance):
            return False
        if any(not np.array_equal(a, b) for a, b in zip(self.axes, other.axes)):
            return False
        if sorted(self.blocks) != sorted(other.blocks):
            return False
        return all(np.array_equal(self.blocks[k], other.blocks[k])
                   for k in self.blocks)


# ---------------------------------------------------------------------------
# serialization
#
# Every v1 block is text of one fixed layout, N nodes of 3 rows of 3
# [re, im] entries. Both directions go between that layout and one flat
# number list, so neither builds the nested per-entry lists (about 700k on
# a 40 x 40 all-block grid) that json.loads would allocate and the cyclic
# GC would then traverse.

_JSON_WS = b" \t\n\r"
_NUMBER_CHARS = b"0123456789eE.+-"
_WS_RUN = re.compile(r"[ \t\n\r]*")
_BLOCK_CHARS_RUN = re.compile(r"[0-9eE.+\-\[\], \t\n\r]*")
_NUMBERS_AS_N = bytes.maketrans(_NUMBER_CHARS, b"n" * len(_NUMBER_CHARS))
_BRACKETS_AS_SPACES = bytes.maketrans(b"[]", b"  ")


@functools.lru_cache(maxsize=8)
def _block_layout(n_nodes: int, entry: str) -> str:
    """Compact text of an n_nodes-node block with every entry spelled
    entry: "[,]" gives the bracket skeleton, "[%s,%s]" the writer's
    template."""
    row = "[" + ",".join([entry] * 3) + "]"
    node = "[" + ",".join([row] * 3) + "]"
    return "[" + ",".join([node] * n_nodes) + "]"


_NODE_STRIDE = len(_block_layout(2, "[,]")) - len(_block_layout(1, "[,]"))


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def _block_text(arr: np.ndarray) -> str:
    """One block as compact JSON: a single json.dumps of the flat
    [re, im, ...] list, placed into the block layout."""
    entries = np.stack([arr.real, arr.imag], axis=-1).reshape(-1, 18)
    numbers = _dumps(entries.ravel().tolist())
    return (_block_layout(len(entries), "[%s,%s]")
            % tuple(numbers[1:-1].split(",")))


def save_grid(grid: TensorGrid) -> bytes:
    """Serialize to canonical UTF-8 JSON bytes.

    Canonical means sorted keys, compact separators, shortest
    round-trip decimals; the same grid always produces the same bytes,
    and load_grid(save_grid(g)) reproduces g exactly.
    """
    axes = {name: (float(arr[0]) if fx else [float(v) for v in arr])
            for name, arr, fx in zip(_AXES, grid.axes, grid.fixed_axes)}
    # every key here sorts after "axes" and "blocks", which lead the text
    head = {
        "format_version": 1,
        "frequency_rad_per_s": grid.frequency,
        "length_unit": grid.length_unit,
        "value_unit_exponent": grid.value_unit_exponent,
        "derivative_semantics": grid.derivative_semantics,
        "symmetry_rtol": grid.symmetry_tol,
    }
    if grid.provenance is not None:
        head["provenance"] = grid.provenance
    try:
        blocks = ",".join(f"{_dumps(k)}:{_block_text(grid.blocks[k])}"
                          for k in sorted(grid.blocks))
        text = (f'{{"axes":{_dumps(axes)},"blocks":{{{blocks}}},'
                + _dumps(head)[1:])
    except (TypeError, ValueError) as exc:
        raise GridFormatError(f"grid is not serializable: {exc}") from None
    return text.encode("utf-8")


class _Declined(Exception):
    """The block reader leaves the document to the json route."""


def _decline(_token: str):
    raise _Declined


_HEADER_DECODER = json.JSONDecoder(parse_constant=_decline)


def _skip_ws(text: str, pos: int) -> int:
    return _WS_RUN.match(text, pos).end()


def _read_object(text: str, pos: int, read_value: Callable) -> tuple:
    """Walk the JSON object at text[pos] by json's rules (a repeated key
    keeps its first position and its last value); read_value(key, text,
    pos) returns (value, end). Returns (dict, end)."""
    if not text.startswith("{", pos):
        raise _Declined
    out = {}
    pos = _skip_ws(text, pos + 1)
    if text.startswith("}", pos):
        return out, pos + 1
    while True:
        if not text.startswith('"', pos):
            raise _Declined
        key, pos = scanstring(text, pos + 1)
        pos = _skip_ws(text, pos)
        if not text.startswith(":", pos):
            raise _Declined
        out[key], pos = read_value(key, text, _skip_ws(text, pos + 1))
        pos = _skip_ws(text, pos)
        if text.startswith("}", pos):
            return out, pos + 1
        if not text.startswith(",", pos):
            raise _Declined
        pos = _skip_ws(text, pos + 1)


def _read_block(key: str, text: str, pos: int) -> tuple:
    """The block value at text[pos] as an (N, 3, 3, 2) float array.

    The span runs to the last ']' before the first character that no
    block of JSON numbers can hold. It is taken only if, with whitespace
    gone, deleting the numbers leaves exactly the N-node bracket skeleton
    and no number touches a bracket from outside an entry; its numbers
    are then read by one json.loads of the span with the inner brackets
    as spaces, so json's scanner still judges every number token.
    """
    end = text.rfind("]", pos, _BLOCK_CHARS_RUN.match(text, pos).end()) + 1
    span = text[pos:end].encode("ascii")
    packed = span.translate(None, _JSON_WS)
    skeleton = packed.translate(None, _NUMBER_CHARS).decode("ascii")
    n_nodes = len(skeleton) // _NODE_STRIDE
    marked = packed.translate(_NUMBERS_AS_N)
    if (skeleton != _block_layout(n_nodes, "[,]")
            or b"]n" in marked or b"n[" in marked):
        raise _Declined
    numbers = json.loads(
        b"[" + span[1:-1].translate(_BRACKETS_AS_SPACES) + b"]")
    return np.array(numbers, dtype=float).reshape(n_nodes, 3, 3, 2), end


def _read_top_value(key: str, text: str, pos: int) -> tuple:
    if key == "blocks":
        return _read_object(text, pos, _read_block)
    return _HEADER_DECODER.raw_decode(text, pos)


def _read_fast(text: str) -> Optional[dict]:
    """The document with every block already a float array, or None when
    a block is more than JSON numbers in the v1 layout, or the text is
    not valid JSON or holds NaN or Infinity."""
    try:
        doc, end = _read_object(text, _skip_ws(text, 0), _read_top_value)
    except (_Declined, ValueError, OverflowError, RecursionError):
        return None
    return doc if _skip_ws(text, end) == len(text) else None


def _reject_constant(token: str):
    raise GridFormatError(f"non-finite number {token!r} in grid file")


def _read_json(text: str):
    """The document as json.loads builds it: the route that reports every
    defect."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GridFormatError(f"grid file is not valid JSON: {exc}") from None


def _as_float(value, field: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise GridFormatError(
            f"{field}: integer too large for a float") from None


def _locate_block_defect(key: str, payload, n_nodes: int):
    """Pinpoint why a block payload failed the fast vectorized parse."""
    if len(payload) != n_nodes:
        raise GridFormatError(
            f"blocks.{key}: expected {n_nodes} nodes, got {len(payload)}")
    for i, node in enumerate(payload):
        if not isinstance(node, list) or len(node) != 3:
            raise GridFormatError(f"blocks.{key}[{i}]: expected 3 rows")
        for j, row in enumerate(node):
            if not isinstance(row, list) or len(row) != 3:
                raise GridFormatError(
                    f"blocks.{key}[{i}][{j}]: expected 3 entries")
            for k, entry in enumerate(row):
                ok = (isinstance(entry, list) and len(entry) == 2
                      and all(is_number(v) for v in entry))
                if not ok:
                    raise GridFormatError(
                        f"blocks.{key}[{i}][{j}][{k}]: expected [re, im]")
    raise GridFormatError(f"blocks.{key}: malformed block data")


def _parse_block(key: str, payload, n_nodes: int, shape: tuple) -> np.ndarray:
    if not isinstance(payload, (list, np.ndarray)):
        raise GridFormatError(f"blocks.{key}: expected a list of nodes")
    try:
        arr = np.asarray(payload, dtype=float)
    except OverflowError:
        raise GridFormatError(
            f"blocks.{key}: integer too large for a float") from None
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (n_nodes, 3, 3, 2):
        _locate_block_defect(key, payload, n_nodes)
    if not np.all(np.isfinite(arr)):
        raise GridFormatError(f"blocks.{key}: non-finite entries")
    # set part by part so that -0.0 survives (re + 1j * im drops it)
    out = np.empty(shape + (3, 3), dtype=complex)
    out.real = arr[..., 0].reshape(out.shape)
    out.imag = arr[..., 1].reshape(out.shape)
    return out


def load_grid(source) -> TensorGrid:
    """Parse a grid file into a fully validated, unit-aware TensorGrid.

    Accepts bytes, str, or a binary file-like object. Structural
    problems (malformed header, missing semantics declaration,
    non-monotone axes, ragged or non-finite blocks) are rejected with
    a diagnostic naming the offending field.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray, memoryview)):
        try:
            source = bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GridFormatError(f"grid file is not UTF-8: {exc}") from None
    if not isinstance(source, str):
        raise InputError(
            "load_grid expects bytes, str, or a binary file-like object")
    doc = _read_fast(source)
    return _grid_from_doc(_read_json(source) if doc is None else doc)


def _grid_from_doc(doc) -> TensorGrid:
    """Check a decoded document and build its grid. Blocks arrive as
    json's nested lists or as _read_block's arrays; both give the same
    grid and the same diagnostics."""
    if not isinstance(doc, dict):
        raise GridFormatError("grid file top level must be a JSON object")

    version = doc.get("format_version")
    if isinstance(version, bool) or version != 1:
        raise GridFormatError(f"format_version: expected 1, got {version!r}")
    freq = doc.get("frequency_rad_per_s")
    if not is_number(freq):
        raise GridFormatError("frequency_rad_per_s: expected a number")
    freq = _as_float(freq, "frequency_rad_per_s")

    axes_doc = doc.get("axes")
    if not isinstance(axes_doc, dict):
        raise GridFormatError("axes: expected an object with x, y, z")
    axes, fixed = [], []
    for name in _AXES:
        if name not in axes_doc:
            raise GridFormatError(f"axes.{name}: required")
        ax = axes_doc[name]
        if is_number(ax):
            if name != "z":
                raise GridFormatError(
                    f"axes.{name}: only z may be a fixed scalar")
            axes.append([_as_float(ax, f"axes.{name}")])
            fixed.append(True)
            continue
        if not isinstance(ax, list) or not ax or not all(
                is_number(v) for v in ax):
            raise GridFormatError(
                f"axes.{name}: expected a nonempty number array "
                "(or a fixed scalar for z)")
        axes.append([_as_float(v, f"axes.{name}") for v in ax])
        fixed.append(False)

    blocks_doc = doc.get("blocks")
    if not isinstance(blocks_doc, dict) or "value" not in blocks_doc:
        raise GridFormatError("blocks: expected an object with a 'value' block")
    shape = tuple(len(a) for a in axes)
    n_nodes = int(np.prod(shape))
    blocks = {key: _parse_block(key, payload, n_nodes, shape)
              for key, payload in blocks_doc.items()}

    tol = doc.get("symmetry_rtol", 1e-6)
    if not is_number(tol):
        raise GridFormatError("symmetry_rtol: expected a number")

    return TensorGrid(
        frequency=freq,
        length_unit=doc.get("length_unit"),
        value_unit_exponent=doc.get("value_unit_exponent"),
        derivative_semantics=doc.get("derivative_semantics"),
        axes=tuple(axes),
        fixed_axes=tuple(fixed),
        blocks=blocks,
        symmetry_tol=_as_float(tol, "symmetry_rtol"),
        provenance=doc.get("provenance"),
    )


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class GridValidationReport:
    """Deterministic per-check outcomes for one grid.

    missing_blocks lists derivative blocks the grid could carry but does
    not; absence is permitted, so it never fails the report by itself.
    """

    checks: tuple
    missing_blocks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "missing_blocks": list(self.missing_blocks),
            "checks": [{"name": c.name, "passed": c.passed,
                        "residual": c.residual, "detail": c.detail}
                       for c in self.checks],
        }


def _symmetry_residual(value: np.ndarray) -> tuple:
    mats = value.reshape(-1, 3, 3)
    scale = np.abs(mats).max(axis=(1, 2))
    asym = np.abs(mats - np.transpose(mats, (0, 2, 1))).max(axis=(1, 2))
    rel = asym / np.where(scale > 0.0, scale, 1.0)
    worst = int(np.argmax(rel))
    return float(rel[worst]), worst


def validate_grid(grid: TensorGrid,
                  derivative_rtol: float = 0.05) -> GridValidationReport:
    """Run the grid invariant checks and report pass/fail per check.

    Checks: header/unit sanity, node-wise value symmetry (tolerance from
    the grid header), imaginary residue of the stored tensors (the
    physical content is real), and consistency of declared first
    derivative blocks with finite differences of the value block along
    axes with at least three nodes. The derivative cross-check compares
    at interior nodes only and is limited by the solver's own truncation
    error, hence the loose default tolerance.
    """
    checks = []

    checks.append(CheckResult(
        "unit-sanity", True, 0.0,
        f"length_unit={grid.length_unit}, value_unit_exponent="
        f"{grid.value_unit_exponent}, frequency={grid.frequency:g} rad/s"))

    rel, node = _symmetry_residual(grid.blocks["value"])
    checks.append(CheckResult(
        "value-symmetry", rel <= grid.symmetry_tol, rel,
        f"worst node {node} (flat index), tolerance {grid.symmetry_tol:g}"))

    worst_imag = 0.0
    worst_key = "value"
    for key, arr in grid.blocks.items():
        scale = float(np.abs(arr).max())
        if scale == 0.0:
            continue
        res = float(np.abs(arr.imag).max()) / scale
        if res > worst_imag:
            worst_imag, worst_key = res, key
    checks.append(CheckResult(
        "imaginary-residue", worst_imag <= _IMAG_RTOL, worst_imag,
        f"worst block {worst_key!r}; stored tensors should be real"))

    # declared first derivatives vs finite differences of the value field
    worst_fd = 0.0
    compared = []
    axes = grid.axes_si()
    value = grid.block_si("value").real
    vmax = float(np.abs(value).max())

    def _fd_residual(declared, fd, interior_axes, floor):
        sl = [slice(None)] * 3
        for ai in interior_axes:
            sl[ai] = slice(1, -1)
        sl = tuple(sl)
        # the floor keeps roundoff noise on flat fields from being
        # compared against an exactly-zero declared block
        scale = max(float(np.abs(declared[sl]).max()),
                    float(np.abs(fd[sl]).max()), floor)
        if scale == 0.0:
            return 0.0
        return float(np.abs(fd[sl] - declared[sl]).max()) / scale

    for ai, name in enumerate(_AXES):
        if axes[ai].size < 3:
            continue
        if grid.derivative_semantics == "split":
            keys = (f"d1_{name}", f"d1_{name}_src")
        else:
            keys = (f"d1_{name}",)
        if any(k not in grid.blocks for k in keys):
            continue
        declared = sum(grid.block_si(k).real for k in keys)
        fd = np.gradient(value, axes[ai], axis=ai, edge_order=2)
        span = float(axes[ai][-1] - axes[ai][0])
        res = _fd_residual(declared, fd, (ai,), vmax / span)
        compared.append(name)
        worst_fd = max(worst_fd, res)
    if grid.derivative_semantics == "total":
        # a total second derivative is again an FD of the node data
        for ai, a in enumerate(_AXES):
            for bi, b in enumerate(_AXES):
                key = f"d2_{a}{b}"
                if key not in grid.blocks:
                    continue
                if axes[ai].size < 3 or axes[bi].size < 3:
                    continue
                fd2 = np.gradient(
                    np.gradient(value, axes[ai], axis=ai, edge_order=2),
                    axes[bi], axis=bi, edge_order=2)
                declared = grid.block_si(key).real
                span_a = float(axes[ai][-1] - axes[ai][0])
                span_b = float(axes[bi][-1] - axes[bi][0])
                res = _fd_residual(declared, fd2, (ai, bi),
                                   vmax / (span_a * span_b))
                compared.append(key)
                worst_fd = max(worst_fd, res)
    detail = ("cross-checked " + ", ".join(compared)) if compared else \
        "no derivative blocks with enough nodes to cross-check"
    checks.append(CheckResult(
        "derivative-consistency", worst_fd <= derivative_rtol, worst_fd, detail))

    missing = tuple(sorted(_allowed_keys(grid.derivative_semantics)
                           - {"value"} - set(grid.blocks)))
    return GridValidationReport(checks=tuple(checks), missing_blocks=missing)


# ---------------------------------------------------------------------------
# producing grids from the analytic uniform medium

def grid_from_homogeneous(medium: Medium, frequency: float, axes,
                          fd_step: Optional[float] = None) -> TensorGrid:
    """Split-semantics grid of the uniform-medium coincident Im-G jet.

    axes give three SI coordinate specs (arrays; a scalar z marks a
    fixed plane), each checked by increasing_axis. The medium is
    translation invariant, so every node gets the same blocks. With
    fd_step=None all blocks are analytic. With a step h given, the
    derivative blocks are instead central second-order differences, at
    offsets of +-h, of the field p -> Im G(p, 0) at p = 0: field-point
    derivatives, which convert to source-point and mixed blocks by
    translation invariance (each source-point derivative contributes one
    sign flip). The grid keeps TensorGrid's default symmetry tolerance,
    and its provenance names the generator and fd_step.
    """
    ax_arrays = [_node_axis(ax, f"axes.{name}")
                 for name, ax in zip(_AXES, axes)]
    fixed = tuple(name == "z" and np.ndim(ax) == 0
                  for name, ax in zip(_AXES, axes))
    jet0 = coincident_im_jet(frequency, medium)
    shape = tuple(a.size for a in ax_arrays)

    def tile(block: np.ndarray) -> np.ndarray:
        return np.broadcast_to(block, shape + block.shape).copy()

    # the 3x3 block of every stored derivative key, shared by all nodes
    if fd_step is None:
        centre = {key: np.zeros((3, 3)) for key in _D1_KEYS}
        centre.update((f"d2_{a}{b}", jet0.d_mixed[:, :, i, j])
                      for i, a in enumerate(_AXES)
                      for j, b in enumerate(_AXES))
    else:
        h = positive_number(fd_step, "fd_step")
        # (offset, weight) stencils of d/dx and d2/dx2
        d1 = ((-h, -0.5 / h), (h, 0.5 / h))
        d2 = ((-h, 1.0 / (h * h)), (0.0, -2.0 / (h * h)), (h, 1.0 / (h * h)))

        def sample(*shifts):
            # Im G(p, 0) with p shifted by (axis, offset) pairs, which is
            # Im G(r + p, r) at every node r
            p = np.zeros(3)
            for axis, offset in shifts:
                p[axis] += offset
            if not np.any(p):
                return jet0.value
            return eval_homogeneous(p, frequency, medium).imag

        centre = {}
        for i, a in enumerate(_AXES):
            centre[f"d1_{a}"] = sum(w * sample((i, off)) for off, w in d1)
            # one source-slot derivative: flip the sign of the sampled
            # field-field second derivative
            centre[f"d2_{a}{a}"] = 0.0 - sum(w * sample((i, off))
                                             for off, w in d2)
            for j, b in enumerate(_AXES[i + 1:], i + 1):
                centre[f"d2_{a}{b}"] = centre[f"d2_{b}{a}"] = 0.0 - sum(
                    wa * wb * sample((i, oa), (j, ob))
                    for oa, wa in d1 for ob, wb in d1)
    # sign flips as 0.0 - x, which keeps exact zeros +0.0 (-x would write
    # them as -0.0)
    centre.update((f"{key}_src", 0.0 - centre[key]) for key in _D1_KEYS)
    blocks = {"value": tile(jet0.value)}
    blocks.update((key, tile(centre[key]))
                  for key in (*_D1_KEYS, *_D1_SRC_KEYS, *_D2_KEYS))
    return TensorGrid(
        frequency=frequency, length_unit="m", value_unit_exponent=-1,
        derivative_semantics="split", axes=tuple(ax_arrays),
        fixed_axes=fixed, blocks=blocks,
        provenance={"generator": "uniform-medium analytic sampler",
                    "fd_step_m": fd_step})
