"""Sampled Green-tensor grids: load, save, validate, interpolate.

Externally computed environments arrive as rectilinear grids of the
imaginary part of the Green tensor at coincident points, optionally with
derivative blocks. save_grid writes format version 3, a binary
container laid out as NumPy's .npy files are:

    b"\x93PEGRID"                          magic (0x93 starts no UTF-8 text)
    {"axes": {"x": [...], "y": [...], "z": [...] or fixed scalar},
     "blocks": ["d1_x", ..., "value"],     # block names, in data order
     "derivative_semantics": "split",      # "split" | "total", mandatory
     "format_version": 3,
     "frequency_rad_per_s": 2.4e15,
     "length_unit": "nm",                  # "nm" | "um" | "m"
     "provenance": ...,                    # optional free-form metadata
     "symmetry_rtol": 1e-6,                # optional, default 1e-6
     "value_unit_exponent": -1}            # value ~ unit^exp, d1 ~ unit^(exp-1)
    spaces, then b"\n" as the last byte of a multiple of 64 bytes
    the raw bytes of each listed block, in list order, and nothing after

The header is one UTF-8 JSON object on one line (shown here spread out,
with comments). Each block is N = len(x) * len(y) * len(z) nodes of 3x3
tensors, node-major (row-major over x, y, z; z fastest), each entry a
little-endian float64 [re, im] pair: (N, 3, 3, 2) doubles, exactly
N * 144 bytes. The physical content is Im G, which is real; a nonzero
imaginary residue is tolerated on load and flagged by validate_grid.
Axis coordinates are in length_unit; everything is converted to SI on
access.

save_grid's bytes are canonical: the header is one json.dumps with
sorted keys and compact separators, the block names are sorted, so a
grid has exactly one file, and signed zeros and subnormals survive
exactly. load_grid reads the header with json.loads, so any JSON
whitespace and key order load alike (a repeated key keeps its last
value), and the block names may come in any order. The block data
starts at a multiple of 64 bytes, so each loaded block is an aligned,
read-only view of the file's bytes, with no copy.

load_grid reads this format only. Any other bytes, the JSON documents of
format versions 1 and 2 that save_grid wrote before among them, are
refused at the magic.

The header fields pass TensorGrid's own checks, named by their document
keys: frequency_rad_per_s and symmetry_rtol errors.positive_number, each
axis errors.increasing_axis (through _node_axis, which reads a scalar z
as a fixed plane). The axes are checked before any block, since a block
is read against their node count; the other fields after the blocks.

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

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .errors import (GridDomainError, GridFormatError, InputError,
                     finite_point, increasing_axis, positive_number)
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
# validate_grid's bound on declared derivative blocks against finite
# differences of the value block
_DERIVATIVE_RTOL = 0.05


def _derivative_order(key: str) -> int:
    if key == "value":
        return 0
    return 1 if key.startswith("d1") else 2


def _allowed_keys(semantics: str) -> set:
    keys = {"value", *_D1_KEYS, *_D2_KEYS}
    if semantics == "split":
        keys |= set(_D1_SRC_KEYS)
    return keys


def _owner(arr: np.ndarray):
    """The object at the end of arr's chain of views."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


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
            arr = np.asarray(self.blocks[key], dtype=complex)
            if not isinstance(_owner(arr), bytes):
                # a view of immutable bytes (a loaded block) needs no
                # private copy
                arr = arr.copy()
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

_BLOCK_DTYPE = np.dtype("<c16")  # little-endian float64 [re, im] pairs
_NODE_BYTES = 9 * _BLOCK_DTYPE.itemsize
_MAGIC = b"\x93PEGRID"  # 0x93 is a UTF-8 continuation byte
_ALIGN = 64  # v3 block data starts at a multiple of this many bytes


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def save_grid(grid: TensorGrid) -> bytes:
    """Serialize to canonical bytes in format version 3.

    Canonical means a header of sorted keys, compact separators and
    shortest round-trip decimals, the block names sorted, and each
    block's raw little-endian bytes; the same grid always produces the
    same bytes, and load_grid(save_grid(g)) reproduces g exactly.
    """
    keys = sorted(grid.blocks)
    doc = {
        "format_version": 3,
        "frequency_rad_per_s": grid.frequency,
        "length_unit": grid.length_unit,
        "value_unit_exponent": grid.value_unit_exponent,
        "derivative_semantics": grid.derivative_semantics,
        "symmetry_rtol": grid.symmetry_tol,
        "axes": {name: (float(arr[0]) if fx else [float(v) for v in arr])
                 for name, arr, fx in zip(_AXES, grid.axes, grid.fixed_axes)},
        "blocks": keys,
    }
    if grid.provenance is not None:
        doc["provenance"] = grid.provenance
    try:
        header = _MAGIC + _dumps(doc).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise GridFormatError(f"grid is not serializable: {exc}") from None
    # the newline ends the padding, as the last byte before the blocks
    pad = b" " * (-(len(header) + 1) % _ALIGN) + b"\n"
    return b"".join([header, pad, *(
        np.ascontiguousarray(grid.blocks[key], dtype=_BLOCK_DTYPE)
        for key in keys)])


def load_grid(source) -> TensorGrid:
    """Parse a grid file of format version 3 into a fully validated,
    unit-aware TensorGrid.

    Accepts bytes (or a bytearray or memoryview) or a binary file-like
    object. Structural problems (a missing magic, a malformed header, a
    missing semantics declaration, non-monotone axes, mis-sized or
    non-finite blocks) are rejected with a diagnostic naming the
    offending field.
    """
    if hasattr(source, "read"):
        source = source.read()
    if not isinstance(source, (bytes, bytearray, memoryview)):
        raise InputError(
            "load_grid expects the bytes of grid format version 3 or a "
            f"binary file-like object, got {type(source).__name__}")
    data = bytes(source)
    if not data.startswith(_MAGIC):
        raise GridFormatError(
            f"magic: expected {_MAGIC!r} of grid format version 3, got "
            f"{data[:len(_MAGIC)]!r}")
    start = data.find(b"\n", len(_MAGIC)) + 1  # where the block data starts
    if not start:
        raise GridFormatError("header: no terminating newline")
    try:
        text = data[len(_MAGIC):start - 1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"header is not UTF-8: {exc}") from None

    def reject_constant(token: str):
        raise GridFormatError(f"non-finite number {token!r} in header")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise GridFormatError(f"header is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GridFormatError("header must be a JSON object")
    if start % _ALIGN:
        raise GridFormatError(
            f"header: block data starts at byte {start}, not at a "
            f"multiple of {_ALIGN}")
    version = doc.get("format_version")
    # the int 3 alone: not 3.0, and not a bool
    if type(version) is not int or version != 3:
        raise GridFormatError(f"format_version: expected 3, got {version!r}")

    # read before the blocks, whose views need the node count
    axes_doc = doc.get("axes")
    if not isinstance(axes_doc, dict):
        raise GridFormatError("axes: expected an object with x, y, z")
    axes, fixed = [], []
    for name in _AXES:
        if name not in axes_doc:
            raise GridFormatError(f"axes.{name}: required")
        axes.append(_node_axis(axes_doc[name], f"axes.{name}",
                               GridFormatError))
        fixed.append(not isinstance(axes_doc[name], list))
        if fixed[-1] and name != "z":
            raise GridFormatError(
                f"axes.{name}: only z may be a fixed scalar")
    shape = tuple(len(a) for a in axes)
    n_nodes = int(np.prod(shape))

    # each listed block, N x 144 bytes in list order, as a read-only view;
    # TensorGrid checks the names against the semantics, and finiteness
    names = doc.get("blocks")
    if not (isinstance(names, list) and all(isinstance(k, str) for k in names)
            and len(set(names)) == len(names) and "value" in names):
        raise GridFormatError(
            "blocks: expected a list of distinct block names with 'value'")
    size = n_nodes * _NODE_BYTES
    if len(data) - start != len(names) * size:
        raise GridFormatError(
            f"blocks: expected {len(names) * size} bytes for {len(names)} "
            f"blocks of {n_nodes} nodes, got {len(data) - start}")
    blocks = {key: np.frombuffer(data, _BLOCK_DTYPE, 9 * n_nodes,
                                 start + i * size).reshape(shape + (3, 3))
              for i, key in enumerate(names)}

    return TensorGrid(
        frequency=doc.get("frequency_rad_per_s"),
        length_unit=doc.get("length_unit"),
        value_unit_exponent=doc.get("value_unit_exponent"),
        derivative_semantics=doc.get("derivative_semantics"),
        axes=tuple(axes),
        fixed_axes=tuple(fixed),
        blocks=blocks,
        symmetry_tol=doc.get("symmetry_rtol", 1e-6),
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


def validate_grid(grid: TensorGrid) -> GridValidationReport:
    """Run the grid invariant checks and report pass/fail per check.

    Checks: header/unit sanity, node-wise value symmetry (tolerance from
    the grid header), imaginary residue of the stored tensors (the
    physical content is real), and consistency of declared first
    derivative blocks with finite differences of the value block along
    axes with at least three nodes. The derivative cross-check compares
    at interior nodes only and is limited by the solver's own truncation
    error, hence the loose tolerance _DERIVATIVE_RTOL.
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
        "derivative-consistency", worst_fd <= _DERIVATIVE_RTOL, worst_fd,
        detail))

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
