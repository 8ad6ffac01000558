"""Green-tensor jet container.

A jet bundles the 3x3 Green tensor at one (field point, source point) pair
together with its first derivatives in each argument and the mixed second
derivative. Index layout (after an optional leading batch shape shared by
every block, e.g. one entry per grid node; a single point has batch
shape ()):

    value[m, n]            G_mn
    d_obs[m, n, k]         d G_mn / d r_k          (field-point gradient)
    d_src[m, n, l]         d G_mn / d r'_l         (source-point gradient)
    d_mixed[m, n, k, l]    d^2 G_mn / d r_k d r'_l

BLOCK_SHAPES maps each block name to its trailing shape, in the one block
order every module iterates; no other module lists the blocks. A jet's
.blocks gives name -> array for the blocks it carries, in that order.

``part`` declares the content: "full" jets store complex tensors, "imag"
jets store only the imaginary part as real float arrays (the real part is
structurally unavailable, e.g. for sampled data that only resolves the
fluctuation spectrum). Derivative blocks may be absent (None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingDerivativeError, PartFlagError

BLOCK_SHAPES = {"value": (3, 3), "d_obs": (3, 3, 3), "d_src": (3, 3, 3),
                "d_mixed": (3, 3, 3, 3)}


@dataclass(frozen=True)
class GreensJet:
    value: np.ndarray
    d_obs: np.ndarray | None = None
    d_src: np.ndarray | None = None
    d_mixed: np.ndarray | None = None
    part: str = "full"

    def __post_init__(self):
        if self.part not in ("full", "imag"):
            raise PartFlagError(f"unknown jet part flag {self.part!r}")
        want = complex if self.part == "full" else float
        batch = None
        for name, shape in BLOCK_SHAPES.items():
            arr = getattr(self, name)
            if arr is None:
                if name == "value":
                    raise MissingDerivativeError("jet must carry a value block")
                continue
            arr = np.asarray(arr, dtype=want)
            k = len(shape)
            if arr.shape[-k:] != shape:
                raise ValueError(f"jet block {name} has shape {arr.shape}, "
                                 f"expected (...,) + {shape}")
            if batch is None:
                batch = arr.shape[:-k]
            elif arr.shape[:-k] != batch:
                raise ValueError(f"jet block {name} has batch shape "
                                 f"{arr.shape[:-k]}, expected {batch}")
            object.__setattr__(self, name, arr)

    @property
    def batch_shape(self) -> tuple:
        return self.value.shape[:-2]

    @property
    def blocks(self) -> dict:
        """Block name -> stored array, for the blocks present, in
        BLOCK_SHAPES order."""
        return {name: arr for name in BLOCK_SHAPES
                if (arr := getattr(self, name)) is not None}

    def real_blocks(self) -> dict:
        """Block name -> real part, for the blocks present of a full jet;
        an Im-part jet has no real part to give."""
        if self.part != "full":
            raise PartFlagError("an imaginary-part jet carries no real part")
        return {name: arr.real for name, arr in self.blocks.items()}

    def imag_part(self) -> "GreensJet":
        """Project onto the imaginary part (real-array jet)."""
        if self.part == "imag":
            return self
        return GreensJet(**{name: np.ascontiguousarray(arr.imag)
                            for name, arr in self.blocks.items()},
                         part="imag")
