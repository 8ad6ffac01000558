"""Green-jet container: the one block layout and its views."""

import numpy as np
import pytest

from polyemit.errors import MissingDerivativeError, PartFlagError
from polyemit.jets import BLOCK_SHAPES, GreensJet


def full_blocks(rng, batch=()):
    return {name: (rng.standard_normal(batch + shape)
                   + 1j * rng.standard_normal(batch + shape))
            for name, shape in BLOCK_SHAPES.items()}


def test_block_shapes_list_the_four_blocks_in_order():
    assert list(BLOCK_SHAPES) == ["value", "d_obs", "d_src", "d_mixed"]


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
@pytest.mark.parametrize("present", [("value",), ("value", "d_src"),
                                     ("d_mixed", "value", "d_obs"),
                                     tuple(BLOCK_SHAPES)])
def test_blocks_lists_present_blocks_in_layout_order(rng, batch, present):
    arrays = full_blocks(rng, batch)
    jet = GreensJet(**{name: arrays[name] for name in present})
    want = [name for name in BLOCK_SHAPES if name in present]
    assert list(jet.blocks) == want
    for name, blk in jet.blocks.items():
        assert blk is getattr(jet, name)
        assert blk.shape == batch + BLOCK_SHAPES[name]

    im = jet.imag_part()
    assert im.part == "imag" and list(im.blocks) == want
    for name, blk in im.blocks.items():
        assert np.array_equal(blk, arrays[name].imag)

    re = jet.real_blocks()
    assert list(re) == want
    for name, blk in re.items():
        assert np.array_equal(blk, arrays[name].real)


def test_real_blocks_of_an_imag_part_jet_is_refused(rng):
    im = GreensJet(**full_blocks(rng)).imag_part()
    assert im.imag_part() is im
    with pytest.raises(PartFlagError, match="no real part"):
        im.real_blocks()
    sampled = GreensJet(value=np.eye(3), part="imag")
    with pytest.raises(PartFlagError):
        sampled.real_blocks()


def test_jet_validation():
    with pytest.raises(MissingDerivativeError, match="value"):
        GreensJet(value=None, d_obs=np.zeros((3, 3, 3)))
    with pytest.raises(PartFlagError):
        GreensJet(value=np.eye(3), part="re")
    with pytest.raises(ValueError, match="batch shape"):
        GreensJet(value=np.zeros((2, 3, 3)), d_src=np.zeros((3, 3, 3, 3)))
