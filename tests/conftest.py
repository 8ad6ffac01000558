import gc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _unreachable_after(call):
    """The unreachable objects call() leaves, with automatic collection
    off while it runs; the collector's state is restored afterwards."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if enabled:
            gc.enable()


@pytest.fixture
def cyclic_garbage():
    return _unreachable_after
