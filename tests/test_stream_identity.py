"""One ``(I, B)`` integer draw consumes a generator exactly like I draws of B.

``Dataset.sample_batches`` draws all I minibatches of a local update
(Eq. (4)) with one ``Generator.integers`` call of shape ``(I, B)``, and
every recorded model hash assumes the indices equal those of I
successive size-``B`` calls.  That holds because ``integers`` fills its
output one element at a time from the bit generator, and PCG64 keeps a
spare 32-bit half in its own state rather than in the call.  These
tests pin that contract on whatever numpy is installed (CI runs them on
an unpinned numpy as well), including the stream left behind.
"""

import numpy as np
import pytest

SEEDS = (0, 7, 2024)
POPULATIONS = (1, 2, 7, 20, 2**33 + 7)
BATCHES = (1, 3, 8, 16, 20)
DRAWS = (1, 5, 10)


@pytest.mark.parametrize("draws", DRAWS)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", POPULATIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_draw_equals_sequential_draws(seed, n, batch, draws):
    size = min(batch, n)
    one = np.random.default_rng(seed)
    many = np.random.default_rng(seed)
    stacked = one.integers(0, n, size=(draws, size))
    sequential = np.stack([many.integers(0, n, size=size) for _ in range(draws)])
    np.testing.assert_array_equal(stacked, sequential)
    # The state left behind (has_uint32 and the spare half included)
    # is the same, so every later draw agrees too.
    assert one.bit_generator.state == many.bit_generator.state
    np.testing.assert_array_equal(
        one.integers(0, n, size=3), many.integers(0, n, size=3)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_spare_half_carries_across_calls(seed):
    """An odd-length draw leaves a spare 32-bit half buffered in the
    generator's state, in the one-call and the many-call form alike, so
    the state comparison above does cover a carried half."""
    one = np.random.default_rng(seed)
    many = np.random.default_rng(seed)
    one.integers(0, 20, size=(1, 3))
    many.integers(0, 20, size=3)
    assert one.bit_generator.state["has_uint32"] == 1
    assert one.bit_generator.state == many.bit_generator.state
