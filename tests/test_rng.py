"""Seeded streams: the seed and every key must be integers."""

import numpy as np
import pytest

from prenelab import rng


def _draws(gen):
    return gen.integers(0, 2**63, size=4).tolist()


@pytest.mark.parametrize("args", [(1.5,), (5, 1.7), (5, 1, 2.0), (2.0,)])
def test_non_integer_seed_or_key_raises(args):
    with pytest.raises(TypeError):
        rng.stream(*args)


def test_numpy_integers_give_the_int_streams():
    assert _draws(rng.stream(np.uint64(5), np.int64(1))) == _draws(rng.stream(5, 1))
    assert _draws(rng.stream(np.int32(7))) == _draws(rng.stream(7))


def test_seed_range_checked():
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        rng.stream(2**64)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        rng.stream(-1)
