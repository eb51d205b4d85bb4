"""Seeded streams: integer seeds and keys, one stream per (seed, *key)."""

import numpy as np
import pytest
from _hypothesis import assume, given, settings, st

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


@pytest.mark.parametrize("args", [(True,), (False, 1), (5, True), (5, 1, False)])
def test_bool_seed_or_key_raises(args):
    with pytest.raises(TypeError):
        rng.stream(*args)


def test_key_word_range_checked():
    with pytest.raises(ValueError, match="unsigned 32-bit"):
        rng.stream(5, 2**32)
    with pytest.raises(ValueError, match="unsigned 32-bit"):
        rng.stream(5, 1, -1)
    _draws(rng.stream(2**64 - 1, 2**32 - 1))  # the largest words are accepted


def test_trailing_zero_key_is_a_different_stream():
    assert _draws(rng.stream(5)) != _draws(rng.stream(5, 0))
    assert _draws(rng.stream(5, 1)) != _draws(rng.stream(5, 1, 0))


def test_seed_high_word_does_not_spill_into_the_key():
    assert _draws(rng.stream(2**32 + 5, 0)) != _draws(rng.stream(5, 1))
    assert _draws(rng.stream(2**32 + 5)) != _draws(rng.stream(5, 1))


def test_models_have_their_own_domain_word():
    assert len({rng.REPLICATOR, rng.SOUP, rng.BODY}) == 3
    assert _draws(rng.stream(3, rng.REPLICATOR, 0)) != _draws(rng.stream(3, rng.SOUP, 0))
    assert _draws(rng.stream(3, rng.SOUP, 0)) != _draws(rng.stream(3, 0))


def test_body_substream_is_its_own_stream():
    body = _draws(rng.stream(3, rng.REPLICATOR, 0, rng.BODY))
    assert body != _draws(rng.stream(3, rng.REPLICATOR, 0))
    assert body != _draws(rng.stream(3, rng.REPLICATOR, 1, rng.BODY))
    assert body != _draws(rng.stream(3, rng.BODY, 0))


# key words: any 32-bit word, or the body substream's last word
_KEY = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.just(rng.BODY)), max_size=3)
_TUPLE = st.tuples(
    st.sampled_from([rng.REPLICATOR, rng.SOUP]), st.integers(0, 2**64 - 1), _KEY
)


@settings(max_examples=200, deadline=None)
@given(_TUPLE, _TUPLE)
def test_distinct_model_seed_key_give_distinct_first_draws(a, b):
    assume(a != b)
    (model_a, seed_a, key_a), (model_b, seed_b, key_b) = a, b
    first = rng.stream(seed_a, model_a, *key_a).bit_generator.random_raw(2).tolist()
    assert first != rng.stream(seed_b, model_b, *key_b).bit_generator.random_raw(2).tolist()
