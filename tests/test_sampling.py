"""Channel draw streams: distribution, determinism, indexing."""

import numpy as np
import pytest

from oracles import hop_channel_block, sample_channel
from relaycap import BLOCK_SIZE, SamplePool, sample_channel_block


def test_block_shape_and_dtype():
    b = sample_channel_block(2, 3, seed=0, block_index=0)
    assert b.shape == (BLOCK_SIZE, 2, 3)
    assert np.iscomplexobj(b)


def test_blocks_are_reproducible():
    a = sample_channel_block(2, 2, seed=7, block_index=3)
    b = sample_channel_block(2, 2, seed=7, block_index=3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "kw", [{"seed": 1}, {"block_index": 1}, {"hop_index": 1}]
)
def test_distinct_streams_differ(kw):
    # the package draws one stream per seed, the oracle's hop 0
    base = {"seed": 0, "block_index": 0, "hop_index": 0}
    a = hop_channel_block(2, 2, **base)
    assert np.array_equal(a, sample_channel_block(2, 2, 0, 0))
    base.update(kw)
    b = hop_channel_block(2, 2, **base)
    if base["hop_index"] == 0:
        assert np.array_equal(b, sample_channel_block(2, 2, base["seed"], base["block_index"]))
    assert not np.array_equal(a, b)


def test_entry_moments():
    # real and imaginary parts each carry variance 1/2, total 1 per entry
    draws = np.concatenate(
        [sample_channel_block(3, 3, seed=5, block_index=b) for b in range(6)]
    )
    n = draws.size
    assert abs(np.mean(draws.real)) < 4.0 / np.sqrt(2 * n)
    assert abs(np.var(draws.real) - 0.5) < 0.02
    assert abs(np.var(draws.imag) - 0.5) < 0.02
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02


def test_sample_channel_indexes_into_blocks():
    pool = SamplePool.build(2, BLOCK_SIZE + 10, seed=4)
    for idx in (0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 5):
        s = sample_channel(2, 2, seed=4, draw_index=idx)
        assert np.array_equal(s.entries, pool.draws[idx])
        assert s.draw_index == idx


def test_zero_dimension_draws_are_empty():
    b = sample_channel_block(0, 3, seed=0, block_index=0)
    assert b.shape == (BLOCK_SIZE, 0, 3)


@pytest.mark.parametrize(
    "m,n,seed,idx",
    [(-1, 2, 0, 0), (2, -1, 0, 0), (2, 2, -3, 0), (2, 2, 0, -1)],
)
def test_invalid_arguments_rejected(m, n, seed, idx):
    with pytest.raises(ValueError):
        sample_channel(m, n, seed=seed, draw_index=idx)


def test_pool_build_workers_bitwise():
    a = SamplePool.build(3, 2 * BLOCK_SIZE + 100, seed=9, workers=1)
    b = SamplePool.build(3, 2 * BLOCK_SIZE + 100, seed=9, workers=4)
    assert np.array_equal(a.draws, b.draws)


def test_pool_validation():
    with pytest.raises(ValueError):
        SamplePool.build(0, 10, seed=0)
    with pytest.raises(ValueError):
        SamplePool.build(2, 0, seed=0)


def test_hop_streams_uncorrelated():
    a = hop_channel_block(1, 1, seed=0, block_index=0, hop_index=0).ravel()
    b = hop_channel_block(1, 1, seed=0, block_index=0, hop_index=1).ravel()
    corr = np.abs(np.vdot(a, b)) / len(a)
    assert corr < 0.05
