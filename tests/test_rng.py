import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmguide._rng import (
    MOVE_STREAM,
    PLACEMENT_STREAM,
    REMOVAL_STREAM,
    mix64,
    round_key,
    uniform_stream,
)


def test_draws_are_reproducible():
    ids = np.arange(1000, dtype=np.uint64)
    a = uniform_stream(42, MOVE_STREAM, 7, ids)
    b = uniform_stream(42, MOVE_STREAM, 7, ids)
    assert a.tobytes() == b.tobytes()


def test_draws_depend_only_on_the_id_not_on_position():
    ids = np.arange(512, dtype=np.uint64)
    base = uniform_stream(9, MOVE_STREAM, 3, ids)
    perm = np.random.default_rng(0).permutation(512)
    shuffled = uniform_stream(9, MOVE_STREAM, 3, ids[perm])
    assert shuffled.tobytes() == base[perm].tobytes()
    # A subset of agents sees exactly the draws it saw inside the full swarm.
    subset = ids[100:200]
    assert uniform_stream(9, MOVE_STREAM, 3, subset).tobytes() == base[100:200].tobytes()


def test_streams_steps_and_seeds_are_separated():
    ids = np.arange(256, dtype=np.uint64)
    move = uniform_stream(1, MOVE_STREAM, 0, ids)
    removal = uniform_stream(1, REMOVAL_STREAM, 0, ids)
    placement = uniform_stream(1, PLACEMENT_STREAM, 0, ids)
    next_step = uniform_stream(1, MOVE_STREAM, 1, ids)
    other_seed = uniform_stream(2, MOVE_STREAM, 0, ids)
    for other in (removal, placement, next_step, other_seed):
        assert not np.array_equal(move, other)


def test_unit_interval_and_rough_uniformity():
    ids = np.arange(200_000, dtype=np.uint64)
    k = uniform_stream(123, MOVE_STREAM, 5, ids)
    assert k.dtype == np.int64
    assert k.min() >= 0
    assert k.max() < 2**53
    z = k * 2.0**-53
    # Four-sigma bands for the mean and variance of 200k uniforms.
    assert abs(z.mean() - 0.5) < 4.0 / np.sqrt(12.0 * z.size)
    assert abs(z.var() - 1.0 / 12.0) < 0.002
    counts, _ = np.histogram(z, bins=16, range=(0.0, 1.0))
    expected = z.size / 16
    assert np.abs(counts - expected).max() < 5.0 * np.sqrt(expected)


def test_mix64_avalanche():
    # Flipping one input bit should flip roughly half the output bits.
    rng = np.random.default_rng(17)
    flips = []
    for _ in range(200):
        x = int(rng.integers(0, 2**63))
        bit = int(rng.integers(0, 64))
        diff = mix64(x) ^ mix64(x ^ (1 << bit))
        flips.append(bin(diff).count("1"))
    assert 24.0 < float(np.mean(flips)) < 40.0


def test_round_key_distinguishes_arguments():
    keys = {
        round_key(0, 0, 0),
        round_key(0, 0, 1),
        round_key(0, 1, 0),
        round_key(1, 0, 0),
        round_key(42, 1, 250),
    }
    assert len(keys) == 5
    for k in keys:
        assert 0 <= k < 2**64


def test_scalar_and_vector_hash_agree():
    # The vectorized finalizer must match the scalar one bit for bit.
    ids = np.array([0, 1, 2, 77, 2**40], dtype=np.uint64)
    k = uniform_stream(7, MOVE_STREAM, 13, ids)
    key = round_key(7, MOVE_STREAM, 13)
    for pos, agent in enumerate(ids.tolist()):
        h = mix64(((agent * 0x9E3779B97F4A7C15) & (2**64 - 1)) ^ key)
        assert k[pos] == h >> 11


@pytest.mark.parametrize("seed, stream, step, agent, expected", [
    (0, PLACEMENT_STREAM, 0, 0, 891656350581802),
    (7, MOVE_STREAM, 13, 77, 4751662621866341),
    (42, REMOVAL_STREAM, 250, 2**40, 3061270925937271),
    (2**64 - 1, MOVE_STREAM, 10**6, 12345, 4772727529560778),
    (3, PLACEMENT_STREAM, 0, 4999, 816901784605846),
])
def test_draws_are_the_hash_bits_of_the_float_draws(seed, stream, step, agent, expected):
    # Each draw is the integer k the earlier float draws z held as k 2^-53,
    # recorded as int(z * 2**53) when draws were still floats.
    assert uniform_stream(seed, stream, step, np.array([agent], dtype=np.uint64)).tolist() == [expected]


def test_draws_leave_the_ids_untouched():
    # The hash runs in place, on a copy of the ids.
    for ids in (np.arange(100, dtype=np.uint64), np.arange(100, dtype=np.int64)):
        before = ids.copy()
        uniform_stream(3, MOVE_STREAM, 2, ids)
        assert np.array_equal(ids, before) and ids.dtype == before.dtype


def test_draws_hold_two_agents_sized_arrays_at_most():
    # Besides the caller's ids, the hash buffer, which becomes the result,
    # and the shift scratch: 16 MB for 10^6 ids under tracemalloc.
    ids = np.arange(10**6, dtype=np.uint64)
    tracemalloc.start()
    try:
        uniform_stream(5, MOVE_STREAM, 1, ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ids.nbytes + 65_536


def test_a_block_holds_two_block_sized_arrays_at_most():
    # A block of K rounds: the hash buffer and the shift scratch, K x ids
    # each.  The Weyl base of the ids is formed in the block's first row,
    # not in an array of its own.
    ids = np.arange(10**6, dtype=np.uint64)
    rounds = 3
    tracemalloc.start()
    try:
        uniform_stream(5, MOVE_STREAM, range(1, 1 + rounds), ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * rounds * ids.nbytes + 65_536


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([PLACEMENT_STREAM, MOVE_STREAM, REMOVAL_STREAM]),
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["all", "permuted", "subset", "empty"]),
)
def test_every_row_of_a_block_is_the_one_step_call(seed, stream, first, rounds, pick_seed, pick):
    rng = np.random.default_rng(pick_seed)
    ids = np.arange(int(rng.integers(1, 200)), dtype=np.uint64) + np.uint64(rng.integers(0, 2**40))
    if pick == "permuted":
        ids = rng.permutation(ids)
    elif pick == "subset":
        ids = ids[np.sort(rng.choice(ids.size, size=int(rng.integers(1, ids.size + 1)), replace=False))]
    elif pick == "empty":
        ids = ids[:0]
    block = uniform_stream(seed, stream, range(first, first + rounds), ids)
    assert block.shape == (rounds, ids.size) and block.dtype == np.int64
    for i in range(rounds):
        assert block[i].tobytes() == uniform_stream(seed, stream, first + i, ids).tobytes()
        # And the scalar hash of the round's key, for the first few ids.
        key = round_key(seed, stream, first + i)
        for pos, agent in enumerate(ids[:4].tolist()):
            h = mix64(((agent * 0x9E3779B97F4A7C15) & (2**64 - 1)) ^ key)
            assert block[i, pos] == h >> 11
