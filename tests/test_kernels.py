import tracemalloc

import numpy as np

from swarmguide import _kernels, build_grid_topology, stencil_of
from swarmguide.density import error_vector

from testutil import (
    advance_by_bin_oracle,
    advance_oracle,
    dense_layout,
    positive_density,
    random_column_stochastic,
    random_connected_topology,
    random_density,
)


def _random_instance(rng, zero_frac=0.3):
    m = int(rng.integers(2, 45))
    stencil = stencil_of(random_connected_topology(rng, m))
    x = random_density(rng, m, zero_frac=zero_frac)
    v = positive_density(rng, m)
    return error_vector(v, x), x, stencil, float(stencil.max_degree + 1)


def test_advance_numpy_matches_scalar_oracle():
    # A dense matrix is the stencil layout with every bin listing all bins.
    rng = np.random.default_rng(21)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 20)))
        mat = random_column_stochastic(rng, topo)
        cum = np.cumsum(mat, axis=0)
        n = int(rng.integers(1, 200))
        bins = rng.integers(0, topo.m, size=n)
        z = rng.random(n)
        got = _kernels.advance_agents(bins, z, *dense_layout(mat))
        assert np.array_equal(got, advance_oracle(bins, z, cum))


def _random_stencil_values(rng, stencil, zero_prob=0.3):
    # Column-stochastic over the real slots, some of them exactly zero (but
    # never a whole column), zero in the padded slots.
    raw = rng.random(stencil.rows.shape) * (rng.random(stencil.rows.shape) >= zero_prob)
    raw[np.arange(stencil.m), stencil.real.sum(axis=1) - 1] += 1e-3
    raw *= stencil.real
    return raw / raw.sum(axis=1, keepdims=True)


def test_stencil_advance_matches_oracle_on_densified_columns():
    rng = np.random.default_rng(25)
    for _ in range(40):
        stencil = stencil_of(random_connected_topology(rng, int(rng.integers(1, 30))))
        values = _random_stencil_values(rng, stencil)
        cum = np.cumsum(stencil.densify(values), axis=0)
        n = int(rng.integers(1, 300))
        bins = rng.integers(0, stencil.m, size=n)
        # Include the extreme draws: 0 and the largest double below 1.
        z = np.concatenate([rng.random(n - min(n, 2)), [0.0, 1.0 - 2.0**-53][: min(n, 2)]])
        got = _kernels.advance_agents(bins, z, values, stencil.rows)
        assert np.array_equal(got, advance_oracle(bins, z, cum))
        assert np.array_equal(got, advance_by_bin_oracle(bins, z, values, stencil.rows))
        assert stencil.real[bins, np.argmax(stencil.rows[bins] == got[:, np.newaxis], axis=1)].all()


def test_advance_agents_builds_no_agents_by_slots_temporary():
    # 10**6 agents on a 30x30 hop-3 stencil (w = 25), nearly all of them
    # moving: one agents x w float gather alone would take 200 MB.
    rng = np.random.default_rng(26)
    stencil = stencil_of(build_grid_topology(30, 30, 3))
    assert stencil.rows.shape == (900, 25)
    values = _random_stencil_values(rng, stencil, zero_prob=0.0)
    bins = rng.integers(0, stencil.m, size=10**6)
    z = rng.random(10**6)
    tracemalloc.start()
    try:
        _kernels.advance_agents(bins, z, values, stencil.rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def test_advance_clamps_to_last_bin():
    # A column summing just below 1 must not push agents out of range.
    values = np.array([[0.5, 0.5 - 1e-12]])
    rows = np.array([[0, 1]])
    bins = np.zeros(4, dtype=np.int64)
    z = np.array([0.0, 0.49, 0.6, 1.0 - 1e-13])
    got = _kernels.advance_agents(bins, z, values, rows)
    assert got.tolist() == [0, 0, 1, 1]


def test_advance_round_off_stays_on_the_column_support():
    # Column 0 of a 2x2 grid (hop 1) moves only to bins 0, 1 and 2, but its
    # float cumulative total is 1 - 1.1e-16.  The largest draw lies above it
    # and must land on bin 2, the last positive entry, not on bin 3, in the
    # dense layout and in the stencil one, whose column 0 has a padded slot.
    col = np.array([0.20381898702851367, 0.7463113329614236, 0.049869680010062596, 0.0])
    mat = np.eye(4)
    mat[:, 0] = col
    cum = np.cumsum(mat, axis=0)
    assert cum[-1, 0] < 1.0
    bins = np.zeros(3, dtype=np.int64)
    z = np.array([0.5, 0.99, 1.0 - 2.0**-53])
    got = _kernels.advance_agents(bins, z, *dense_layout(mat))
    assert got.tolist() == [1, 2, 2]
    assert np.array_equal(got, advance_oracle(bins, z, cum))

    # The same column on a 2x3 grid, where corner bin 0 has one padded slot.
    stencil = stencil_of(build_grid_topology(2, 3, 1))
    assert stencil.rows[0].tolist() == [0, 1, 3, 0] and stencil.real[0].tolist() == [True, True, True, False]
    values = np.zeros(stencil.rows.shape)
    values[np.arange(6), np.argmax(stencil.rows == np.arange(6)[:, np.newaxis], axis=1)] = 1.0
    values[0] = [*col[:3], 0.0]
    assert np.cumsum(values[0])[-1] == cum[-1, 0]
    got = _kernels.advance_agents(bins, z, values, stencil.rows)
    assert got.tolist() == [1, 3, 3]
    assert np.array_equal(got, advance_oracle(bins, z, np.cumsum(stencil.densify(values), axis=0)))


def test_synth_zero_density_bins_keep_identity_columns():
    rng = np.random.default_rng(24)
    e, x, stencil, d = _random_instance(rng, zero_frac=0.6)
    out = stencil.densify(_kernels.synth_recurrent(e, x, stencil.rows, stencil.own, d))
    for j in np.nonzero(x == 0.0)[0]:
        col = np.zeros(len(x))
        col[j] = 1.0
        assert np.array_equal(out[:, j], col)
