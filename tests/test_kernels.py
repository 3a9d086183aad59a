import numpy as np

from swarmguide import _kernels
from swarmguide.density import error_vector

from testutil import (
    advance_oracle,
    positive_density,
    random_column_stochastic,
    random_connected_topology,
    random_density,
)


def _random_instance(rng, zero_frac=0.3):
    m = int(rng.integers(2, 45))
    topo = random_connected_topology(rng, m)
    x = random_density(rng, m, zero_frac=zero_frac)
    v = positive_density(rng, m)
    adj = np.ascontiguousarray(topo.adjacency)
    d = float(np.asarray(adj & ~np.eye(m, dtype=bool)).sum(axis=0).max() + 1)
    return error_vector(v, x), x, adj, d


def test_advance_numpy_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 20)))
        mat = random_column_stochastic(rng, topo)
        cum = np.cumsum(mat, axis=0)
        n = int(rng.integers(1, 200))
        bins = rng.integers(0, topo.m, size=n)
        z = rng.random(n)
        got = _kernels.advance_agents(bins, z, cum)
        assert np.array_equal(got, advance_oracle(bins, z, cum))


def test_advance_clamps_to_last_bin():
    # A column summing just below 1 must not push agents out of range.
    cum = np.array([[0.5], [1.0 - 1e-12]])
    bins = np.zeros(4, dtype=np.int64)
    z = np.array([0.0, 0.49, 0.6, 1.0 - 1e-13])
    got = _kernels.advance_agents(bins, z, cum)
    assert got.tolist() == [0, 0, 1, 1]


def test_advance_round_off_stays_on_the_column_support():
    # Column 0 of a 2x2 grid (hop 1) moves only to bins 0, 1 and 2, but its
    # float cumulative total is 1 - 1.1e-16.  The largest draw lies above it
    # and must land on bin 2, the last positive entry, not on bin 3.
    col = np.array([0.20381898702851367, 0.7463113329614236, 0.049869680010062596, 0.0])
    mat = np.eye(4)
    mat[:, 0] = col
    cum = np.cumsum(mat, axis=0)
    assert cum[-1, 0] < 1.0
    bins = np.zeros(3, dtype=np.int64)
    z = np.array([0.5, 0.99, 1.0 - 2.0**-53])
    got = _kernels.advance_agents(bins, z, cum)
    assert got.tolist() == [1, 2, 2]
    assert np.array_equal(got, advance_oracle(bins, z, cum))


def test_synth_zero_density_bins_keep_identity_columns():
    rng = np.random.default_rng(24)
    e, x, adj, d = _random_instance(rng, zero_frac=0.6)
    out = _kernels.synth_recurrent(e, x, adj, d)
    for j in np.nonzero(x == 0.0)[0]:
        col = np.zeros(len(x))
        col[j] = 1.0
        assert np.array_equal(out[:, j], col)
