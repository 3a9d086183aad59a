import numpy as np
import pytest

from swarmguide import (
    build_grid_topology,
    is_strongly_connected,
    laplacian_of,
    make_topology,
    partition_states,
    stencil_of,
)

from testutil import bfs_distances, brute_force_grid_adjacency, connected_oracle, random_connected_topology


@pytest.mark.parametrize(
    "rows,cols,hop",
    [(1, 1, 1), (2, 2, 1), (3, 4, 1), (4, 4, 2), (5, 3, 3), (2, 7, 10), (20, 20, 1)],
)
def test_grid_adjacency_matches_scalar_oracle(rows, cols, hop):
    topo = build_grid_topology(rows, cols, hop)
    assert topo.m == rows * cols
    assert np.array_equal(topo.adjacency, brute_force_grid_adjacency(rows, cols, hop))


def test_stencil_matches_scalar_grid_oracle():
    rng = np.random.default_rng(31)
    cases = [(1, 1, 1), (1, 5, 2), (4, 4, 1)]
    cases += [tuple(int(v) for v in rng.integers(1, 9, size=2)) + (int(rng.integers(1, 5)),) for _ in range(25)]
    cases += [(r, c, r + c + int(rng.integers(0, 3))) for r, c in rng.integers(1, 7, size=(5, 2)).tolist()]
    for rows, cols, hop in cases:
        stencil = stencil_of(build_grid_topology(rows, cols, hop))
        m = rows * cols
        adj = np.zeros((m, m), dtype=bool)
        for j in range(m):
            dest = stencil.rows[j][stencil.real[j]]
            assert np.all(np.diff(dest) > 0)
            assert np.all(stencil.rows[j][~stencil.real[j]] == j)
            adj[j, dest] = True
        assert np.array_equal(adj, brute_force_grid_adjacency(rows, cols, hop))
        width = stencil.rows.shape[1]
        assert width == adj.sum(axis=1).max() <= min(m, 2 * hop * (hop + 1) + 1)
        assert not stencil.rows.flags.writeable and not stencil.real.flags.writeable


def test_restricted_stencil_is_the_induced_subgraph_slot_for_slot():
    rng = np.random.default_rng(32)
    for _ in range(100):
        rows, cols, hop = (int(v) for v in rng.integers(1, [8, 8, 4]))
        full = stencil_of(build_grid_topology(rows, cols, hop))
        bins = np.nonzero(rng.random(full.m) < rng.uniform(0.2, 1.0))[0]
        if bins.size == 0:
            continue
        sub = full.restrict(bins)
        induced = brute_force_grid_adjacency(rows, cols, hop)[np.ix_(bins, bins)]
        assert sub.rows.shape == (bins.size, full.rows.shape[1])
        for k in range(bins.size):
            assert sub.rows[k][sub.real[k]].tolist() == np.nonzero(induced[k])[0].tolist()
            assert np.all(sub.rows[k][~sub.real[k]] == k)
            # Slot s of row k is slot s of row bins[k], renumbered.
            assert np.array_equal(bins[sub.rows[k][sub.real[k]]], full.rows[bins[k]][sub.real[k]])
            assert np.flatnonzero(sub.own[k]).size == 1 and sub.rows[k][sub.own[k]][0] == k
        assert sub.max_degree == induced.sum(axis=1).max() - 1


def test_sparsify_inverts_densify():
    rng = np.random.default_rng(33)
    stencil = stencil_of(build_grid_topology(5, 6, 2))
    values = rng.random(stencil.rows.shape) * stencil.real
    dense = stencil.densify(values)
    assert np.array_equal(stencil.sparsify(dense), values)
    assert np.array_equal(stencil.densify(stencil.sparsify(dense)), dense)


def test_grid_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        build_grid_topology(0, 3, 1)
    with pytest.raises(ValueError):
        build_grid_topology(3, 0, 1)
    with pytest.raises(ValueError):
        build_grid_topology(3, 3, 0)


def test_make_topology_validation():
    with pytest.raises(ValueError, match="square"):
        make_topology(np.ones((2, 3), dtype=bool))
    asym = np.eye(3, dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        make_topology(asym)
    nodiag = np.zeros((2, 2), dtype=bool)
    nodiag[0, 1] = nodiag[1, 0] = True
    with pytest.raises(ValueError, match="diagonal"):
        make_topology(nodiag)


def test_topology_is_frozen():
    topo = build_grid_topology(2, 2, 1)
    with pytest.raises(ValueError):
        topo.adjacency[0, 1] = False


def test_connectivity_full_grid_and_subsets():
    topo = build_grid_topology(3, 3, 1)
    assert is_strongly_connected(topo)
    assert is_strongly_connected(topo, [4])
    # Corners only touch through the missing middle bins.
    assert not is_strongly_connected(topo, [0, 8])
    assert is_strongly_connected(topo, [0, 1, 2, 5, 8])


def test_connectivity_rejects_bad_subsets():
    topo = build_grid_topology(2, 2, 1)
    with pytest.raises(ValueError, match="nonempty"):
        is_strongly_connected(topo, [])
    with pytest.raises(ValueError, match="duplicate"):
        is_strongly_connected(topo, [1, 1])
    with pytest.raises(ValueError, match="lie in"):
        is_strongly_connected(topo, [4])


def test_connectivity_on_random_tree_backed_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(2, 40))
        topo = random_connected_topology(rng, m)
        assert is_strongly_connected(topo)


def test_connectivity_matches_one_bin_at_a_time_search():
    # Random grids and random subsets of their bins, including single bins,
    # scattered sparse subsets and subsets listed out of order.
    rng = np.random.default_rng(12)
    outcomes = set()
    for _ in range(300):
        rows, cols, hop = (int(v) for v in rng.integers(1, [9, 9, 4]))
        topo = build_grid_topology(rows, cols, hop)
        keep = rng.random(topo.m) < rng.uniform(0.1, 1.0)
        keep[int(rng.integers(0, topo.m))] = True
        subset = rng.permutation(np.nonzero(keep)[0])
        got = is_strongly_connected(topo, subset)
        assert got == connected_oracle(topo.adjacency, subset)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_disconnected_blocks_detected():
    adj = np.eye(4, dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    topo = make_topology(adj)
    assert not is_strongly_connected(topo)
    assert is_strongly_connected(topo, [0, 1])
    assert is_strongly_connected(topo, [2, 3])


def test_partition_all_recurrent_when_target_positive_everywhere():
    topo = build_grid_topology(3, 3, 1)
    v = np.full(9, 1.0 / 9.0)
    part = partition_states(topo, v)
    assert part.m_t == 0
    assert part.m_r == 9
    assert np.array_equal(part.recurrent, np.arange(9))
    assert np.array_equal(part.ordering, np.arange(9))
    assert part.layers == ()


def test_partition_layers_match_bfs_distance_oracle():
    # Mass only in the left column of a 4x5 grid; the rest drains toward it.
    topo = build_grid_topology(4, 5, 1)
    v = np.zeros(20)
    v[[0, 5, 10, 15]] = 0.25
    part = partition_states(topo, v)
    dist = bfs_distances(topo.adjacency, part.recurrent)
    assert np.array_equal(part.recurrent, [0, 5, 10, 15])
    for k, layer in enumerate(part.layers):
        assert np.array_equal(np.sort(dist[layer]), np.full(layer.size, k + 1))
    # Every transient bin appears in exactly one layer.
    gathered = np.sort(np.concatenate(part.layers))
    assert np.array_equal(gathered, np.setdiff1d(np.arange(20), part.recurrent))


def test_partition_ordering_is_farthest_first_permutation():
    topo = build_grid_topology(4, 5, 1)
    v = np.zeros(20)
    v[0] = 1.0
    part = partition_states(topo, v)
    assert np.array_equal(np.sort(part.ordering), np.arange(20))
    # Ordering walks the layers from farthest to nearest, recurrent last.
    expected = np.concatenate([*reversed(part.layers), part.recurrent])
    assert np.array_equal(part.ordering, expected)
    assert part.m_t == 19
    assert len(part.layers) == 7  # max Manhattan distance from corner bin


def test_partition_rejects_disconnected_support():
    topo = build_grid_topology(1, 5, 1)
    v = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
    with pytest.raises(ValueError, match="connected"):
        partition_states(topo, v)


def test_partition_rejects_unreachable_bins():
    adj = np.eye(4, dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    topo = make_topology(adj)
    v = np.array([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="cannot reach"):
        partition_states(topo, v)


def test_partition_rejects_dimension_mismatch():
    topo = build_grid_topology(2, 2, 1)
    with pytest.raises(ValueError, match="bins"):
        partition_states(topo, np.array([0.5, 0.5]))


def test_laplacian_of_full_grid():
    topo = build_grid_topology(3, 3, 1)
    view = laplacian_of(topo)
    # Scalar-counted degrees: corners 2, edges 3, center 4.
    assert view.degree.tolist() == [2, 3, 2, 3, 4, 3, 2, 3, 2]
    assert view.max_degree == 4
    lap = view.laplacian
    assert np.array_equal(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.all(np.diag(lap) == view.degree)
    eigs = np.linalg.eigvalsh(lap)
    assert eigs[0] >= -1e-12


def test_laplacian_of_subset():
    topo = build_grid_topology(1, 4, 1)
    view = laplacian_of(topo, [1, 2, 3])
    assert view.degree.tolist() == [1, 2, 1]
    assert view.max_degree == 2
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(view.laplacian, expected)


def test_laplacian_requires_connected_subset():
    topo = build_grid_topology(1, 5, 1)
    with pytest.raises(ValueError, match="connected"):
        laplacian_of(topo, [0, 4])


def test_laplacian_view_is_frozen():
    view = laplacian_of(build_grid_topology(2, 2, 1))
    with pytest.raises(ValueError):
        view.laplacian[0, 0] = 99.0
