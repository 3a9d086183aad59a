import numpy as np
import pytest

from swarmguide import (
    build_grid_topology,
    contraction_certificate,
    laplacian_of,
    make_topology,
    partition_states,
)
from swarmguide.synthesis import _block_order

from testutil import (
    adjacency_of,
    bfs_distances,
    brute_force_grid_adjacency,
    connected_oracle,
    random_connected_topology,
    support_connected,
    unmarked_edge_path,
)


@pytest.mark.parametrize(
    "rows,cols,hop",
    [(1, 1, 1), (2, 2, 1), (3, 4, 1), (4, 4, 2), (5, 3, 3), (2, 7, 10), (20, 20, 1)],
)
def test_grid_adjacency_matches_scalar_oracle(rows, cols, hop):
    topo = build_grid_topology(rows, cols, hop)
    assert topo.m == rows * cols
    assert np.array_equal(adjacency_of(topo), brute_force_grid_adjacency(rows, cols, hop))


def test_grid_topology_equals_the_converted_scalar_adjacency():
    # Every grid up to 8x8, with hops up to 11 >= rows + cols, so that some
    # grids are complete graphs: the stencil built from Manhattan offsets
    # equals the conversion of the scalar adjacency slot for slot.
    for rows in range(1, 9):
        for cols in range(1, 9):
            for hop in range(1, 12):
                topo = build_grid_topology(rows, cols, hop)
                oracle = make_topology(brute_force_grid_adjacency(rows, cols, hop))
                assert np.array_equal(topo.rows, oracle.rows), (rows, cols, hop)
                assert np.array_equal(topo.real, oracle.real), (rows, cols, hop)


def test_stencil_matches_scalar_grid_oracle():
    rng = np.random.default_rng(31)
    cases = [(1, 1, 1), (1, 5, 2), (4, 4, 1)]
    cases += [tuple(int(v) for v in rng.integers(1, 9, size=2)) + (int(rng.integers(1, 5)),) for _ in range(25)]
    cases += [(r, c, r + c + int(rng.integers(0, 3))) for r, c in rng.integers(1, 7, size=(5, 2)).tolist()]
    for rows, cols, hop in cases:
        stencil = build_grid_topology(rows, cols, hop)
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
        full = build_grid_topology(rows, cols, hop)
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
        # So the flat index of the own slots holds one per row, in row order.
        assert np.array_equal(sub.own_slots, np.arange(bins.size) * sub.rows.shape[1] + sub.stay)
        assert sub.max_degree == induced.sum(axis=1).max() - 1


def test_sparsify_inverts_densify():
    rng = np.random.default_rng(33)
    stencil = build_grid_topology(5, 6, 2)
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


def test_make_topology_lists_each_bins_neighbours_ascending():
    rng = np.random.default_rng(34)
    for _ in range(50):
        adj = np.eye(int(rng.integers(1, 30)), dtype=bool)
        adj |= np.triu(rng.random(adj.shape) < rng.uniform(0.0, 0.6), 1)
        adj |= adj.T
        topo = make_topology(adj)
        assert topo.rows.shape == (adj.shape[0], adj.sum(axis=1).max())
        for j in range(topo.m):
            assert topo.rows[j][topo.real[j]].tolist() == np.nonzero(adj[j])[0].tolist()
            assert np.all(topo.rows[j][~topo.real[j]] == j)
            assert topo.real[j].tolist() == sorted(topo.real[j].tolist(), reverse=True)


def test_topology_is_frozen():
    for topo in (build_grid_topology(2, 2, 1), make_topology(np.ones((3, 3), dtype=bool))):
        with pytest.raises(ValueError):
            topo.rows[0, 1] = 0
        with pytest.raises(ValueError):
            topo.real[0, 1] = False
        with pytest.raises(AttributeError):
            topo.rows = topo.rows.copy()


def test_connectivity_full_grid_and_subsets():
    topo = build_grid_topology(3, 3, 1)
    assert support_connected(topo, np.arange(9))
    assert support_connected(topo, [4])
    # Corners only touch through the missing middle bins.
    assert not support_connected(topo, [0, 8])
    assert support_connected(topo, [0, 1, 2, 5, 8])


def test_connectivity_on_random_tree_backed_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(2, 40))
        topo = random_connected_topology(rng, m)
        assert support_connected(topo, np.arange(m))


def test_connectivity_matches_one_bin_at_a_time_search():
    # Random grids and random supports of a target, including single bins
    # and scattered sparse sets: partition_states refuses exactly the
    # supports the queue-based search finds disconnected.
    rng = np.random.default_rng(12)
    outcomes = set()
    for _ in range(300):
        rows, cols, hop = (int(v) for v in rng.integers(1, [9, 9, 4]))
        topo = build_grid_topology(rows, cols, hop)
        keep = rng.random(topo.m) < rng.uniform(0.1, 1.0)
        keep[int(rng.integers(0, topo.m))] = True
        subset = np.nonzero(keep)[0]
        got = support_connected(topo, subset)
        assert got == connected_oracle(brute_force_grid_adjacency(rows, cols, hop), subset)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_disconnected_blocks_detected():
    adj = np.eye(4, dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    topo = make_topology(adj)
    assert not support_connected(topo, np.arange(4))
    assert not support_connected(topo, [1, 2])
    # Either block is a connected support, with the other block stranded.
    for support, stranded in (([0, 1], [2, 3]), ([2, 3], [0, 1])):
        with pytest.raises(ValueError) as err:
            partition_states(topo, np.isin(np.arange(4), support) / 2.0)
        assert str(err.value) == f"bins {stranded} cannot reach any bin with positive desired density"


def test_search_skips_unmarked_slots_that_list_other_bins():
    # Edge 0-1 is unmarked both ways, but its slots still list the other bin.
    topo = unmarked_edge_path()
    with pytest.raises(ValueError) as err:
        partition_states(topo, np.array([0.0, 0.5, 0.5]))
    assert str(err.value) == "bins [0] cannot reach any bin with positive desired density"
    assert not support_connected(topo, [0, 1])
    assert not contraction_certificate(topo, 2.0).connected


def test_partition_all_recurrent_when_target_positive_everywhere():
    topo = build_grid_topology(3, 3, 1)
    v = np.full(9, 1.0 / 9.0)
    part = partition_states(topo, v)
    assert not part.distance.any()
    assert part.m_r == 9
    assert np.array_equal(part.recurrent, np.arange(9))
    assert np.array_equal(_block_order(part), np.arange(9))


def test_partition_layers_match_bfs_distance_oracle():
    # Mass only in the left column of a 4x5 grid; the rest drains toward it.
    topo = build_grid_topology(4, 5, 1)
    v = np.zeros(20)
    v[[0, 5, 10, 15]] = 0.25
    part = partition_states(topo, v)
    dist = bfs_distances(brute_force_grid_adjacency(4, 5, 1), part.recurrent)
    assert np.array_equal(part.recurrent, [0, 5, 10, 15])
    # Every bin holds its own distance, 0 on the support, read-only.
    assert part.distance.dtype == np.int64
    assert np.array_equal(part.distance, dist)
    assert not part.distance.flags.writeable and not part.recurrent.flags.writeable


def test_partition_ordering_is_farthest_first_permutation():
    topo = build_grid_topology(4, 5, 1)
    v = np.zeros(20)
    v[0] = 1.0
    part = partition_states(topo, v)
    order = _block_order(part)
    assert np.array_equal(np.sort(order), np.arange(20))
    # The block order walks the layers from farthest to nearest, each
    # ascending, recurrent last.
    expected = np.concatenate([np.nonzero(part.distance == k)[0] for k in range(7, -1, -1)])
    assert np.array_equal(order, expected)
    assert np.array_equal(order[-part.m_r:], part.recurrent)
    assert topo.m - part.m_r == 19
    assert part.distance.max() == 7  # max Manhattan distance from corner bin


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


def test_partition_rejects_an_all_zero_target_as_no_density():
    # check_density's sum check is what refuses an empty support.
    with pytest.raises(ValueError, match="desired density sums to 0.0"):
        partition_states(build_grid_topology(2, 2, 1), np.zeros(4))


def test_laplacian_of_full_grid():
    topo = build_grid_topology(3, 3, 1)
    lap = laplacian_of(topo)
    # Scalar-counted degrees: corners 2, edges 3, center 4.
    assert np.diag(lap).tolist() == [2, 3, 2, 3, 4, 3, 2, 3, 2]
    assert topo.max_degree == 4
    assert np.array_equal(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0)
    eigs = np.linalg.eigvalsh(lap)
    assert eigs[0] >= -1e-12


def test_laplacian_of_subset():
    sub = build_grid_topology(1, 4, 1).restrict([1, 2, 3])
    assert sub.max_degree == 2
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian_of(sub), expected)


def test_laplacian_view_is_frozen():
    lap = laplacian_of(build_grid_topology(2, 2, 1))
    with pytest.raises(ValueError):
        lap[0, 0] = 99.0
