import numpy as np
import pytest

from swarmguide import (
    SynthesisParams,
    assemble,
    build_grid_topology,
    choose_d_chsn,
    dsmc_column,
    dsmc_recurrent,
    laplacian_of,
    make_topology,
    metropolis_hastings,
    partition_states,
    stencil_of,
    transient_matrix,
    validate_markov,
)

from testutil import (
    bfs_distances,
    dense_dsmc,
    flow_oracle,
    positive_density,
    random_connected_topology,
    random_density,
)

# Shared 4-bin ring: 2x2 grid, hop 1, edges (0-1, 0-2, 1-3, 2-3).
RING = build_grid_topology(2, 2, 1)
RING_V = np.array([0.05, 0.05, 0.3, 0.6])
RING_X0 = np.array([0.65, 0.35, 0.0, 0.0])
RING_PARAMS = SynthesisParams(d_chsn=3.0)


def test_choose_d_chsn_is_max_degree_plus_one():
    assert choose_d_chsn(laplacian_of(RING)).d_chsn == 3.0
    assert choose_d_chsn(laplacian_of(build_grid_topology(3, 3, 1))).d_chsn == 5.0
    assert choose_d_chsn(laplacian_of(build_grid_topology(1, 2, 1))).d_chsn == 2.0
    # The same divisor from a stencil, and from a stencil restricted to a subset.
    assert choose_d_chsn(stencil_of(build_grid_topology(3, 3, 1))).d_chsn == 5.0
    assert choose_d_chsn(stencil_of(build_grid_topology(3, 3, 1)).restrict([0, 1, 2, 5])).d_chsn == 3.0


def test_ring_first_step_matrix_hand_values():
    # Hand-built from e = v - x0 = (-0.6, -0.3, 0.3, 0.6), d = 3:
    # column 0 moves 0.1 to bin 1 and 0.3 to bin 2 out of density 0.65,
    # column 1 moves 0.3 to bin 3 out of density 0.35, empty columns stay put.
    mat = dense_dsmc(RING_X0, RING_V, RING, RING_PARAMS)
    expected = np.array(
        [
            [5 / 13, 0.0, 0.0, 0.0],
            [2 / 13, 1 / 7, 0.0, 0.0],
            [6 / 13, 0.0, 1.0, 0.0],
            [0.0, 6 / 7, 0.0, 1.0],
        ]
    )
    assert np.allclose(mat, expected, atol=1e-15, rtol=0.0)
    assert np.allclose(mat @ RING_X0, [0.25, 0.15, 0.3, 0.3], atol=1e-15, rtol=0.0)


def test_ring_two_step_density_series():
    x = RING_X0
    for expected in ([0.25, 0.15, 0.3, 0.3], [0.15, 0.05, 0.8 / 3, 1.6 / 3]):
        mat = dense_dsmc(x, RING_V, RING, RING_PARAMS)
        x = mat @ x
        assert np.allclose(x, expected, atol=1e-12, rtol=0.0)


def test_fixed_point_gives_exact_identity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 40)))
        v = positive_density(rng, topo.m)
        params = choose_d_chsn(laplacian_of(topo))
        mat = dense_dsmc(v, v, topo, params)
        assert np.array_equal(mat, np.eye(topo.m))


def test_synthesis_agrees_with_scalar_flow_oracle():
    # The matrix-vector product must equal an independent simulation of the
    # per-edge flows, including columns that saturate their density.
    rng = np.random.default_rng(32)
    for _ in range(100):
        topo = random_connected_topology(rng, int(rng.integers(2, 40)))
        v = positive_density(rng, topo.m)
        x = random_density(rng, topo.m, zero_frac=0.3)
        params = choose_d_chsn(laplacian_of(topo))
        mat = dense_dsmc(x, v, topo, params)
        e = v - x
        expected = flow_oracle(e, x, topo.adjacency, params.d_chsn)
        assert np.abs(mat @ x - expected).max() < 1e-12


def test_synthesized_matrices_are_valid_markov():
    rng = np.random.default_rng(33)
    for _ in range(50):
        topo = random_connected_topology(rng, int(rng.integers(2, 40)))
        v = positive_density(rng, topo.m)
        x = random_density(rng, topo.m, zero_frac=0.2)
        params = choose_d_chsn(laplacian_of(topo))
        mat = dense_dsmc(x, v, topo, params)
        report = validate_markov(mat, topo)
        assert report.ok()


def test_saturated_column_spends_exactly_its_density():
    # Tiny density next to a huge deficit: requested outflow exceeds what
    # the bin holds, so the diagonal zeroes out and the rescaled column
    # sends everything to the needy neighbor.
    topo = build_grid_topology(1, 3, 1)
    v = np.array([0.899, 0.1, 0.001])
    x = np.array([0.001, 0.0005, 0.9985])
    params = choose_d_chsn(laplacian_of(topo))
    mat = dense_dsmc(x, v, topo, params)
    assert mat[0, 1] == 1.0
    assert mat[1, 1] == 0.0
    assert mat[2, 1] == 0.0
    after = mat @ x
    inflow = ((v[1] - x[1]) - (v[2] - x[2])) / 3.0
    assert after[1] == pytest.approx(inflow, abs=1e-15)
    assert validate_markov(mat, topo).ok()


def test_dsmc_does_not_mutate_inputs():
    x = RING_X0.copy()
    v = RING_V.copy()
    stencil = stencil_of(RING)
    rows, real = stencil.rows.copy(), stencil.real.copy()
    dsmc_recurrent(x, v, stencil, RING_PARAMS)
    assert np.array_equal(x, RING_X0)
    assert np.array_equal(v, RING_V)
    assert np.array_equal(stencil.rows, rows) and np.array_equal(stencil.real, real)


def test_local_column_equals_global_column_exactly():
    rng = np.random.default_rng(34)
    for _ in range(50):
        topo = random_connected_topology(rng, int(rng.integers(2, 40)))
        m = topo.m
        v = positive_density(rng, m)
        x = random_density(rng, m, zero_frac=0.3)
        params = choose_d_chsn(laplacian_of(topo))
        full = dense_dsmc(x, v, topo, params)
        for j in range(m):
            neighbors = np.nonzero(topo.adjacency[:, j] & (np.arange(m) != j))[0]
            # Feed the neighbors in a scrambled order: result may not depend on it.
            perm = rng.permutation(neighbors.size)
            nbr = neighbors[perm]
            x_local = np.concatenate([[x[j]], x[nbr]])
            v_local = np.concatenate([[v[j]], v[nbr]])
            col = dsmc_column(j, x_local, v_local, nbr, params, m)
            assert col.tobytes() == full[:, j].tobytes()


def test_local_column_rejects_malformed_neighborhoods():
    params = SynthesisParams(d_chsn=3.0)
    with pytest.raises(ValueError, match="plus 2 neighbors"):
        dsmc_column(0, [0.5, 0.5], [0.5, 0.5], [1, 2], params, 4)
    with pytest.raises(ValueError, match="own neighbor"):
        dsmc_column(0, [0.5, 0.25, 0.25], [0.4, 0.3, 0.3], [0, 1], params, 4)
    with pytest.raises(ValueError, match="duplicate"):
        dsmc_column(0, [0.5, 0.25, 0.25], [0.4, 0.3, 0.3], [1, 1], params, 4)
    with pytest.raises(ValueError, match="out of range"):
        dsmc_column(5, [0.5, 0.25, 0.25], [0.4, 0.3, 0.3], [1, 2], params, 4)
    with pytest.raises(ValueError, match="lie in"):
        dsmc_column(0, [0.5, 0.25, 0.25], [0.4, 0.3, 0.3], [1, 9], params, 4)
    with pytest.raises(ValueError, match="exceed the degree"):
        dsmc_column(0, [0.25] * 4, [0.25] * 4, [1, 2, 3], SynthesisParams(d_chsn=3.0), 4)


def _e_partition():
    topo = build_grid_topology(4, 5, 1)
    v = np.zeros(20)
    v[[6, 7, 8]] = 1.0 / 3.0
    return topo, partition_states(topo, v)


def test_transient_columns_split_uniformly_one_layer_closer():
    topo, part = _e_partition()
    tt, rt = transient_matrix(part, topo)
    assert tt.shape == (17, 17) and rt.shape == (3, 17)
    dist = bfs_distances(topo.adjacency, part.recurrent)
    pos = {int(b): k for k, b in enumerate(part.ordering)}
    for b in range(topo.m):
        if dist[b] == 0:
            continue
        col = pos[b]
        stacked = np.concatenate([tt[:, col], rt[:, col]])
        targets = np.nonzero(stacked)[0]
        # Mass goes somewhere, in equal shares, summing to one.
        assert targets.size > 0
        assert np.all(stacked[targets] == 1.0 / targets.size)
        assert abs(stacked.sum() - 1.0) < 1e-12
        # Every target really is a neighbor exactly one layer closer.
        ordering = part.ordering
        for t in targets:
            orig = int(ordering[t])
            assert topo.adjacency[b, orig]
            assert dist[orig] == dist[b] - 1
        # And every such neighbor is a target.
        wanted = [
            int(u)
            for u in np.nonzero(topo.adjacency[b])[0]
            if dist[u] == dist[b] - 1
        ]
        assert sorted(int(ordering[t]) for t in targets) == sorted(wanted)


def test_transient_block_is_strictly_lower_triangular_and_nilpotent():
    topo, part = _e_partition()
    tt, _ = transient_matrix(part, topo)
    assert np.array_equal(np.triu(tt), np.zeros_like(tt))
    power = np.linalg.matrix_power(tt, part.m_t)
    assert np.array_equal(power, np.zeros_like(tt))


def test_transient_matrix_empty_when_all_recurrent():
    topo = build_grid_topology(2, 2, 1)
    part = partition_states(topo, np.full(4, 0.25))
    tt, rt = transient_matrix(part, topo)
    assert tt.shape == (0, 0) and rt.shape == (4, 0)


def test_assemble_scatters_blocks_to_original_numbering():
    topo = build_grid_topology(1, 3, 1)
    v = np.array([0.0, 0.0, 1.0])
    part = partition_states(topo, v)
    tt, rt = transient_matrix(part, topo)
    block = np.array([[0.5]])
    full = assemble(tt, rt, block, part)
    # ordering is (farthest=0, nearest=1, recurrent=2)
    expected = np.zeros((3, 3))
    expected[1, 0] = 1.0  # bin 0 hands everything one step down the path
    expected[2, 1] = 1.0  # bin 1 hands everything to the recurrent bin
    expected[2, 2] = 0.5
    assert np.array_equal(full, expected)


def test_assemble_rejects_wrong_shapes():
    topo = build_grid_topology(1, 3, 1)
    part = partition_states(topo, np.array([0.0, 0.0, 1.0]))
    tt, rt = transient_matrix(part, topo)
    with pytest.raises(ValueError, match="recurrent block"):
        assemble(tt, rt, np.zeros((2, 2)), part)
    with pytest.raises(ValueError, match="transient block"):
        assemble(np.zeros((3, 3)), rt, np.zeros((1, 1)), part)


def test_assembled_matrix_never_returns_to_transient_bins():
    topo, part = _e_partition()
    tt, rt = transient_matrix(part, topo)
    block = np.eye(part.m_r)
    full = assemble(tt, rt, block, part)
    transient = np.setdiff1d(np.arange(topo.m), part.recurrent)
    # Recurrent columns put no mass on transient bins, and no transient bin
    # keeps any mass.
    assert np.array_equal(full[np.ix_(transient, part.recurrent)], np.zeros((17, 3)))
    assert np.array_equal(np.diag(full)[transient], np.zeros(17))
    assert validate_markov(full, topo).ok()


def test_metropolis_uniform_target_on_ring():
    # Uniform target, equal degrees: every proposal is accepted.
    mat = metropolis_hastings(np.full(4, 0.25), RING)
    expected = np.array(
        [
            [0.0, 0.5, 0.5, 0.0],
            [0.5, 0.0, 0.0, 0.5],
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.5, 0.5, 0.0],
        ]
    )
    assert np.array_equal(mat, expected)


def test_metropolis_ring_hand_column():
    # Column 2 of the skewed ring target: propose half to each neighbor,
    # accept 0.05/0.3 toward bin 0 and fully toward bin 3.
    mat = metropolis_hastings(RING_V, RING)
    assert mat[0, 2] == pytest.approx(1 / 12, abs=1e-15)
    assert mat[3, 2] == pytest.approx(1 / 2, abs=1e-15)
    assert mat[2, 2] == pytest.approx(5 / 12, abs=1e-15)
    assert mat[1, 2] == 0.0


def test_metropolis_keeps_target_stationary():
    rng = np.random.default_rng(35)
    for _ in range(50):
        topo = random_connected_topology(rng, int(rng.integers(2, 40)))
        v = positive_density(rng, topo.m)
        mat = metropolis_hastings(v, topo)
        assert np.abs(mat @ v - v).max() < 1e-12
        assert validate_markov(mat, topo).ok()


def test_metropolis_detailed_balance():
    rng = np.random.default_rng(36)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 30)))
        v = positive_density(rng, topo.m)
        mat = metropolis_hastings(v, topo)
        flux = mat * v[np.newaxis, :]
        assert np.abs(flux - flux.T).max() < 1e-15


def test_metropolis_with_transient_bins_still_fixes_target():
    topo = build_grid_topology(4, 5, 1)
    v = np.zeros(20)
    v[[6, 7, 8]] = np.array([0.2, 0.3, 0.5])
    part = partition_states(topo, v)
    mat = metropolis_hastings(v, topo, part)
    assert np.abs(mat @ v - v).max() < 1e-12
    assert validate_markov(mat, topo).ok()


def test_metropolis_single_recurrent_bin():
    topo = build_grid_topology(1, 2, 1)
    mat = metropolis_hastings(np.array([1.0, 0.0]), topo)
    assert np.array_equal(mat, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_validate_markov_reports_each_defect():
    topo = build_grid_topology(1, 3, 1)
    good = np.array([[0.5, 0.25, 0.0], [0.5, 0.5, 0.5], [0.0, 0.25, 0.5]])
    report = validate_markov(good, topo)
    assert report.ok()
    assert report.max_column_sum_deviation == 0.0
    assert report.min_entry == 0.0
    assert report.mask_violations == ()

    bad_sum = good.copy()
    bad_sum[0, 0] = 0.6
    report = validate_markov(bad_sum, topo)
    assert not report.ok()
    assert report.max_column_sum_deviation == pytest.approx(0.1, abs=1e-12)

    negative = good.copy()
    negative[0, 0] = -0.1
    negative[1, 0] = 1.1
    report = validate_markov(negative, topo)
    assert not report.ok()
    assert report.min_entry == pytest.approx(-0.1, abs=1e-15)

    leaky = good.copy()
    leaky[2, 0] = 0.25
    leaky[1, 0] = 0.25
    report = validate_markov(leaky, topo)
    assert not report.ok()
    assert report.mask_violations == ((2, 0),)

    with pytest.raises(ValueError, match="shape"):
        validate_markov(np.eye(2), topo)


def test_validate_markov_audits_stencil_values_like_their_dense_matrix():
    # The same 1x3 path in stencil layout: the end bins have one padded
    # slot each, which must stay empty.
    topo = build_grid_topology(1, 3, 1)
    stencil = stencil_of(topo)
    good = np.array([[0.5, 0.25, 0.0], [0.5, 0.5, 0.5], [0.0, 0.25, 0.5]])
    values = stencil.sparsify(good)
    report = validate_markov(values, stencil)
    assert report == validate_markov(good, topo)
    assert report.ok()

    bad_sum = values.copy()
    bad_sum[0, 0] = 0.6
    assert validate_markov(bad_sum, stencil).max_column_sum_deviation == pytest.approx(0.1, abs=1e-12)

    negative = values.copy()
    negative[0, :2] = -0.1, 1.1
    assert validate_markov(negative, stencil).min_entry == pytest.approx(-0.1, abs=1e-15)

    # Mass moved into bin 2's padded slot keeps the column sum at 1.
    padded = values.copy()
    assert not stencil.real[2, 2]
    padded[2, 1:] = 0.25, 0.25
    report = validate_markov(padded, stencil)
    assert report.max_column_sum_deviation == 0.0
    assert report.mask_violations == ((-1, 2),)
    assert not report.ok()

    with pytest.raises(ValueError, match="stencil values"):
        validate_markov(np.eye(4), stencil)


def test_validate_markov_tolerance_is_callers_choice():
    topo = build_grid_topology(1, 2, 1)
    mat = np.array([[0.5, 0.5], [0.5 + 2e-9, 0.5]])
    report = validate_markov(mat, topo)
    assert not report.ok()
    assert report.ok(column_sum_tol=1e-8)
