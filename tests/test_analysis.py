import tracemalloc

import numpy as np
import pytest

from swarmguide import (
    Topology,
    build_grid_topology,
    contraction_certificate,
    convergence_rate_bounds,
    linear_error_update,
    make_topology,
)

from testutil import adjacency_of, five_solve_certificate, random_connected_topology, zero_sum_vector

RING = build_grid_topology(2, 2, 1)


def test_linear_error_update_ring_hand_values():
    # e0 = (-0.6, -0.3, 0.3, 0.6) through e <- e - (L e)/3 on the 4-ring
    # gives (-0.2, -0.1, 0.1, 0.2): the idealized unsaturated recursion.
    e0 = np.array([-0.6, -0.3, 0.3, 0.6])
    e1 = linear_error_update(e0, RING, 3.0)
    assert np.allclose(e1, [-0.2, -0.1, 0.1, 0.2], atol=1e-15, rtol=0.0)


def test_linear_error_update_preserves_zero_sum():
    rng = np.random.default_rng(42)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 40)))
        e = zero_sum_vector(rng, topo.m)
        out = linear_error_update(e, topo, topo.max_degree + 1.0)
        assert abs(out.sum()) < 1e-12


def test_linear_error_update_rejects_bad_inputs():
    with pytest.raises(ValueError, match="sum to zero"):
        linear_error_update(np.array([0.5, 0.5, 0.0, 0.0]), RING, 3.0)
    with pytest.raises(ValueError, match="exceed the maximum degree"):
        linear_error_update(np.array([0.5, -0.5, 0.0, 0.0]), RING, 2.0)
    with pytest.raises(ValueError, match="does not match"):
        linear_error_update(np.array([0.5, -0.5]), RING, 3.0)


def test_linear_error_update_reads_the_stencil_not_a_dense_laplacian():
    # 10^4 bins: a dense L would take 800 MB, the stencil's L e about 1 MB.
    topo = build_grid_topology(100, 100, 2)
    e = zero_sum_vector(np.random.default_rng(46), topo.m)
    tracemalloc.start()
    try:
        out = linear_error_update(e, topo, topo.max_degree + 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # Against the dense product on a bin and its neighbours: grid bin 5050
    # has 12 neighbours within hop 2.
    lap_row = -np.isin(np.arange(topo.m), topo.rows[5050][topo.real[5050]]).astype(float)
    lap_row[5050] = 12.0
    assert out[5050] == pytest.approx(e[5050] - (lap_row @ e) / 13.0, abs=1e-12)


def test_linear_error_update_skips_unmarked_slots_that_list_other_bins():
    # The 1x3 path with its edge 0-1 unmarked both ways, as a directly built
    # stencil may leave it: bin 0 is isolated, so L e reads only bins 1 and 2.
    grid = build_grid_topology(1, 3, 1)
    assert grid.rows.tolist() == [[0, 1, 0], [0, 1, 2], [1, 2, 2]]
    topo = Topology(rows=grid.rows, real=np.array([[True, False, False], [False, True, True], [True, True, False]]))
    e = np.array([0.5, -0.75, 0.25])
    lap = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(linear_error_update(e, topo, 2.0), e - lap @ e / 2.0, atol=1e-15, rtol=0.0)


def test_rate_bounds_ring_are_eight_ninths():
    # Laplacian eigenvalues of the 4-ring are (0, 2, 2, 4); with d = 3 the
    # shrink spectrum (2 d u - u^2) / d^2 is (0, 8/9, 8/9, 8/9) and the
    # all-ones shift lifts only the zero, so both bounds land on 8/9.
    lower, upper = convergence_rate_bounds(RING, 3.0)
    assert lower == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert upper == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_rate_bounds_single_edge_are_tight_at_one():
    # Two bins, one edge, d = 2: the update zeroes any zero-sum error in one
    # step, so the squared norm drops by exactly 100%.
    lower, upper = convergence_rate_bounds(build_grid_topology(1, 2, 1), 2.0)
    assert lower == pytest.approx(1.0, abs=1e-12)
    assert upper == pytest.approx(1.0, abs=1e-12)


def test_rate_bounds_sandwich_observed_shrink():
    rng = np.random.default_rng(43)
    for _ in range(10):
        topo = random_connected_topology(rng, int(rng.integers(2, 30)))
        d = topo.max_degree + 1.0
        lower, upper = convergence_rate_bounds(topo, d)
        assert lower <= upper + 1e-12
        for _ in range(5):
            e = zero_sum_vector(rng, topo.m)
            before = float(e @ e)
            after_vec = linear_error_update(e, topo, d)
            after = float(after_vec @ after_vec)
            shrink = (before - after) / before
            assert lower - 1e-9 <= shrink <= upper + 1e-9


def test_rate_upper_never_exceeds_one():
    # The drop fraction cannot exceed 100% of the squared norm.
    rng = np.random.default_rng(44)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 30)))
        _, upper = convergence_rate_bounds(topo, topo.max_degree + 1.0)
        assert upper <= 1.0 + 1e-12


def test_contraction_certificate_ring_values():
    report = contraction_certificate(RING, 3.0)
    assert np.allclose(report.laplacian_eigs, [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    assert report.zero_sum_radius == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.rate_lower == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert report.rate_upper == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert report.lyapunov_margin == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert report.max_degree == 2
    assert report.d_chsn == 3.0
    assert report.connected
    assert report.certificates_ok


def test_contraction_certificate_large_grid():
    report = contraction_certificate(build_grid_topology(20, 20, 1), 5.0)
    assert report.certificates_ok
    assert 0.0 < report.rate_lower <= report.rate_upper <= 1.0 + 1e-12
    assert report.zero_sum_radius < 1.0
    assert report.laplacian_eigs[-1] <= 2.0 * 4 + 1e-9


DISCONNECTED = make_topology(np.eye(2, dtype=bool))


def test_certificate_reports_disconnection_instead_of_raising():
    # Two isolated bins: the update keeps a unit eigenvalue on the zero-sum
    # subspace, so contraction fails and the report says so.
    report = contraction_certificate(DISCONNECTED, 1.0)
    assert not report.connected
    assert report.zero_sum_radius == pytest.approx(1.0, abs=1e-12)
    assert not report.contraction_ok
    assert not report.certificates_ok


def test_certificate_rejects_inadmissible_divisor():
    with pytest.raises(ValueError, match="exceed the maximum degree"):
        contraction_certificate(RING, 2.0)


def test_key_values_lists_every_certificate():
    report = contraction_certificate(RING, 3.0)
    kv = dict(report.key_values())
    for key in (
        "max_degree",
        "d_chsn_used",
        "laplacian_eig_min",
        "laplacian_eig_max",
        "zero_sum_radius",
        "rate_lower",
        "rate_upper",
        "lyapunov_margin",
        "connected",
        "certificates_ok",
    ):
        assert key in kv
    assert kv["connected"] == "true"
    assert kv["certificates_ok"] == "true"
    assert float(kv["zero_sum_radius"]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def _certificate_cases():
    rng = np.random.default_rng(45)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(1, 40)))
        yield topo, topo.max_degree + 1.0
        yield topo, topo.max_degree + 0.5 + 4.0 * float(rng.random())
    for rows, cols in ((1, 1), (1, 5), (3, 4), (6, 6), (9, 7)):
        for hop in (1, 2, 3):
            topo = build_grid_topology(rows, cols, hop)
            yield topo, topo.max_degree + 1.0
    yield DISCONNECTED, 1.0
    yield DISCONNECTED, 2.5


def test_certificate_from_one_spectrum_equals_the_five_solve_oracle():
    # Each value the report derives from the Laplacian spectrum alone equals
    # its dense-table definition, checked with five separate solves.
    for topo, d in _certificate_cases():
        got, want = contraction_certificate(topo, d), five_solve_certificate(topo, d)
        for name in ("zero_sum_radius", "rate_lower", "rate_upper", "lyapunov_margin"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
        assert np.array_equal(got.laplacian_eigs, want.laplacian_eigs)
        assert got.connected == want.connected
        assert got.certificates_ok == want.certificates_ok
        assert convergence_rate_bounds(topo, d) == (got.rate_lower, got.rate_upper)


def test_certificate_refuses_an_asymmetric_stencil():
    # Bin 0 lists bin 1, which does not list bin 0 back.
    one_way = Topology(rows=np.array([[0, 1], [1, 1]]), real=np.array([[True, True], [True, False]]))
    with pytest.raises(ValueError, match="not symmetric"):
        contraction_certificate(one_way, 2.0)
    # A directed 3-cycle: every bin has one neighbour out and one in, so
    # only the edges themselves, not the degrees, tell it from a symmetric graph.
    cycle = Topology(rows=np.array([[0, 1], [1, 2], [0, 2]]), real=np.ones((3, 2), dtype=bool))
    with pytest.raises(ValueError, match="not symmetric"):
        contraction_certificate(cycle, 2.0)


def test_certificate_symmetry_check_equals_the_dense_adjacency_test():
    # Dropping real slots from a grid stencil, as the run's audit stencil
    # does, leaves unmarked slots that list other bins; the stencil check
    # refuses exactly the stencils whose dense adjacency is asymmetric.
    rng = np.random.default_rng(47)
    refused = 0
    for _ in range(200):
        grid = build_grid_topology(int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        real = grid.real & ((rng.random(grid.real.shape) < 0.9) | grid.own)
        topo = Topology(rows=grid.rows, real=real)
        adj = adjacency_of(topo)
        if np.array_equal(adj, adj.T):
            contraction_certificate(topo, topo.max_degree + 1.0)
        else:
            refused += 1
            with pytest.raises(ValueError, match="not symmetric"):
                contraction_certificate(topo, topo.max_degree + 1.0)
    assert 0 < refused < 200


def test_certificate_accepts_every_restrict_of_a_grid():
    # Every nonempty subset of a 3x3 grid at every reach, connected or not.
    for hop in (1, 2, 3, 4):
        grid = build_grid_topology(3, 3, hop)
        for mask in range(1, 2**grid.m):
            bins = np.flatnonzero([(mask >> b) & 1 for b in range(grid.m)])
            sub = grid.restrict(bins)
            report = contraction_certificate(sub, sub.max_degree + 1.0)
            assert report.eig_floor_ok


def test_certificate_builds_one_dense_table():
    # The Laplacian is the one m x m table; the symmetry check reads the
    # stencil, so the traced peak stays near 8 m^2 bytes.
    topo = build_grid_topology(40, 40, 2)
    tracemalloc.start()
    try:
        contraction_certificate(topo, topo.max_degree + 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * topo.m**2
