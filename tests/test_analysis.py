import numpy as np
import pytest

from swarmguide import (
    LaplacianView,
    build_grid_topology,
    contraction_certificate,
    convergence_rate_bounds,
    laplacian_of,
    linear_error_update,
    symmetric_eigenvalues,
)

from testutil import five_solve_certificate, random_connected_topology, zero_sum_vector

RING_VIEW = laplacian_of(build_grid_topology(2, 2, 1))


def test_symmetric_eigenvalues_known_matrices():
    assert np.allclose(symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0], atol=1e-15)
    # Hand case: eigenvalues of [[2, 1], [1, 2]] are 1 and 3.
    assert np.allclose(symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0], atol=1e-12)


def test_symmetric_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = int(rng.integers(1, 30))
        a = rng.standard_normal((m, m))
        sym = (a + a.T) / 2.0
        eigs = symmetric_eigenvalues(sym)
        assert np.all(np.diff(eigs) >= -1e-12)


def test_symmetric_eigenvalues_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        symmetric_eigenvalues(np.ones((2, 3)))


def test_linear_error_update_ring_hand_values():
    # e0 = (-0.6, -0.3, 0.3, 0.6) through e <- e - (L e)/3 on the 4-ring
    # gives (-0.2, -0.1, 0.1, 0.2): the idealized unsaturated recursion.
    e0 = np.array([-0.6, -0.3, 0.3, 0.6])
    e1 = linear_error_update(e0, RING_VIEW, 3.0)
    assert np.allclose(e1, [-0.2, -0.1, 0.1, 0.2], atol=1e-15, rtol=0.0)


def test_linear_error_update_preserves_zero_sum():
    rng = np.random.default_rng(42)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 40)))
        view = laplacian_of(topo)
        e = zero_sum_vector(rng, topo.m)
        out = linear_error_update(e, view, view.max_degree + 1.0)
        assert abs(out.sum()) < 1e-12


def test_linear_error_update_rejects_bad_inputs():
    with pytest.raises(ValueError, match="sum to zero"):
        linear_error_update(np.array([0.5, 0.5, 0.0, 0.0]), RING_VIEW, 3.0)
    with pytest.raises(ValueError, match="exceed the maximum degree"):
        linear_error_update(np.array([0.5, -0.5, 0.0, 0.0]), RING_VIEW, 2.0)
    with pytest.raises(ValueError, match="does not match"):
        linear_error_update(np.array([0.5, -0.5]), RING_VIEW, 3.0)


def test_rate_bounds_ring_are_eight_ninths():
    # Laplacian eigenvalues of the 4-ring are (0, 2, 2, 4); with d = 3 the
    # shrink spectrum (2 d u - u^2) / d^2 is (0, 8/9, 8/9, 8/9) and the
    # all-ones shift lifts only the zero, so both bounds land on 8/9.
    lower, upper = convergence_rate_bounds(RING_VIEW, 3.0)
    assert lower == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert upper == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_rate_bounds_single_edge_are_tight_at_one():
    # Two bins, one edge, d = 2: the update zeroes any zero-sum error in one
    # step, so the squared norm drops by exactly 100%.
    view = laplacian_of(build_grid_topology(1, 2, 1))
    lower, upper = convergence_rate_bounds(view, 2.0)
    assert lower == pytest.approx(1.0, abs=1e-12)
    assert upper == pytest.approx(1.0, abs=1e-12)


def test_rate_bounds_sandwich_observed_shrink():
    rng = np.random.default_rng(43)
    for _ in range(10):
        topo = random_connected_topology(rng, int(rng.integers(2, 30)))
        view = laplacian_of(topo)
        d = view.max_degree + 1.0
        lower, upper = convergence_rate_bounds(view, d)
        assert lower <= upper + 1e-12
        for _ in range(5):
            e = zero_sum_vector(rng, topo.m)
            before = float(e @ e)
            after_vec = linear_error_update(e, view, d)
            after = float(after_vec @ after_vec)
            shrink = (before - after) / before
            assert lower - 1e-9 <= shrink <= upper + 1e-9


def test_rate_upper_never_exceeds_one():
    # The drop fraction cannot exceed 100% of the squared norm.
    rng = np.random.default_rng(44)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(2, 30)))
        view = laplacian_of(topo)
        _, upper = convergence_rate_bounds(view, view.max_degree + 1.0)
        assert upper <= 1.0 + 1e-12


def test_contraction_certificate_ring_values():
    report = contraction_certificate(RING_VIEW, 3.0)
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
    view = laplacian_of(build_grid_topology(20, 20, 1))
    report = contraction_certificate(view, 5.0)
    assert report.certificates_ok
    assert 0.0 < report.rate_lower <= report.rate_upper <= 1.0 + 1e-12
    assert report.zero_sum_radius < 1.0
    assert report.laplacian_eigs[-1] <= 2.0 * 4 + 1e-9


DISCONNECTED_VIEW = LaplacianView(
    subset=np.arange(2),
    degree=np.zeros(2, dtype=np.int64),
    max_degree=0,
    laplacian=np.zeros((2, 2)),
)


def test_certificate_reports_disconnection_instead_of_raising():
    # Two isolated bins, built by hand: the update keeps a unit eigenvalue
    # on the zero-sum subspace, so contraction fails and the report says so.
    view = DISCONNECTED_VIEW
    report = contraction_certificate(view, 1.0)
    assert not report.connected
    assert report.zero_sum_radius == pytest.approx(1.0, abs=1e-12)
    assert not report.contraction_ok
    assert not report.certificates_ok


def test_certificate_rejects_inadmissible_divisor():
    with pytest.raises(ValueError, match="exceed the maximum degree"):
        contraction_certificate(RING_VIEW, 2.0)


def test_key_values_lists_every_certificate():
    report = contraction_certificate(RING_VIEW, 3.0)
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
        view = laplacian_of(random_connected_topology(rng, int(rng.integers(1, 40))))
        yield view, view.max_degree + 1.0
        yield view, view.max_degree + 0.5 + 4.0 * float(rng.random())
    for rows, cols in ((1, 1), (1, 5), (3, 4), (6, 6), (9, 7)):
        for hop in (1, 2, 3):
            view = laplacian_of(build_grid_topology(rows, cols, hop))
            yield view, view.max_degree + 1.0
    yield DISCONNECTED_VIEW, 1.0
    yield DISCONNECTED_VIEW, 2.5


def test_certificate_from_one_spectrum_equals_the_five_solve_oracle():
    # Each value the report derives from the Laplacian spectrum alone equals
    # its dense-table definition, checked with five separate solves.
    for view, d in _certificate_cases():
        got, want = contraction_certificate(view, d), five_solve_certificate(view, d)
        for name in ("zero_sum_radius", "rate_lower", "rate_upper", "lyapunov_margin"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
        assert np.array_equal(got.laplacian_eigs, want.laplacian_eigs)
        assert got.connected == want.connected
        assert got.certificates_ok == want.certificates_ok
        assert convergence_rate_bounds(view, d) == (got.rate_lower, got.rate_upper)
