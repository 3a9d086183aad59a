import numpy as np
import pytest

from swarmguide import (
    Scenario,
    check_density,
    empirical_density,
    total_variation,
)


def test_check_density_accepts_valid_vectors():
    x = check_density([0.2, 0.3, 0.5])
    assert x.dtype == np.float64
    assert x.tolist() == [0.2, 0.3, 0.5]
    check_density(np.full(400, 1.0 / 400.0))


@pytest.mark.parametrize(
    "bad,message",
    [
        ([[0.5, 0.5]], "one-dimensional"),
        ([], "at least one"),
        ([0.6, -0.1, 0.5], "negative"),
        ([0.5, np.nan], "non-finite"),
        ([0.5, np.inf], "non-finite"),
        ([0.3, 0.3], "sums to"),
        ([0.7, 0.7], "sums to"),
    ],
)
def test_check_density_rejects_invalid(bad, message):
    with pytest.raises(ValueError, match=message):
        check_density(bad)


def test_check_density_tolerates_tiny_sum_slack():
    check_density([0.5, 0.5 + 5e-10])
    with pytest.raises(ValueError):
        check_density([0.5, 0.5 + 5e-9])


def test_total_variation_against_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 40))
        a = rng.random(m)
        a /= a.sum()
        b = rng.random(m)
        b /= b.sum()
        oracle = 0.5 * sum(abs(float(a[i]) - float(b[i])) for i in range(m))
        assert abs(total_variation(a, b) - oracle) < 1e-15
        assert total_variation(a, b) == total_variation(b, a)
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_scenario_densities_are_row_major_and_normalised():
    # A Scenario's densities are its weight grids over their sums, bin index
    # row * cols + col.  Grids that are not rows x cols, hold weights outside
    # the integers 0 to 35, or are all zero are refused when the Scenario is
    # built: tests/test_engine.py test_scenario_refuses_bad_sizes_and_grid_shapes.
    s = Scenario(2, 2, 1, 10, 5, "dsmc", 0, "deterministic", ((0, 1), (2, 3)), init_weights=((3, 2), (1, 0)))
    assert s.desired_density().tolist() == [0.0, 1 / 6, 2 / 6, 3 / 6]
    assert s.initial_density().tolist() == [3 / 6, 2 / 6, 1 / 6, 0.0]
    d2 = Scenario(2, 3, 1, 10, 5, "dsmc", 0, "deterministic", ((5, 0, 0), (0, 0, 1))).desired_density()
    assert d2[0] == 5 / 6 and d2[5] == 1 / 6 and d2.sum() == 1.0


def test_empirical_density_matches_counting_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(2, 30))
        n = int(rng.integers(1, 500))
        assignments = rng.integers(0, m, size=n)
        d = empirical_density(assignments, m)
        for b in range(m):
            assert d[b] == sum(1 for a in assignments if a == b) / n
        assert abs(d.sum() - 1.0) < 1e-12


def test_empirical_density_accepts_swarm_like_objects():
    class Holder:
        assignments = np.array([0, 0, 1])

    d = empirical_density(Holder(), 3)
    assert np.allclose(d, [2 / 3, 1 / 3, 0.0], atol=1e-15)
