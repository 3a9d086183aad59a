"""Probability vectors over bins: validation, distances and empirical
densities."""
from __future__ import annotations

import numpy as np

__all__ = [
    "SUM_TOL",
    "check_density",
    "total_variation",
    "empirical_density",
]

# Absolute slack allowed between 1 and the sum of a density or of a matrix column.
SUM_TOL = 1e-9


def check_density(values, *, name: str = "density") -> np.ndarray:
    """Validate a probability vector and return it as a float64 array."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {x.shape}")
    if x.size == 0:
        raise ValueError(f"{name} must have at least one bin")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    if (x < 0.0).any():
        raise ValueError(f"{name} has negative entries")
    total = float(x.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"{name} sums to {total!r}, expected 1 within {SUM_TOL}")
    return x


def total_variation(a, b) -> float:
    """Total variation distance, half the L1 distance, between two densities
    of one shape (not checked: unequal shapes broadcast)."""
    return 0.5 * float(np.abs(np.subtract(a, b)).sum())


def empirical_density(swarm, m: int) -> np.ndarray:
    """Fraction of agents in each of ``m`` bins.

    ``swarm`` is anything with an integer ``assignments`` array, or that
    array itself.  It holds at least one agent, each in [0, m), as a run's
    swarms do (a removal always leaves one); this is not checked.
    """
    assignments = getattr(swarm, "assignments", swarm)
    return np.bincount(assignments, minlength=m) / assignments.size
