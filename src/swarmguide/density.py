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

# Absolute slack allowed between a density's sum and 1.
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
    """Total variation distance, half the L1 distance."""
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    if pa.shape != pb.shape or pa.ndim != 1:
        raise ValueError(f"shapes {pa.shape} and {pb.shape} do not match")
    return 0.5 * float(np.abs(pa - pb).sum())


def empirical_density(swarm, m: int) -> np.ndarray:
    """Fraction of agents in each of ``m`` bins.

    ``swarm`` is anything with an integer ``assignments`` attribute, or the
    assignment array itself.
    """
    assignments = np.asarray(getattr(swarm, "assignments", swarm))
    if assignments.size == 0:
        raise ValueError("empirical density needs at least one agent")
    # One pass checks the range and counts: bincount refuses a negative
    # entry, and an entry of m or more lengthens the counts past m.
    try:
        counts = np.bincount(assignments, minlength=m)
        if counts.size > m:
            raise ValueError(f"the largest entry is {counts.size - 1}")
    except ValueError as err:
        raise ValueError(f"assignments must lie in [0, {m})") from err
    return counts / assignments.size
