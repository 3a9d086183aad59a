"""Spectral verification of the linear error recursion.

When the current density covers the desired support, the density-feedback
synthesis drives the error e = desired - current through the linear update
e <- (I - L / d_chsn) e, where L is the Laplacian of the self-loop-free
recurrent graph.  This module checks, from eigenvalues alone, that the
update contracts on the zero-sum subspace the error lives in, and bounds how
fast the squared error shrinks per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import LaplacianView

__all__ = [
    "SYMMETRY_TOL",
    "CERT_TOL",
    "SpectralReport",
    "symmetric_eigenvalues",
    "linear_error_update",
    "contraction_certificate",
    "convergence_rate_bounds",
]

# Max absolute asymmetry accepted by the symmetric eigensolver.
SYMMETRY_TOL = 1e-12
# Slack for certificate comparisons against exact spectral statements.
CERT_TOL = 1e-9


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.size and float(np.abs(a - a.T).max()) > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_TOL}")
    return np.linalg.eigvalsh(a)


def _check_d_chsn(view: LaplacianView, d_chsn: float) -> float:
    d = float(d_chsn)
    if d <= view.max_degree:
        raise ValueError(f"d_chsn={d} must strictly exceed the maximum degree {view.max_degree}")
    return d


def linear_error_update(e, laplacian_view: LaplacianView, d_chsn: float) -> np.ndarray:
    """One step of the idealized error recursion, e <- e - (L e) / d_chsn.

    The error of two densities on the same support always sums to zero, and
    the update preserves that: ones are in the Laplacian's kernel.
    """
    err = np.asarray(e, dtype=float)
    lap = laplacian_view.laplacian
    if err.shape != (lap.shape[0],):
        raise ValueError(f"error vector shape {err.shape} does not match {lap.shape[0]} bins")
    if abs(float(err.sum())) > CERT_TOL:
        raise ValueError("error vector must sum to zero")
    d = _check_d_chsn(laplacian_view, d_chsn)
    return err - (lap @ err) / d


def convergence_rate_bounds(laplacian_view: LaplacianView, d_chsn: float) -> tuple[float, float]:
    """Per-step shrink envelope for the squared error norm.

    Writing the update as e(k+1) = (I - L/d) e(k), the drop
    ||e(k)||^2 - ||e(k+1)||^2 equals e(k)' S e(k) with
    S = (2 d L - L L) / d^2, whose eigenvalues are f(u) = u (2 d - u) / d^2
    over the Laplacian eigenvalues u.  Zero-sum errors are orthogonal to the
    constant direction, so their Rayleigh quotient of S lies between the
    smallest f(u) over the other directions (capped at 1) and the largest
    f(u).  Returns (rate_lower, rate_upper) of ``contraction_certificate``;
    a positive lower bound certifies geometric decay of ||e||^2 at factor
    (1 - rate_lower).
    """
    report = contraction_certificate(laplacian_view, d_chsn)
    return report.rate_lower, report.rate_upper


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue evidence that the error recursion contracts.

    ``zero_sum_radius`` is the spectral radius of the error-update matrix
    G = I - L/d restricted to the zero-sum subspace: the largest |1 - u/d|
    over the Laplacian eigenvalues u but the smallest, whose eigenvector is
    the constant direction (0 for a single bin).  ``lyapunov_margin`` is the
    smallest eigenvalue of I - G'G on that subspace, capped at 1: positive
    means the identity works as a quadratic Lyapunov certificate.  Flags
    report rather than assert, so a failing graph still yields a readable
    report.
    """

    laplacian_eigs: np.ndarray
    zero_sum_radius: float
    rate_lower: float
    rate_upper: float
    d_chsn: float
    max_degree: int
    lyapunov_margin: float
    connected: bool

    @property
    def eig_floor_ok(self) -> bool:
        """Smallest Laplacian eigenvalue sits at zero."""
        return bool(abs(float(self.laplacian_eigs[0])) <= CERT_TOL)

    @property
    def eig_bound_ok(self) -> bool:
        """Largest Laplacian eigenvalue is at most twice the maximum degree."""
        return bool(float(self.laplacian_eigs[-1]) <= 2.0 * self.max_degree + CERT_TOL)

    @property
    def contraction_ok(self) -> bool:
        return bool(self.zero_sum_radius < 1.0)

    @property
    def lyapunov_ok(self) -> bool:
        return bool(self.lyapunov_margin > -CERT_TOL)

    @property
    def certificates_ok(self) -> bool:
        return (
            self.connected
            and self.eig_floor_ok
            and self.eig_bound_ok
            and self.contraction_ok
            and self.lyapunov_ok
        )

    def key_values(self) -> list[tuple[str, str]]:
        """Flat key=value view for reporting."""
        def fmt(x: float) -> str:
            return repr(float(x))

        return [
            ("max_degree", str(self.max_degree)),
            ("d_chsn_used", fmt(self.d_chsn)),
            ("laplacian_eig_min", fmt(self.laplacian_eigs[0])),
            ("laplacian_eig_max", fmt(self.laplacian_eigs[-1])),
            ("zero_sum_radius", fmt(self.zero_sum_radius)),
            ("rate_lower", fmt(self.rate_lower)),
            ("rate_upper", fmt(self.rate_upper)),
            ("lyapunov_margin", fmt(self.lyapunov_margin)),
            ("connected", "true" if self.connected else "false"),
            ("eig_floor_ok", "true" if self.eig_floor_ok else "false"),
            ("eig_bound_ok", "true" if self.eig_bound_ok else "false"),
            ("contraction_ok", "true" if self.contraction_ok else "false"),
            ("lyapunov_ok", "true" if self.lyapunov_ok else "false"),
            ("certificates_ok", "true" if self.certificates_ok else "false"),
        ]


def contraction_certificate(laplacian_view: LaplacianView, d_chsn: float) -> SpectralReport:
    """Spectral audit of the error recursion on a recurrent graph.

    Every value comes from the one spectrum u of L, ascending.  L is
    symmetric with the constant vector in its kernel, so u[0] belongs to the
    constant direction and u[1:] to the zero-sum subspace, where the update
    acts as 1 - u/d.  Connectivity is read off the spectrum (second-smallest
    Laplacian eigenvalue positive); a disconnected graph is reported with
    failing flags rather than raised, so callers can print the evidence.
    """
    d = _check_d_chsn(laplacian_view, d_chsn)
    eigs = symmetric_eigenvalues(laplacian_view.laplacian)
    shrink = eigs * (2.0 * d - eigs) / (d * d)
    update = 1.0 - eigs[1:] / d
    eigs.flags.writeable = False
    return SpectralReport(
        laplacian_eigs=eigs,
        zero_sum_radius=float(np.abs(update).max(initial=0.0)),
        rate_lower=float(shrink[1:].min(initial=1.0)),
        rate_upper=float(shrink.max()),
        d_chsn=d,
        max_degree=laplacian_view.max_degree,
        lyapunov_margin=float((1.0 - update * update).min(initial=1.0)),
        connected=eigs.size == 1 or float(eigs[1]) > CERT_TOL,
    )
