"""Hot inner-loop kernels: agent advancement and recurrent column synthesis.

Both are vectorized numpy.  Their IEEE-754 operations are fixed (column sums
accumulate in ascending row order), so ``synth_recurrent`` equals the
bin-local ``swarmguide.synthesis.dsmc_column`` bit for bit and simulation
outputs do not depend on how agents are batched.
"""
from __future__ import annotations

import numpy as np


def advance_agents(bins: np.ndarray, z: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Move each agent through the cumulative column of its current bin.

    ``bins`` holds current bin indices, ``z`` one uniform per agent, ``cum``
    the column-wise cumulative sums of a column-stochastic matrix.  Agent k
    lands on the first destination i with z[k] < cum[i, bins[k]].  When
    float round-off leaves the column total at or below the draw, the agent
    lands on the column's last positive entry, so it never leaves the
    column's support.
    """
    hits = (cum[:, bins] <= z[np.newaxis, :]).sum(axis=0)
    # Row at which each column first reaches its total: its last positive entry.
    last = (cum < cum[-1]).sum(axis=0)
    return np.minimum(hits, last[bins]).astype(bins.dtype)


def synth_recurrent(e: np.ndarray, x: np.ndarray, adj: np.ndarray, d_chsn: float) -> np.ndarray:
    """Density-feedback transition columns, vectorized.

    See ``swarmguide.synthesis.dsmc_recurrent`` for the construction; this
    kernel assumes validated inputs.  Bins with zero density get an identity
    column.
    """
    m = e.shape[0]
    diff = (e[:, np.newaxis] - e[np.newaxis, :]) / d_chsn
    fill = adj & (diff > 0.0) & (x[np.newaxis, :] > 0.0)
    r = np.zeros((m, m))
    np.divide(diff, np.broadcast_to(x[np.newaxis, :], (m, m)), out=r, where=fill)
    np.fill_diagonal(r, 0.0)
    # Accumulate column sums in ascending row order, as dsmc_column does.
    off = np.zeros(m)
    for i in range(m):
        off += r[i]
    diag = np.where(off < 1.0, 1.0 - off, 0.0)
    idx = np.arange(m)
    r[idx, idx] = diag
    return r / (off + diag)[np.newaxis, :]
