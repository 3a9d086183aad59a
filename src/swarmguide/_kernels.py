"""Hot inner-loop kernels: agent advancement and recurrent column synthesis.

Both are vectorized numpy.  ``advance_agents`` works on a transition matrix
held in stencil layout (see ``swarmguide.graph.Stencil``): column j of the
matrix is row j of an m x w value array, whose slot s moves an agent to bin
``rows[j, s]``.  A dense matrix is the same layout with w = m and every row
of ``rows`` equal to 0..m-1.

Their IEEE-754 operations are fixed (cumulative and column sums accumulate
in ascending destination order), so ``synth_recurrent`` equals the bin-local
``swarmguide.synthesis.dsmc_column`` bit for bit, sampling a stencil equals
sampling its dense matrix, and simulation outputs do not depend on how
agents are batched.
"""
from __future__ import annotations

import numpy as np

# Most entries one gather of cumulative stencil rows may hold (32 MB of
# float64); larger swarms are advanced in chunks of agents.
GATHER_ENTRIES = 1 << 22


def advance_agents(bins: np.ndarray, z: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Move each agent through the matrix column of its current bin.

    ``bins`` holds current bin indices and ``z`` one uniform per agent.
    ``values[j]`` is column j of a column-stochastic matrix over the
    ascending destinations ``rows[j]``, padded with zeros.  Agent k lands
    on the first destination whose cumulative probability exceeds z[k].
    When float round-off leaves the column total at or below the draw, the
    agent lands on the column's last positive entry, so it never leaves the
    column's support.
    """
    cum = np.cumsum(values, axis=1)
    # Slot at which each column first reaches its total: its last positive entry.
    last = (cum < cum[:, -1:]).sum(axis=1)
    hits = np.empty(bins.shape, dtype=np.int64)
    chunk = max(1, GATHER_ENTRIES // cum.shape[1])
    for lo in range(0, bins.size, chunk):
        part = slice(lo, lo + chunk)
        hits[part] = (cum[bins[part]] <= z[part, np.newaxis]).sum(axis=1)
    return rows[bins, np.minimum(hits, last[bins])].astype(bins.dtype, copy=False)


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
