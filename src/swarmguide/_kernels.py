"""Hot inner-loop kernels: agent advancement and recurrent column synthesis.

Both are vectorized numpy and both work in stencil layout (see
``swarmguide.graph.Stencil``): column j of a transition matrix is row j of
an m x w value array, whose slot s moves an agent to bin ``rows[j, s]``.
``synth_recurrent`` writes the recurrent columns straight into that layout,
w slots per bin, with no dense block.  ``advance_agents`` samples it; a
dense matrix is the same layout with w = m and every row of ``rows`` equal
to 0..m-1.

Their IEEE-754 operations are fixed (cumulative and column sums accumulate
slot by slot in ascending destination order, and padded slots add an exact
0.0), so ``synth_recurrent`` equals the bin-local
``swarmguide.synthesis.dsmc_column`` and a dense synthesis over every row
bit for bit, sampling a stencil equals sampling its dense matrix, and
simulation outputs do not depend on how agents are batched.
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


def synth_recurrent(e: np.ndarray, x: np.ndarray, rows: np.ndarray, own: np.ndarray, d_chsn: float) -> np.ndarray:
    """Density-feedback transition columns in stencil layout.

    See ``swarmguide.synthesis.dsmc_recurrent``; this kernel assumes valid
    inputs.  ``own[j]`` marks the slot of ``rows[j]`` that keeps bin j's
    leftover mass; padded slots point at j, whose zero error difference
    never draws flow.
    """
    diff = (e[rows] - e[:, np.newaxis]) / d_chsn
    r = np.zeros(rows.shape)
    np.divide(diff, x[:, np.newaxis], out=r, where=(diff > 0.0) & (x[:, np.newaxis] > 0.0))
    # Column sums accumulate slot by slot in ascending destination order, as in dsmc_column.
    off = np.zeros(rows.shape[0])
    for s in range(rows.shape[1]):
        off += r[:, s]
    diag = np.where(off < 1.0, 1.0 - off, 0.0)
    r[own] = diag
    return r / (off + diag)[:, np.newaxis]
