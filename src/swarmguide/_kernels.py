"""Hot inner-loop kernels: agent advancement and recurrent column synthesis.

Both are vectorized numpy and both work in stencil layout (see
``swarmguide.graph.Topology``): column j of a transition matrix is row j of
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

``advance_agents`` samples in two passes, because feedback synthesis
leaves most agents where they are.  First the stay test: with s the first
slot of bin b's row that lists b itself and cum its cumulative row
(cum[-1] read as 0), an agent in b with cum[s-1] <= z < cum[s] stays.
That is what the full search returns: the cumulative row never decreases,
so exactly s entries are <= z, and since cum[s-1] < cum[s] <= total the
round-off clamp cannot cut below s either.  A slot with an empty window,
such as a zero self slot or padding ahead of it, settles nobody.  Then
only the movers search their column, one slot at a time over a w x m
cumulative table, so no agents x w temporary is ever built.
"""
from __future__ import annotations

import numpy as np


def advance_agents(bins: np.ndarray, z: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Move each agent through the matrix column of its current bin.

    ``bins`` holds current bin indices and ``z`` one uniform per agent.
    ``values[j]`` is column j of a column-stochastic matrix over the
    ascending destinations ``rows[j]``, padded with zeros; ``rows[j]``
    lists bin j itself, as in every stencil and dense layout.  Agent k
    lands on the first destination whose cumulative probability exceeds
    z[k].
    When float round-off leaves the column total at or below the draw, the
    agent lands on the column's last positive entry, so it never leaves the
    column's support.

    Agents whose draw falls in their bin's stay window are settled first,
    with two lookups each; only the others search the column slot by slot.
    """
    m, w = values.shape
    # cum[s + 1, j]: cumulative probability of column j through slot s,
    # summed slot by slot as np.cumsum(values, axis=1) would; cum[0] = 0.
    cum = np.zeros((w + 1, m))
    np.cumsum(values.T, axis=0, out=cum[1:])
    # Slot at which each column first reaches its total: its last positive entry.
    last = (cum[1:] < cum[-1]).sum(axis=0)
    bin_ids = np.arange(m)
    own = np.argmax(rows == bin_ids[:, np.newaxis], axis=1)
    # Stay window [lo, hi) of the first slot listing the bin itself.
    lo, hi = cum[own, bin_ids], cum[own + 1, bin_ids]
    movers = np.nonzero((z < lo[bins]) | (z >= hi[bins]))[0]
    out = bins.copy()
    from_bin, draw = bins[movers], z[movers]
    hits = np.zeros(movers.size, dtype=np.int64)
    for row in cum[1:]:
        hits += row.take(from_bin) <= draw
    out[movers] = rows[from_bin, np.minimum(hits, last[from_bin])]
    return out


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
