"""Hot inner-loop kernels: agent advancement, initial placement, recurrent
column synthesis and the slot-order column sum.

All are vectorized numpy and all work in stencil layout (see
``swarmguide.graph.Topology``): column j of a transition matrix is row j of
an m x w value array, whose slot s moves an agent to bin ``rows[j, s]``.
``synth_recurrent`` writes the recurrent columns straight into that layout,
w slots per bin, with no dense block, and ``advance_agents`` samples it.

Their IEEE-754 operations are fixed (cumulative and column sums accumulate
slot by slot in ascending destination order, and padded slots add an exact
0.0), so ``synth_recurrent`` equals the bin-local
``swarmguide.synthesis.dsmc_column`` and a dense synthesis over every row
bit for bit, sampling a stencil equals sampling its dense matrix, and
simulation outputs do not depend on how agents are batched.  Every
stencil column sum, in synthesis, in the baseline chain and in the audit,
is ``column_sums``.

Both samplers read one table type, ``Tables``: the (w + 1) x m table of
cumulative bounds, built slot by slot, and, where ``build_guide`` attached
one, a guide table.  A draw is an integer k in [0, 2^53), the uniform
z = k 2^-53, as ``uniform_stream`` gives it, and every comparison is an
integer one.  The cumulative entries c are summed in floats, and the table
rule keeps draws on each column's support: every entry at or above
min(total, 1) reads exactly 1.0.  Whether its total rounded above 1 or
below, a column then reads 1.0 from its last positive slot on.  Each entry
is then held as its bound K = ceil(c 2^53), both steps exact, and z passes
c exactly when K <= k.  A bound of 1.0 is 2^53, above every draw, so no
draw passes a column's last positive slot and no search needs a round-off
clamp.  A column's bounds depend on that column alone, so a caller whose
matrix changes in a few columns a step keeps its ``sampler_tables`` and
assigns those columns of a fresh ``cum``; the samplers build no tables.

Unguided, ``advance_agents`` samples in two passes, because feedback
synthesis leaves most agents where they are.  First the stay test: with s
bin b's stay slot, the real slot listing b itself (``Topology.stay``,
derived once per stencil), and K its row of bounds (K[-1] read as 0), an
agent in b with K[s-1] <= k < K[s] stays.  That is what the full search
returns: the bounds never decrease down a column, so exactly s of them
are <= k.  A slot with an empty window, such as a zero self slot or one
past the last positive slot, settles nobody; a padded slot ahead of the
self slot also lists b, but its window is empty too, so either slot gives
the same destinations.  The windows are read from the bounds each call,
two m-long gathers.  Then only the movers search their column, in blocks
of ``_SEARCH_BLOCK`` agents: one gather of the movers' columns from the
bounds and one count of the bounds at or below each draw.  So no agents x
w temporary is ever built, only block x w ones.

A matrix that drives many steps, the fixed Metropolis-Hastings chain, moves
most agents, so the stay test settles few.  ``build_guide`` attaches a
guide table (Chen and Asau's indexed search) to its tables once instead:
it splits the draws of a bin into a power-of-two number of cells,
``GUIDE_CELLS`` for a matrix, and holds one destination per cell, m x 64
int64 entries (about 5 MB at 10^4 bins).  It is exact, not an
approximation: a draw's cell is its top bits, ``k >> (53 - log2 cells)``,
and the full search's answer never decreases as the draw grows.  So a cell
with no bound strictly inside has one answer for all its draws.  A cell
with one holds -1, and only the agents whose draw falls there (about 3% on
letter-E) run the search.

Initial placement samples one fixed distribution over all m bins, a single
column whose stencil is every bin.  ``placement_guide`` builds its table
with the smallest power of two >= ``GUIDE_CELLS`` m cells, int32 bins (2^20
cells, 4 MB, at 10^4 bins): with only m cells, most cells of a uniform
start would hold a boundary.  ``place`` reads the table in blocks, so its
only agents-sized array is its result, and the agents in split cells
(about 1.2% on the 40x40 ``wide_grid`` start) take one ``np.searchsorted``
instead of the slot search, since here w = m.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


GUIDE_CELLS = 64  # guide cells per bin of a matrix, a power of two so that a cell is a draw's top bits
_PLACE_BLOCK = 1 << 16  # agents per block in ``place``
_SEARCH_BLOCK = 1 << 16  # movers per block in ``_search``: a block x w table, 13 MB at w = 25


class Tables(NamedTuple):
    """The sampler tables of one matrix: ``cum[s + 1, j]``, the bound
    K = ceil(c 2^53) of the cumulative probability c of column j through
    slot s (``cum[0]`` is 0), each c at or above min(total, 1) read as 1.0
    (the table rule), so K = 2^53, and, from ``build_guide``,
    ``table[j, c]``, the destination of every draw of bin j in
    [c, c + 1) 2^53 / cells, with ``cells = table.shape[1]``, or -1 where a
    bound lies strictly inside that cell.  A draw k passes entry s + 1 of
    column j exactly when ``cum[s + 1, j] <= k``."""

    cum: np.ndarray
    table: np.ndarray | None = None


def sampler_tables(values: np.ndarray) -> Tables:
    """The unguided ``Tables`` of the matrix ``values``."""
    m, w = values.shape
    # cum[s + 1, j]: cumulative probability of column j through slot s,
    # summed slot by slot as np.cumsum(values, axis=1) would; cum[0] = 0.
    cum = np.zeros((w + 1, m))
    if m < w:  # few long columns, such as the placement column: one pass down each
        np.cumsum(values.T, axis=0, out=cum[1:])
    else:  # a matrix's stencil: whole slot rows, added as ``column_sums`` adds them
        cum[1] = values[:, 0]
        for s in range(1, w):
            np.add(cum[s], values[:, s], out=cum[s + 1])
    # Every entry at or above min(total, 1) reads 1.0: each column ends at
    # exactly 1.0 from its last positive slot on, whose bound 2^53 no draw
    # reaches, whichever way its total rounded.
    np.copyto(cum[1:], 1.0, where=cum[1:] >= np.minimum(cum[-1], 1.0))
    # The bounds K = ceil(c 2^53), both steps exact: k 2^-53 >= c exactly
    # when k >= K.
    cum *= 2.0**53
    return Tables(cum=np.ceil(cum, out=cum).astype(np.int64))


def _cell_shift(cells: int) -> int:
    """The right shift that takes a draw to its cell among ``cells``, a
    power of two: a cell spans 2**shift draws."""
    return 54 - cells.bit_length()


def _search(from_bin: np.ndarray, draw: np.ndarray, cum: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Destinations by the full search: the slot is the number of bounds at
    or below the draw, counted over one gather of each block's columns."""
    hits = np.empty(from_bin.size, dtype=np.int64)
    for lo in range(0, from_bin.size, _SEARCH_BLOCK):
        block = from_bin[lo:lo + _SEARCH_BLOCK]
        hits[lo:lo + block.size] = (cum[1:].take(block, axis=1) <= draw[lo:lo + block.size]).sum(axis=0)
    hits += from_bin * rows.shape[1]  # the flat index of each slot found
    return rows.take(hits)


def build_guide(values: np.ndarray, rows: np.ndarray, cells: int = GUIDE_CELLS) -> Tables:
    """The ``sampler_tables`` of the matrix ``values`` over ``rows`` with a
    guide table attached, for ``advance_agents`` to sample it through, step
    after step, with ``cells`` guide cells per bin, a power of two.

    Cell c of a bin spans the draws [c, c + 1) 2^shift, with 2^shift =
    2^53 / cells; with no bound K strictly inside, every draw in it gets
    the search's answer at its first draw.  A column's last bound, 2^53 by
    the table rule, closes its last cell.
    """
    shift = _cell_shift(cells)
    cum = sampler_tables(values).cum
    m = values.shape[0]
    bound = cum[1:]  # K, w x m, ascending down each column
    cell = bound >> shift  # the cell holding K; cells for a bound of 2^53
    # Slot s answers the cells from the one holding bound s - 1 up to the
    # one holding bound s.
    table = np.repeat(rows.ravel(), np.diff(cell, axis=0, prepend=0).T.ravel()).reshape(m, cells)
    # A cell with a bound strictly inside is left to the search; one on its
    # first draw is passed by all of it.
    inside = bound & ((1 << shift) - 1) != 0
    table.reshape(-1)[(np.arange(m) * cells + cell)[inside]] = -1
    return Tables(cum=cum, table=table)


def placement_guide(density: np.ndarray) -> Tables:
    """The guided tables of the one distribution ``density`` over its m
    bins, for ``place``: one column whose destinations are bins 0 .. m - 1,
    with the smallest power of two >= ``GUIDE_CELLS`` m cells.  Its table
    holds int32 bins, 4 MB at 10^4 bins."""
    m = density.size
    bins = np.arange(m, dtype=np.int32)[np.newaxis]
    return build_guide(density[np.newaxis], bins, 1 << (GUIDE_CELLS * m - 1).bit_length())


def place(k: np.ndarray, guide: Tables) -> np.ndarray:
    """The bins of draws ``k`` in [0, 2^53) from the distribution of
    ``guide``, a ``placement_guide``.

    Bit for bit ``np.minimum(np.searchsorted(cum, k * 2.0**-53,
    side="right"), last)`` over the cumulative density ``cum`` and its last
    positive bin ``last``; the guide's column, under the table rule, needs
    no clamp.  The cells are read in blocks, so no temporary besides the
    result is as large as ``k``.
    """
    table, shift = guide.table[0], _cell_shift(guide.table.shape[1])
    out = np.empty(k.size, dtype=np.int64)
    for lo in range(0, k.size, _PLACE_BLOCK):
        out[lo:lo + _PLACE_BLOCK] = table.take(k[lo:lo + _PLACE_BLOCK] >> shift)
    split = np.nonzero(out < 0)[0]
    out[split] = np.searchsorted(guide.cum[1:, 0], k[split], side="right")
    return out


def advance_agents(
    bins: np.ndarray, k: np.ndarray, values: np.ndarray, rows: np.ndarray, stay: np.ndarray, tables: Tables,
) -> np.ndarray:
    """Move each agent through the matrix column of its current bin.

    ``bins`` holds current bin indices and ``k`` one draw per agent, an
    integer in [0, 2^53) standing for the uniform k 2^-53.  ``values[j]``
    is column j of a column-stochastic matrix over the ascending
    destinations ``rows[j]``, padded with zeros; ``rows[j]`` lists bin j
    itself, as in every stencil.  Agent a lands on the first destination
    whose cumulative probability exceeds k[a] 2^-53.  The table rule of
    ``Tables`` ends each column at 1.0 from its last positive entry on, so
    round-off never takes an agent off the column's support.

    ``tables`` are the sampler tables of ``values``: ``sampler_tables(values)``
    or ``build_guide(values, rows)``.  Unguided, the agents whose draw falls
    in the window of their bin's ``stay`` slot, the real slot listing the
    bin itself (``Topology.stay``), are settled first, the window read from
    the bounds.  Only the others search their column, in blocks.  Guided,
    one lookup settles every agent outside the -1 cells, and only those
    search.
    """
    if tables.table is not None:
        cells = tables.table.shape[1]
        cell = k >> _cell_shift(cells)
        cell += bins * cells
        out = tables.table.take(cell)
        open_cells = np.nonzero(out < 0)[0]
        out[open_cells] = _search(bins[open_cells], k[open_cells], tables.cum, rows)
        return out
    # Stay window [lo, hi) of each bin: cum[stay[j], j] and the entry one
    # slot row below it.
    m = values.shape[0]
    at = stay * m
    at += np.arange(m)
    lo, hi = tables.cum.take(at), tables.cum.take(at + m)
    movers = np.nonzero((k < lo.take(bins)) | (k >= hi.take(bins)))[0]
    out = bins.copy()
    out[movers] = _search(bins[movers], k[movers], tables.cum, rows)
    return out


def column_sums(values: np.ndarray) -> np.ndarray:
    """Each column's total: row j of the m x w ``values``, added slot by slot
    in ascending destination order.

    Bit for bit ``np.cumsum(values, axis=1)[:, -1]``, in w vector adds
    rather than an m x w temporary.
    """
    total = values[:, 0].copy()
    for s in range(1, values.shape[1]):
        total += values[:, s]
    return total


def synth_recurrent(
    e: np.ndarray, x: np.ndarray, rows: np.ndarray, real: np.ndarray, own: np.ndarray, d_chsn: float,
) -> np.ndarray:
    """Density-feedback transition columns in stencil layout.

    See ``swarmguide.synthesis.dsmc_recurrent``; this kernel assumes valid
    inputs.  Flow goes only to the slots ``real`` marks, and ``own[j]``
    marks the slot of ``rows[j]`` that keeps bin j's leftover mass.
    """
    diff = (e[rows] - e[:, np.newaxis]) / d_chsn
    r = np.zeros(rows.shape)
    np.divide(diff, x[:, np.newaxis], out=r, where=(diff > 0.0) & (x[:, np.newaxis] > 0.0) & real)
    # The same ascending-slot order as dsmc_column; the self slots are still 0.0.
    off = column_sums(r)
    diag = np.where(off < 1.0, 1.0 - off, 0.0)
    r[own] = diag
    return r / (off + diag)[:, np.newaxis]
