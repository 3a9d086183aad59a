"""Bin topology as each bin's padded neighbour stencil, connectivity checks,
recurrent/transient partitioning, and the Laplacian of the self-loop-free
neighbour graph.

``Topology`` is the one graph representation, a subgraph (``restrict``)
included: every search, partition and Laplacian here reads a bin's
neighbours off its stencil row, at O(m w) cost for m bins of at most w
destinations.  A dense adjacency table is only ever read by
``make_topology``, which converts one given from outside.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import check_density

__all__ = [
    "Topology",
    "Partition",
    "make_topology",
    "build_grid_topology",
    "is_strongly_connected",
    "partition_states",
    "laplacian_of",
]


@dataclass(frozen=True)
class Topology:
    """Allowable one-step transitions between bins, as each bin's padded
    neighbour stencil.

    Row j of ``rows`` lists, in ascending order, the bins an agent in bin j
    may move to in the slots ``real`` marks; every other slot is padding.
    In the stencils of ``build_grid_topology``, ``make_topology`` and
    ``restrict``, transitions are symmetric, staying put is always allowed
    and padding points at bin j itself.  A ``Topology`` built directly need
    not be so: ``run_scenario``'s audit stencil is asymmetric, and its
    unmarked slots list other bins.  ``analysis.contraction_certificate``
    refuses an asymmetric stencil.  Bins are indexed 0..m-1.  Matrix
    column j is held as ``values[j]``, 0.0 in the padded slots, so a
    cumulative sum along a row equals the dense column's cumulative sum at
    the listed bins entry for entry.
    """

    rows: np.ndarray
    real: np.ndarray

    def __post_init__(self):
        for arr in (self.rows, self.real):
            arr.flags.writeable = False

    @property
    def m(self) -> int:
        return int(self.rows.shape[0])

    @property
    def max_degree(self) -> int:
        """Largest number of destinations of a bin other than itself."""
        return int(self.real.sum(axis=1).max()) - 1

    @cached_property
    def own(self) -> np.ndarray:
        """Marks, in each row, the one real slot where an agent stays put."""
        return self.real & (self.rows == np.arange(self.m)[:, np.newaxis])

    @cached_property
    def stay(self) -> np.ndarray:
        """Each row's ``own`` slot as an index, the stay slot the agent
        sampler tests first."""
        return np.argmax(self.own, axis=1)

    @cached_property
    def _dense_index(self) -> tuple[np.ndarray, np.ndarray]:
        return self.rows[self.real], np.nonzero(self.real)[0]

    @cached_property
    def padded(self) -> np.ndarray:
        """Flat index of every padded slot into an m x w array, ascending."""
        return np.flatnonzero(~self.real)

    @cached_property
    def own_slots(self) -> np.ndarray:
        """Flat index of each row's ``own`` slot into an m x w array, ascending:
        ``values.take(own_slots)`` reads what ``values[own]`` does."""
        return np.flatnonzero(self.own)

    def densify(self, values) -> np.ndarray:
        """Dense m x m matrix with column j holding ``values[j]`` at ``rows[j]``."""
        dense = np.zeros((self.m, self.m))
        dense[self._dense_index] = np.asarray(values)[self.real]
        return dense

    def sparsify(self, dense) -> np.ndarray:
        """Stencil values of a dense m x m matrix: the inverse of ``densify``
        for a matrix that is zero off the stencil."""
        values = np.zeros(self.rows.shape)
        values[self.real] = np.asarray(dense, dtype=float)[self._dense_index]
        return values

    def restrict(self, bins) -> Topology:
        """The subgraph on ascending ``bins``, in their numbering.

        Row k keeps the slots of row ``bins[k]``; a destination outside
        ``bins`` becomes a padded slot, so the real slots still ascend.
        """
        bins = np.asarray(bins)
        at = np.full(self.m, -1)
        at[bins] = np.arange(bins.size)
        sub = at[self.rows[bins]]
        real = self.real[bins] & (sub >= 0)
        return Topology(rows=np.where(real, sub, np.arange(bins.size)[:, np.newaxis]), real=real)


def _compacted(dest: np.ndarray, valid: np.ndarray) -> Topology:
    """The stencil whose row j lists ``dest[j][valid[j]]``, which ascend,
    moved to the left in order and padded with bin j."""
    size = valid.sum(axis=1)
    m = size.size
    rows = np.repeat(np.arange(m), size.max()).reshape(m, -1)
    real = np.arange(rows.shape[1]) < size[:, np.newaxis]
    rows[real] = dest[valid]
    return Topology(rows=rows, real=real)


def make_topology(adjacency: np.ndarray) -> Topology:
    """Validate a boolean adjacency table and convert it to its stencil.

    ``adjacency[i, j]`` is True when an agent may move between bins ``i``
    and ``j`` in one step; it must be symmetric with an all-True diagonal.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if not adj.diagonal().all():
        raise ValueError("adjacency diagonal must be True: staying put is always allowed")
    return _compacted(np.broadcast_to(np.arange(adj.shape[0]), adj.shape), adj)


def _grid_offsets(rows: int, cols: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (dr, dc) within ``hop`` that fit the grid, row-major, searched in the box
    they fit in; set-up lays every bin over all of them: ``rows * cols * dr.size`` slots."""
    reach_r, reach_c = min(hop, rows - 1), min(hop, cols - 1)
    dr, dc = np.meshgrid(np.arange(-reach_r, reach_r + 1), np.arange(-reach_c, reach_c + 1), indexing="ij")
    near = np.abs(dr) + np.abs(dc) <= hop
    return dr[near], dc[near]


def build_grid_topology(rows: int, cols: int, hop: int = 1) -> Topology:
    """Grid of ``rows`` x ``cols`` bins, numbered row-major.

    Two bins are adjacent when the Manhattan distance between their cells is
    at most ``hop``, so ``hop`` bounds how far an agent may travel per step.
    The stencil comes straight from the offsets (dr, dc) within that
    distance, in row-major order, so each bin's destinations ascend; no
    table over bin pairs is built.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs at least one row and one column, got {rows}x{cols}")
    if hop < 1:
        raise ValueError(f"hop must be at least 1, got {hop}")
    dr, dc = _grid_offsets(rows, cols, hop)
    r, c = np.divmod(np.arange(rows * cols), cols)
    to_r, to_c = r[:, np.newaxis] + dr, c[:, np.newaxis] + dc
    valid = (to_r >= 0) & (to_r < rows) & (to_c >= 0) & (to_c < cols)
    return _compacted(to_r * cols + to_c, valid)


def _as_subset(m: int, subset) -> np.ndarray:
    idx = np.unique(np.asarray(subset, dtype=np.int64))
    if idx.size != np.asarray(subset).size:
        raise ValueError("subset contains duplicate bin indices")
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= m:
        raise ValueError(f"subset indices must lie in [0, {m})")
    return idx


def is_strongly_connected(topology: Topology, subset=None) -> bool:
    """True when every bin of ``subset`` reaches every other inside it.

    Transitions are symmetric, so a graph search over the induced subgraph,
    one frontier at a time, settles strong connectivity.  ``subset``
    defaults to all bins.
    """
    if subset is None:
        subset = np.arange(topology.m)
    idx = _as_subset(topology.m, subset)
    unseen = np.zeros(topology.m, dtype=bool)
    unseen[idx[1:]] = True
    _search(topology, idx[:1], unseen)
    return not unseen.any()


def _search(topology: Topology, frontier: np.ndarray, unseen: np.ndarray) -> list[np.ndarray]:
    """Graph search from ``frontier`` over the bins ``unseen`` marks, one
    frontier at a time, unmarking what it reaches.  Returns the frontiers
    reached, each ascending: the bins at distance 1, 2, ...  A padded slot
    points back into its frontier, which is never unseen."""
    layers = []
    while True:
        reached = topology.rows[frontier].ravel()
        frontier = np.unique(reached[unseen[reached]])
        if frontier.size == 0:
            return layers
        unseen[frontier] = False
        layers.append(frontier)


@dataclass(frozen=True)
class Partition:
    """Recurrent/transient split with distance layers and block renumbering.

    ``recurrent`` holds the bins carrying positive desired density, ascending.
    ``layers[k]`` holds the transient bins at graph distance k+1 from the
    recurrent set.  ``ordering`` lists every bin farthest-layer-first with the
    recurrent bins last; renumbering rows and columns by it makes the
    transient-to-transient block of any matrix built here strictly lower
    triangular, hence nilpotent.
    """

    recurrent: np.ndarray
    layers: tuple[np.ndarray, ...]
    ordering: np.ndarray

    @property
    def m_r(self) -> int:
        return int(self.recurrent.size)

    @property
    def m_t(self) -> int:
        return int(self.ordering.size - self.recurrent.size)


def partition_states(topology: Topology, desired: np.ndarray) -> Partition:
    """Split bins by the support of ``desired`` and layer the rest by distance.

    Raises when ``desired`` is not a density over the topology's bins (one
    of all zeros sums to 0), when the support is not connected, or when
    some bin cannot reach the support at all.
    """
    v = check_density(desired, name="desired density")
    if v.size != topology.m:
        raise ValueError(f"desired density has {v.size} bins, topology has {topology.m}")
    recurrent = np.nonzero(v > 0.0)[0]
    if not is_strongly_connected(topology, recurrent):
        raise ValueError("bins with positive desired density must form a connected subgraph")
    unseen = np.ones(topology.m, dtype=bool)
    unseen[recurrent] = False
    layers = _search(topology, recurrent, unseen)
    stranded = np.nonzero(unseen)[0]
    if stranded.size:
        raise ValueError(f"bins {stranded.tolist()} cannot reach any bin with positive desired density")
    if layers:
        ordering = np.concatenate([*reversed(layers), recurrent])
    else:
        ordering = recurrent.copy()
    for arr in (recurrent, ordering, *layers):
        arr.flags.writeable = False
    return Partition(recurrent=recurrent, layers=tuple(layers), ordering=ordering)


def laplacian_of(stencil: Topology) -> np.ndarray:
    """Dense, read-only Laplacian of the self-loop-free graph of ``stencil``,
    the one m x m table built here, placed from the real non-self slots.

    For a subset of bins, pass ``topology.restrict(subset)``.  A disconnected
    graph is not refused: ``analysis.contraction_certificate`` reports it.
    """
    edges = stencil.real & ~stencil.own
    lap = np.zeros((stencil.m, stencil.m))
    lap[np.nonzero(edges)[0], stencil.rows[edges]] = -1.0
    lap[np.diag_indices(stencil.m)] = edges.sum(axis=1)
    lap.flags.writeable = False
    return lap
