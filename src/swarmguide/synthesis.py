"""Transition-matrix synthesis.

Three builders produce the column blocks of one column-stochastic matrix in
which entry [i, j] is the probability that an agent in bin j moves to bin i:

* ``dsmc_recurrent``: density-feedback columns for the bins that carry
  positive desired density.  Probability flows from bins with surplus toward
  adjacent bins with deficit, scaled so every column is a distribution, and
  the matrix degenerates to the identity exactly when the current density
  equals the target.
* ``transient_matrix``: shortest-path columns that drain the remaining bins
  toward the desired support, one distance layer per step, with no
  self-loops.
* ``metropolis_hastings``: a density-independent baseline with the same
  stationary distribution, for comparison runs, as a dense matrix;
  ``mh_recurrent`` gives its recurrent columns in stencil layout.

``assemble`` stitches blocks back into original bin numbering and
``validate_markov`` audits any matrix against a topology, or stencil
values against their stencil.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .density import check_density
from .graph import Partition, Stencil, Topology, partition_states

__all__ = [
    "COLUMN_SUM_TOL",
    "SynthesisParams",
    "ValidationReport",
    "choose_d_chsn",
    "dsmc_recurrent",
    "dsmc_column",
    "transient_matrix",
    "assemble",
    "metropolis_hastings",
    "mh_recurrent",
    "validate_markov",
]

# Absolute slack allowed between a column sum and 1.
COLUMN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SynthesisParams:
    """Tuning for density-feedback synthesis.

    ``d_chsn`` divides every pairwise error difference before it becomes a
    transition probability.  It must strictly exceed the maximum degree of
    the self-loop-free recurrent graph; the error recursion then contracts.
    """

    d_chsn: float


def choose_d_chsn(recurrent_graph) -> SynthesisParams:
    """Smallest admissible integer divisor: maximum degree plus one.

    ``recurrent_graph`` is anything with a ``max_degree``: a
    ``LaplacianView`` or the recurrent bins' ``Stencil``.
    """
    return SynthesisParams(d_chsn=float(recurrent_graph.max_degree) + 1.0)


def dsmc_recurrent(current_r, desired_r, stencil: Stencil, params: SynthesisParams) -> np.ndarray:
    """Synthesize the recurrent columns from density feedback, in stencil layout.

    Parameters
    ----------
    current_r : array of shape (m_r,)
        Current density on the recurrent bins.  May sum to less than one
        while probability mass is still draining out of transient bins.
    desired_r : array of shape (m_r,)
        Target density on the recurrent bins, strictly positive, summing
        to 1.
    stencil : Stencil
        The recurrent bins' stencil in their own numbering, for instance
        ``stencil_of(topology).restrict(recurrent)``.
    params : SynthesisParams
        Divisor ``d_chsn``, strictly above ``stencil.max_degree``.

    Returns
    -------
    numpy.ndarray
        Values shaped like ``stencil.rows``: row j is column j of the
        column-stochastic recurrent block over ``stencil.rows[j]``, zero in
        padded slots (``stencil.densify`` gives the dense block).  Each
        neighbour i with e[i] > e[j], e = desired - current, receives flow
        (e[i] - e[j]) / d_chsn, divided by the density x[j] to make it a
        probability; the leftover stays in bin j, and columns asking for more
        than x[j] are rescaled to sum to one.  Bins with zero density keep all
        their mass, and the whole matrix is exactly the identity when current
        equals desired.  Inputs are not validated: a run checks its densities
        and derives ``d_chsn`` once, at set-up.
    """
    x = np.asarray(current_r, dtype=float)
    e = np.asarray(desired_r, dtype=float) - x
    return _kernels.synth_recurrent(e, x, stencil.rows, stencil.own, float(params.d_chsn))


def dsmc_column(j: int, x_local, v_local, neighbor_ids, params: SynthesisParams, m_r: int) -> np.ndarray:
    """Column j of the recurrent block from bin-local data only.

    ``x_local`` and ``v_local`` list bin j's own density and target first,
    then the values for ``neighbor_ids`` in the same order.  The result
    equals column j of the densified ``dsmc_recurrent`` on the full state
    bit for bit, which is what lets each bin's column be computed where the
    bin lives.
    """
    ids = np.asarray(neighbor_ids, dtype=np.int64)
    x_local = np.asarray(x_local, dtype=float)
    v_local = np.asarray(v_local, dtype=float)
    if x_local.shape != v_local.shape or x_local.ndim != 1:
        raise ValueError("local density and target shapes do not match")
    if x_local.size != ids.size + 1:
        raise ValueError(f"expected data for bin {j} plus {ids.size} neighbors, got {x_local.size} entries")
    if not (0 <= j < m_r):
        raise ValueError(f"bin index {j} out of range [0, {m_r})")
    if ids.size and (ids.min() < 0 or ids.max() >= m_r):
        raise ValueError(f"neighbor indices must lie in [0, {m_r})")
    if (j == ids).any():
        raise ValueError(f"bin {j} cannot be its own neighbor")
    if np.unique(ids).size != ids.size:
        raise ValueError("duplicate neighbor indices")
    if params.d_chsn <= ids.size:
        raise ValueError(f"d_chsn={params.d_chsn} must strictly exceed the degree {ids.size}")

    order = np.argsort(ids)
    ids = ids[order]
    e_own = v_local[0] - x_local[0]
    e_nbr = (v_local[1:] - x_local[1:])[order]
    x_own = x_local[0]

    col = np.zeros(m_r)
    if x_own > 0.0:
        flow = (e_nbr - e_own) / params.d_chsn
        pos = flow > 0.0
        col[ids[pos]] = flow[pos] / x_own
    # Ascending-index accumulation, exactly as the full-matrix kernel does it.
    off = 0.0
    for i in ids:
        off += col[i]
    diag = 1.0 - off if off < 1.0 else 0.0
    col[j] = diag
    return col / (off + diag)


def transient_matrix(partition: Partition, topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-path columns for the transient bins.

    Returns ``(tt, rt)`` in the block numbering of ``partition.ordering``:
    ``tt`` maps transient bins to transient bins and ``rt`` maps them to
    recurrent bins.  A bin in the layer touching the desired support splits
    its mass uniformly over its recurrent neighbors; a bin in layer k+1
    splits uniformly over its neighbors in layer k.  No transient bin keeps
    any mass, so renumbered ``tt`` is strictly lower triangular and all
    transient mass reaches the support in at most max-layer steps.
    """
    m_t, m_r = partition.m_t, partition.m_r
    tt = np.zeros((m_t, m_t))
    rt = np.zeros((m_r, m_t))
    if m_t == 0:
        return tt, rt
    pos = np.empty(topology.m, dtype=np.int64)
    pos[partition.ordering] = np.arange(topology.m)
    closer = partition.recurrent
    for k, layer in enumerate(partition.layers):
        # hit[i, j]: bin j of this layer may move to bin i one layer closer.
        hit = topology.adjacency[np.ix_(closer, layer)]
        count = hit.sum(axis=0)
        if not count.all():
            raise ValueError(f"transient bin {int(layer[count == 0][0])} has no neighbor one layer closer to the support")
        i, j = np.nonzero(hit)
        out, first_row = (rt, m_t) if k == 0 else (tt, 0)
        out[pos[closer[i]] - first_row, pos[layer[j]]] = 1.0 / count[j]
        closer = layer
    return tt, rt


def assemble(m1, m2, m3, partition: Partition) -> np.ndarray:
    """Stitch transient and recurrent blocks into original bin numbering.

    ``m1`` is transient-to-transient, ``m2`` transient-to-recurrent, ``m3``
    recurrent-to-recurrent, all in the block numbering of
    ``partition.ordering``.  Recurrent columns place no mass on transient
    bins, so that block is zero by construction.
    """
    m_t, m_r = partition.m_t, partition.m_r
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    m3 = np.asarray(m3, dtype=float)
    if m1.shape != (m_t, m_t):
        raise ValueError(f"transient block must be {(m_t, m_t)}, got {m1.shape}")
    if m2.shape != (m_r, m_t):
        raise ValueError(f"transient-to-recurrent block must be {(m_r, m_t)}, got {m2.shape}")
    if m3.shape != (m_r, m_r):
        raise ValueError(f"recurrent block must be {(m_r, m_r)}, got {m3.shape}")
    m = m_t + m_r
    block = np.zeros((m, m))
    block[:m_t, :m_t] = m1
    block[m_t:, :m_t] = m2
    block[m_t:, m_t:] = m3
    out = np.zeros((m, m))
    out[np.ix_(partition.ordering, partition.ordering)] = block
    return out


def metropolis_hastings(desired, topology: Topology, partition: Partition | None = None) -> np.ndarray:
    """Density-independent baseline chain with ``desired`` as its fixed point.

    On the recurrent bins this is the classic accept/reject walk: propose a
    uniform neighbor, accept with min(1, v[i] deg(j) / (v[j] deg(i))), park
    the rejected mass on the diagonal.  Acceptance is symmetric in flow, so
    the chain is reversible and leaves ``desired`` invariant.  Transient
    columns reuse the shortest-path rule.
    """
    v = check_density(desired, name="desired density")
    if v.size != topology.m:
        raise ValueError(f"desired density has {v.size} bins, topology has {topology.m}")
    if partition is None:
        partition = partition_states(topology, v)
    rec = partition.recurrent
    v_r = v[rec]
    if (v_r <= 0.0).any():
        raise ValueError("desired density must be positive on every recurrent bin")
    sub = topology.adjacency[np.ix_(rec, rec)].copy()
    np.fill_diagonal(sub, False)
    degree = sub.sum(axis=0)
    m_r = rec.size
    m3 = np.zeros((m_r, m_r))
    for j in range(m_r):
        if degree[j] == 0:
            m3[j, j] = 1.0
            continue
        off = 0.0
        for i in np.nonzero(sub[:, j])[0]:
            accept = min(1.0, (v_r[i] * degree[j]) / (v_r[j] * degree[i]))
            p = accept / degree[j]
            m3[i, j] = p
            off += p
        m3[j, j] = max(0.0, 1.0 - off)
    m1, m2 = transient_matrix(partition, topology)
    return assemble(m1, m2, m3, partition)


def mh_recurrent(desired_r, stencil: Stencil) -> np.ndarray:
    """The recurrent columns of ``metropolis_hastings``, in stencil layout.

    ``stencil`` is the recurrent bins' stencil in their own numbering, and
    the values returned are shaped like ``stencil.rows``.  Every entry
    equals the dense matrix's bit for bit: acceptances use the same
    operations, and the rejected mass is what is left after adding the
    moves slot by slot in ascending destination order, as the dense loop
    adds them (a padded or self slot adds an exact 0.0).  Inputs are not
    validated: a run checks its target once, at the scenario boundary.
    """
    v = np.asarray(desired_r, dtype=float)
    moves = stencil.real & ~stencil.own
    degree = moves.sum(axis=1)
    # accept / deg(j), accept = min(1, v[i] deg(j) / (v[j] deg(i))).
    ratio = np.zeros(stencil.rows.shape)
    np.divide(v[stencil.rows] * degree[:, np.newaxis], v[:, np.newaxis] * degree[stencil.rows], out=ratio, where=moves)
    values = np.zeros(stencil.rows.shape)
    np.divide(np.minimum(1.0, ratio), degree[:, np.newaxis], out=values, where=moves)
    off = np.zeros(stencil.m)
    for s in range(stencil.rows.shape[1]):
        off += values[:, s]
    values[stencil.own] = np.maximum(0.0, 1.0 - off)
    return values


@dataclass(frozen=True)
class ValidationReport:
    """Audit of a candidate transition matrix.

    ``mask_violations`` lists (destination, source) pairs that carry
    probability across transitions the topology forbids, destination -1
    for a padded stencil slot.  The report never raises; callers decide
    severity via ``ok``.
    """

    max_column_sum_deviation: float
    min_entry: float
    mask_violations: tuple[tuple[int, int], ...]

    def ok(self, column_sum_tol: float = COLUMN_SUM_TOL) -> bool:
        return (
            self.max_column_sum_deviation <= column_sum_tol
            and self.min_entry >= 0.0
            and not self.mask_violations
        )


def validate_markov(matrix, topology: Topology | Stencil) -> ValidationReport:
    """Measure column sums, entry signs, and mask violations of ``matrix``.

    Entry [i, j] moves bin j mass to bin i, so it is allowed exactly when
    ``topology.adjacency[j, i]`` holds.  With a ``Stencil`` in place of the
    topology, ``matrix`` holds its values (column j in ``matrix[j]``) and
    the audit costs O(m w): column sums accumulate slot by slot, and mass
    in a padded slot of column j, which lists no destination, is reported
    as the pair (-1, j).
    """
    if isinstance(topology, Stencil):
        values = np.asarray(matrix, dtype=float)
        if values.shape != topology.rows.shape:
            raise ValueError(f"stencil values must be {topology.rows.shape}, got {values.shape}")
        padded = np.nonzero(((values != 0.0) & ~topology.real).any(axis=1))[0]
        return ValidationReport(
            max_column_sum_deviation=float(np.abs(np.cumsum(values, axis=1)[:, -1] - 1.0).max()),
            min_entry=float(values.min()),
            mask_violations=tuple((-1, j) for j in padded.tolist()),
        )
    m = np.asarray(matrix, dtype=float)
    if m.shape != (topology.m, topology.m):
        raise ValueError(f"matrix shape {m.shape} does not match {topology.m} bins")
    deviation = float(np.abs(m.sum(axis=0) - 1.0).max())
    min_entry = float(m.min())
    bad_i, bad_j = np.nonzero((m != 0.0) & ~topology.adjacency.T)
    violations = tuple(zip(bad_i.tolist(), bad_j.tolist()))
    return ValidationReport(
        max_column_sum_deviation=deviation,
        min_entry=min_entry,
        mask_violations=violations,
    )
