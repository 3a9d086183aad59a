"""Transition-matrix synthesis.

Three builders produce the column blocks of one column-stochastic matrix in
which entry [i, j] is the probability that an agent in bin j moves to bin i:

* ``dsmc_recurrent``: density-feedback columns for the bins that carry
  positive desired density.  Probability flows from bins with surplus toward
  adjacent bins with deficit, divided by the float ``d_chsn`` that
  ``choose_d_chsn`` reads off their stencil and scaled so every column is a
  distribution; the matrix degenerates to the identity exactly when the
  current density equals the target.
* ``transient_matrix``: shortest-path columns that drain the remaining bins
  toward the desired support, one distance layer per step, with no
  self-loops.
* ``mh_recurrent``: a density-independent baseline with the same
  stationary distribution, for comparison runs; ``metropolis_hastings``
  gives the whole chain as a dense matrix.

Every builder works in the stencil layout of ``swarmguide.graph.Topology``:
column j is row j of an m x w value array over bin j's destinations.  Each
bin's distance to the support, ``Partition.distance``, fixes the transient
columns and the audit's allowed slots.  The dense ``transient_matrix`` and
``metropolis_hastings`` are those values densified, ``assemble`` stitches
dense blocks numbered by ``_block_order`` back into original bin numbering,
and ``validate_markov`` audits stencil values: every matrix a run steps
through, the transient columns with the recurrent rows written in, or only
the recurrent rows once the whole has passed.  Column sums, in the audit
and ``mh_recurrent``, are ``_kernels.column_sums``, slot by slot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .density import SUM_TOL
from .graph import Partition, Topology, partition_states

__all__ = [
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


def choose_d_chsn(stencil: Topology) -> float:
    """Smallest admissible integer divisor ``d_chsn`` for the recurrent bins'
    stencil: its maximum degree plus one.

    ``d_chsn`` divides every pairwise error difference before it becomes a
    transition probability.  It must strictly exceed the maximum degree of
    the self-loop-free recurrent graph; the error recursion then contracts.
    """
    return float(stencil.max_degree) + 1.0


def dsmc_recurrent(current_r, desired_r, stencil: Topology, d_chsn: float) -> np.ndarray:
    """Synthesize the recurrent columns from density feedback, in stencil layout.

    Parameters
    ----------
    current_r : array of shape (m_r,)
        Current density on the recurrent bins.  May sum to less than one
        while probability mass is still draining out of transient bins.
    desired_r : array of shape (m_r,)
        Target density on the recurrent bins, strictly positive, summing
        to 1.
    stencil : Topology
        The recurrent bins' stencil in their own numbering, for instance
        ``topology.restrict(recurrent)``.
    d_chsn : float
        Divisor, strictly above ``stencil.max_degree``.

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
        equals desired.  Inputs are not validated: a run's densities are valid
        by construction or checked, and it derives ``d_chsn`` once, at set-up.
    """
    x = np.asarray(current_r, dtype=float)
    e = np.asarray(desired_r, dtype=float) - x
    return _kernels.synth_recurrent(e, x, stencil.rows, stencil.real, stencil.own, float(d_chsn))


def dsmc_column(j: int, x_local, v_local, neighbor_ids, d_chsn: float, m_r: int) -> np.ndarray:
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
    if d_chsn <= ids.size:
        raise ValueError(f"d_chsn={d_chsn} must strictly exceed the degree {ids.size}")

    order = np.argsort(ids)
    ids = ids[order]
    e_own = v_local[0] - x_local[0]
    e_nbr = (v_local[1:] - x_local[1:])[order]
    x_own = x_local[0]

    col = np.zeros(m_r)
    if x_own > 0.0:
        flow = (e_nbr - e_own) / d_chsn
        pos = flow > 0.0
        col[ids[pos]] = flow[pos] / x_own
    # Ascending-index accumulation, exactly as the full-matrix kernel does it.
    off = 0.0
    for i in ids:
        off += col[i]
    diag = 1.0 - off if off < 1.0 else 0.0
    col[j] = diag
    return col / (off + diag)


def _audit_stencil(partition: Partition, topology: Topology) -> Topology:
    """``topology``'s rows with only the slots the partition lets each
    column use marked real: a recurrent bin's recurrent neighbours, itself
    included, and a transient bin's neighbours one distance layer closer to
    the support.  ``iter_run`` audits every matrix against it."""
    distance = partition.distance
    allowed = topology.real & (distance[topology.rows] == np.maximum(distance - 1, 0)[:, np.newaxis])
    return Topology(rows=topology.rows, real=allowed)


def _transient_values(partition: Partition, audit: Topology) -> np.ndarray:
    """The transient columns in the slots of ``audit``, the partition's
    ``_audit_stencil``, recurrent rows zero: a transient bin splits its mass
    evenly over its real slots there."""
    closer = audit.real & (partition.distance > 0)[:, np.newaxis]
    values = np.zeros(audit.rows.shape)
    np.divide(1.0, closer.sum(axis=1, keepdims=True), out=values, where=closer)
    return values


def _block_order(partition: Partition) -> np.ndarray:
    """The block numbering of ``transient_matrix`` and ``assemble``: farthest
    layer first, ascending within a layer, recurrent bins last.  A transient
    column moves mass one layer closer, so renumbered by it the transient
    block of any matrix built here is strictly lower triangular, nilpotent."""
    return np.argsort(-partition.distance, kind="stable")


def transient_matrix(partition: Partition, topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-path columns for the transient bins.

    Returns ``(tt, rt)`` in the block numbering of ``_block_order``: ``tt``
    maps transient bins to transient bins and ``rt`` maps them to recurrent
    bins.  A bin in the layer touching the desired support splits its mass
    uniformly over its recurrent neighbors; a bin in layer k+1 splits
    uniformly over its neighbors in layer k.  No transient bin keeps any
    mass, so all of it reaches the support in at most max-layer steps.
    """
    dense = topology.densify(_transient_values(partition, _audit_stencil(partition, topology)))
    transient, recurrent = _block_order(partition)[: topology.m - partition.m_r], partition.recurrent
    return dense[np.ix_(transient, transient)], dense[np.ix_(recurrent, transient)]


def assemble(m1, m2, m3, partition: Partition) -> np.ndarray:
    """Stitch transient and recurrent blocks into original bin numbering.

    ``m1`` is transient-to-transient, ``m2`` transient-to-recurrent, ``m3``
    recurrent-to-recurrent, all in the block numbering of ``_block_order``.
    Recurrent columns place no mass on transient bins, so that block is zero
    by construction.
    """
    order = _block_order(partition)
    m_t, m_r = order.size - partition.m_r, partition.m_r
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
    out[np.ix_(order, order)] = block
    return out


def metropolis_hastings(desired, topology: Topology) -> np.ndarray:
    """Density-independent baseline chain with ``desired`` as its fixed point,
    as a dense matrix.

    On the recurrent bins this is the classic accept/reject walk of
    ``mh_recurrent``; transient columns reuse the shortest-path rule.
    ``partition_states`` checks ``desired`` and the topology.
    """
    partition = partition_states(topology, desired)
    v = np.asarray(desired, dtype=float)
    rec = partition.recurrent
    values = _transient_values(partition, _audit_stencil(partition, topology))
    values[rec] = mh_recurrent(v[rec], topology.restrict(rec))
    return topology.densify(values)


def mh_recurrent(desired_r, stencil: Topology) -> np.ndarray:
    """The recurrent columns of the Metropolis-Hastings chain, in stencil layout.

    ``stencil`` is the recurrent bins' stencil in their own numbering, and
    the values returned are shaped like ``stencil.rows``.  Column j proposes
    a uniform neighbour i and accepts with min(1, v[i] deg(j) / (v[j]
    deg(i))); the rejected mass, what is left after adding the moves slot
    by slot in ascending destination order (a padded or self slot adds an
    exact 0.0), stays in bin j.  Acceptance is symmetric in flow, so the
    chain is reversible and leaves ``desired_r`` invariant.  Inputs are not
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
    values[stencil.own] = np.maximum(0.0, 1.0 - _kernels.column_sums(values))
    return values


@dataclass(frozen=True)
class ValidationReport:
    """Audit of a candidate transition matrix.

    ``mask_violations`` lists (-1, source) for each column that carries
    probability in a padded stencil slot, a transition the topology does
    not list.  The report never raises; callers decide severity via
    ``ok``.
    """

    max_column_sum_deviation: float
    min_entry: float
    mask_violations: tuple[tuple[int, int], ...]

    def ok(self) -> bool:
        return (
            self.max_column_sum_deviation <= SUM_TOL
            and self.min_entry >= 0.0
            and not self.mask_violations
        )


def validate_markov(values, topology: Topology) -> ValidationReport:
    """Measure column sums, entry signs, and mask violations of stencil values.

    ``values`` holds a matrix in the stencil layout of ``topology``, column j
    in ``values[j]``, and the audit costs O(m w).  Column sums accumulate
    slot by slot (``_kernels.column_sums``), and mass in a padded slot of
    column j, which lists no destination, is reported as the pair (-1, j);
    the padded slots are read through the topology's cached index.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != topology.rows.shape:
        raise ValueError(f"stencil values must be {topology.rows.shape}, got {values.shape}")
    violations = ()
    padded = values.take(topology.padded)
    if np.count_nonzero(padded):
        slots = topology.padded[padded != 0.0]
        violations = tuple((-1, j) for j in np.unique(slots // values.shape[1]).tolist())
    return ValidationReport(
        max_column_sum_deviation=float(np.abs(_kernels.column_sums(values) - 1.0).max()),
        min_entry=float(values.min()),
        mask_violations=violations,
    )
