"""Shared helpers and independent oracles for the test suite.

Each oracle recomputes a package output by structurally different means
(scalar loops, plain graph search, direct flow simulation), so agreement
with the library is evidence of correctness rather than a repeat of the
same code path.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from swarmguide import (
    Event,
    Partition,
    SpectralReport,
    SwarmState,
    Topology,
    ValidationReport,
    assemble,
    dsmc_column,
    dsmc_recurrent,
    make_topology,
    run_scenario,
)
from swarmguide.analysis import CERT_TOL
from swarmguide.engine import _cell


def adjacency_of(topology: Topology) -> np.ndarray:
    """The dense boolean adjacency of ``topology``: [j, i] is True when bin
    j's stencil lists bin i as a destination, as it lists j itself."""
    adj = np.zeros((topology.m, topology.m), dtype=bool)
    adj[np.nonzero(topology.real)[0], topology.rows[topology.real]] = True
    return adj


def brute_force_grid_adjacency(rows: int, cols: int, hop: int) -> np.ndarray:
    """Grid adjacency by scalar Manhattan-distance checks over all pairs."""
    m = rows * cols
    adj = np.zeros((m, m), dtype=bool)
    for a in range(m):
        ra, ca = divmod(a, cols)
        for b in range(m):
            rb, cb = divmod(b, cols)
            adj[a, b] = abs(ra - rb) + abs(ca - cb) <= hop
    return adj


def bfs_distances(adjacency: np.ndarray, sources) -> np.ndarray:
    """Hop counts from the source set by a plain queue-based search; -1 when
    unreachable."""
    m = adjacency.shape[0]
    dist = np.full(m, -1, dtype=np.int64)
    queue = deque()
    for s in sources:
        dist[s] = 0
        queue.append(int(s))
    while queue:
        u = queue.popleft()
        for v in range(m):
            if v != u and adjacency[u, v] and dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def random_connected_topology(rng: np.random.Generator, m: int, extra_edge_prob: float = 0.15) -> Topology:
    """Random spanning tree plus extra edges; connected by construction."""
    adj = np.eye(m, dtype=bool)
    for i in range(1, m):
        j = int(rng.integers(0, i))
        adj[i, j] = adj[j, i] = True
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < extra_edge_prob:
                adj[i, j] = adj[j, i] = True
    return make_topology(adj)


def random_density(rng: np.random.Generator, m: int, zero_frac: float = 0.0) -> np.ndarray:
    """Random probability vector, optionally with a fraction of exact zeros."""
    x = rng.random(m) + 1e-3
    if zero_frac > 0.0:
        zeros = rng.random(m) < zero_frac
        if zeros.all():
            zeros[int(rng.integers(0, m))] = False
        x[zeros] = 0.0
    return x / x.sum()


def positive_density(rng: np.random.Generator, m: int) -> np.ndarray:
    x = rng.random(m) + 1e-3
    return x / x.sum()


def zero_sum_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    e = rng.standard_normal(m)
    return e - e.mean()


def flow_oracle(e: np.ndarray, x: np.ndarray, adjacency: np.ndarray, d: float) -> np.ndarray:
    """One density step by simulating per-edge flows with scalar arithmetic.

    Bin j offers each adjacent bin with larger error the flow
    (e[i] - e[j]) / d; when the offers exceed the density x[j] they are
    scaled down to exactly exhaust it.  Bins without density send nothing.
    Equals matrix @ x for the synthesized matrix, up to float reassociation.
    """
    m = len(e)
    new = [float(val) for val in x]
    for j in range(m):
        if x[j] <= 0.0:
            continue
        offers = []
        for i in range(m):
            if i != j and adjacency[i, j] and e[i] > e[j]:
                offers.append((i, (e[i] - e[j]) / d))
        total = sum(f for _, f in offers)
        scale = 1.0 if total <= x[j] else float(x[j]) / total
        for i, f in offers:
            amount = f * scale
            new[j] -= amount
            new[i] += amount
    return np.array(new)


def advance_oracle(bins: np.ndarray, z: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Agent moves by a scalar linear scan of each cumulative column.

    A draw at or above the column total (float round-off) lands on the first
    row that reaches the total, the column's last positive entry.
    """
    m = cum.shape[0]
    out = np.empty_like(bins)
    for k in range(len(bins)):
        j = int(bins[k])
        dest = next(i for i in range(m) if cum[i, j] >= cum[m - 1, j])
        for i in range(m):
            if z[k] < cum[i, j]:
                dest = i
                break
        out[k] = dest
    return out


def advance_by_bin_oracle(
    bins: np.ndarray, z: np.ndarray, values: np.ndarray, rows: np.ndarray, stay=None, guide=None
) -> np.ndarray:
    """Agent moves from stencil values by one binary search per occupied bin
    over that bin's dense cumulative column, with the same round-off rule as
    ``advance_oracle``; a drop-in for ``_kernels.advance_agents``, whose
    stay slots and prebuilt ``guide`` it ignores."""
    m = values.shape[0]
    out = np.empty_like(bins)
    for j in np.unique(bins):
        here = bins == j
        dense = np.zeros(m)
        np.add.at(dense, rows[j], values[j])  # padded slots add an exact 0.0
        col = np.cumsum(dense)
        out[here] = np.minimum(np.searchsorted(col, z[here], side="right"), (col < col[-1]).sum())
    return out


def dense_layout(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A dense m x m matrix as (values, rows, stay) for
    ``_kernels.advance_agents``: stencil width m, every bin listing all bins
    as destinations, so bin j stays in slot j."""
    m = matrix.shape[0]
    return np.ascontiguousarray(matrix.T), np.broadcast_to(np.arange(m), (m, m)), np.arange(m)


def local_recurrent_oracle(current_r, desired_r, stencil, d_chsn) -> np.ndarray:
    """Recurrent values built column by column from bin-local data only, by
    ``dsmc_column`` on each bin and its stencil neighbours, then laid into
    the stencil's slots; a drop-in for ``dsmc_recurrent``."""
    x = np.asarray(current_r, dtype=float)
    v = np.asarray(desired_r, dtype=float)
    m_r = x.size
    values = np.zeros(stencil.rows.shape)
    for j in range(m_r):
        real = stencil.real[j]
        nbrs = stencil.rows[j][real]
        nbrs = nbrs[nbrs != j]
        local_x = np.concatenate([[x[j]], x[nbrs]])
        local_v = np.concatenate([[v[j]], v[nbrs]])
        col = dsmc_column(j, local_x, local_v, nbrs, d_chsn, m_r)
        values[j, real] = col[stencil.rows[j][real]]
    return values


def dense_recurrent_oracle(e: np.ndarray, x: np.ndarray, adj: np.ndarray, d_chsn: float) -> np.ndarray:
    """The recurrent block as one dense m_r x m_r computation over the full
    adjacency, with column sums accumulated over every row in ascending
    order; the construction that predates the stencil layout."""
    m = e.shape[0]
    diff = (e[:, np.newaxis] - e[np.newaxis, :]) / d_chsn
    fill = adj & (diff > 0.0) & (x[np.newaxis, :] > 0.0)
    r = np.zeros((m, m))
    np.divide(diff, np.broadcast_to(x[np.newaxis, :], (m, m)), out=r, where=fill)
    np.fill_diagonal(r, 0.0)
    off = np.zeros(m)
    for i in range(m):
        off += r[i]
    diag = np.where(off < 1.0, 1.0 - off, 0.0)
    idx = np.arange(m)
    r[idx, idx] = diag
    return r / (off + diag)[np.newaxis, :]


def dense_dsmc(current, desired, topology: Topology, d_chsn) -> np.ndarray:
    """``dsmc_recurrent`` over every bin of ``topology``, as a dense matrix."""
    return topology.densify(dsmc_recurrent(current, desired, topology, d_chsn))


def dense_transient_oracle(partition: Partition, adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``transient_matrix`` from the dense adjacency, one distance layer at a
    time: each bin of a layer splits its mass evenly over the adjacent bins
    one layer closer, scattered into the blocks of ``partition.ordering``."""
    m_t, m_r = partition.m_t, partition.m_r
    tt = np.zeros((m_t, m_t))
    rt = np.zeros((m_r, m_t))
    pos = np.empty(adjacency.shape[0], dtype=np.int64)
    pos[partition.ordering] = np.arange(adjacency.shape[0])
    closer = partition.recurrent
    for k, layer in enumerate(partition.layers):
        # hit[i, j]: bin j of this layer may move to bin i one layer closer.
        hit = adjacency[np.ix_(closer, layer)]
        count = hit.sum(axis=0)
        assert count.all(), "a transient bin has no neighbour one layer closer"
        i, j = np.nonzero(hit)
        out, first_row = (rt, m_t) if k == 0 else (tt, 0)
        out[pos[closer[i]] - first_row, pos[layer[j]]] = 1.0 / count[j]
        closer = layer
    return tt, rt


def dense_mh_oracle(desired, adjacency: np.ndarray, partition: Partition) -> np.ndarray:
    """The Metropolis-Hastings chain as one dense matrix, its recurrent
    columns built one at a time by scalar loops over the adjacency, its
    transient columns by ``dense_transient_oracle``."""
    v_r = np.asarray(desired, dtype=float)[partition.recurrent]
    sub = adjacency[np.ix_(partition.recurrent, partition.recurrent)].copy()
    np.fill_diagonal(sub, False)
    degree = sub.sum(axis=0)
    m_r = partition.m_r
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
    m1, m2 = dense_transient_oracle(partition, adjacency)
    return assemble(m1, m2, m3, partition)


def dense_audit(matrix, topology: Topology) -> ValidationReport:
    """``validate_markov`` for a dense m x m matrix: column sums, entry signs,
    and the (destination, source) pairs that carry mass across a transition
    the topology does not list."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (topology.m, topology.m):
        raise ValueError(f"matrix shape {m.shape} does not match {topology.m} bins")
    bad_i, bad_j = np.nonzero((m != 0.0) & ~adjacency_of(topology).T)
    return ValidationReport(
        max_column_sum_deviation=float(np.abs(m.sum(axis=0) - 1.0).max()),
        min_entry=float(m.min()),
        mask_violations=tuple(zip(bad_i.tolist(), bad_j.tolist())),
    )


def connected_oracle(adjacency: np.ndarray, subset) -> bool:
    """Connectivity of the subgraph induced on ``subset`` by a queue-based
    search that visits one bin at a time."""
    idx = np.unique(np.asarray(subset, dtype=np.int64))
    member = np.zeros(adjacency.shape[0], dtype=bool)
    member[idx] = True
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[idx[0]] = True
    queue = deque([int(idx[0])])
    while queue:
        i = queue.popleft()
        for j in np.nonzero(adjacency[i] & member & ~seen)[0]:
            seen[j] = True
            queue.append(int(j))
    return bool(seen[idx].all())


def random_column_stochastic(rng: np.random.Generator, topology: Topology) -> np.ndarray:
    """Random matrix that is column-stochastic and respects the adjacency."""
    m = topology.m
    raw = rng.random((m, m)) * adjacency_of(topology).T
    return raw / raw.sum(axis=0, keepdims=True)


def five_solve_certificate(stencil: Topology, d: float) -> SpectralReport:
    """The certificate from five eigenvalue solves of dense m x m tables:
    the radius of the deflated update I - L/d - J/m, the smallest
    eigenvalue of I - G'G for that deflated G, and the rates as the extreme
    eigenvalues of S + J/m and of S = (2 d L - L L) / d^2.  L is built from
    the dense adjacency table, not from the stencil's slots."""
    m = stencil.m
    edges = adjacency_of(stencil) & ~np.eye(m, dtype=bool)
    lap = np.diag(edges.sum(axis=0).astype(float)) - edges
    eigs = np.linalg.eigvalsh(lap)
    deflated = np.eye(m) - lap / d - np.full((m, m), 1.0 / m)
    s = (2.0 * d * lap - lap @ lap) / (d * d)
    return SpectralReport(
        laplacian_eigs=eigs,
        zero_sum_radius=float(np.abs(np.linalg.eigvalsh(deflated)).max()),
        rate_lower=float(np.linalg.eigvalsh(s + np.full((m, m), 1.0 / m))[0]),
        rate_upper=float(np.linalg.eigvalsh(s)[-1]),
        d_chsn=d,
        max_degree=stencil.max_degree,
        lyapunov_margin=float(np.linalg.eigvalsh(np.eye(m) - deflated.T @ deflated)[0]),
        connected=m == 1 or float(eigs[1]) > CERT_TOL,
    )


def dense_replay(scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A deterministic run replayed one dense product at a time.

    Returns the run's densities x_0..x_K (one row per step), its total
    variation series, and M_k @ x_k for the matrix M_k the run hooks at each
    step k, which should reproduce x_{k+1}.  The run is deterministic, so a
    second run hooks exactly the matrices the first one used.
    """
    metrics, snapshots = run_scenario(scenario, snapshot_steps=range(scenario.steps + 1))
    densities = np.array([snapshots[k].density for k in range(scenario.steps + 1)])
    replayed = np.empty((scenario.steps, densities.shape[1]))

    def hook(k, matrix):
        replayed[k] = matrix @ densities[k]

    run_scenario(scenario, matrix_hook=hook)
    return densities, np.array(metrics.total_variation), replayed


def stable_removal_oracle(swarm: SwarmState, event: Event, z: np.ndarray) -> SwarmState:
    """A removal event by a stable sort of the removal draws ``z``: the
    floor(fraction * population) lowest draws go, ties broken by position."""
    doomed = math.floor(event.fraction * swarm.num_agents)
    keep = np.ones(swarm.num_agents, dtype=bool)
    keep[np.argsort(z, kind="stable")[:doomed]] = False
    return SwarmState(assignments=swarm.assignments[keep], agent_ids=swarm.agent_ids[keep], seed=swarm.seed)


def snapshot_csv_oracle(scenario, snapshot) -> str:
    """``final_snapshot.csv`` by one formatted line per bin, three ``repr``
    calls or integer prints each."""
    desired = scenario.desired_density()
    lines = ["bin,row,col,desired,count,density"]
    for b in range(desired.size):
        r, c = divmod(b, scenario.cols)
        density = repr(float(snapshot.density[b]))
        lines.append(f"{b},{r},{c},{repr(float(desired[b]))},{_cell(snapshot.counts[b])},{density}")
    return "\n".join(lines) + "\n"
