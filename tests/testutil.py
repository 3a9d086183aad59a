"""Shared helpers and independent oracles for the test suite.

Each oracle recomputes a package output by structurally different means
(scalar loops, plain graph search, direct flow simulation), so agreement
with the library is evidence of correctness rather than a repeat of the
same code path.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from swarmguide import (
    LaplacianView,
    SpectralReport,
    Topology,
    dsmc_column,
    dsmc_recurrent,
    make_topology,
    run_scenario,
    stencil_of,
    symmetric_eigenvalues,
)
from swarmguide.analysis import CERT_TOL


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


def advance_by_bin_oracle(bins: np.ndarray, z: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Agent moves from stencil values by one binary search per occupied bin
    over that bin's dense cumulative column, with the same round-off rule as
    ``advance_oracle``; a drop-in for ``_kernels.advance_agents``."""
    m = values.shape[0]
    out = np.empty_like(bins)
    for j in np.unique(bins):
        here = bins == j
        dense = np.zeros(m)
        np.add.at(dense, rows[j], values[j])  # padded slots add an exact 0.0
        col = np.cumsum(dense)
        out[here] = np.minimum(np.searchsorted(col, z[here], side="right"), (col < col[-1]).sum())
    return out


def dense_layout(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A dense m x m matrix as (values, rows) for ``_kernels.advance_agents``:
    stencil width m, every bin listing all bins as destinations."""
    m = matrix.shape[0]
    return np.ascontiguousarray(matrix.T), np.broadcast_to(np.arange(m), (m, m))


def local_recurrent_oracle(current_r, desired_r, stencil, params) -> np.ndarray:
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
        col = dsmc_column(j, local_x, local_v, nbrs, params, m_r)
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


def dense_dsmc(current, desired, topology: Topology, params) -> np.ndarray:
    """``dsmc_recurrent`` over every bin of ``topology``, as a dense matrix."""
    stencil = stencil_of(topology)
    return stencil.densify(dsmc_recurrent(current, desired, stencil, params))


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
    raw = rng.random((m, m)) * topology.adjacency.T
    return raw / raw.sum(axis=0, keepdims=True)


def five_solve_certificate(view: LaplacianView, d: float) -> SpectralReport:
    """The certificate from five eigenvalue solves of dense m x m tables:
    the radius of the deflated update I - L/d - J/m, the smallest
    eigenvalue of I - G'G for that deflated G, and the rates as the extreme
    eigenvalues of S + J/m and of S = (2 d L - L L) / d^2."""
    lap = view.laplacian
    m = lap.shape[0]
    eigs = symmetric_eigenvalues(lap)
    deflated = np.eye(m) - lap / d - np.full((m, m), 1.0 / m)
    s = (2.0 * d * lap - lap @ lap) / (d * d)
    return SpectralReport(
        laplacian_eigs=eigs,
        zero_sum_radius=float(np.abs(symmetric_eigenvalues(deflated)).max()),
        rate_lower=float(symmetric_eigenvalues(s + np.full((m, m), 1.0 / m))[0]),
        rate_upper=float(symmetric_eigenvalues(s)[-1]),
        d_chsn=d,
        max_degree=view.max_degree,
        lyapunov_margin=float(symmetric_eigenvalues(np.eye(m) - deflated.T @ deflated)[0]),
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
