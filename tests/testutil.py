"""Shared helpers and independent oracles for the test suite.

Each oracle recomputes a package output by structurally different means
(scalar loops, plain graph search, direct flow simulation), so agreement
with the library is evidence of correctness rather than a repeat of the
same code path.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from swarmguide import Topology, dsmc_column, make_topology


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


def advance_by_bin_oracle(bins: np.ndarray, z: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Agent moves by one binary search per occupied bin over its cumulative
    column, with the same round-off rule as ``advance_oracle``."""
    out = np.empty_like(bins)
    for j in np.unique(bins):
        here = bins == j
        col = cum[:, j]
        out[here] = np.minimum(np.searchsorted(col, z[here], side="right"), (col < col[-1]).sum())
    return out


def local_recurrent_oracle(current_r, desired_r, recurrent_adjacency, params) -> np.ndarray:
    """Recurrent block built column by column from bin-local data only, by
    ``dsmc_column`` on each bin and its neighbors; a drop-in for
    ``dsmc_recurrent``."""
    x = np.asarray(current_r, dtype=float)
    v = np.asarray(desired_r, dtype=float)
    m_r = x.size
    block = np.empty((m_r, m_r))
    for j in range(m_r):
        nbrs = np.nonzero(recurrent_adjacency[:, j])[0]
        nbrs = nbrs[nbrs != j]
        local_x = np.concatenate([[x[j]], x[nbrs]])
        local_v = np.concatenate([[v[j]], v[nbrs]])
        block[:, j] = dsmc_column(j, local_x, local_v, nbrs, params, m_r)
    return block


def random_column_stochastic(rng: np.random.Generator, topology: Topology) -> np.ndarray:
    """Random matrix that is column-stochastic and respects the adjacency."""
    m = topology.m
    raw = rng.random((m, m)) * topology.adjacency.T
    return raw / raw.sum(axis=0, keepdims=True)
