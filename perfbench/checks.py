"""Output checks computed apart from the program under test.

Every check recomputes what it needs from the scenario text (target
density, stencil, BFS layers, population after events) or tests a property
the method must have.  None compares against stored output.  Each check
returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from workloads import Spec

COLUMN_SUM_TOL = 1e-9
RULE_TOL = 1e-12
TV_TOL = 1e-12
RULE_STEPS = 10


def _weight(ch: str) -> int:
    if ch in ".#":
        return 0 if ch == "." else 1
    if ch.isdigit():
        return int(ch)
    return 10 + ord(ch) - ord("a")


def _density(rows: tuple[str, ...]) -> np.ndarray:
    w = np.array([[_weight(ch) for ch in row] for row in rows], dtype=float)
    return (w / w.sum()).ravel()


def desired_density(spec: Spec) -> np.ndarray:
    return _density(spec.map_rows)


def initial_density(spec: Spec) -> np.ndarray:
    if spec.init_rows is None:
        return np.full(spec.m, 1.0 / spec.m)
    return _density(spec.init_rows)


def stencil(spec: Spec) -> np.ndarray:
    """allowed[i, j]: bins i and j lie within Manhattan distance ``hop``."""
    r, c = np.divmod(np.arange(spec.m), spec.cols)
    return np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :]) <= spec.hop


def bfs_layers(spec: Spec) -> np.ndarray:
    """Hop distance of every bin to the target support (0 on the support)."""
    offsets = [
        (dr, dc)
        for dr in range(-spec.hop, spec.hop + 1)
        for dc in range(-spec.hop, spec.hop + 1)
        if 0 < abs(dr) + abs(dc) <= spec.hop
    ]
    support = desired_density(spec) > 0.0
    dist = np.where(support, 0, -1)
    queue = deque(int(b) for b in np.nonzero(support)[0])
    while queue:
        b = queue.popleft()
        r, c = divmod(b, spec.cols)
        for dr, dc in offsets:
            rr, cc = r + dr, c + dc
            if 0 <= rr < spec.rows and 0 <= cc < spec.cols and dist[rr * spec.cols + cc] < 0:
                dist[rr * spec.cols + cc] = dist[b] + 1
                queue.append(rr * spec.cols + cc)
    return dist


def population(spec: Spec) -> list[int]:
    """Agent count recorded at each step 0..steps, removals by floor."""
    n = spec.agents
    out = []
    for k in range(spec.steps + 1):
        for step, fraction in spec.events:
            if step == k:
                n -= math.floor(float(fraction) * n)
        out.append(n)
    return out


def _csv(text: str) -> dict[str, list[str]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    return {name: list(col) for name, col in zip(header, cols)}


def metrics_table(text: str) -> dict[str, np.ndarray]:
    return {k: np.array(v, dtype=float) for k, v in _csv(text).items()}


def check_outputs(spec: Spec, moves: str | None, metrics_text: str, snapshot_text: str) -> list[str]:
    """Check one run's metrics.csv and final_snapshot.csv."""
    problems = []
    t = metrics_table(metrics_text)
    if list(t) != ["step", "total_variation", "transitions", "cumulative_transitions", "num_agents"]:
        return [f"unexpected metrics.csv header {list(t)}"]
    if not np.array_equal(t["step"], np.arange(spec.steps + 1)):
        return [f"metrics.csv does not list steps 0..{spec.steps}"]
    expected = population(spec)
    if not np.array_equal(t["num_agents"], expected):
        problems.append("num_agents does not follow floor arithmetic of the removal events")
    if not np.array_equal(np.cumsum(t["transitions"]), t["cumulative_transitions"]):
        problems.append("cumulative_transitions is not the running sum of transitions")

    snap = metrics_table(snapshot_text)
    desired = desired_density(spec)
    if not np.array_equal(snap["desired"], desired):
        problems.append("final_snapshot desired column differs from the scenario map")
    if spec.mode == "monte-carlo":
        if snap["count"].sum() != expected[-1]:
            problems.append("final_snapshot counts do not add up to the final population")
        density = snap["count"] / expected[-1]
    else:
        if not np.allclose(snap["count"], snap["density"] * expected[-1], rtol=1e-12, atol=0.0):
            problems.append("final_snapshot counts are not density times the final population")
        density = snap["density"]
    tv = 0.5 * math.fsum(np.abs(density - desired))
    if abs(tv - t["total_variation"][-1]) > TV_TOL:
        problems.append(f"TV from final_snapshot.csv {tv!r} != last metrics row {t['total_variation'][-1]!r}")

    if spec.mode == "deterministic" and spec.algorithm == "dsmc":
        rises = np.nonzero(np.diff(t["total_variation"]) > 0.0)[0]
        if rises.size:
            problems.append(f"deterministic TV rises at step {int(rises[0]) + 1}")

    if moves is not None:
        tenth = spec.steps // 10
        rate = t["transitions"] / np.maximum(t["num_agents"], 1)
        first = rate[1:tenth + 1].mean()
        last = rate[-tenth:].mean()
        if moves == "settle" and not last < 0.25 * first:
            problems.append(f"moves per agent do not settle: last tenth {last!r}, first tenth {first!r}")
        if moves == "persist" and not last >= 0.5 * first:
            problems.append(f"moves per agent die out: last tenth {last!r}, first tenth {first!r}")
    return problems


class MatrixAudit:
    """matrix_hook that audits every matrix and keeps the first few.

    Each matrix must be non-negative, column-stochastic within
    COLUMN_SUM_TOL and zero outside the Manhattan-hop stencil.
    """

    def __init__(self, spec: Spec, keep: int = 0):
        self.hop = spec.hop
        self.outside = ~stencil(spec)
        self.keep = keep
        self.kept: list[np.ndarray] = []
        self.steps: list[int] = []
        self.problems: list[str] = []

    def __call__(self, step: int, matrix: np.ndarray):
        self.steps.append(step)
        if len(self.kept) < self.keep:
            self.kept.append(np.array(matrix, copy=True))
        if len(self.problems) >= 5:
            return
        if matrix.min() < 0.0:
            self.problems.append(f"step {step}: negative entry {matrix.min()!r}")
        deviation = np.abs(matrix.sum(axis=0) - 1.0).max()
        if deviation > COLUMN_SUM_TOL:
            self.problems.append(f"step {step}: column sum off by {deviation!r}")
        if np.count_nonzero(matrix[self.outside]):
            self.problems.append(f"step {step}: mass outside the hop-{self.hop} stencil")

    def check(self, spec: Spec) -> list[str]:
        if self.steps != list(range(spec.steps)):
            return [f"matrix_hook saw steps {self.steps[:3]}... instead of 0..{spec.steps - 1}"] + self.problems
        return self.problems


def check_drain(spec: Spec, snapshots) -> list[str]:
    """Zero-target bins are empty at step L and not yet at L-1."""
    dist = bfs_layers(spec)
    layers = int(dist.max())
    transient = dist > 0
    before = snapshots[layers - 1].counts[transient].sum()
    after = snapshots[layers].counts[transient].sum()
    problems = []
    if not before > 0.0:
        problems.append(f"zero-target bins already empty at step {layers - 1}")
    if after != 0.0:
        problems.append(f"zero-target bins hold {after!r} at step {layers} (BFS layers {layers})")
    return problems


def rule_matrix(spec: Spec, x: np.ndarray) -> np.ndarray:
    """The paper's column rule, written out bin by bin.

    Support bin j with density x_j > 0 sends (e_i - e_j) / d to each support
    neighbour i with e_i > e_j, as a probability divided by x_j, where
    e = target - density and d is one more than the largest support degree.
    The rest stays on the diagonal; a column asking for more than all of x_j
    is rescaled.  A bin at BFS layer k > 0 splits evenly over its neighbours
    at layer k - 1.
    """
    v = desired_density(spec)
    allowed = stencil(spec)
    dist = bfs_layers(spec)
    support = np.nonzero(v > 0.0)[0]
    neighbours = {
        int(j): [int(i) for i in support if i != j and allowed[i, j]] for j in support
    }
    d = max(len(n) for n in neighbours.values()) + 1.0
    e = v - x
    out = np.zeros((spec.m, spec.m))
    for j, nbrs in neighbours.items():
        col = np.zeros(spec.m)
        if x[j] > 0.0:
            for i in nbrs:
                flow = (e[i] - e[j]) / d
                if flow > 0.0:
                    col[i] = flow / x[j]
        off = col.sum()
        col[j] = 1.0 - off if off < 1.0 else 0.0
        out[:, j] = col / col.sum()
    for j in np.nonzero(dist > 0)[0]:
        targets = np.nonzero(allowed[:, j] & (dist == dist[j] - 1))[0]
        out[targets, j] = 1.0 / targets.size
    return out


def check_column_rule(spec: Spec, matrices: list[np.ndarray], metrics_text: str) -> list[str]:
    """The first deterministic steps follow the column rule, and so does TV."""
    tv = metrics_table(metrics_text)["total_variation"]
    v = desired_density(spec)
    x = initial_density(spec)
    problems = []
    for k, matrix in enumerate(matrices):
        ours = rule_matrix(spec, x)
        gap = np.abs(ours - matrix).max()
        if gap > RULE_TOL:
            problems.append(f"step {k}: matrix differs from the column rule by {gap!r}")
            break
        x = ours @ x
        tv_gap = abs(0.5 * math.fsum(np.abs(x - v)) - tv[k + 1])
        if tv_gap > RULE_TOL:
            problems.append(f"step {k + 1}: TV differs from the column rule by {tv_gap!r}")
            break
    return problems
