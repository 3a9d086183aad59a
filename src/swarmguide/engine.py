"""Swarm propagation engine.

Runs a scenario either as a Monte Carlo simulation of individual agents or
as a deterministic density recursion, synthesizing the transition matrix
every step (density feedback) or once up front (baseline chain), applying
scheduled events, and recording per-step metrics.

A run works in the stencil layout of ``swarmguide.graph.Topology``: column
j of each step's matrix is an m x w value array's row j, over bin j's
ascending destinations.  The grid topology is built as that stencil
straight away, and ``stencil_plan`` lays a run out over it once, at set-up:
the transient columns, which never change, and the recurrent bins' own
stencil, slot for slot as their rows of the run's stencil.  The
recurrent columns are written straight into those slots, with no dense
block: by ``dsmc_recurrent`` every step, or by ``mh_recurrent`` once, for
the baseline chain.  Each matrix is audited and sampled over the stencil
at O(m w) cost, and a deterministic step moves the density over the
stencil too: each destination adds its sources' mass in ascending source
order, slot by slot, so no BLAS kernel chooses the summation order.  A dense
m x m matrix is built only for a ``matrix_hook``, which is how
``export-matrix`` reads it.  Because adding 0.0 is exact, stencil column
sums and cumulative sums equal the dense ones entry for entry.

Time indexing: row k of the metrics describes the swarm after k transitions.
An event scheduled at step k is applied once the swarm arrives at step k,
before that row is recorded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._rng import MOVE_STREAM, PLACEMENT_STREAM, REMOVAL_STREAM, uniform_stream
from .density import check_density, empirical_density, from_weight_map, total_variation
# ``assemble``, ``laplacian_of``, ``metropolis_hastings`` and
# ``transient_matrix`` are no longer called here; they stay importable from
# the engine because the per-layer benchmark traces them under this module's
# name.
from .graph import Partition, Topology, build_grid_topology, laplacian_of, partition_states
from .synthesis import (
    COLUMN_SUM_TOL,
    _transient_values,
    assemble,
    choose_d_chsn,
    dsmc_recurrent,
    metropolis_hastings,
    mh_recurrent,
    transient_matrix,
    validate_markov,
)

__all__ = [
    "ALGORITHMS",
    "MODES",
    "Event",
    "Scenario",
    "SwarmState",
    "Snapshot",
    "MetricsSeries",
    "StencilPlan",
    "stencil_plan",
    "initial_swarm",
    "step_agents",
    "propagate_density",
    "apply_event",
    "run_scenario",
]

ALGORITHMS = ("dsmc", "mh")
MODES = ("monte-carlo", "deterministic")


@dataclass(frozen=True)
class Event:
    """Scheduled population event; ``fraction`` of agents vanish at ``step``."""

    step: int
    kind: str
    fraction: float


@dataclass(frozen=True)
class Scenario:
    """Complete, serializable description of one run.

    ``weights`` is the desired-density weight grid (row-major bins) and
    ``init_weights`` the optional initial-density grid; both are small
    nonnegative integers as written in scenario files.  ``init_weights``
    of None means agents start uniformly over all bins.
    """

    rows: int
    cols: int
    hop: int
    agents: int
    steps: int
    algorithm: str
    seed: int
    mode: str
    weights: tuple[tuple[int, ...], ...]
    init_weights: tuple[tuple[int, ...], ...] | None = None
    events: tuple[Event, ...] = ()

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        for name in ("rows", "cols", "hop", "agents", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("weights", "init_weights"):
            grid = getattr(self, name)
            if grid is not None and (len(grid) != self.rows or any(len(row) != self.cols for row in grid)):
                raise ValueError(f"{name} must be {self.rows}x{self.cols}, one row of {self.cols} weights per grid row")
        for ev in self.events:
            if ev.kind != "remove_fraction":
                raise ValueError(f"unknown event kind {ev.kind!r}")
            if not 0 <= ev.step <= self.steps:
                raise ValueError(f"event at step {ev.step} is outside [0, {self.steps}]")
            if not 0.0 < ev.fraction < 1.0:
                raise ValueError(f"removal fraction must be in (0, 1), got {ev.fraction}")
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda ev: ev.step)))

    def desired_density(self) -> np.ndarray:
        return from_weight_map(np.asarray(self.weights, dtype=float))

    def initial_density(self) -> np.ndarray:
        if self.init_weights is None:
            m = self.rows * self.cols
            return np.full(m, 1.0 / m)
        return from_weight_map(np.asarray(self.init_weights, dtype=float))


@dataclass
class SwarmState:
    """Agent positions plus the seed lineage for their random streams.

    ``agent_ids`` are permanent: survivors keep their ids across removal
    events, so each agent's stream stays reproducible from
    (seed, stream, step, id) no matter what happened to the others.
    """

    assignments: np.ndarray
    agent_ids: np.ndarray
    seed: int

    @property
    def num_agents(self) -> int:
        return int(self.assignments.size)


@dataclass(frozen=True)
class Snapshot:
    """Swarm composition at one recorded step."""

    step: int
    counts: np.ndarray
    density: np.ndarray


@dataclass
class MetricsSeries:
    """Per-step metrics, one row per recorded step."""

    steps: list[int] = field(default_factory=list)
    total_variation: list[float] = field(default_factory=list)
    transitions: list[float] = field(default_factory=list)
    cumulative_transitions: list[float] = field(default_factory=list)
    num_agents: list[int] = field(default_factory=list)

    def append(self, step, tv, transitions, num_agents):
        prior = self.cumulative_transitions[-1] if self.cumulative_transitions else 0.0
        self.steps.append(int(step))
        self.total_variation.append(float(tv))
        self.transitions.append(float(transitions))
        self.cumulative_transitions.append(prior + float(transitions))
        self.num_agents.append(int(num_agents))

    def _cell(self, value: float) -> str:
        # Integral counts print as integers; repr keeps full float precision.
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))

    def to_csv(self) -> str:
        lines = ["step,total_variation,transitions,cumulative_transitions,num_agents"]
        for k in range(len(self.steps)):
            lines.append(
                f"{self.steps[k]},{repr(self.total_variation[k])},"
                f"{self._cell(self.transitions[k])},{self._cell(self.cumulative_transitions[k])},"
                f"{self.num_agents[k]}"
            )
        return "\n".join(lines) + "\n"


def initial_swarm(scenario: Scenario) -> SwarmState:
    """Place agents by inverse-CDF sampling of the initial density."""
    x0 = check_density(scenario.initial_density(), name="initial density")
    ids = np.arange(scenario.agents, dtype=np.uint64)
    z = uniform_stream(scenario.seed, PLACEMENT_STREAM, 0, ids)
    cum = np.cumsum(x0)
    # Round-off clamp onto the last bin with positive initial density.
    assignments = np.minimum(np.searchsorted(cum, z, side="right"), (cum < cum[-1]).sum())
    return SwarmState(assignments=assignments.astype(np.int64), agent_ids=ids, seed=scenario.seed)


def _check_matrix(matrix: np.ndarray, m: int) -> np.ndarray:
    mat = np.asarray(matrix, dtype=float)
    if mat.shape != (m, m):
        raise ValueError(f"matrix shape {mat.shape} does not match {m} bins")
    if (mat < 0.0).any():
        raise ValueError("matrix has negative entries")
    dev = float(np.abs(mat.sum(axis=0) - 1.0).max())
    if dev > COLUMN_SUM_TOL:
        raise ValueError(f"matrix column sums deviate from 1 by {dev!r}, tolerance {COLUMN_SUM_TOL}")
    return mat


def step_agents(swarm: SwarmState, matrix, step: int, stencil: Topology | None = None) -> SwarmState:
    """Advance every agent one transition through the matrix column of its bin.

    ``matrix`` is a dense column-stochastic matrix, checked here, or, with
    ``stencil``, the matrix's values in that stencil's slots, which the
    caller has audited.  Each agent draws its own uniform from the move
    stream for ``step`` and walks the cumulative column of its current bin,
    stopping at the first destination whose cumulative probability exceeds
    the draw.  Agents are independent, so evaluation order and batching
    cannot change the result.
    """
    if stencil is None:
        m = np.asarray(matrix).shape[0]
        values = _check_matrix(matrix, m).T
        rows = np.broadcast_to(np.arange(m), (m, m))
    else:
        m = stencil.m
        values, rows = matrix, stencil.rows
    if swarm.num_agents and (swarm.assignments.min() < 0 or swarm.assignments.max() >= m):
        raise ValueError(f"agent assignments must lie in [0, {m})")
    z = uniform_stream(swarm.seed, MOVE_STREAM, step, swarm.agent_ids)
    assignments = _kernels.advance_agents(swarm.assignments, z, values, rows)
    return SwarmState(assignments=assignments, agent_ids=swarm.agent_ids, seed=swarm.seed)


def propagate_density(x, matrix) -> np.ndarray:
    """One deterministic density step, matrix @ x, validated on both ends."""
    xv = check_density(x, name="density")
    mat = _check_matrix(matrix, xv.size)
    return check_density(mat @ xv, name="propagated density")


def apply_event(swarm: SwarmState, event: Event) -> SwarmState:
    """Apply a removal event; survivors keep their ids and their streams.

    Removes floor(fraction * population) agents, chosen by ranking each
    agent's removal-stream draw for the event step, so the victims are a
    uniform sample independent of everything the move stream did.
    """
    if event.kind != "remove_fraction":
        raise ValueError(f"unknown event kind {event.kind!r}")
    if not 0.0 < event.fraction < 1.0:
        raise ValueError(f"removal fraction must be in (0, 1), got {event.fraction}")
    doomed = math.floor(event.fraction * swarm.num_agents)
    if doomed == 0:
        return swarm
    z = uniform_stream(swarm.seed, REMOVAL_STREAM, event.step, swarm.agent_ids)
    victims = np.argsort(z, kind="stable")[:doomed]
    keep = np.ones(swarm.num_agents, dtype=bool)
    keep[victims] = False
    return SwarmState(
        assignments=swarm.assignments[keep],
        agent_ids=swarm.agent_ids[keep],
        seed=swarm.seed,
    )


def _require_valid(values: np.ndarray, stencil: Topology, when: str):
    report = validate_markov(values, stencil)
    if not report.ok():
        raise RuntimeError(
            f"synthesized matrix failed validation {when}: "
            f"column sum deviation {report.max_column_sum_deviation!r}, "
            f"min entry {report.min_entry!r}, "
            f"{len(report.mask_violations)} mask violations"
        )


def _audit(values: np.ndarray, when: str):
    # Column sums accumulate slot by slot, in ascending destination order.
    deviation = float(np.abs(np.cumsum(values, axis=1)[:, -1] - 1.0).max())
    min_entry = float(values.min())
    if not (deviation <= COLUMN_SUM_TOL and min_entry >= 0.0):
        raise RuntimeError(
            f"synthesized matrix failed validation {when}: "
            f"column sum deviation {deviation!r}, min entry {min_entry!r}"
        )


@dataclass(frozen=True)
class StencilPlan:
    """A run laid out once over the bin stencil.

    ``fixed`` holds, in stencil slots, the transient columns, which never
    change during the run, and zero recurrent rows.  ``neighbours`` is the
    stencil of the ``recurrent`` bins in their own numbering, slot for slot
    as their rows of ``stencil``, so recurrent values drop into those rows
    unchanged.
    """

    stencil: Topology
    fixed: np.ndarray
    recurrent: np.ndarray
    neighbours: Topology

    def with_recurrent(self, recurrent_values) -> np.ndarray:
        """Stencil values of the whole matrix, given its recurrent rows."""
        recurrent_values = np.asarray(recurrent_values, dtype=float)
        if recurrent_values.shape != self.neighbours.rows.shape:
            raise ValueError(f"recurrent values must be {self.neighbours.rows.shape}, got {recurrent_values.shape}")
        values = self.fixed.copy()
        values[self.recurrent] = recurrent_values
        return values

    def step_values(self, synthesized, when: str) -> np.ndarray:
        """Audited stencil values with the recurrent rows ``synthesized``.

        Raises RuntimeError when an entry is negative or a column sum is off
        by more than COLUMN_SUM_TOL.
        """
        values = self.with_recurrent(synthesized)
        _audit(values, when)
        return values


def stencil_plan(topology: Topology, partition: Partition) -> StencilPlan:
    """Lay a run out over ``topology``, with the transient columns of
    ``transient_matrix`` in their stencil slots."""
    fixed = _transient_values(partition, topology)
    fixed.flags.writeable = False
    recurrent = partition.recurrent
    return StencilPlan(stencil=topology, fixed=fixed, recurrent=recurrent, neighbours=topology.restrict(recurrent))


def run_scenario(scenario: Scenario, snapshot_steps=(), matrix_hook=None):
    """Run a scenario end to end; returns (MetricsSeries, {step: Snapshot}).

    Monte Carlo mode simulates individual agents; deterministic mode
    propagates the density vector exactly and scales a nominal population
    for the metrics.  Every matrix is audited against the topology before
    use (the fixed baseline once, at set-up); an audit failure aborts the
    run.  ``matrix_hook`` is called as matrix_hook(step, matrix) with each
    matrix about to drive the step from ``step`` to ``step + 1``, as a
    read-only dense array.
    """
    topology = build_grid_topology(scenario.rows, scenario.cols, scenario.hop)
    m = topology.m
    desired = check_density(scenario.desired_density(), name="desired density")
    partition = partition_states(topology, desired)
    plan = stencil_plan(topology, partition)
    recurrent, neighbours = plan.recurrent, plan.neighbours
    desired_r = desired[recurrent]
    monte_carlo = scenario.mode == "monte-carlo"
    baseline = baseline_matrix = None
    if scenario.algorithm == "mh":
        # One fixed matrix: audit it once and freeze it so no hook can alter
        # it after the audit.
        baseline = plan.with_recurrent(mh_recurrent(desired_r, neighbours))
        _require_valid(baseline, plan.stencil, "before step 0")
        baseline.flags.writeable = False
        if matrix_hook is not None:
            baseline_matrix = plan.stencil.densify(baseline)
    # partition_states has checked that the recurrent bins are connected.
    params = choose_d_chsn(neighbours)

    events_at: dict[int, list[Event]] = {}
    for ev in scenario.events:
        events_at.setdefault(ev.step, []).append(ev)

    swarm = initial_swarm(scenario) if monte_carlo else None
    if monte_carlo:
        for ev in events_at.get(0, ()):
            swarm = apply_event(swarm, ev)
        x = empirical_density(swarm, m)
        population = swarm.num_agents
    else:
        x = check_density(scenario.initial_density(), name="initial density")
        population = scenario.agents
        for ev in events_at.get(0, ()):
            population = population - math.floor(ev.fraction * population)

    metrics = MetricsSeries()
    snapshots: dict[int, Snapshot] = {}
    snapshot_wanted = set(int(s) for s in snapshot_steps)

    def record_snapshot(step: int):
        if step in snapshot_wanted:
            if monte_carlo:
                counts = np.bincount(swarm.assignments, minlength=m).astype(float)
            else:
                counts = x * population
            snapshots[step] = Snapshot(step=step, counts=counts, density=x.copy())

    metrics.append(0, total_variation(x, desired), 0.0, population)
    record_snapshot(0)

    for k in range(scenario.steps):
        if baseline is None:
            synthesized = dsmc_recurrent(x[recurrent], desired_r, neighbours, params)
            values = plan.step_values(synthesized, f"at step {k}")
        else:
            values = baseline
        if matrix_hook is not None:
            matrix = plan.stencil.densify(values) if baseline_matrix is None else baseline_matrix
            matrix.flags.writeable = False
            matrix_hook(k, matrix)

        if monte_carlo:
            moved = step_agents(swarm, values, k, stencil=plan.stencil)
            transitions = int((moved.assignments != swarm.assignments).sum())
            swarm = moved
            for ev in events_at.get(k + 1, ()):
                swarm = apply_event(swarm, ev)
            x = empirical_density(swarm, m)
            population = swarm.num_agents
        else:
            # Stay probabilities sit in the self slots; the values are audited
            # already.  Both sums run in a fixed order: bins ascending, and
            # each destination's sources ascending, a padded slot adding 0.0.
            transitions = float(population * float(np.cumsum(x * (1.0 - values[plan.stencil.own]))[-1]))
            flow = (values * x[:, np.newaxis]).ravel()
            x = check_density(np.bincount(plan.stencil.rows.ravel(), weights=flow, minlength=m), name="propagated density")
            for ev in events_at.get(k + 1, ()):
                population = population - math.floor(ev.fraction * population)

        metrics.append(k + 1, total_variation(x, desired), transitions, population)
        record_snapshot(k + 1)

    return metrics, snapshots
