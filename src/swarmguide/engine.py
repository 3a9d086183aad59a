"""Swarm propagation engine.

Runs a scenario either as a Monte Carlo simulation of individual agents or
as a deterministic density recursion, synthesizing the transition matrix
every step (density feedback) or once up front (baseline chain), applying
scheduled events, and recording per-step metrics.  A ``Scenario`` checks
the inputs once and stores each in one form, so that it is a value; every
run starts from one.  The run audits each matrix it computes; its swarms
and densities are valid by construction, and no step checks them again.

A run works in the stencil layout of ``swarmguide.graph.Topology``: column
j of each step's matrix is an m x w value array's row j, over bin j's
ascending destinations.  The grid topology is built as that stencil
straight away.  At set-up ``iter_run`` places the transient columns,
which never change, in the slots of one m x w values buffer and restricts
the stencil to the recurrent bins, slot for slot as their rows of the run's
stencil.  Every matrix a run steps through is built and audited one way:
the recurrent columns, by ``dsmc_recurrent`` every step or by
``mh_recurrent`` once for the baseline chain, are written into the buffer
in place, with no dense block, and ``validate_markov`` checks signs,
column sums (added slot by slot by ``_kernels.column_sums``) and padded
slots against the audit stencil built at set-up, where only the slots the
partition allows are real: recurrent to recurrent, transient one layer
closer.  The first matrix is audited whole, at O(m w) cost; after it only
the m_r recurrent rows can change, so each later ``dsmc`` step audits only
them, against the recurrent stencil, whose real slots are the audit
stencil's in those rows, at O(m_r w).  The run alone writes the buffer;
the views it hands out, the hook's dense matrix included, are read-only and
refuse ``flags.writeable = True``.  Agents and densities step from its
stencil values.  A Monte Carlo run builds its sampler tables
(``_kernels.Tables``) once, at set-up: the baseline's after its audit, a
guide table included, and a feedback run's from the buffer before its
first recurrent rows are written, then assigned in the recurrent columns
from each step's synthesized rows.  Initial placement reads the
initial density through a guide of its own, ``_kernels.placement_guide``,
and a removal event finds its victims with one partition of the removal
draws.  The density step adds each destination's sources in ascending
order, slot by slot, skipping the massless ones, so no BLAS kernel chooses
the summation order.  So past set-up a step costs O(m_r w + agents), besides a
few O(m) vector passes over the densities and a hook's dense matrix.  Only
a reader of the run builds a dense m x m matrix: ``run_scenario`` for a
``matrix_hook``, once per matrix, and ``export-matrix``; a dense matrix M
over topology t steps as ``t.sparsify(M)``.  Because adding 0.0 is exact,
stencil column sums and cumulative sums equal the dense ones entry for entry.

Time indexing: row k of the metrics describes the swarm after k transitions.
``iter_run`` makes one pass per row in both modes: for k > 0 it builds and
audits the matrix of step k - 1 -> k and steps through it; then it applies
the events at step k and yields row k, a ``StepRecord``.  A Monte Carlo run
hashes its move draws ahead, ``_DRAW_BLOCK`` // agents rounds per
``uniform_stream`` call, each block ending before the next event step, and
hands ``step_agents`` each round's row with its tables; the draws, and so
the run, are the same for any block size.  At an event step it hashes each
event's removal draws, next to those blocks, and hands them to
``apply_event`` alike.  A draw stays the hash's 53-bit integer from the hash
to the destination: placement, moves and removals compare integers, and the
sampler tables hold integer bounds (see ``swarmguide._kernels``).  The run
walks its events, sorted by step, once.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._rng import MOVE_STREAM, PLACEMENT_STREAM, REMOVAL_STREAM, uniform_stream
from .density import empirical_density, total_variation
# ``assemble``, ``laplacian_of``, ``metropolis_hastings`` and
# ``transient_matrix`` are no longer called here; they stay importable from the
# engine because the per-layer benchmark traces them under this module's name.
from .graph import Topology, _grid_offsets, build_grid_topology, laplacian_of, partition_states
from .synthesis import (
    _audit_stencil,
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
    "MAX_AGENTS",
    "MAX_BINS",
    "MAX_STEPS",
    "MAX_STENCIL_SLOTS",
    "SETTINGS",
    "check_grid_size",
    "Event",
    "Scenario",
    "SwarmState",
    "Snapshot",
    "MetricsSeries",
    "initial_swarm",
    "step_agents",
    "propagate_density",
    "apply_event",
    "StepRecord",
    "iter_run",
    "run_scenario",
]

ALGORITHMS = ("dsmc", "mh")
MODES = ("monte-carlo", "deterministic")

# Size limits, enforced when a Scenario is built.  A run without a matrix
# hook holds nothing larger than the bins' stencil, O(m w) for m bins of at
# most w destinations (set-up of 100x100 bins at hop 2 peaks at 6 MB).
# Set-up lays the grid out as the m bins times the offsets within ``hop``
# that fit it, as counted by ``graph._grid_offsets``, and
# ``MAX_STENCIL_SLOTS`` bounds that product: a one-step run peaks at 30-48
# bytes a slot under tracemalloc (largest measured: 100x100 bins at hop 20,
# 8.4e6 slots, 405 MB).  Extrapolated, not measured: about 1 GB at the
# limit, 11.5 GB for 100x100 bins at full reach.  What bounds ``MAX_BINS``
# is the dense matrix ``export-matrix`` writes: a float matrix, 8 bytes
# per bin pair (0.8 GB at the limit).  Each agent costs about 100 bytes per
# step, 1 GB at the limit.  The metrics hold about 177 bytes a step, and
# about 374 while ``MetricsSeries.to_csv`` runs (tracemalloc, 2e5 rows):
# about 0.4 GB at ``MAX_STEPS``.
MAX_BINS = 10_000
MAX_STENCIL_SLOTS = 20_000_000
MAX_AGENTS = 10_000_000
MAX_STEPS = 1_000_000

# Move draws hashed per ``uniform_stream`` call in a Monte Carlo run, as
# rounds x agents (``_kernels._SEARCH_BLOCK`` bounds the sampler's blocks
# alike).  The hash holds two 64-bit integer arrays of rounds x agents at its
# peak, the draws and a shift scratch: 512 KB at 2^15, inside a 2 MB L2 cache.  A
# block of a few rounds pays the hash's fixed cost per call (11-22 us at 100
# ids on a 2-vCPU x86_64 host) once for them all; 2^16 measured 10% slower
# than 2^15 on the letter-E ``mh`` run, its blocks no longer in L2.  A swarm
# of at least this many agents hashes one round per call.
_DRAW_BLOCK = 1 << 15


def check_grid_size(rows: int, cols: int, hop: int | None = None):
    """Refuse a grid of more than ``MAX_BINS`` bins or, given ``hop``, one
    whose set-up stencil has more than ``MAX_STENCIL_SLOTS`` slots.

    Raises ValueError; nothing the size of the grid is built.
    """
    bins = rows * cols
    if bins > MAX_BINS:
        raise ValueError(f"a {rows}x{cols} grid has {bins} bins, above the limit of {MAX_BINS}")
    if hop is not None:
        slots = bins * _grid_offsets(rows, cols, hop)[0].size
        if slots > MAX_STENCIL_SLOTS:
            raise ValueError(
                f"a {rows}x{cols} grid at hop {hop} has {slots} stencil slots, above the limit of {MAX_STENCIL_SLOTS}"
            )


# A scenario's scalar settings, in the order scenario files write them.
SETTINGS = ("rows", "cols", "hop", "agents", "steps", "algorithm", "seed", "mode")
_SIZES = ("rows", "cols", "hop", "agents", "steps")
_CHOICES = {"algorithm": ALGORITHMS, "mode": MODES}  # every other setting is an integer


def _check_setting(name: str, settings: dict):
    """Refuse ``settings[name]`` given only the settings read so far.

    Every rule on a scenario's settings is here, for ``Scenario`` and the
    parser (at each key's line).  Raises ValueError.
    """
    value = settings[name]
    if name not in _CHOICES:
        _require_integer(name, value)
    if name in _SIZES and value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    if name == "agents" and value > MAX_AGENTS:
        raise ValueError(f"agents={value} exceeds the limit of {MAX_AGENTS} agents")
    if name == "steps" and value > MAX_STEPS:
        raise ValueError(f"steps={value} exceeds the limit of {MAX_STEPS} steps")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ValueError(f"unknown {name} {value!r}, expected one of {_CHOICES[name]}")
    if name in ("rows", "cols", "hop") and "rows" in settings and "cols" in settings:
        # The bins once rows and cols are both known, the stencil once hop is too.
        check_grid_size(settings["rows"], settings["cols"], settings.get("hop"))


def _require_integer(name: str, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_some_weight(name: str, grid):
    if not np.any(grid):
        raise ValueError(f"{name} must be positive on at least one bin")


@dataclass(frozen=True)
class Event:
    """Scheduled removal, the one kind of event: ``fraction`` of agents
    vanish at ``step``.  ``step`` is any integer, kept as an ``int``, and
    ``fraction`` any real number, kept as a ``float``: one stored form
    each, the one the scenario file writes.  The parser checks the file's
    ``remove_fraction``."""

    step: int
    fraction: float

    def __post_init__(self):
        _require_integer("event step", self.step)
        object.__setattr__(self, "step", int(self.step))
        if isinstance(self.fraction, bool) or not isinstance(self.fraction, numbers.Real):
            raise ValueError(f"removal fraction must be a real number, got {self.fraction!r}")
        object.__setattr__(self, "fraction", float(self.fraction))
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"removal fraction must be in (0, 1), got {self.fraction}")

    def require_within(self, steps: int):
        """Refuse an event outside a run of ``steps`` steps."""
        if not 0 <= self.step <= steps:
            raise ValueError(f"event at step {self.step} is outside [0, {steps}]")


@dataclass(frozen=True)
class Scenario:
    """Complete, serializable description of one run: a hashable value,
    equal to its ``render_scenario`` text parsed back.

    ``weights`` is the desired-density weight grid (row-major bins) and
    ``init_weights`` the optional initial-density grid; both hold integers
    in [0, 35], as scenario files write them, at least one of them
    positive, and any other grid is refused.  ``init_weights`` of None means
    agents start uniformly over all bins.  ``_check_setting`` refuses the
    first bad setting in ``SETTINGS`` order, so a scenario beyond the size
    limits is refused here, before any of it is built.  Each field is kept
    in one form, whatever form it is given in: integer settings as ``int``,
    grids (lists, NumPy integers or arrays alike) as tuples of row tuples
    of ``int``, and ``events`` as a tuple of ``Event`` sorted by step, any
    other item refused.  Its densities are valid by construction, and a run
    does not check them again.
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
        settings = {}
        for name in SETTINGS:
            settings[name] = getattr(self, name)
            _check_setting(name, settings)
            if name not in _CHOICES:
                settings[name] = int(settings[name])
                object.__setattr__(self, name, settings[name])
        for name in ("weights", "init_weights"):
            grid = getattr(self, name)
            if grid is None:
                continue
            if len(grid) != self.rows or any(len(row) != self.cols for row in grid):
                raise ValueError(f"{name} must be {self.rows}x{self.cols}, one row of {self.cols} weights per grid row")
            # np.asarray would read a bool among ints as the weight 0 or 1.
            mixed = not isinstance(grid, np.ndarray) and {bool, np.bool_} & set(map(type, chain.from_iterable(grid)))
            w = np.asarray(grid)
            if mixed or w.ndim != 2 or w.dtype.kind not in "iu" or w.min() < 0 or w.max() > 35:
                raise ValueError(f"{name} must be integers in [0, 35], as scenario files write them")
            _require_some_weight(name, w)
            object.__setattr__(self, name, tuple(map(tuple, w.tolist())))
        if isinstance(self.events, Event):
            raise ValueError(f"events must be a sequence of Event instances, got {self.events!r}")
        # Read once: an iterator given as events is used up by the first pass.
        events = tuple(self.events)
        for ev in events:
            if not isinstance(ev, Event):
                raise ValueError(f"events must be Event instances, got {ev!r}")
            ev.require_within(self.steps)
        object.__setattr__(self, "events", tuple(sorted(events, key=lambda ev: ev.step)))

    def desired_density(self) -> np.ndarray:
        return _normalised(self.weights)

    def initial_density(self) -> np.ndarray:
        if self.init_weights is None:
            m = self.rows * self.cols
            return np.full(m, 1.0 / m)
        return _normalised(self.init_weights)


def _normalised(grid) -> np.ndarray:
    w = np.asarray(grid, dtype=float)
    return (w / w.sum()).ravel()


@dataclass
class SwarmState:
    """Agent positions and the ids that key their random streams.

    ``agent_ids`` are permanent: survivors keep their ids across removal
    events, so each agent's draws stay reproducible from the run's
    (seed, stream, step, id) no matter what happened to the others.
    """

    assignments: np.ndarray
    agent_ids: np.ndarray

    @property
    def num_agents(self) -> int:
        return int(self.assignments.size)


@dataclass(frozen=True)
class Snapshot:
    """Swarm composition at one recorded step."""

    step: int
    counts: np.ndarray
    density: np.ndarray


def _cell(value: float) -> str:
    """A count as a CSV cell: integral values print as integers, anything
    else as its repr, which keeps full float precision."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


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

    def to_csv(self) -> str:
        lines = ["step,total_variation,transitions,cumulative_transitions,num_agents"]
        for k in range(len(self.steps)):
            lines.append(
                f"{self.steps[k]},{repr(self.total_variation[k])},"
                f"{_cell(self.transitions[k])},{_cell(self.cumulative_transitions[k])},"
                f"{self.num_agents[k]}"
            )
        return "\n".join(lines) + "\n"


def initial_swarm(scenario: Scenario) -> SwarmState:
    """Place agents by inverse-CDF sampling of the initial density.

    Agent a lands on the first bin whose cumulative initial density exceeds
    its placement draw k 2^-53, k an integer in [0, 2^53); the sampler's
    table reads 1.0 from the last bin with positive density on, so
    round-off never passes that bin.
    The draws are read through an exact guide table,
    ``_kernels.placement_guide``.  The initial density is valid by
    construction (see ``Scenario``), so is not checked.
    """
    x0 = scenario.initial_density()
    ids = np.arange(scenario.agents, dtype=np.uint64)
    k = uniform_stream(scenario.seed, PLACEMENT_STREAM, 0, ids)
    assignments = _kernels.place(k, _kernels.placement_guide(x0))
    return SwarmState(assignments=assignments, agent_ids=ids)


def step_agents(
    swarm: SwarmState, values: np.ndarray, stencil: Topology, tables: _kernels.Tables, z: np.ndarray,
) -> SwarmState:
    """Advance every agent one transition through the matrix column of its bin.

    ``values`` holds the matrix in ``stencil``'s slots (a dense matrix M over
    ``stencil`` passes as ``stencil.sparsify(M)``), audited by the caller, as
    a run audits every matrix it steps through, and ``tables`` its sampler
    tables, ``_kernels.sampler_tables(values)`` or, for a matrix that drives
    many steps, ``_kernels.build_guide(values, stencil.rows)``; the moves are
    the same either way.  ``z`` is the round's row of the move stream, one
    integer draw per agent, ``uniform_stream(seed, MOVE_STREAM, step,
    swarm.agent_ids)`` for the run's seed, and every agent sits in a bin in
    [0, stencil.m); none of this is checked.  Each agent lands on the first
    destination of its bin's column whose cumulative probability exceeds
    its z 2^-53 (see ``_kernels.advance_agents``).  Agents are independent,
    so evaluation order and batching cannot change the result.
    """
    assignments = _kernels.advance_agents(swarm.assignments, z, values, stencil.rows, stencil.stay, tables)
    return SwarmState(assignments=assignments, agent_ids=swarm.agent_ids)


def propagate_density(x, values: np.ndarray, stencil: Topology) -> np.ndarray:
    """One deterministic density step through the matrix in ``stencil``'s slots.

    ``values`` is audited by the caller, as for ``step_agents``, and ``x``
    is a float density of shape (stencil.m,), in a run the previous step's
    result.  Neither is checked, nor is the result: the audit (signs, column
    sums, padded slots) makes an audited matrix map a density to a density.
    Each destination adds its sources' mass in ascending source order, a
    padded slot adding 0.0, so no BLAS kernel picks the order.  Only the
    sources with mass are read: a massless one would add an exact 0.0 to
    partial sums that are never below zero, so the result is the same bit
    for bit.
    """
    sources = np.flatnonzero(x)
    flow = (values.take(sources, axis=0) * x.take(sources)[:, np.newaxis]).ravel()
    return np.bincount(stencil.rows.take(sources, axis=0).ravel(), weights=flow, minlength=stencil.m)


def apply_event(swarm: SwarmState, event: Event, z: np.ndarray) -> SwarmState:
    """Apply a removal event; survivors keep their ids and their streams.

    Removes floor(fraction * population) agents, chosen by ranking ``z``,
    the event step's row of the removal stream, one integer draw per agent,
    ``uniform_stream(seed, REMOVAL_STREAM, event.step, swarm.agent_ids)``
    for the run's seed (not checked); so the victims are a uniform sample
    independent of everything the move stream did.  The victims are the
    ``doomed`` lowest draws, ties broken by position, which is the set
    ``np.argsort(z, kind="stable")[:doomed]`` picks, found in linear time:
    every draw below the ``doomed``-th smallest goes, and the draws equal to
    it go in ascending position until ``doomed`` are gone.
    """
    doomed = math.floor(event.fraction * swarm.num_agents)
    if doomed == 0:
        return swarm
    cut = np.partition(z, doomed - 1)[doomed - 1]  # the doomed-th lowest draw
    keep = z >= cut
    ties = np.nonzero(z == cut)[0]
    keep[ties[: doomed - np.count_nonzero(~keep)]] = False
    return SwarmState(assignments=swarm.assignments[keep], agent_ids=swarm.agent_ids[keep])


class StepRecord(NamedTuple):
    """Metrics row ``step`` of a run and what made it, as ``iter_run`` yields it."""

    step: int
    values: np.ndarray | None  # the stencil matrix of step - 1 -> step; None at row 0
    changed: bool  # ``values`` differ from the last record's
    density: np.ndarray  # after the events at ``step``, as is ``population``
    total_variation: float
    transitions: float
    population: int
    swarm: SwarmState | None  # None in deterministic mode
    topology: Topology


def iter_run(scenario: Scenario):
    """Run a scenario lazily, yielding a ``StepRecord`` per metrics row.

    A record's ``values`` is the run's own read-only view, not a copy, valid
    until the next record is drawn; it changes at every ``dsmc`` row from 1
    on and at row 1 of an ``mh`` run.  Monte Carlo mode simulates individual
    agents; deterministic mode propagates the density vector exactly and
    scales a nominal population for the metrics.  Every matrix is audited by
    ``validate_markov`` before use, as the module docstring describes; a
    failure aborts the run with RuntimeError.
    """
    topology = build_grid_topology(scenario.rows, scenario.cols, scenario.hop)
    desired = scenario.desired_density()
    partition = partition_states(topology, desired)  # checks the density first
    recurrent = partition.recurrent
    audit = _audit_stencil(partition, topology)
    # The one values buffer: the transient columns, which never change, with
    # each matrix's recurrent rows written in.  ``restrict`` keeps slot
    # positions, so synthesized recurrent values drop into their topology
    # rows unchanged.  Only ``audited`` writes it; all else reads ``values``,
    # a view that, made by ``as_strided``, refuses ``flags.writeable = True``.
    buffer = _transient_values(partition, audit)
    values = np.lib.stride_tricks.as_strided(buffer, writeable=False)
    neighbours = topology.restrict(recurrent)
    desired_r = desired[recurrent]
    monte_carlo = scenario.mode == "monte-carlo"
    feedback = scenario.algorithm == "dsmc"
    # ``tables``: a Monte Carlo run's sampler tables, built once: the fixed
    # chain's guided, the feedback matrix's assigned in its recurrent columns.
    tables = d_chsn = None

    def audited(recurrent_values, k: int):
        """Write the recurrent rows of the matrix that drives step k - 1 -> k,
        or every step when k is 0, into the buffer and audit the matrix, whole
        if it is the run's first (k <= 1), else in the rows written.  The
        failure message names the step only when the audit fails."""
        buffer[recurrent] = recurrent_values
        # The recurrent rows of the audit stencil mark the recurrent
        # destinations only, as ``neighbours`` does.
        report = validate_markov(values, audit) if k <= 1 else validate_markov(recurrent_values, neighbours)
        if not report.ok():
            when = f"at step {k - 1}" if k else "before step 0"
            raise RuntimeError(
                f"synthesized matrix failed validation {when}: column sum deviation "
                f"{report.max_column_sum_deviation!r}, min entry {report.min_entry!r}, "
                f"{len(report.mask_violations)} mask violations"
            )

    if feedback:
        # partition_states has checked that the recurrent bins are connected.
        d_chsn = choose_d_chsn(neighbours)
        if monte_carlo:
            tables = _kernels.sampler_tables(values)
    else:
        # One fixed matrix, audited once; agents sample it through tables
        # built once.
        audited(mh_recurrent(desired_r, neighbours), 0)
        if monte_carlo:
            tables = _kernels.build_guide(values, topology.rows)

    # Monte Carlo row 0 reads its density from the placed agents.
    swarm = initial_swarm(scenario) if monte_carlo else None
    x = None if monte_carlo else scenario.initial_density()
    # The deterministic step's stays: each bin's ``stay`` slot, flattened.
    stays = topology.stay + topology.rows.shape[1] * np.arange(topology.m)
    population = scenario.agents
    transitions = 0.0
    # Monte Carlo move draws, rounds first to first + len(draws) - 1, hashed
    # a block at a time.  A block ends before the next event step, whose
    # removals change the ids that draw.
    draws, first = (), 0
    # The events, sorted by step, are walked once: events[:done] are applied.
    events, done = scenario.events, 0

    # Pass k steps from k - 1 to k, applies the events at k and yields row k.
    for k in range(scenario.steps + 1):
        if k > 0:
            if feedback:
                synthesized = dsmc_recurrent(x[recurrent], desired_r, neighbours, d_chsn)
                audited(synthesized, k)
                if monte_carlo:
                    tables.cum[:, recurrent] = _kernels.sampler_tables(synthesized).cum
            if monte_carlo:
                if k - 1 == first + len(draws):
                    first, draws = k - 1, ()  # the spent block goes before the next is made
                    # The next event is at step k or later, and none is past the run.
                    next_event = events[done].step if done < len(events) else scenario.steps
                    stop = min(first + max(1, _DRAW_BLOCK // swarm.num_agents), next_event)
                    draws = uniform_stream(scenario.seed, MOVE_STREAM, range(first, stop), swarm.agent_ids)
                moved = step_agents(swarm, values, topology, tables, draws[k - 1 - first])
                transitions = np.count_nonzero(moved.assignments != swarm.assignments)
                swarm = moved
            else:
                # The leavers: all but the self slots' stays, summed over bins in order.
                transitions = float(population * float(np.cumsum(x * (1.0 - values.take(stays)))[-1]))
                x = propagate_density(x, values, topology)

        start = done
        while done < len(events) and events[done].step == k:
            done += 1
        arrivals = events[start:done]
        if monte_carlo:
            for ev in arrivals:
                swarm = apply_event(swarm, ev, uniform_stream(scenario.seed, REMOVAL_STREAM, ev.step, swarm.agent_ids))
            x = empirical_density(swarm.assignments, topology.m)
            population = swarm.num_agents
        else:
            for ev in arrivals:
                population = population - math.floor(ev.fraction * population)

        yield StepRecord(k, values if k else None, k > 0 and (feedback or k == 1), x, total_variation(x, desired),
                         transitions, population, swarm, topology)


def run_scenario(scenario: Scenario, snapshot_steps=(), matrix_hook=None):
    """Run a scenario end to end; returns (MetricsSeries, {step: Snapshot}).

    A fold over ``iter_run``.  ``matrix_hook`` gets (step, matrix) once the
    matrix has driven step ``step`` to ``step + 1`` and the events there are
    applied: a read-only dense array, one for as long as the matrix stays.
    """
    metrics, snapshots = MetricsSeries(), {}
    snapshot_wanted = set(int(s) for s in snapshot_steps)
    for rec in iter_run(scenario):
        if matrix_hook is not None and rec.step > 0:
            if rec.changed:
                dense = None  # the old matrix goes before the new one is built
                dense = np.lib.stride_tricks.as_strided(rec.topology.densify(rec.values), writeable=False)
            matrix_hook(rec.step - 1, dense)
        metrics.append(rec.step, rec.total_variation, rec.transitions, rec.population)
        if rec.step in snapshot_wanted:
            counts = np.bincount(rec.swarm.assignments, minlength=rec.topology.m) if rec.swarm else rec.density * rec.population
            snapshots[rec.step] = Snapshot(step=rec.step, counts=counts.astype(float), density=rec.density.copy())
    return metrics, snapshots
