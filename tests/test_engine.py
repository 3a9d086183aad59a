import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import swarmguide._kernels as _kernels
import swarmguide.engine as engine_module
import swarmguide.graph as graph_module
from swarmguide import (
    Event,
    Scenario,
    SwarmState,
    Topology,
    apply_event,
    assemble,
    build_grid_topology,
    dsmc_recurrent,
    initial_swarm,
    iter_run,
    load_scenario,
    make_topology,
    partition_states,
    propagate_density,
    run_scenario,
    step_agents,
    total_variation,
)
from swarmguide._rng import MOVE_STREAM, PLACEMENT_STREAM, uniform_stream
from swarmguide.density import check_density
from swarmguide.engine import ALGORITHMS, MAX_AGENTS, MAX_BINS, MAX_STENCIL_SLOTS, MAX_STEPS, MODES
from swarmguide.synthesis import _audit_stencil, _transient_values

from testutil import brute_force_grid_adjacency, dense_replay, dense_transient_oracle, stable_removal_oracle

LETTER_E = Path(__file__).resolve().parent.parent / "scenarios" / "letter_e.txt"

RING_SCENARIO = Scenario(
    rows=2,
    cols=2,
    hop=1,
    agents=100,
    steps=2,
    algorithm="dsmc",
    seed=7,
    mode="deterministic",
    weights=((1, 1), (6, 12)),
    init_weights=((13, 7), (0, 0)),
)


def test_scenario_validation():
    with pytest.raises(ValueError, match="algorithm"):
        Scenario(2, 2, 1, 10, 5, "gradient", 0, "deterministic", ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="mode"):
        Scenario(2, 2, 1, 10, 5, "dsmc", 0, "hybrid", ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="agents"):
        Scenario(2, 2, 1, 0, 5, "dsmc", 0, "deterministic", ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="steps"):
        Scenario(2, 2, 1, 10, 0, "dsmc", 0, "deterministic", ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="outside"):
        Scenario(
            2, 2, 1, 10, 5, "dsmc", 0, "deterministic", ((1, 1), (1, 1)),
            events=(Event(step=6, fraction=0.5),),
        )
    with pytest.raises(ValueError, match="fraction"):
        Scenario(
            2, 2, 1, 10, 5, "dsmc", 0, "deterministic", ((1, 1), (1, 1)),
            events=(Event(step=1, fraction=1.5),),
        )


@pytest.mark.parametrize(
    "field,changes",
    [
        ("rows", dict(rows=0)),
        ("cols", dict(cols=-2)),
        ("hop", dict(hop=0)),
        # Integer settings refuse bools and other numbers, as the parser does.
        ("rows", dict(rows=2.0)),
        ("cols", dict(cols=True)),
        ("hop", dict(hop=1.0)),
        ("agents", dict(agents=10.5)),
        ("agents", dict(agents=True)),
        ("steps", dict(steps=2.0)),
        ("seed", dict(seed=0.5)),
        ("seed", dict(seed=False)),
        ("weights", dict(weights=((1, 1), (1, 1), (1, 1)))),
        ("weights", dict(weights=((1, 1), (1,)))),
        ("init_weights", dict(init_weights=((1, 0, 0), (0, 0, 0), (0, 0, 0)))),
        ("init_weights", dict(init_weights=((1, 1, 0), (0, 0)))),
        ("weights", dict(weights=((0, 0), (0, 0)))),
        ("init_weights", dict(init_weights=((0, 0), (0, 0)))),
        # A scenario file writes each weight as one character, 0 to 35, so
        # render_scenario has no character for 36 or 0.5, and -1 is no weight.
        *(
            (name, {name: ((1, weight), (1, 1))})
            for name in ("weights", "init_weights")
            for weight in (36, 0.5, -1)
        ),
        # A grid of rows x cols cells that are not integers, but rows of them.
        ("weights", dict(weights=(((1,), (1,)), ((1,), (1,))))),
        # A bool is no weight, even among integers that numpy would promote it to.
        ("weights", dict(weights=((True, 2), (0, 3)))),
        ("init_weights", dict(init_weights=((1, 2), (np.False_, 3)))),
        # An event is an Event, not the (step, fraction) it holds, and events
        # are a sequence of them, not one.
        ("events", dict(events=((1, 0.5),))),
        ("events", dict(events=Event(1, 0.5))),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_scenario_refuses_bad_sizes_and_grid_shapes(field, changes, mode):
    # Refused when built, naming the field, rather than part way into a run.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        replace(RING_SCENARIO, mode=mode, **changes)


def test_scenario_refuses_oversized_runs_before_building_them(monkeypatch):
    # 100x100 bins at hop 198 pass the bin limit, but set-up would lay out
    # 10^4 bins x 199^2 offsets, about 11.5 GB.  A library caller is refused
    # when the Scenario is built, and no topology is.
    def build(*args, **kwargs):
        raise AssertionError("build_grid_topology was called")

    monkeypatch.setattr(engine_module, "build_grid_topology", build)
    monkeypatch.setattr(graph_module, "build_grid_topology", build)
    flat = tuple((1,) * 100 for _ in range(100))
    slots = 10_000 * 199**2
    message = f"^a 100x100 grid at hop 198 has {slots} stencil slots, above the limit of {MAX_STENCIL_SLOTS}$"
    with pytest.raises(ValueError, match=message):
        Scenario(100, 100, 198, 10, 5, "dsmc", 0, "monte-carlo", flat)
    fits = Scenario(100, 100, 2, 10, 5, "dsmc", 0, "monte-carlo", flat)
    with pytest.raises(ValueError, match=message):
        replace(fits, hop=198)
    with pytest.raises(ValueError, match=f"^a 101x100 grid has 10100 bins, above the limit of {MAX_BINS}$"):
        replace(fits, rows=101, weights=flat + flat[:1])
    with pytest.raises(ValueError, match=f"^agents={MAX_AGENTS + 1} exceeds the limit of {MAX_AGENTS} agents$"):
        replace(fits, agents=MAX_AGENTS + 1)
    # About 177 bytes of metrics a step: 10^12 steps would fail with
    # MemoryError only after hours of stepping.  The limit itself is
    # accepted, and nothing is built for it.
    with pytest.raises(ValueError, match=f"^steps={MAX_STEPS + 1} exceeds the limit of {MAX_STEPS} steps$"):
        replace(fits, steps=MAX_STEPS + 1)
    with pytest.raises(ValueError, match="^steps=1000000000000 exceeds the limit"):
        replace(fits, steps=10**12)
    assert replace(fits, steps=MAX_STEPS).steps == MAX_STEPS


def test_scenario_sorts_events_and_derives_densities():
    s = Scenario(
        2, 2, 1, 10, 5, "dsmc", 0, "deterministic", ((1, 1), (1, 1)),
        events=(
            Event(step=4, fraction=0.5),
            Event(step=1, fraction=0.25),
        ),
    )
    assert [ev.step for ev in s.events] == [1, 4]
    assert np.allclose(s.desired_density(), [0.25, 0.25, 0.25, 0.25], atol=1e-15)
    assert np.allclose(s.initial_density(), [0.25, 0.25, 0.25, 0.25], atol=1e-15)
    assert np.allclose(RING_SCENARIO.initial_density(), [0.65, 0.35, 0.0, 0.0], atol=1e-15)


def test_initial_swarm_concentrated_start():
    s = Scenario(
        2, 2, 1, 50, 1, "dsmc", 3, "monte-carlo", ((1, 1), (1, 1)),
        init_weights=((1, 0), (0, 0)),
    )
    swarm = initial_swarm(s)
    assert swarm.num_agents == 50
    assert np.array_equal(swarm.assignments, np.zeros(50, dtype=np.int64))
    assert np.array_equal(swarm.agent_ids, np.arange(50, dtype=np.uint64))


def test_initial_swarm_round_off_lands_on_a_populated_bin(monkeypatch):
    # Weights 1, 4, 1, 0 normalize to a cumulative total of 1 - 1.1e-16; a
    # draw above it must land on bin 2, the last one with initial density.
    s = Scenario(
        2, 2, 1, 3, 1, "dsmc", 3, "monte-carlo", ((1, 1), (1, 1)),
        init_weights=((1, 4), (1, 0)),
    )
    assert np.cumsum(s.initial_density())[-1] < 1.0
    monkeypatch.setattr(
        engine_module, "uniform_stream", lambda seed, stream, step, ids: np.full(ids.size, 2**53 - 1)
    )
    assert initial_swarm(s).assignments.tolist() == [2, 2, 2]


def test_initial_swarm_roughly_uniform():
    s = Scenario(2, 2, 1, 4000, 1, "dsmc", 3, "monte-carlo", ((1, 1), (1, 1)))
    swarm = initial_swarm(s)
    counts = np.bincount(swarm.assignments, minlength=4)
    # Four-sigma band around 1000 per bin.
    assert np.all(np.abs(counts - 1000) < 4 * np.sqrt(4000 * 0.25 * 0.75))


@pytest.mark.parametrize("side, searchsorted_peak", [(20, 32_007_507), (100, 32_161_043)])
def test_initial_swarm_peak_is_no_higher_than_one_searchsorted(side, searchsorted_peak):
    # 10^6 agents from a uniform start over side x side bins.  Placement by
    # one clamped searchsorted over all draws peaked at these byte counts
    # under tracemalloc: the ids, the draws and two agents-sized int64
    # arrays.  The guide reads its cells in blocks, so besides the result it
    # holds no agents-sized array, only its table (4 MB at 10^4 bins).
    agents = 10**6
    s = Scenario(side, side, 1, agents, 1, "dsmc", 3, "monte-carlo", tuple((1,) * side for _ in range(side)))
    tracemalloc.start()
    try:
        swarm = initial_swarm(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= searchsorted_peak
    cum = np.cumsum(s.initial_density())
    z = uniform_stream(3, PLACEMENT_STREAM, 0, swarm.agent_ids) * 2.0**-53
    assert np.array_equal(swarm.assignments, np.minimum(np.searchsorted(cum, z, side="right"), (cum < cum[-1]).sum()))


def complete_graph(m: int):
    """The stencil on which every dense m x m matrix steps: all bins adjacent."""
    return make_topology(np.ones((m, m), dtype=bool))


def test_step_agents_identity_keeps_everyone_in_place():
    swarm = SwarmState(np.array([0, 1, 2, 2]), np.arange(4, dtype=np.uint64), seed=5)
    t = complete_graph(3)
    moved = step_agents(swarm, t.sparsify(np.eye(3)), 0, t)
    assert np.array_equal(moved.assignments, swarm.assignments)


def test_step_agents_permutation_matrix_relabels():
    # Column j sends everyone to bin (j+1) mod 3.
    mat = np.zeros((3, 3))
    mat[1, 0] = mat[2, 1] = mat[0, 2] = 1.0
    swarm = SwarmState(np.array([0, 1, 2]), np.arange(3, dtype=np.uint64), seed=5)
    t = complete_graph(3)
    moved = step_agents(swarm, t.sparsify(mat), 0, t)
    assert moved.assignments.tolist() == [1, 2, 0]


def test_step_agents_subset_sees_same_moves():
    # Agents draw by id, so any sub-swarm advances exactly as it would have
    # inside the full swarm.
    rng = np.random.default_rng(51)
    t = complete_graph(2)
    values = t.sparsify(np.array([[0.3, 0.6], [0.7, 0.4]]))
    full = SwarmState(rng.integers(0, 2, size=30), np.arange(30, dtype=np.uint64), seed=9)
    moved_full = step_agents(full, values, 4, t)
    pick = np.array([3, 7, 11, 29])
    sub = SwarmState(full.assignments[pick], full.agent_ids[pick], seed=9)
    moved_sub = step_agents(sub, values, 4, t)
    assert np.array_equal(moved_sub.assignments, moved_full.assignments[pick])


def test_step_agents_takes_the_draws_of_its_round_hashed_ahead():
    rng = np.random.default_rng(8)
    t = complete_graph(3)
    values = t.sparsify(np.array([[0.2, 0.5, 0.1], [0.3, 0.1, 0.6], [0.5, 0.4, 0.3]]))
    swarm = SwarmState(rng.integers(0, 3, size=40), rng.permutation(np.arange(60, dtype=np.uint64))[:40], seed=4)
    block = uniform_stream(4, MOVE_STREAM, range(5, 8), swarm.agent_ids)
    for i, step in enumerate(range(5, 8)):
        own = step_agents(swarm, values, step, t)
        assert np.array_equal(step_agents(swarm, values, step, t, z=block[i]).assignments, own.assignments)


def test_propagate_density_hand_case_and_conservation():
    t = complete_graph(2)
    out = propagate_density(np.array([0.4, 0.6]), t.sparsify(np.array([[0.5, 0.25], [0.5, 0.75]])), t)
    assert np.allclose(out, [0.35, 0.65], atol=1e-15)
    rng = np.random.default_rng(52)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        raw = rng.random((m, m))
        col = raw / raw.sum(axis=0, keepdims=True)
        x = rng.random(m)
        x /= x.sum()
        t = complete_graph(m)
        assert abs(propagate_density(x, t.sparsify(col), t).sum() - 1.0) < 1e-12


def test_apply_event_removes_floor_of_fraction():
    swarm = SwarmState(np.arange(10) % 3, np.arange(10, dtype=np.uint64), seed=13)
    before = {int(i): int(b) for i, b in zip(swarm.agent_ids, swarm.assignments)}
    out = apply_event(swarm, Event(step=2, fraction=0.25))
    assert out.num_agents == 8  # floor(2.5) = 2 removed
    # Survivors keep identity and position.
    assert set(out.agent_ids.tolist()) < set(swarm.agent_ids.tolist())
    for i, b in zip(out.agent_ids, out.assignments):
        assert before[int(i)] == int(b)
    # Deterministic: the same event picks the same victims.
    again = apply_event(swarm, Event(step=2, fraction=0.25))
    assert np.array_equal(again.agent_ids, out.agent_ids)


def test_apply_event_picks_the_stable_sort_victims(monkeypatch):
    # Draws on a coarse grid tie everywhere: below the cut, at it and above
    # it.  The victims are the lowest draws, ties at the cut taken in
    # ascending position, exactly as a stable sort ranks them.
    rng = np.random.default_rng(53)
    draws = {}
    monkeypatch.setattr(engine_module, "uniform_stream", lambda seed, stream, step, ids: draws["z"])
    swarm = SwarmState(np.arange(12) % 5, np.arange(100, 112, dtype=np.uint64), seed=1)
    hand = np.array([0.5, 0.25, 0.75, 0.25, 0.5, 0.0, 0.5, 0.75, 0.5, 0.25, 0.0, 0.5])
    # Five draws lie below 0.5 and five tie at it: removing 7 takes the
    # first two of the ties, at positions 0 and 4.
    draws["z"] = hand
    out = apply_event(swarm, Event(step=3, fraction=7 / 12))
    assert out.agent_ids.tolist() == [102, 106, 107, 108, 111]
    cases = [(hand, f) for f in (0.1, 0.2, 0.25, 0.5, 0.99)]
    for _ in range(200):
        n = int(rng.integers(1, 60))
        cases.append((rng.integers(0, int(rng.integers(1, 6)), n) / 4.0, float(rng.uniform(0.01, 0.99))))
    for z, fraction in cases:
        swarm = SwarmState(rng.integers(0, 9, z.size), rng.permutation(z.size).astype(np.uint64), seed=1)
        draws["z"] = z
        event = Event(step=3, fraction=fraction)
        got, expected = apply_event(swarm, event), stable_removal_oracle(swarm, event, z)
        assert np.array_equal(got.agent_ids, expected.agent_ids)
        assert np.array_equal(got.assignments, expected.assignments)


def test_apply_event_small_swarm_can_remove_nobody():
    swarm = SwarmState(np.array([0]), np.arange(1, dtype=np.uint64), seed=0)
    out = apply_event(swarm, Event(step=0, fraction=0.5))
    assert out.num_agents == 1


def test_apply_event_rejects_bad_events():
    # An event is refused when it is built, so apply_event never sees one.
    swarm = SwarmState(np.array([0]), np.arange(1, dtype=np.uint64), seed=0)
    with pytest.raises(ValueError, match="fraction"):
        apply_event(swarm, Event(step=0, fraction=0.0))
    with pytest.raises(ValueError, match="fraction"):
        apply_event(swarm, Event(step=0, fraction=1.0))


@pytest.mark.parametrize("step", [1.5, 1.0, True, "1", None])
def test_event_step_must_be_an_integer(step):
    # A float step would be skipped by a deterministic run and break a
    # Monte Carlo one; a bool would render as a line the parser refuses.
    with pytest.raises(ValueError) as err:
        Event(step=step, fraction=0.5)
    assert str(err.value) == f"event step must be an integer, got {step!r}"
    assert Event(step=np.int64(1), fraction=0.5).step == 1


@pytest.mark.parametrize("fraction", ["0.5", True, np.True_, None, 0.5j])
def test_event_fraction_must_be_a_real_number(fraction):
    # A string or a complex number cannot be compared with the bounds, and a
    # bool would render as a line the parser refuses.
    with pytest.raises(ValueError) as err:
        Event(step=1, fraction=fraction)
    assert str(err.value) == f"removal fraction must be a real number, got {fraction!r}"


@pytest.mark.parametrize("fraction", [np.float64(0.25), np.float32(0.25), Fraction(1, 4)])
def test_event_keeps_any_real_fraction_as_a_float(fraction):
    # Stored as a float, the fraction renders as a number the parser reads.
    event = Event(step=1, fraction=fraction)
    assert type(event.fraction) is float and event.fraction == 0.25


def test_removal_does_not_disturb_survivor_streams():
    # A survivor moves exactly as it would have if the removed agents had
    # never existed.
    t = complete_graph(2)
    values = t.sparsify(np.array([[0.5, 0.5], [0.5, 0.5]]))
    full = SwarmState(np.zeros(20, dtype=np.int64), np.arange(20, dtype=np.uint64), seed=3)
    culled = apply_event(full, Event(step=0, fraction=0.4))
    moved_culled = step_agents(culled, values, 1, t)
    fresh = SwarmState(np.zeros(culled.num_agents, dtype=np.int64), culled.agent_ids.copy(), seed=3)
    moved_fresh = step_agents(fresh, values, 1, t)
    assert np.array_equal(moved_culled.assignments, moved_fresh.assignments)


def test_run_scenario_deterministic_ring_series():
    metrics, snapshots = run_scenario(RING_SCENARIO, snapshot_steps=(0, 2))
    assert metrics.steps == [0, 1, 2]
    assert np.allclose(metrics.total_variation, [0.9, 0.3, 0.1], atol=1e-12, rtol=0.0)
    # Expected movers: step 1 moves 70% of 100 agents, step 2 a third of them.
    assert metrics.transitions[0] == 0.0
    assert metrics.transitions[1] == pytest.approx(70.0, abs=1e-9)
    assert metrics.transitions[2] == pytest.approx(100.0 / 3.0, abs=1e-9)
    assert metrics.cumulative_transitions[2] == pytest.approx(70.0 + 100.0 / 3.0, abs=1e-9)
    assert metrics.num_agents == [100, 100, 100]
    assert snapshots[0].counts.tolist() == [65.0, 35.0, 0.0, 0.0]
    assert np.allclose(snapshots[2].density, [0.15, 0.05, 0.8 / 3, 1.6 / 3], atol=1e-12)
    assert np.allclose(snapshots[2].counts, [15.0, 5.0, 80.0 / 3.0, 160.0 / 3.0], atol=1e-9)


def test_run_scenario_monte_carlo_counts_agents():
    s = Scenario(
        2, 2, 1, 500, 3, "dsmc", 11, "monte-carlo", ((1, 1), (6, 12)),
        events=(Event(step=1, fraction=0.5),),
    )
    metrics, snapshots = run_scenario(s, snapshot_steps=(3,))
    assert metrics.num_agents == [500, 250, 250, 250]
    assert metrics.transitions[0] == 0.0
    assert all(t == int(t) for t in metrics.transitions)
    assert snapshots[3].counts.sum() == 250
    assert abs(snapshots[3].density.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_monte_carlo_runs_meet_the_seams_preconditions_by_construction(algorithm):
    # The per-step seams take their inputs unchecked: every agent in a bin
    # of the grid, and at least one agent.  A removal takes floor(f * n)
    # agents with f < 1, so the harshest schedule still leaves one, and
    # agents only move along audited columns, so they stay on the grid.
    s = Scenario(
        3, 4, 1, 4000, 12, algorithm, 5, "monte-carlo", ((1, 2, 0, 1), (0, 3, 1, 1), (0, 0, 1, 4)),
        events=(Event(step=0, fraction=0.999), Event(step=3, fraction=0.999), Event(step=7, fraction=0.999)),
    )
    metrics, snapshots = run_scenario(s, snapshot_steps=range(13))
    assert metrics.num_agents == [4, 4, 4] + [1] * 10
    for k, snap in snapshots.items():
        assert snap.counts.shape == snap.density.shape == (12,)
        assert snap.counts.sum() == metrics.num_agents[k]
        check_density(snap.density)


def test_run_scenario_event_at_step_zero():
    s = Scenario(
        2, 2, 1, 100, 1, "dsmc", 11, "monte-carlo", ((1, 1), (6, 12)),
        events=(Event(step=0, fraction=0.3),),
    )
    metrics, _ = run_scenario(s)
    assert metrics.num_agents[0] == 70


@pytest.mark.parametrize("mode", MODES)
def test_run_scenario_event_schedule(mode):
    # Events at step 0, two at step 2 (applied in file order) and one at the
    # last step; snapshots at event steps see the swarm after the events.
    s = Scenario(
        2, 2, 1, 1000, 4, "dsmc", 3, mode, ((1, 1), (6, 12)),
        events=(
            Event(step=2, fraction=0.5),
            Event(step=0, fraction=0.1),
            Event(step=4, fraction=0.25),
            Event(step=2, fraction=0.3),
        ),
    )
    metrics, snapshots = run_scenario(s, snapshot_steps=(0, 1, 2, 4))
    assert metrics.steps == [0, 1, 2, 3, 4]
    assert metrics.num_agents == [900, 900, 315, 315, 237]
    assert sorted(snapshots) == [0, 1, 2, 4]
    for k, total in ((0, 900), (1, 900), (2, 315), (4, 237)):
        assert snapshots[k].counts.sum() == pytest.approx(total, rel=1e-12)
        assert snapshots[k].density.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_move_draws_hashed_in_blocks_change_nothing(monkeypatch, algorithm):
    # 4096 agents hash 4 rounds per call at a budget of 2^14: the removal at
    # step 4 falls on a block boundary.  The 2048 left hash 8, but the event
    # at step 9 ends their block after 5; the 1536 left hash 10.  At the
    # default budget of 2^15 they hash 21, so the last block ends with the
    # run.  A budget of 1 hashes one round per call, one of 2^22 each span
    # between events in one call.
    scenario = Scenario(
        3, 3, 1, 4096, 20, algorithm, 21, "monte-carlo", ((1, 2, 3), (0, 4, 5), (0, 0, 7)),
        events=(
            Event(step=4, fraction=0.5),
            Event(step=9, fraction=0.25),
        ),
    )
    assert engine_module._DRAW_BLOCK == 1 << 15
    expected_blocks = {
        1: [range(r, r + 1) for r in range(20)],
        1 << 14: [range(0, 4), range(4, 9), range(9, 19), range(19, 20)],
        1 << 15: [range(0, 4), range(4, 9), range(9, 20)],
        1 << 22: [range(0, 4), range(4, 9), range(9, 20)],
    }
    hash_block = engine_module.uniform_stream
    runs = []
    for budget, blocks in expected_blocks.items():
        calls = []

        def counting(seed, stream, step, ids):
            out = hash_block(seed, stream, step, ids)
            calls.append((stream, step, out.size))
            return out

        monkeypatch.setattr(engine_module, "_DRAW_BLOCK", budget)
        monkeypatch.setattr(engine_module, "uniform_stream", counting)
        metrics, snapshots = run_scenario(scenario, snapshot_steps=(0, 4, 8, 9, 20))
        runs.append((metrics.to_csv(), snapshots))
        alive = metrics.num_agents
        assert alive[:10] == [4096] * 4 + [2048] * 5 + [1536]
        # Placement, the two removals, and each move round once, by the
        # agents alive when it moves: no round hashed twice, none wasted.
        assert [step for stream, step, _ in calls if stream == MOVE_STREAM] == blocks
        assert sum(size for *_, size in calls) == 4096 + 4096 + 2048 + sum(alive[:20])
    for csv, snapshots in runs[1:]:
        assert csv == runs[0][0]
        assert sorted(snapshots) == sorted(runs[0][1])
        for k, snap in snapshots.items():
            assert snap.counts.tobytes() == runs[0][1][k].counts.tobytes()
            assert snap.density.tobytes() == runs[0][1][k].density.tobytes()


# 3x3 bins with transient bins and a removal inside the run.
STREAM_SCENARIO = Scenario(
    3, 3, 1, 600, 6, "dsmc", 13, "monte-carlo", ((1, 2, 0), (0, 3, 1), (0, 0, 4)),
    events=(Event(step=3, fraction=0.25),),
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_stream_of_step_records_is_the_run(algorithm, mode):
    # Each record is a metrics row of run_scenario; its values densify to
    # the matrix the hook sees for the step it drove, and its density is
    # the snapshot's.  A feedback matrix changes every step, the baseline
    # only at row 1, its first.
    scenario = replace(STREAM_SCENARIO, algorithm=algorithm, mode=mode)
    hooked = []
    metrics, snapshots = run_scenario(
        scenario, snapshot_steps=range(scenario.steps + 1), matrix_hook=lambda k, mat: hooked.append((k, mat.tobytes()))
    )
    rows = []
    for rec in iter_run(scenario):
        rows.append((rec.step, rec.total_variation, rec.transitions, rec.population))
        assert rec.changed == (rec.step > 0 and (algorithm == "dsmc" or rec.step == 1))
        assert rec.density.tobytes() == snapshots[rec.step].density.tobytes()
        assert (rec.swarm is None) == (mode == "deterministic")
        if rec.step == 0:
            assert rec.values is None
        else:
            assert hooked[rec.step - 1] == (rec.step - 1, rec.topology.densify(rec.values).tobytes())
    assert rows == list(zip(metrics.steps, metrics.total_variation, metrics.transitions, metrics.num_agents))
    assert metrics.num_agents[2:4] == [600, 450]


@pytest.mark.parametrize("mode", MODES)
def test_a_reader_that_stops_at_a_record_runs_no_further(monkeypatch, mode):
    # ``export-matrix`` takes record s + 1, whose matrix drove step s: the
    # run synthesizes s + 1 matrices and no more.
    synthesize, calls = engine_module.dsmc_recurrent, []

    def counting(*args):
        calls.append(args)
        return synthesize(*args)

    monkeypatch.setattr(engine_module, "dsmc_recurrent", counting)
    scenario = replace(STREAM_SCENARIO, mode=mode)
    for s in range(scenario.steps):
        calls.clear()
        record = next(islice(iter_run(scenario), s + 1, None))
        assert record.step == s + 1
        assert len(calls) == s + 1


def test_the_hook_fold_holds_one_dense_matrix_at_a_time(monkeypatch):
    # The fold drops the last dense matrix before it densifies the next: a
    # fold that densified first would hold two m x m arrays at its peak.
    bases, densify = [], Topology.densify

    def hook(k, matrix):
        bases.append(weakref.ref(matrix.base))

    def densify_after_the_last_is_gone(self, values):
        assert all(ref() is None for ref in bases), "an earlier dense matrix is still alive"
        return densify(self, values)

    monkeypatch.setattr(Topology, "densify", densify_after_the_last_is_gone)
    run_scenario(STREAM_SCENARIO, matrix_hook=hook)
    assert len(bases) == STREAM_SCENARIO.steps


def test_run_scenario_baseline_reuses_one_matrix():
    captured = []
    s = Scenario(2, 2, 1, 50, 3, "mh", 5, "deterministic", ((1, 1), (6, 12)))
    run_scenario(s, matrix_hook=lambda k, mat: captured.append(mat))
    assert len(captured) == 3
    assert captured[0] is captured[1] is captured[2]


def test_run_scenario_feedback_synthesizes_fresh_matrices():
    captured = []
    run_scenario(RING_SCENARIO, matrix_hook=lambda k, mat: captured.append(mat.copy()))
    assert len(captured) == 2
    assert not np.array_equal(captured[0], captured[1])


def test_run_scenario_hook_exceptions_propagate():
    class Stop(Exception):
        pass

    def hook(k, mat):
        raise Stop

    with pytest.raises(Stop):
        run_scenario(RING_SCENARIO, matrix_hook=hook)


def test_run_scenario_aborts_on_invalid_matrix(monkeypatch):
    # Recurrent values come in stencil layout: every bin stays put, and bin
    # 0's column sums to 1.2.
    def broken(stencil):
        values = stencil.own.astype(float)
        values[0][stencil.own[0]] = 1.2
        return values

    monkeypatch.setattr(engine_module, "dsmc_recurrent", lambda current_r, desired_r, stencil, d_chsn: broken(stencil))
    for mode in ("deterministic", "monte-carlo"):
        with pytest.raises(RuntimeError, match="failed validation at step 0"):
            run_scenario(replace(RING_SCENARIO, mode=mode))

    # The fixed baseline matrix is rejected once, before any step runs.
    monkeypatch.setattr(engine_module, "mh_recurrent", lambda desired_r, stencil: broken(stencil))
    hooked = []
    with pytest.raises(RuntimeError, match="failed validation before step 0"):
        run_scenario(replace(RING_SCENARIO, algorithm="mh"), matrix_hook=lambda k, mat: hooked.append(k))
    assert hooked == []


@pytest.mark.parametrize(
    "defect,fragment",
    [
        ("negative", "min entry -0.1"),
        ("column sum", "column sum deviation 0.1999"),
        ("padded slot", ", 1 mask violations$"),
        ("transient bin", ", 1 mask violations$"),
    ],
)
@pytest.mark.parametrize("mode", ["deterministic", "monte-carlo"])
def test_run_scenario_audit_aborts_on_each_defect(monkeypatch, defect, fragment, mode):
    # A defect injected in stencil layout stops the run before any hook sees
    # the matrix.  On 3x3 bins at hop 1 a bin has 5 slots; corner bin 0, on
    # the support's edge, lists itself and bins 1 and 3, so its last two
    # slots are padding.  The padded-slot leak keeps every column sum at 1,
    # so only the padded-slot check can see it.  So does the leak from
    # recurrent bin 1 into the slot of transient bin 2, which the topology
    # lists but the recurrent stencil pads.
    def broken(current_r, desired_r, stencil, d_chsn):
        assert stencil.rows[0].tolist() == [0, 1, 2, 0, 0] and stencil.real[0].tolist() == [1, 1, 1, 0, 0]
        values = stencil.own.astype(float)
        if defect == "negative":
            values[0, :2] = 1.1, -0.1
        elif defect == "column sum":
            values[0, 0] = 1.2
        elif defect == "padded slot":
            values[0, 0] = values[0, 4] = 0.5
        else:
            assert stencil.rows[1].tolist() == [0, 1, 1, 1, 1] and stencil.real[1].tolist() == [1, 1, 0, 0, 0]
            values[1, 1] = values[1, 2] = 0.5
        return values

    monkeypatch.setattr(engine_module, "dsmc_recurrent", broken)
    scenario = Scenario(3, 3, 1, 100, 2, "dsmc", 7, mode, ((1, 1, 0), (1, 0, 0), (0, 0, 0)))
    hooked = []
    with pytest.raises(RuntimeError, match=f"failed validation at step 0: .*{fragment}"):
        run_scenario(scenario, matrix_hook=lambda k, mat: hooked.append(k))
    assert hooked == []


@pytest.mark.parametrize("mode", MODES)
def test_run_scenario_audit_refuses_a_baseline_leaking_onto_a_transient_bin(monkeypatch, mode):
    # Recurrent bin 1 of the support {0, 1, 3} sends half its mass to the
    # slot of transient bin 2; every column still sums to 1.
    def leaking(desired_r, stencil):
        values = stencil.own.astype(float)
        values[1, 1] = values[1, 2] = 0.5
        return values

    monkeypatch.setattr(engine_module, "mh_recurrent", leaking)
    scenario = Scenario(3, 3, 1, 100, 2, "mh", 7, mode, ((1, 1, 0), (1, 0, 0), (0, 0, 0)))
    hooked = []
    with pytest.raises(RuntimeError, match="failed validation before step 0: .*, 1 mask violations$"):
        run_scenario(scenario, matrix_hook=lambda k, mat: hooked.append(k))
    assert hooked == []


@pytest.mark.parametrize("defect", ["own bin", "own layer"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_scenario_audit_refuses_transient_columns_off_their_layers(monkeypatch, defect, algorithm):
    # 3x3 bins at hop 1 with support {0, 1}: bins 2, 3 and 4 form layer 1.
    # Transient bin 3 lists bins 0, 3, 4 and 6 and sends all its mass to bin
    # 0; the broken columns keep half of it, or pass half to bin 4 in the
    # same layer.  Column sums stay 1 and every slot used is real in the
    # topology, so only the partition's own slots can refuse them.
    def broken(partition, topology):
        values = transient(partition, topology)
        assert topology.rows[3].tolist() == [0, 3, 4, 6, 3] and values[3].tolist() == [1.0, 0, 0, 0, 0]
        values[3, 0] = values[3, 1 if defect == "own bin" else 2] = 0.5
        return values

    transient = _transient_values
    monkeypatch.setattr(engine_module, "_transient_values", broken)
    scenario = Scenario(3, 3, 1, 100, 2, algorithm, 7, "deterministic", ((1, 1, 0), (0, 0, 0), (0, 0, 0)))
    when = "before" if algorithm == "mh" else "at"
    with pytest.raises(RuntimeError, match=f"failed validation {when} step 0: .*, 1 mask violations$"):
        run_scenario(scenario)


@pytest.mark.parametrize(
    "defect,fragment",
    [
        ("negative", "min entry -0.1"),
        ("column sum", "column sum deviation 0.1999"),
        ("padded slot", ", 1 mask violations$"),
        ("transient bin", ", 1 mask violations$"),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_run_scenario_audit_refuses_a_defect_first_made_at_a_later_step(monkeypatch, defect, fragment, mode):
    # Steps 0 and 1 synthesize sound matrices, and step 2 breaks one
    # recurrent row as the step-0 test above does.  After the first, whole
    # audit only the recurrent rows are audited, against their rows of the
    # audit stencil, and each defect is still refused before the hook sees
    # the matrix.
    steps = []

    def broken_at_step_2(current_r, desired_r, stencil, d_chsn):
        steps.append(len(steps))
        if steps[-1] < 2:
            return dsmc_recurrent(current_r, desired_r, stencil, d_chsn)
        values = stencil.own.astype(float)
        if defect == "negative":
            values[0, :2] = 1.1, -0.1
        elif defect == "column sum":
            values[0, 0] = 1.2
        elif defect == "padded slot":
            values[0, 0] = values[0, 4] = 0.5
        else:
            values[1, 1] = values[1, 2] = 0.5
        return values

    monkeypatch.setattr(engine_module, "dsmc_recurrent", broken_at_step_2)
    scenario = Scenario(3, 3, 1, 100, 4, "dsmc", 7, mode, ((1, 1, 0), (1, 0, 0), (0, 0, 0)))
    hooked = []
    with pytest.raises(RuntimeError, match=f"failed validation at step 2: .*{fragment}"):
        run_scenario(scenario, matrix_hook=lambda k, mat: hooked.append(k))
    assert hooked == [0, 1]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_nothing_a_run_hands_its_matrix_to_can_write_into_it(monkeypatch, algorithm):
    # The run's one values buffer is read-only between its writes, so
    # neither a sampler nor a hook can change the rows an audit passed.
    def scribble(k, matrix):
        matrix[0, 0] = 0.5

    for mode in MODES:
        with pytest.raises(ValueError, match="read-only"):
            run_scenario(replace(RING_SCENARIO, algorithm=algorithm, mode=mode), matrix_hook=scribble)

    def scribbling_advance(bins, z, values, rows, stay, guide=None):
        values[0, 0] = 0.5

    monkeypatch.setattr(_kernels, "advance_agents", scribbling_advance)
    with pytest.raises(ValueError, match="read-only"):
        run_scenario(replace(RING_SCENARIO, algorithm=algorithm, mode="monte-carlo"))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_nothing_a_run_hands_its_matrix_to_can_make_it_writeable(monkeypatch, algorithm):
    # Setting the flag back would let a sampler or hook write into an
    # audited matrix; the run's views refuse it.
    def unlock(k, matrix):
        matrix.flags.writeable = True

    for mode in MODES:
        with pytest.raises(ValueError, match="WRITEABLE"):
            run_scenario(replace(RING_SCENARIO, algorithm=algorithm, mode=mode), matrix_hook=unlock)

    def unlocking_advance(bins, z, values, rows, stay, guide=None):
        values.flags.writeable = True

    monkeypatch.setattr(_kernels, "advance_agents", unlocking_advance)
    with pytest.raises(ValueError, match="WRITEABLE"):
        run_scenario(replace(RING_SCENARIO, algorithm=algorithm, mode="monte-carlo"))

    # A reader of the record stream gets the same view of the buffer.
    for mode in MODES:
        records = iter_run(replace(RING_SCENARIO, algorithm=algorithm, mode=mode))
        assert next(records).values is None
        with pytest.raises(ValueError, match="WRITEABLE"):
            next(records).values.flags.writeable = True


def test_stencil_values_equal_the_assembled_matrix_on_letter_e(monkeypatch):
    # Every hooked matrix equals the dense assembly of the same recurrent
    # blocks and of the transient blocks built from the scalar adjacency, bit
    # for bit, and the sampler gets exactly its stencil values, zero-padded.
    scenario = replace(load_scenario(LETTER_E), steps=30, events=())
    topology = build_grid_topology(scenario.rows, scenario.cols, scenario.hop)
    partition = partition_states(topology, scenario.desired_density())
    tt, rt = dense_transient_oracle(partition, brute_force_grid_adjacency(scenario.rows, scenario.cols, scenario.hop))
    blocks, hooked, sampled = [], [], []

    def recording_synthesis(current_r, desired_r, neighbours, d_chsn):
        values = dsmc_recurrent(current_r, desired_r, neighbours, d_chsn)
        blocks.append(neighbours.densify(values))
        return values

    def recording_advance(bins, z, values, rows, stay, guide=None):
        # A feedback matrix is sampled through its unguided tables, kept
        # across steps; they equal the tables of the whole matrix.
        whole = _kernels.sampler_tables(values)
        assert guide.table is None
        assert guide.cum.tobytes() == whole.cum.tobytes()
        sampled.append((values.copy(), rows))
        return advance(bins, z, values, rows, stay, guide=guide)

    advance = _kernels.advance_agents
    monkeypatch.setattr(engine_module, "dsmc_recurrent", recording_synthesis)
    monkeypatch.setattr(_kernels, "advance_agents", recording_advance)
    run_scenario(scenario, matrix_hook=lambda k, mat: hooked.append(mat))
    assert len(blocks) == len(hooked) == len(sampled) == 30
    for block, mat, (values, rows) in zip(blocks, hooked, sampled):
        assert mat.tobytes() == assemble(tt, rt, block, partition).tobytes()
        assert not mat.flags.writeable
        assert np.array_equal(rows, topology.rows)
        assert np.array_equal(values[topology.real], mat[rows[topology.real], np.nonzero(topology.real)[0]])
        assert not values[~topology.real].any()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_only_the_monte_carlo_baseline_builds_a_guide_and_only_once(monkeypatch, algorithm, mode):
    # The fixed chain's sampler tables are built at set-up and handed to
    # every step; a feedback matrix changes every step and is sampled
    # through unguided tables, one set kept across the steps.  Initial
    # placement builds its own one-column guide.
    builds, guides = [], []
    build, advance = _kernels.build_guide, _kernels.advance_agents

    def counting_build(values, rows, cells=_kernels.GUIDE_CELLS):
        builds.append(build(values, rows, cells))
        return builds[-1]

    def recording_advance(bins, z, values, rows, stay, guide=None):
        guides.append(guide)
        return advance(bins, z, values, rows, stay, guide=guide)

    monkeypatch.setattr(_kernels, "build_guide", counting_build)
    monkeypatch.setattr(_kernels, "advance_agents", recording_advance)
    scenario = replace(load_scenario(LETTER_E), steps=12, events=(), algorithm=algorithm, mode=mode)
    run_scenario(scenario)
    placements = [g for g in builds if g.table.shape[0] == 1]
    assert len(placements) == (1 if mode == "monte-carlo" else 0)
    builds = [g for g in builds if g.table.shape[0] > 1]
    guided = algorithm == "mh" and mode == "monte-carlo"
    assert len(builds) == (1 if guided else 0)
    assert len(guides) == (12 if mode == "monte-carlo" else 0)
    kept = builds[0] if guided else guides[0] if guides else None
    assert all(g is kept for g in guides)
    assert guided or kept is None or (isinstance(kept, _kernels.Tables) and kept.table is None)


def test_a_monte_carlo_dsmc_run_derives_the_stay_slots_once(monkeypatch):
    # The stay slots are a constant of the stencil: derived once per run and
    # handed to every step's stay test, not found again on each step.
    derived, stays = [], []
    derive, advance = graph_module.Topology.stay.func, _kernels.advance_agents

    def counting_derive(self):
        derived.append(self)
        return derive(self)

    def recording_advance(bins, z, values, rows, stay, guide=None):
        stays.append(stay)
        return advance(bins, z, values, rows, stay, guide=guide)

    stay = cached_property(counting_derive)
    stay.__set_name__(graph_module.Topology, "stay")
    monkeypatch.setattr(graph_module.Topology, "stay", stay)
    monkeypatch.setattr(_kernels, "advance_agents", recording_advance)
    scenario = replace(load_scenario(LETTER_E), steps=12, events=(), algorithm="dsmc", mode="monte-carlo")
    run_scenario(scenario)
    assert len(derived) == 1 and len(stays) == 12
    assert all(s is stays[0] for s in stays)
    topology, bins = derived[0], np.arange(derived[0].m)
    assert np.array_equal(topology.rows[bins, stays[0]], bins) and topology.real[bins, stays[0]].all()


@pytest.mark.parametrize("mode", MODES)
def test_steps_without_a_hook_stay_on_the_stencil(monkeypatch, mode):
    # 40x40 bins, hop 2, 20000 agents: an m x agents gather alone would be
    # 256 MB, and the dense path peaked at about 350 MB under tracemalloc.
    letter = load_scenario(LETTER_E)
    scenario = Scenario(
        rows=40, cols=40, hop=2, agents=20000, steps=2, algorithm="dsmc", seed=3, mode=mode,
        weights=tuple(tuple(w for w in row for _ in range(2)) for row in letter.weights for _ in range(2)),
    )

    def no_dense(self, values):
        raise AssertionError("a step without a hook built a dense matrix")

    monkeypatch.setattr(Topology, "densify", no_dense)
    tracemalloc.start()
    try:
        run_scenario(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96e6


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_full_target_run_builds_no_dense_matrix(algorithm, mode):
    # 64x64 bins, all of them recurrent.  One dense 4096 x 4096 float table,
    # such as a recurrent Laplacian, block or matrix, would add 134 MB (a
    # dense baseline build peaked at 437 MB, a dense deterministic step at
    # 154 MB, and the boolean adjacency with its construction temporaries,
    # which the topology no longer holds, at about 50 MB).
    scenario = Scenario(
        rows=64, cols=64, hop=1, agents=1000, steps=1, algorithm=algorithm, seed=1, mode=mode,
        weights=tuple(tuple(1 + (r + c) % 3 for c in range(64)) for r in range(64)),
    )
    tracemalloc.start()
    try:
        run_scenario(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_set_up_of_a_100x100_grid_builds_no_table_over_bin_pairs():
    # 100x100 bins, hop 2, a disc target with transient bins around it.  The
    # stencil, the transient columns and the recurrent stencil take a few
    # MB; the boolean adjacency over bin pairs alone is 100 MB, and set-up
    # through it peaked at 286 MB.
    r, c = np.divmod(np.arange(10_000), 100)
    desired = ((r - 50) ** 2 + (c - 50) ** 2 <= 30**2).astype(float)
    desired /= desired.sum()
    tracemalloc.start()
    try:
        topology = build_grid_topology(100, 100, 2)
        partition = partition_states(topology, desired)
        fixed = _transient_values(partition, _audit_stencil(partition, topology))
        neighbours = topology.restrict(partition.recurrent)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert topology.rows.shape == fixed.shape == (10_000, 13)
    assert neighbours.rows.shape == (partition.m_r, 13)
    assert peak < 32e6


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_deterministic_steps_equal_the_dense_product_on_letter_e(algorithm):
    # Every step moves the density over the stencil in a fixed order; the
    # dense product of the hooked matrix, in whatever order BLAS sums it,
    # lands within round-off of it.
    scenario = replace(load_scenario(LETTER_E), algorithm=algorithm, mode="deterministic")
    densities, tv, replayed = dense_replay(scenario)
    assert np.abs(replayed - densities[1:]).max() <= 1e-15
    desired = scenario.desired_density()
    replayed_tv = np.array([total_variation(x, desired) for x in replayed])
    assert np.abs(replayed_tv - tv[1:]).max() <= 1e-12


def test_run_scenario_baseline_matrix_is_read_only():
    def scribble(k, mat):
        mat[0, 0] = 0.5

    with pytest.raises(ValueError, match="read-only"):
        run_scenario(replace(RING_SCENARIO, algorithm="mh"), matrix_hook=scribble)


def test_metrics_csv_format():
    metrics, _ = run_scenario(RING_SCENARIO)
    text = metrics.to_csv()
    lines = text.splitlines()
    assert lines[0] == "step,total_variation,transitions,cumulative_transitions,num_agents"
    assert len(lines) == 4
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert float(row0[1]) == pytest.approx(0.9, abs=1e-12)
    assert row0[2] == "0"
    assert row0[4] == "100"
    assert text.endswith("\n")
    # Full float precision round-trips.
    assert float(lines[2].split(",")[1]) == metrics.total_variation[1]


def test_deterministic_feedback_error_norm_never_increases():
    # Density feedback realizes a weighted-Laplacian update, so the error
    # norm is non-increasing every step and strictly shrinks over any
    # 20-step window until it is essentially zero.
    scenario = Scenario(
        rows=3, cols=4, hop=1, agents=100, steps=60, algorithm="dsmc",
        seed=3, mode="deterministic",
        weights=((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)),
        init_weights=((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    )
    _, snaps = run_scenario(scenario, snapshot_steps=range(61))
    v = np.asarray(scenario.desired_density())
    norms = [float(np.linalg.norm(v - snaps[k].density)) for k in range(61)]
    for k in range(60):
        assert norms[k + 1] <= norms[k] + 1e-12
    for k in range(41):
        if norms[k] > 1e-9:
            assert norms[k + 20] < norms[k]


def test_metrics_invariants_on_monte_carlo_run():
    scenario = replace(
        RING_SCENARIO, mode="monte-carlo", steps=40, agents=300, seed=11,
        events=(Event(step=20, fraction=0.25),),
    )
    metrics, _ = run_scenario(scenario)
    lines = metrics.to_csv().splitlines()
    assert len(lines) == 42
    prev_cum = 0.0
    for row in lines[1:]:
        step, tv, transitions, cum, num = row.split(",")
        assert 0.0 <= float(tv) <= 1.0
        assert float(transitions) >= 0.0
        assert float(cum) >= prev_cum
        prev_cum = float(cum)
        assert int(num) > 0
