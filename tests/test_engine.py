import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swarmguide._kernels as _kernels
import swarmguide.engine as engine_module
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
    load_scenario,
    make_topology,
    partition_states,
    propagate_density,
    run_scenario,
    step_agents,
    total_variation,
)
from swarmguide.engine import ALGORITHMS, MODES, stencil_plan

from testutil import brute_force_grid_adjacency, dense_replay, dense_transient_oracle

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
            events=(Event(step=6, kind="remove_fraction", fraction=0.5),),
        )
    with pytest.raises(ValueError, match="fraction"):
        Scenario(
            2, 2, 1, 10, 5, "dsmc", 0, "deterministic", ((1, 1), (1, 1)),
            events=(Event(step=1, kind="remove_fraction", fraction=1.5),),
        )
    with pytest.raises(ValueError, match="kind"):
        Scenario(
            2, 2, 1, 10, 5, "dsmc", 0, "deterministic", ((1, 1), (1, 1)),
            events=(Event(step=1, kind="add_agents", fraction=0.5),),
        )


@pytest.mark.parametrize(
    "field,changes",
    [
        ("rows", dict(rows=0)),
        ("cols", dict(cols=-2)),
        ("hop", dict(hop=0)),
        ("weights", dict(weights=((1, 1), (1, 1), (1, 1)))),
        ("weights", dict(weights=((1, 1), (1,)))),
        ("init_weights", dict(init_weights=((1, 0, 0), (0, 0, 0), (0, 0, 0)))),
        ("init_weights", dict(init_weights=((1, 1, 0), (0, 0)))),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_scenario_refuses_bad_sizes_and_grid_shapes(field, changes, mode):
    # Refused when built, naming the field, rather than part way into a run.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        replace(RING_SCENARIO, mode=mode, **changes)


def test_scenario_sorts_events_and_derives_densities():
    s = Scenario(
        2, 2, 1, 10, 5, "dsmc", 0, "deterministic", ((1, 1), (1, 1)),
        events=(
            Event(step=4, kind="remove_fraction", fraction=0.5),
            Event(step=1, kind="remove_fraction", fraction=0.25),
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
        engine_module, "uniform_stream", lambda seed, stream, step, ids: np.full(ids.size, 1.0 - 2.0**-53)
    )
    assert initial_swarm(s).assignments.tolist() == [2, 2, 2]


def test_initial_swarm_roughly_uniform():
    s = Scenario(2, 2, 1, 4000, 1, "dsmc", 3, "monte-carlo", ((1, 1), (1, 1)))
    swarm = initial_swarm(s)
    counts = np.bincount(swarm.assignments, minlength=4)
    # Four-sigma band around 1000 per bin.
    assert np.all(np.abs(counts - 1000) < 4 * np.sqrt(4000 * 0.25 * 0.75))


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


def test_step_agents_rejects_bad_matrices():
    # The values are audited by the caller (a run audits every matrix); what
    # is left to refuse is a matrix over fewer bins than the swarm occupies.
    t = complete_graph(2)
    with pytest.raises(ValueError, match="lie in"):
        step_agents(SwarmState(np.array([5]), np.arange(1, dtype=np.uint64), 0), t.sparsify(np.eye(2)), 0, t)


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


def test_propagate_density_rejects_bad_inputs():
    # The values are audited by the caller; the density they produce is
    # checked here, so a matrix that leaks mass cannot pass unnoticed.
    t = complete_graph(2)
    with pytest.raises(ValueError, match="propagated density sums to"):
        propagate_density(np.array([0.5, 0.5]), t.sparsify(np.array([[0.9, 0.0], [0.0, 1.0]])), t)
    # A density over the wrong number of bins must not broadcast across them.
    with pytest.raises(ValueError, match="shape"):
        propagate_density(np.array([0.5]), t.sparsify(np.full((2, 2), 0.5)), t)
    t3 = complete_graph(3)
    with pytest.raises(ValueError, match="shape"):
        propagate_density(np.array([0.5, 0.5]), t3.sparsify(np.eye(3)), t3)


def test_apply_event_removes_floor_of_fraction():
    swarm = SwarmState(np.arange(10) % 3, np.arange(10, dtype=np.uint64), seed=13)
    before = {int(i): int(b) for i, b in zip(swarm.agent_ids, swarm.assignments)}
    out = apply_event(swarm, Event(step=2, kind="remove_fraction", fraction=0.25))
    assert out.num_agents == 8  # floor(2.5) = 2 removed
    # Survivors keep identity and position.
    assert set(out.agent_ids.tolist()) < set(swarm.agent_ids.tolist())
    for i, b in zip(out.agent_ids, out.assignments):
        assert before[int(i)] == int(b)
    # Deterministic: the same event picks the same victims.
    again = apply_event(swarm, Event(step=2, kind="remove_fraction", fraction=0.25))
    assert np.array_equal(again.agent_ids, out.agent_ids)


def test_apply_event_small_swarm_can_remove_nobody():
    swarm = SwarmState(np.array([0]), np.arange(1, dtype=np.uint64), seed=0)
    out = apply_event(swarm, Event(step=0, kind="remove_fraction", fraction=0.5))
    assert out.num_agents == 1


def test_apply_event_rejects_bad_events():
    # An event is refused when it is built, so apply_event never sees one.
    swarm = SwarmState(np.array([0]), np.arange(1, dtype=np.uint64), seed=0)
    with pytest.raises(ValueError, match="kind"):
        apply_event(swarm, Event(step=0, kind="teleport", fraction=0.5))
    with pytest.raises(ValueError, match="fraction"):
        apply_event(swarm, Event(step=0, kind="remove_fraction", fraction=0.0))
    with pytest.raises(ValueError, match="fraction"):
        apply_event(swarm, Event(step=0, kind="remove_fraction", fraction=1.0))


def test_removal_does_not_disturb_survivor_streams():
    # A survivor moves exactly as it would have if the removed agents had
    # never existed.
    t = complete_graph(2)
    values = t.sparsify(np.array([[0.5, 0.5], [0.5, 0.5]]))
    full = SwarmState(np.zeros(20, dtype=np.int64), np.arange(20, dtype=np.uint64), seed=3)
    culled = apply_event(full, Event(step=0, kind="remove_fraction", fraction=0.4))
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
        events=(Event(step=1, kind="remove_fraction", fraction=0.5),),
    )
    metrics, snapshots = run_scenario(s, snapshot_steps=(3,))
    assert metrics.num_agents == [500, 250, 250, 250]
    assert metrics.transitions[0] == 0.0
    assert all(t == int(t) for t in metrics.transitions)
    assert snapshots[3].counts.sum() == 250
    assert abs(snapshots[3].density.sum() - 1.0) < 1e-12


def test_run_scenario_event_at_step_zero():
    s = Scenario(
        2, 2, 1, 100, 1, "dsmc", 11, "monte-carlo", ((1, 1), (6, 12)),
        events=(Event(step=0, kind="remove_fraction", fraction=0.3),),
    )
    metrics, _ = run_scenario(s)
    assert metrics.num_agents[0] == 70


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

    monkeypatch.setattr(engine_module, "dsmc_recurrent", lambda current_r, desired_r, stencil, params: broken(stencil))
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
    ],
)
@pytest.mark.parametrize("mode", ["deterministic", "monte-carlo"])
def test_run_scenario_audit_aborts_on_each_defect(monkeypatch, defect, fragment, mode):
    # A defect injected in stencil layout stops the run before any hook sees
    # the matrix.  Mass outside the stencil has no slot to go in; the
    # property tests check that synthesis puts none in the padded slots.
    def broken(current_r, desired_r, stencil, params):
        assert stencil.rows[0].tolist() == [0, 1, 2]  # bin 0, then its two neighbours
        values = stencil.own.astype(float)
        if defect == "negative":
            values[0, :2] = 1.1, -0.1
        else:
            values[0, 0] = 1.2
        return values

    monkeypatch.setattr(engine_module, "dsmc_recurrent", broken)
    hooked = []
    with pytest.raises(RuntimeError, match=f"failed validation at step 0: .*{fragment}"):
        run_scenario(replace(RING_SCENARIO, mode=mode), matrix_hook=lambda k, mat: hooked.append(k))
    assert hooked == []


def test_stencil_values_equal_the_assembled_matrix_on_letter_e(monkeypatch):
    # Every hooked matrix equals the dense assembly of the same recurrent
    # blocks and of the transient blocks built from the scalar adjacency, bit
    # for bit, and the sampler gets exactly its stencil values, zero-padded.
    scenario = replace(load_scenario(LETTER_E), steps=30, events=())
    topology = build_grid_topology(scenario.rows, scenario.cols, scenario.hop)
    partition = partition_states(topology, scenario.desired_density())
    tt, rt = dense_transient_oracle(partition, brute_force_grid_adjacency(scenario.rows, scenario.cols, scenario.hop))
    blocks, hooked, sampled = [], [], []

    def recording_synthesis(current_r, desired_r, neighbours, params):
        values = dsmc_recurrent(current_r, desired_r, neighbours, params)
        blocks.append(neighbours.densify(values))
        return values

    def recording_advance(bins, z, values, rows):
        sampled.append((values.copy(), rows))
        return advance(bins, z, values, rows)

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
    # stencil and the plan take a few MB; the boolean adjacency over bin
    # pairs alone is 100 MB, and set-up through it peaked at 286 MB.
    r, c = np.divmod(np.arange(10_000), 100)
    desired = ((r - 50) ** 2 + (c - 50) ** 2 <= 30**2).astype(float)
    desired /= desired.sum()
    tracemalloc.start()
    try:
        topology = build_grid_topology(100, 100, 2)
        plan = stencil_plan(topology, partition_states(topology, desired))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.stencil.rows.shape == (10_000, 13)
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
        events=(Event(step=20, kind="remove_fraction", fraction=0.25),),
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
