"""Whole runs against ``testutil.reference_run``, a dense per-step runner
built from the oracles, on random scenarios.

Hypothesis draws grids up to 6x6 at hop 1-3, target maps with a connected
support and zero bins around it, optional initial maps, 0-3 removal events
(step 0 and the last step among their steps), 1-300 agents and 1-40 steps,
in each algorithm x mode pair, and one scenario with a removal at every
step, which cuts every draw block to one round.  The pieces have property tests of their
own; this checks how a run joins them: the draw blocks and their cut at
event steps, the sampler tables kept across steps, the transient columns
in the values buffer, and events after the step's move.  Runs are
derandomized, so the suite sees the same examples every time.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmguide import Event, Scenario, build_grid_topology, partition_states, run_scenario
from swarmguide.cli import _snapshot_csv
from swarmguide.synthesis import _block_order

from testutil import (
    brute_force_grid_adjacency,
    connected_support,
    distance_layers,
    farthest_first,
    reference_run,
    snapshot_csv_oracle,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def runs(draw, algorithm: str, mode: str):
    """A scenario of ``algorithm`` in ``mode`` on a random grid."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    topology = build_grid_topology(rows, cols, hop)
    weights = np.zeros(topology.m, dtype=int)
    for b in connected_support(draw, topology):
        weights[b] = draw(st.integers(1, 35))
    init = None
    if draw(st.booleans()):
        init = np.array(draw(st.lists(st.integers(0, 35), min_size=topology.m, max_size=topology.m).filter(any)))
    steps = draw(st.integers(1, 40))
    event_steps = st.one_of(st.just(0), st.just(steps), st.integers(0, steps))
    fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    events = draw(st.lists(st.builds(Event, step=event_steps, fraction=fractions), max_size=3))
    return Scenario(
        rows=rows, cols=cols, hop=hop, agents=draw(st.integers(1, 300)), steps=steps,
        algorithm=algorithm, seed=draw(st.integers(0, 2**63 - 1)), mode=mode,
        weights=weights.reshape(rows, cols), init_weights=None if init is None else init.reshape(rows, cols),
        events=tuple(events),
    )


# A removal at every step, step 0 and the last included, two at step 6.
EVERY_STEP = Scenario(
    3, 4, 1, 400, 12, "dsmc", 29, "monte-carlo", ((0, 1, 2, 0), (1, 3, 5, 0), (0, 0, 2, 0)),
    events=tuple(Event(step=k, fraction=0.05 + 0.01 * (k % 3)) for k in range(13)) + (Event(step=6, fraction=0.1),),
)


def _check_monte_carlo(scenario):
    metrics, snapshots = run_scenario(scenario, snapshot_steps=(scenario.steps,))
    reference, _, final = reference_run(scenario)
    assert metrics.to_csv() == reference.to_csv()
    assert _snapshot_csv(scenario, snapshots[scenario.steps]) == snapshot_csv_oracle(scenario, final)


def _check_deterministic(scenario):
    metrics, snapshots = run_scenario(scenario, snapshot_steps=range(scenario.steps + 1))
    reference, densities, _ = reference_run(scenario)
    got = np.array([snapshots[k].density for k in range(scenario.steps + 1)])
    assert np.abs(got - densities).max() <= 1e-15
    assert np.abs(np.array(metrics.total_variation) - reference.total_variation).max() <= 1e-12
    assert metrics.num_agents == reference.num_agents


@pytest.mark.parametrize("mode", ["monte-carlo", "deterministic"])
@pytest.mark.parametrize("algorithm", ["dsmc", "mh"])
def test_runs_equal_the_dense_reference_run(algorithm, mode):
    # Monte Carlo outputs are the same bytes; a deterministic run's
    # densities agree within 1e-15 and its TV within 1e-12.
    check = _check_monte_carlo if mode == "monte-carlo" else _check_deterministic
    SETTINGS(given(runs(algorithm, mode))(check))()
    check(replace(EVERY_STEP, algorithm=algorithm, mode=mode))


@SETTINGS
@given(runs("dsmc", "deterministic"))
def test_block_order_is_the_farthest_first_order_of_the_scalar_search(scenario):
    topology = build_grid_topology(scenario.rows, scenario.cols, scenario.hop)
    partition = partition_states(topology, scenario.desired_density())
    adjacency = brute_force_grid_adjacency(scenario.rows, scenario.cols, scenario.hop)
    expected = farthest_first(distance_layers(adjacency, partition.recurrent), partition.recurrent)
    assert _block_order(partition).tolist() == expected.tolist()
