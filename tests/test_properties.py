"""Property tests on random small grids and scenarios.

Hypothesis draws the grid, the hop, the target and the current density,
with zero-density bins and the current density equal to the target among
the cases, for synthesis; stencils, columns and draws at the edges of
each stay window for the agent sampler; deterministic runs, replayed one
dense product at a time; and whole scenarios for the scenario file format.
Runs are derandomized, so the suite sees the same examples every time.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmguide import (
    Event,
    Scenario,
    _kernels,
    build_grid_topology,
    choose_d_chsn,
    dsmc_column,
    dsmc_recurrent,
    metropolis_hastings,
    mh_recurrent,
    parse_scenario,
    partition_states,
    render_scenario,
    stencil_of,
    total_variation,
)
from swarmguide.density import SUM_TOL
from swarmguide.engine import stencil_plan

from testutil import advance_by_bin_oracle, dense_recurrent_oracle, dense_replay

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

weights = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def instances(draw):
    """(topology, target, current) with the target positive somewhere."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    m = rows * cols
    target = np.array(draw(st.lists(weights, min_size=m, max_size=m).filter(any)))
    target /= target.sum()
    if draw(st.booleans()):
        current = target.copy()
    else:
        current = np.array(draw(st.lists(weights, min_size=m, max_size=m).filter(any)))
        current /= current.sum()
    return build_grid_topology(rows, cols, hop), target, current


def _recurrent_view(topology, target):
    recurrent = np.nonzero(target > 0.0)[0]
    neighbours = stencil_of(topology).restrict(recurrent)
    return recurrent, neighbours, choose_d_chsn(neighbours)


@SETTINGS
@given(instances())
def test_stencil_synthesis_equals_bin_local_columns_and_dense_reference(instance):
    topology, target, current = instance
    recurrent, neighbours, params = _recurrent_view(topology, target)
    x, v = current[recurrent], target[recurrent]
    dense = neighbours.densify(dsmc_recurrent(x, v, neighbours, params))
    adjacency = topology.adjacency[np.ix_(recurrent, recurrent)]
    assert dense.tobytes() == dense_recurrent_oracle(v - x, x, adjacency, params.d_chsn).tobytes()
    for j in range(recurrent.size):
        nbrs = neighbours.rows[j][neighbours.real[j] & ~neighbours.own[j]]
        col = dsmc_column(j, x[np.r_[j, nbrs]], v[np.r_[j, nbrs]], nbrs, params, recurrent.size)
        assert col.tobytes() == dense[:, j].tobytes()


@SETTINGS
@given(instances())
def test_synthesis_is_the_identity_at_the_target(instance):
    topology, target, _ = instance
    recurrent, neighbours, params = _recurrent_view(topology, target)
    v = target[recurrent]
    values = dsmc_recurrent(v, v, neighbours, params)
    assert np.array_equal(values, neighbours.own.astype(float))
    assert np.array_equal(neighbours.densify(values), np.eye(recurrent.size))


@SETTINGS
@given(instances())
def test_synthesis_stays_on_recurrent_neighbours(instance):
    # Nothing lands in a padded slot (a transient neighbour or no bin at
    # all), and the dense block is zero wherever two recurrent bins are not
    # neighbours.
    topology, target, current = instance
    recurrent, neighbours, params = _recurrent_view(topology, target)
    values = dsmc_recurrent(current[recurrent], target[recurrent], neighbours, params)
    assert not values[~neighbours.real].any()
    assert (values >= 0.0).all()
    adjacency = topology.adjacency[np.ix_(recurrent, recurrent)]
    assert not neighbours.densify(values)[~adjacency].any()


def _connected_support(draw, topology) -> list[int]:
    """Bins grown one neighbour at a time from a single bin, so connected."""
    support = {draw(st.integers(0, topology.m - 1))}
    for _ in range(draw(st.integers(0, topology.m - 1))):
        frontier = sorted(set(np.nonzero(topology.adjacency[sorted(support)].any(axis=0))[0].tolist()) - support)
        if not frontier:
            break
        support.add(draw(st.sampled_from(frontier)))
    return sorted(support)


@st.composite
def connected_targets(draw):
    """(topology, target) with a connected support; weights vary over it."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    topology = build_grid_topology(rows, cols, hop)
    target = np.zeros(topology.m)
    for b in _connected_support(draw, topology):
        target[b] = draw(st.floats(1e-3, 1.0))
    return topology, target / target.sum()


@SETTINGS
@given(connected_targets())
def test_baseline_in_stencil_slots_equals_the_dense_metropolis_hastings(instance):
    topology, target = instance
    partition = partition_states(topology, target)
    plan = stencil_plan(topology, partition)
    values = plan.with_recurrent(mh_recurrent(target[plan.recurrent], plan.neighbours))
    assert not values[~plan.stencil.real].any()
    dense = metropolis_hastings(target, topology, partition)
    assert plan.stencil.densify(values).tobytes() == dense.tobytes()


@st.composite
def deterministic_scenarios(draw):
    """Deterministic runs of either algorithm on a random grid: a target map
    with a connected support and zero bins around it, and an optional
    initial map that may leave bins empty."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    topology = build_grid_topology(rows, cols, hop)
    weights = np.zeros(topology.m, dtype=int)
    for b in _connected_support(draw, topology):
        weights[b] = draw(st.integers(1, 35))
    init = None
    if draw(st.booleans()):
        init = np.array(draw(st.lists(st.integers(0, 35), min_size=topology.m, max_size=topology.m).filter(any)))

    def grid(w):
        return tuple(tuple(int(v) for v in row) for row in w.reshape(rows, cols))

    return Scenario(
        rows=rows, cols=cols, hop=hop, agents=100, steps=draw(st.integers(1, 30)),
        algorithm=draw(st.sampled_from(["dsmc", "mh"])), seed=0, mode="deterministic",
        weights=grid(weights), init_weights=None if init is None else grid(init),
    )


@SETTINGS
@given(deterministic_scenarios())
def test_deterministic_steps_equal_the_dense_product_and_keep_the_mass(scenario):
    densities, tv, replayed = dense_replay(scenario)
    assert np.abs(replayed - densities[1:]).max() <= 1e-15
    desired = scenario.desired_density()
    assert max(abs(total_variation(x, desired) - t) for x, t in zip(replayed, tv[1:])) <= 1e-12
    assert np.abs(densities.sum(axis=1) - 1.0).max() <= SUM_TOL


# Column kinds for the sampler: random, identity, zero self slot, and a
# total that rounds below 1.
RANDOM, IDENTITY, ZERO_SELF, SHORT = range(4)


@st.composite
def sampler_cases(draw):
    """(stencil, values) over a random grid, at times restricted to a subset
    of its bins so that padded slots sit ahead of the self slot, with every
    column kind mixed in."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    stencil = stencil_of(build_grid_topology(rows, cols, hop))
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=stencil.m, max_size=stencil.m).filter(any))
        stencil = stencil.restrict(np.nonzero(keep)[0])
    m = stencil.m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = np.array(draw(st.lists(st.integers(RANDOM, SHORT), min_size=m, max_size=m)))
    zero_prob = draw(st.sampled_from([0.0, 0.3, 0.7]))
    raw = rng.random(stencil.rows.shape) * (rng.random(stencil.rows.shape) >= zero_prob) * stencil.real
    raw[kinds == ZERO_SELF] *= ~stencil.own[kinds == ZERO_SELF]
    # Keep one positive real slot other than the self slot in every column;
    # a bin with no other destination keeps everything.
    alone = stencil.real.sum(axis=1) == 1
    other = stencil.real & ~stencil.own
    first_other = np.argmax(other, axis=1)
    has_other = other.any(axis=1)
    raw[np.nonzero(has_other)[0], first_other[has_other]] += 1e-3
    raw[stencil.own & alone[:, np.newaxis]] = 1.0
    values = raw / raw.sum(axis=1, keepdims=True)
    values[kinds == IDENTITY] = stencil.own[kinds == IDENTITY]
    values[kinds == SHORT] *= 1.0 - 2.0**-45
    return stencil, values


def _edge_draws(rng, stencil, values, bins):
    # Per agent, a uniform draw or an edge of its bin's stay window: the
    # window of the first slot that lists the bin itself.
    cum = np.cumsum(values, axis=1)
    own = np.argmax(stencil.rows == np.arange(stencil.m)[:, np.newaxis], axis=1)
    hi = cum[bins, own[bins]]
    lo = np.where(own[bins] > 0, cum[bins, own[bins] - 1], 0.0)
    options = np.stack([
        rng.random(bins.size), lo, np.nextafter(lo, 0.0), hi, np.nextafter(hi, 0.0),
        np.zeros(bins.size), np.full(bins.size, 1.0 - 2.0**-53),
    ])
    pick = rng.integers(0, options.shape[0], size=bins.size)
    return np.minimum(options[pick, np.arange(bins.size)], 1.0 - 2.0**-53)


@SETTINGS
@given(sampler_cases(), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_sampler_equals_the_per_bin_oracle_and_stays_on_the_stencil(case, agents, seed):
    stencil, values = case
    rng = np.random.default_rng(seed)
    bins = rng.integers(0, stencil.m, size=agents)
    z = _edge_draws(rng, stencil, values, bins)
    got = _kernels.advance_agents(bins, z, values, stencil.rows)
    assert np.array_equal(got, advance_by_bin_oracle(bins, z, values, stencil.rows))
    # No move leaves the stencil: every agent lands on a real slot of its bin.
    assert ((stencil.rows[bins] == got[:, np.newaxis]) & stencil.real[bins]).any(axis=1).all()


def _grids(rows, cols):
    return st.lists(
        st.lists(st.integers(0, 35), min_size=cols, max_size=cols).map(tuple), min_size=rows, max_size=rows
    ).map(tuple)


@st.composite
def scenarios(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    steps = draw(st.integers(1, 1000))
    events = draw(st.lists(
        st.builds(
            Event,
            step=st.integers(0, steps),
            kind=st.just("remove_fraction"),
            fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ),
        max_size=4,
    ))
    return Scenario(
        rows=rows,
        cols=cols,
        hop=draw(st.integers(1, 5)),
        agents=draw(st.integers(1, 10**6)),
        steps=steps,
        algorithm=draw(st.sampled_from(["dsmc", "mh"])),
        seed=draw(st.integers(0, 2**63 - 1)),
        mode=draw(st.sampled_from(["monte-carlo", "deterministic"])),
        weights=draw(_grids(rows, cols)),
        init_weights=draw(st.none() | _grids(rows, cols)),
        events=tuple(events),
    )


@SETTINGS
@given(scenarios())
def test_scenario_text_round_trips(scenario):
    assert parse_scenario(render_scenario(scenario)) == scenario
