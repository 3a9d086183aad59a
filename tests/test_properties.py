"""Property tests on random small grids and scenarios.

Hypothesis draws the grid, the hop, the target and the current density,
with zero-density bins and the current density equal to the target among
the cases, for synthesis; grid stencils with edges unmarked and their
unmarked slots pointed at other bins, for every function that reads a
stencil; random partitions, for the audit stencil's recurrent rows;
stencils, columns and draws at the edges of each stay window for the
agent sampler, its tables built per call or kept, and at the edges of each guide
cell and cumulative boundary for the guided one and for initial
placement, with the mover search also cut into small blocks; the same
columns with subnormals and signed zeros, for the slot-order column sum
and the sampler's cumulative table; columns whose total rounds above 1
after an earlier entry reached 1.0, or below 1 with the self slot last,
for the table rule under both samplers and placement; integer draws on
both sides of every cumulative bound, for both samplers and placement
against float comparisons; sequences of
recurrent rows written into the transient columns, for the sampler tables
a run keeps across steps; densities with empty bins, for the density
step; deterministic runs, replayed one dense product at a time; and
whole scenarios, numpy float removal fractions among them, for the
scenario file format, with their grids and integers also given as lists
and NumPy values.
Runs are derandomized, so the suite sees the same examples every time.
"""
from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmguide import (
    Event,
    Scenario,
    Topology,
    _kernels,
    build_grid_topology,
    choose_d_chsn,
    contraction_certificate,
    dsmc_column,
    dsmc_recurrent,
    laplacian_of,
    linear_error_update,
    metropolis_hastings,
    mh_recurrent,
    parse_scenario,
    partition_states,
    propagate_density,
    render_scenario,
    total_variation,
    validate_markov,
)
from swarmguide.density import SUM_TOL, check_density
from swarmguide.synthesis import _audit_stencil, _transient_values

from testutil import (
    adjacency_of,
    advance_by_bin_oracle,
    bfs_distances,
    brute_force_grid_adjacency,
    connected_oracle,
    connected_support,
    dense_mh_oracle,
    dense_recurrent_oracle,
    dense_replay,
    placement_oracle,
    support_connected,
)

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
    neighbours = topology.restrict(recurrent)
    return recurrent, neighbours, choose_d_chsn(neighbours)


@SETTINGS
@given(instances())
def test_stencil_synthesis_equals_bin_local_columns_and_dense_reference(instance):
    topology, target, current = instance
    recurrent, neighbours, d_chsn = _recurrent_view(topology, target)
    x, v = current[recurrent], target[recurrent]
    dense = neighbours.densify(dsmc_recurrent(x, v, neighbours, d_chsn))
    adjacency = adjacency_of(topology)[np.ix_(recurrent, recurrent)]
    assert dense.tobytes() == dense_recurrent_oracle(v - x, x, adjacency, d_chsn).tobytes()
    for j in range(recurrent.size):
        nbrs = neighbours.rows[j][neighbours.real[j] & ~neighbours.own[j]]
        col = dsmc_column(j, x[np.r_[j, nbrs]], v[np.r_[j, nbrs]], nbrs, d_chsn, recurrent.size)
        assert col.tobytes() == dense[:, j].tobytes()


@SETTINGS
@given(instances())
def test_synthesis_is_the_identity_at_the_target(instance):
    topology, target, _ = instance
    recurrent, neighbours, d_chsn = _recurrent_view(topology, target)
    v = target[recurrent]
    values = dsmc_recurrent(v, v, neighbours, d_chsn)
    assert np.array_equal(values, neighbours.own.astype(float))
    assert np.array_equal(neighbours.densify(values), np.eye(recurrent.size))


@SETTINGS
@given(instances())
def test_synthesis_stays_on_recurrent_neighbours(instance):
    # Nothing lands in a padded slot (a transient neighbour or no bin at
    # all), and the dense block is zero wherever two recurrent bins are not
    # neighbours.
    topology, target, current = instance
    recurrent, neighbours, d_chsn = _recurrent_view(topology, target)
    values = dsmc_recurrent(current[recurrent], target[recurrent], neighbours, d_chsn)
    assert not values[~neighbours.real].any()
    assert (values >= 0.0).all()
    adjacency = adjacency_of(topology)[np.ix_(recurrent, recurrent)]
    assert not neighbours.densify(values)[~adjacency].any()


@st.composite
def connected_targets(draw):
    """(topology, target) with a connected support; weights vary over it."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    topology = build_grid_topology(rows, cols, hop)
    target = np.zeros(topology.m)
    for b in connected_support(draw, topology):
        target[b] = draw(st.floats(1e-3, 1.0))
    return topology, target / target.sum()


@SETTINGS
@given(connected_targets())
def test_baseline_in_stencil_slots_equals_the_dense_metropolis_hastings(instance):
    topology, target = instance
    partition = partition_states(topology, target)
    recurrent = partition.recurrent
    values = _transient_values(partition, _audit_stencil(partition, topology))
    values[recurrent] = mh_recurrent(target[recurrent], topology.restrict(recurrent))
    assert not values[~topology.real].any()
    dense = dense_mh_oracle(target, adjacency_of(topology), partition)
    assert topology.densify(values).tobytes() == dense.tobytes()
    assert metropolis_hastings(target, topology).tobytes() == dense.tobytes()


@SETTINGS
@given(connected_targets())
def test_recurrent_rows_of_the_audit_stencil_mark_the_recurrent_stencil(instance):
    # A run audits each later step's recurrent rows against the recurrent
    # stencil; the audit reads only its shape and its padded slots, so that
    # equals the audit against the audit stencil's rows for those bins.
    topology, target = instance
    partition = partition_states(topology, target)
    recurrent = partition.recurrent
    audit = _audit_stencil(partition, topology)
    neighbours = topology.restrict(recurrent)
    assert audit.real[recurrent].shape == neighbours.real.shape
    assert np.array_equal(audit.real[recurrent], neighbours.real)


@st.composite
def grid_subsets(draw):
    """(rows, cols, hop, subset): a random grid and a nonempty set of its
    bins, connected or not."""
    rows, cols, hop = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    keep = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols).filter(any))
    return rows, cols, hop, np.nonzero(keep)[0]


@SETTINGS
@given(grid_subsets())
def test_partition_and_connectivity_equal_the_scalar_searches(instance):
    # Against queue-based searches over the scalar grid adjacency:
    # partition_states refuses a target support exactly when it is not
    # connected, and otherwise it holds each bin's distance to the support.
    rows, cols, hop, subset = instance
    topology = build_grid_topology(rows, cols, hop)
    adjacency = brute_force_grid_adjacency(rows, cols, hop)
    connected = support_connected(topology, subset)
    assert connected == connected_oracle(adjacency, subset)
    if not connected:
        return
    target = np.zeros(topology.m)
    target[subset] = 1.0 / subset.size
    partition = partition_states(topology, target)
    dist = bfs_distances(adjacency, subset)
    assert np.array_equal(partition.recurrent, subset)
    assert partition.distance.tolist() == dist.tolist()


@st.composite
def repointed_stencils(draw):
    """(stencil, repointed, rng): a grid stencil with random edges unmarked
    both ways and padded with each bin itself, the same stencil with every
    unmarked slot pointing at a random other bin instead, and a generator
    for the densities."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = build_grid_topology(rows, cols, hop)
    m, own = grid.m, np.arange(grid.m)[:, np.newaxis]
    drop = np.triu(rng.random((m, m)) < draw(st.sampled_from([0.0, 0.2, 0.5])), 1)
    real = grid.real & ~(drop | drop.T)[own, grid.rows]
    other = (own + rng.integers(1, max(m, 2), size=grid.rows.shape)) % m
    stencil = Topology(rows=np.where(real, grid.rows, own), real=real)
    return stencil, Topology(rows=np.where(real, grid.rows, other), real=real), rng


def _partition_or_refusal(topology, target):
    try:
        part = partition_states(topology, target)
    except ValueError as err:
        return str(err)
    return part.recurrent.tolist(), part.distance.tolist()


@SETTINGS
@given(repointed_stencils())
def test_unmarked_slots_are_never_read_as_edges(instance):
    # Where an unmarked slot points changes nothing: every function that
    # reads a stencil gives the same bytes, report or refusal either way.
    stencil, repointed, rng = instance
    m = stencil.m
    target = rng.random(m) * (rng.random(m) < 0.7)
    target[rng.integers(m)] += 0.5
    target /= target.sum()
    assert _partition_or_refusal(repointed, target) == _partition_or_refusal(stencil, target)
    v = rng.random(m) + 0.1
    v /= v.sum()
    x = rng.random(m) * (rng.random(m) < 0.8)
    x /= max(x.sum(), 1.0)
    d = choose_d_chsn(stencil)
    values = rng.random(stencil.rows.shape)
    bins = np.nonzero(target)[0]
    for build in (
        lambda t: dsmc_recurrent(x, v, t, d),
        lambda t: mh_recurrent(v, t),
        lambda t: linear_error_update(v - target, t, d),
        laplacian_of,
        lambda t: contraction_certificate(t, d).laplacian_eigs,
        lambda t: t.restrict(bins).rows,
        lambda t: t.restrict(bins).real,
        lambda t: t.densify(values),
    ):
        assert build(repointed).tobytes() == build(stencil).tobytes()
    assert contraction_certificate(repointed, d).key_values() == contraction_certificate(stencil, d).key_values()
    assert validate_markov(values, repointed) == validate_markov(values, stencil)


@st.composite
def deterministic_scenarios(draw):
    """Deterministic runs of either algorithm on a random grid: a target map
    with a connected support and zero bins around it, and an optional
    initial map that may leave bins empty."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    topology = build_grid_topology(rows, cols, hop)
    weights = np.zeros(topology.m, dtype=int)
    for b in connected_support(draw, topology):
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
    for x in densities:
        check_density(x)  # raises unless finite, non-negative and summing to 1; no step checks it


# Column kinds for the sampler: random, identity, zero self slot, and a
# total that rounds below 1.
RANDOM, IDENTITY, ZERO_SELF, SHORT = range(4)


@st.composite
def sampler_cases(draw):
    """(stencil, values) over a random grid, at times restricted to a subset
    of its bins so that padded slots sit ahead of the self slot, with every
    column kind mixed in."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    stencil = build_grid_topology(rows, cols, hop)
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


@SETTINGS
@given(sampler_cases(), st.integers(0, 2**32 - 1))
def test_column_sums_equal_the_cumulative_sum_byte_for_byte(case, seed):
    # Sampler columns (zeros, padded slots, totals below 1) with subnormals
    # and zeros of either sign scattered over any slot, padding included.
    _, values = case
    rng = np.random.default_rng(seed)
    tiny = rng.integers(1, 2**20, values.shape) * 2.0**-1074 * rng.choice([1.0, -1.0], values.shape)
    kind = rng.integers(0, 4, values.shape)
    values = np.select([kind == 1, kind == 2], [tiny, np.copysign(0.0, tiny)], values)
    assert _kernels.column_sums(values).tobytes() == np.cumsum(values, axis=1)[:, -1].tobytes()
    # So does the sampler's cumulative table, for a stencil and for one long
    # column, as placement builds it, but for the table rule (every entry at
    # or above min(total, 1) reads 1.0), held as the bounds ceil(c 2^53).
    for columns in (values, values[:1]):
        cum = np.cumsum(columns, axis=1)
        cum[cum >= np.minimum(cum[:, -1:], 1.0)] = 1.0
        assert _kernels.sampler_tables(columns).cum[1:].T.tobytes() == _bounds(cum).tobytes()


@st.composite
def recurrent_sequences(draw):
    """(topology, partition, rows): a random target, and a sequence of the
    recurrent rows a run writes into its transient columns, step by step:
    synthesized from current densities with empty bins, the identity at the
    target, or arbitrary values with zeros anywhere on the real slots."""
    topology, target = draw(connected_targets())
    partition = partition_states(topology, target)
    recurrent, neighbours, d_chsn = _recurrent_view(topology, target)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["synthesized", "identity", "arbitrary"]), min_size=1, max_size=5)):
        if kind == "arbitrary":
            raw = rng.random(neighbours.rows.shape) * (rng.random(neighbours.rows.shape) < 0.5) * neighbours.real
            rows.append(raw)
            continue
        current = target.copy()
        if kind == "synthesized":
            current = rng.random(topology.m) * (rng.random(topology.m) < 0.6)
            current[rng.integers(topology.m)] += 1.0
            current /= current.sum()
        rows.append(dsmc_recurrent(current[recurrent], target[recurrent], neighbours, d_chsn))
    return topology, partition, rows


@SETTINGS
@given(recurrent_sequences())
def test_kept_sampler_tables_equal_the_tables_of_the_whole_matrix(case):
    # A run builds its tables at set-up from the transient columns, the
    # recurrent rows still zero, and then rewrites only the recurrent
    # columns each step; after every step they equal the cumulative table
    # of the whole values, bit for bit.
    topology, partition, rows = case
    recurrent = partition.recurrent
    values = _transient_values(partition, _audit_stencil(partition, topology))
    tables = _kernels.sampler_tables(values)
    for fresh in rows:
        values[recurrent] = fresh
        tables.cum[:, recurrent] = _kernels.sampler_tables(values[recurrent]).cum
        assert tables.cum.tobytes() == _kernels.sampler_tables(values).cum.tobytes()
        assert tables.table is None


@st.composite
def density_steps(draw):
    """(stencil, values, x): a column-stochastic matrix over a random grid
    stencil, with zero entries, and a density that is positive everywhere,
    has empty bins, or sits on a single bin."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    stencil = build_grid_topology(rows, cols, hop)
    m = stencil.m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random(stencil.rows.shape) * (rng.random(stencil.rows.shape) < 0.6) * stencil.real
    raw[stencil.own] += 1e-3  # every column keeps some mass
    values = raw / raw.sum(axis=1, keepdims=True)
    kind = draw(st.sampled_from(["positive", "empty bins", "single bin"]))
    if kind == "single bin":
        x = np.zeros(m)
        x[draw(st.integers(0, m - 1))] = 1.0
    else:
        low = 1e-3 if kind == "positive" else 0.0
        x = np.array(draw(st.lists(st.floats(low, 1.0), min_size=m, max_size=m).filter(any)))
        x /= x.sum()
    return stencil, values, x


@SETTINGS
@given(density_steps())
def test_density_step_equals_the_all_rows_bincount(case):
    # Skipping the massless sources leaves every destination's sum the
    # same bytes as adding every row's flow, zeros included.
    stencil, values, x = case
    whole = np.bincount(stencil.rows.ravel(), weights=(values * x[:, np.newaxis]).ravel(), minlength=stencil.m)
    assert propagate_density(x, values, stencil).tobytes() == whole.tobytes()


def _bounds(cum):
    # The integer draw bounds ceil(c 2^53) of float cumulative entries c.
    return np.ceil(cum * 2.0**53).astype(np.int64)


def _edge_draws(rng, stencil, values, bins):
    # Per agent, an integer draw in [0, 2^53): uniform, or an edge of one of
    # its bin's two stay windows, the first draw at or above a window end or
    # the draw below it.  The windows are that of the first slot listing the
    # bin itself, which may be a padded slot with an empty window, and that
    # of the real self slot.
    bound = np.ceil(np.cumsum(values, axis=1) * 2.0**53)
    first = np.argmax(stencil.rows == np.arange(stencil.m)[:, np.newaxis], axis=1)
    edges = []
    for slot in (first[bins], stencil.stay[bins]):
        hi = bound[bins, slot]
        lo = np.where(slot > 0, bound[bins, slot - 1], 0.0)
        edges += [lo, lo - 1.0, hi, hi - 1.0]
    top = 2.0**53 - 1.0
    options = np.stack([np.floor(rng.random(bins.size) * 2.0**53), *edges, np.zeros(bins.size), np.full(bins.size, top)])
    pick = rng.integers(0, options.shape[0], size=bins.size)
    return np.clip(options[pick, np.arange(bins.size)], 0.0, top).astype(np.int64)


@SETTINGS
@given(sampler_cases(), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_sampler_equals_the_per_bin_oracle_and_stays_on_the_stencil(case, agents, seed):
    stencil, values = case
    rng = np.random.default_rng(seed)
    bins = rng.integers(0, stencil.m, size=agents)
    k = _edge_draws(rng, stencil, values, bins)
    # Unguided tables built for the call, or kept by the caller.
    for kept in (None, _kernels.sampler_tables(values)):
        got = _kernels.advance_agents(bins, k, values, stencil.rows, stencil.stay, guide=kept)
        assert np.array_equal(got, advance_by_bin_oracle(bins, k, values, stencil.rows))
        # No move leaves the stencil: every agent lands on a real slot of its bin.
        assert ((stencil.rows[bins] == got[:, np.newaxis]) & stencil.real[bins]).any(axis=1).all()


def _guide_draws(rng, values, bins):
    # Per agent, an integer draw in [0, 2^53), as the move stream makes
    # them: uniform, 0, the largest, a cell edge c 2^47 or the draw below
    # it, or the first draw at or above one of its bin's cumulative
    # boundaries or the draw below that.
    top = 2.0**53 - 1.0
    boundary = np.ceil(np.cumsum(values, axis=1)[bins, rng.integers(0, values.shape[1], bins.size)] * 2.0**53)
    edge = rng.integers(0, _kernels.GUIDE_CELLS + 1, bins.size) * 2.0**47
    options = np.stack([
        np.floor(rng.random(bins.size) * 2.0**53), np.zeros(bins.size), np.full(bins.size, top),
        edge, edge - 1.0, boundary, boundary - 1.0,
    ])
    pick = rng.integers(0, options.shape[0], size=bins.size)
    return np.clip(options[pick, np.arange(bins.size)], 0.0, top).astype(np.int64)


@SETTINGS
@given(sampler_cases(), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_guided_sampler_equals_the_per_bin_oracle(case, agents, seed):
    stencil, values = case
    rng = np.random.default_rng(seed)
    guide = _kernels.build_guide(values, stencil.rows)
    bins = rng.integers(0, stencil.m, size=agents)
    k = _guide_draws(rng, values, bins)
    got = _kernels.advance_agents(bins, k, values, stencil.rows, stencil.stay, guide=guide)
    assert np.array_equal(got, advance_by_bin_oracle(bins, k, values, stencil.rows))
    # Every settled cell holds the oracle's answer at its first and last
    # draws; that answer never decreases as the draw grows, so it holds at
    # every draw in between.
    cell_bins, cells = np.nonzero(guide.table >= 0)
    for end in (cells << 47, ((cells + 1) << 47) - 1):
        assert np.array_equal(guide.table[cell_bins, cells], advance_by_bin_oracle(cell_bins, end, values, stencil.rows))


@SETTINGS
@given(sampler_cases(), st.integers(1, 80), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_samplers_equal_the_per_bin_oracle_across_search_blocks(case, agents, block, seed):
    # The mover search runs in blocks of a few agents here, so that the
    # movers, and the agents in open guide cells, span block edges.
    stencil, values = case
    rng = np.random.default_rng(seed)
    bins = rng.integers(0, stencil.m, size=agents)
    edges, kept = _edge_draws(rng, stencil, values, bins), _kernels.sampler_tables(values)
    cases = ((edges, None), (edges, kept), (_guide_draws(rng, values, bins), _kernels.build_guide(values, stencil.rows)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_SEARCH_BLOCK", block)
        for k, prebuilt in cases:
            got = _kernels.advance_agents(bins, k, values, stencil.rows, stencil.stay, guide=prebuilt)
            assert np.array_equal(got, advance_by_bin_oracle(bins, k, values, stencil.rows))


@st.composite
def placement_weights(draw):
    """A row of weights, zeros among them: the four of a 2x2 grid whose
    cumulative total rounds below 1, a row of scenario weights, or floats
    down to 1e-12, small enough to put a boundary inside the last cell."""
    return draw(st.one_of(
        st.just((1, 4, 1, 0)),
        st.lists(st.integers(0, 35), min_size=1, max_size=60).filter(any),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=60).filter(any),
    ))


@SETTINGS
@given(placement_weights(), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_placement_guide_equals_the_clamped_searchsorted(weights, agents, seed):
    w = np.array([weights], dtype=float)
    density = (w / w.sum()).ravel()
    m = density.size
    guide = _kernels.placement_guide(density)
    cells = guide.table.shape[1]
    assert cells & (cells - 1) == 0 and _kernels.GUIDE_CELLS * m <= cells < 2 * _kernels.GUIDE_CELLS * m
    cum = np.cumsum(density)
    last = (cum < cum[-1]).sum()

    def oracle(z):
        return np.minimum(np.searchsorted(cum, z, side="right"), last)

    # Per agent, a draw on the 2^-53 grid: uniform, 0, the largest below 1,
    # a cell edge or the draw below it, or the first draw at or above a
    # cumulative boundary or the draw below that.
    rng = np.random.default_rng(seed)
    top = 2.0**53 - 1.0
    boundary = np.ceil(cum[rng.integers(0, m, agents)] * 2.0**53)
    edge = rng.integers(0, cells + 1, agents) * (2.0**53 / cells)
    options = np.stack([
        np.floor(rng.random(agents) * 2.0**53), np.zeros(agents), np.full(agents, top),
        edge, edge - 1.0, boundary, boundary - 1.0,
    ])
    k = np.clip(options[rng.integers(0, options.shape[0], agents), np.arange(agents)], 0.0, top).astype(np.int64)
    assert np.array_equal(_kernels.place(k, guide), oracle(k * 2.0**-53))
    # Every settled cell holds the oracle's answer at its first and last
    # draws, and so at every draw in between.
    settled = np.nonzero(guide.table[0] >= 0)[0]
    for end in (settled / cells, (settled + 1) / cells - 2.0**-53):
        assert np.array_equal(guide.table[0, settled], oracle(end))


@st.composite
def table_rule_cases(draw):
    """(stencil, values) over a random grid, at times restricted, whose
    columns are random, or end at the table rule's edges: a total that
    rounds above 1 after an earlier cumulative entry has reached 1.0, such
    as [0.5, 0.5, 2^-52], or a total that rounds below 1 with the self slot
    as the last positive slot."""
    rows, cols, hop = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    stencil = build_grid_topology(rows, cols, hop)
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=stencil.m, max_size=stencil.m).filter(any))
        stencil = stencil.restrict(np.nonzero(keep)[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(stencil.rows.shape)
    for j in range(stencil.m):
        real = np.nonzero(stencil.real[j])[0]
        kind = draw(st.sampled_from(["random", "over", "short"]))
        if kind == "over" and real.size >= 2:
            # Dyadic halves that reach exactly 1.0, then a tail the sum keeps
            # above 1 or rounds away, each on a random real slot.
            chosen = rng.permutation(real)[:rng.integers(2, real.size + 1)]
            halves = 2.0 ** -np.arange(1, chosen.size - 1)
            head = np.append(halves, 1.0 - halves.sum())
            values[j, np.sort(chosen)] = np.append(rng.permutation(head), 0.0)
            values[j, np.sort(chosen)[-1]] = draw(st.sampled_from([2.0**-52, 3 * 2.0**-52, 2.0**-53, 2.0**-60]))
        elif kind == "short":
            # Positive mass up to and including the self slot, none after it.
            upto = real[real <= stencil.stay[j]]
            values[j, upto] = rng.random(upto.size) * (rng.random(upto.size) < 0.7)
            values[j, stencil.stay[j]] += 1e-3
            values[j] *= (1.0 - draw(st.sampled_from([2.0**-40, 2.0**-45]))) / values[j].sum()
        else:
            values[j, real] = rng.random(real.size) + 1e-3
            values[j] /= values[j].sum()
    return stencil, values


@SETTINGS
@given(table_rule_cases(), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_table_rule_columns_sample_as_the_clamped_oracles(case, agents, seed):
    # Every cumulative entry at or above min(total, 1) reads 1.0, so no draw
    # in [0, 1) passes a column's last positive slot, and the stay-first,
    # guided and placement samplers land where the clamped oracles do.
    stencil, values = case
    cum = np.cumsum(values, axis=1)
    cum[cum >= np.minimum(cum[:, -1:], 1.0)] = 1.0
    tables = _kernels.sampler_tables(values)
    assert tables.cum[1:].T.tobytes() == _bounds(cum).tobytes() and (tables.cum[-1] == 2**53).all()
    rng = np.random.default_rng(seed)
    bins = rng.integers(0, stencil.m, size=agents)
    edges, gridded = _edge_draws(rng, stencil, values, bins), _guide_draws(rng, values, bins)
    for k, prebuilt in ((edges, None), (edges, tables), (gridded, _kernels.build_guide(values, stencil.rows))):
        got = _kernels.advance_agents(bins, k, values, stencil.rows, stencil.stay, guide=prebuilt)
        assert np.array_equal(got, advance_by_bin_oracle(bins, k, values, stencil.rows))
    # Each column, spread over all m bins, as a placement density.
    for j in range(stencil.m):
        density = np.zeros(stencil.m)
        np.add.at(density, stencil.rows[j], values[j])
        guide = _kernels.placement_guide(density)
        assert np.array_equal(_kernels.place(gridded, guide), placement_oracle(density, gridded * 2.0**-53))
        cell_edges = np.arange(guide.table.shape[1] + 1) * (2**53 // guide.table.shape[1])
        k = np.clip(np.concatenate([cell_edges, cell_edges - 1]), 0, 2**53 - 1)
        assert np.array_equal(_kernels.place(k, guide), placement_oracle(density, k * 2.0**-53))


@SETTINGS
@given(st.one_of(sampler_cases(), table_rule_cases()))
def test_integer_bounds_sample_as_float_draws_on_both_sides_of_every_bound(case):
    # K, the least draw k with k 2^-53 >= c, found in exact rational
    # arithmetic for every table-rule cumulative entry c, is the sampler's
    # bound.  At the draws K - 1 and K of every bound of every column, the
    # stay-first and guided samplers and placement land where the float
    # comparisons c <= z do at z = k 2^-53.
    stencil, values = case
    cum = np.cumsum(values, axis=1)
    cum[cum >= np.minimum(cum[:, -1:], 1.0)] = 1.0
    bound = np.array([[math.ceil(Fraction(c) * 2**53) for c in col] for col in cum.tolist()])
    assert np.array_equal(_kernels.sampler_tables(values).cum[1:].T, bound)
    m, w = values.shape
    bins = np.repeat(np.arange(m), 2 * w)
    k = np.clip(np.stack([bound - 1, bound], axis=-1).ravel(), 0, 2**53 - 1)
    passed = (cum[bins] <= (k * 2.0**-53)[:, np.newaxis]).sum(axis=1)
    expected = stencil.rows[bins, passed]
    for tables in (None, _kernels.sampler_tables(values), _kernels.build_guide(values, stencil.rows)):
        got = _kernels.advance_agents(bins, k, values, stencil.rows, stencil.stay, guide=tables)
        assert np.array_equal(got, expected)
    # Each column as a placement density over its w slots.
    for j in range(m):
        here = bins == j
        assert np.array_equal(_kernels.place(k[here], _kernels.placement_guide(values[j])), passed[here])


def _grids(rows, cols):
    # A scenario's weight grid holds at least one positive weight.
    return st.lists(
        st.lists(st.integers(0, 35), min_size=cols, max_size=cols).map(tuple), min_size=rows, max_size=rows
    ).map(tuple).filter(np.any)


@st.composite
def scenarios(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    steps = draw(st.integers(1, 1000))
    events = draw(st.lists(
        st.builds(
            Event,
            step=st.integers(0, steps),
            # A numpy float is kept as the float it equals.
            fraction=st.one_of(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(np.float64),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, width=32).map(np.float32),
            ),
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
    text = render_scenario(scenario)
    # Any line end parses as load_scenario reads a file: \n, \r\n or \r.
    for end in ("\n", "\r\n", "\r"):
        assert parse_scenario(text.replace("\n", end)) == scenario


# The forms a library caller may give a weight grid in, each from the grid
# as a tuple of row tuples.
_GRID_FORMS = {
    "list": lambda grid: [list(row) for row in grid],
    "tuple": lambda grid: grid,
    "tuple of numpy ints": lambda grid: tuple(tuple(map(np.int64, row)) for row in grid),
    **{f"{dtype} array": (lambda grid, dtype=dtype: np.array(grid, dtype=dtype)) for dtype in ("int8", "int64", "uint8")},
}


@SETTINGS
@given(scenarios(), st.sampled_from(sorted(_GRID_FORMS)))
def test_scenario_stores_one_form_whatever_form_it_is_given(scenario, form):
    # Grids, integer settings and event steps given as NumPy values or lists
    # are stored as the plain ints and tuples the parser gives: the scenario
    # equals the one built from those, hashes alike and round-trips.
    given_as = _GRID_FORMS[form]
    integers = ("rows", "cols", "hop", "agents", "steps", "seed")
    built = Scenario(
        **{name: np.int64(getattr(scenario, name)) for name in integers},
        algorithm=scenario.algorithm,
        mode=scenario.mode,
        weights=given_as(scenario.weights),
        init_weights=None if scenario.init_weights is None else given_as(scenario.init_weights),
        events=[Event(np.int64(ev.step), ev.fraction) for ev in scenario.events],
    )
    assert built == scenario
    assert hash(built) == hash(scenario)
    assert parse_scenario(render_scenario(built)) == built
    # Events given as an iterator are read once, not used up by validation.
    assert replace(built, events=iter(scenario.events)) == scenario
    assert all(type(getattr(built, name)) is int for name in integers)
    assert type(built.events) is tuple
    assert all(type(ev.step) is int for ev in built.events)
    for grid in (built.weights, built.init_weights):
        if grid is not None:
            assert type(grid) is tuple
            assert all(type(row) is tuple and all(type(w) is int for w in row) for row in grid)
