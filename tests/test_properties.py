"""Property tests of density-feedback synthesis on random small grids.

Hypothesis draws the grid, the hop, the target and the current density,
with zero-density bins and the current density equal to the target among
the cases.  Runs are derandomized, so the suite sees the same examples
every time.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmguide import build_grid_topology, choose_d_chsn, dsmc_column, dsmc_recurrent, stencil_of

from testutil import dense_recurrent_oracle

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
