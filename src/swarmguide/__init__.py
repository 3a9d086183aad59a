"""swarmguide: column-stochastic Markov chain synthesis and simulation for
steering agent swarms toward a target bin density.

The package builds, from a bin topology and a desired density alone, a
per-step transition matrix that every agent can evaluate locally; simulates
swarms of independent agents under it; and verifies convergence with
eigenvalue certificates.
"""
from .analysis import (
    SpectralReport,
    contraction_certificate,
    convergence_rate_bounds,
    linear_error_update,
)
from .density import (
    check_density,
    empirical_density,
    from_weight_map,
    total_variation,
)
from .engine import (
    Event,
    MetricsSeries,
    Scenario,
    Snapshot,
    SwarmState,
    apply_event,
    initial_swarm,
    propagate_density,
    run_scenario,
    step_agents,
)
from .graph import (
    Partition,
    Topology,
    build_grid_topology,
    is_strongly_connected,
    laplacian_of,
    make_topology,
    partition_states,
)
from .synthesis import (
    ValidationReport,
    assemble,
    choose_d_chsn,
    dsmc_column,
    dsmc_recurrent,
    metropolis_hastings,
    mh_recurrent,
    transient_matrix,
    validate_markov,
)
from .cli import ScenarioFormatError, load_scenario, parse_scenario, render_scenario

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SpectralReport",
    "contraction_certificate",
    "convergence_rate_bounds",
    "linear_error_update",
    "check_density",
    "empirical_density",
    "from_weight_map",
    "total_variation",
    "Event",
    "MetricsSeries",
    "Scenario",
    "Snapshot",
    "SwarmState",
    "apply_event",
    "initial_swarm",
    "propagate_density",
    "run_scenario",
    "step_agents",
    "Partition",
    "Topology",
    "build_grid_topology",
    "is_strongly_connected",
    "laplacian_of",
    "make_topology",
    "partition_states",
    "ValidationReport",
    "assemble",
    "choose_d_chsn",
    "dsmc_column",
    "dsmc_recurrent",
    "metropolis_hastings",
    "mh_recurrent",
    "transient_matrix",
    "validate_markov",
    "ScenarioFormatError",
    "load_scenario",
    "parse_scenario",
    "render_scenario",
]
