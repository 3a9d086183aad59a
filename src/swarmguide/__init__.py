"""swarmguide: column-stochastic Markov chain synthesis and simulation for
steering agent swarms toward a target bin density.

The package builds, from a bin topology and a desired density alone, a
per-step transition matrix that every agent can evaluate locally; simulates
swarms of independent agents under it; and verifies convergence with
eigenvalue certificates.

Each module's ``__all__`` declares its public names; the package exports
their union.
"""
from . import analysis, cli, density, engine, graph, synthesis
from .analysis import *
from .density import *
from .engine import *
from .graph import *
from .synthesis import *
from .cli import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *analysis.__all__,
    *density.__all__,
    *engine.__all__,
    *graph.__all__,
    *synthesis.__all__,
    *cli.__all__,
]
