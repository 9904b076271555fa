"""Gradient tracking over networks.

Decentralized optimization runtime with four independently configurable
communication matrices, multiple consensus and computation steps per
iteration, problem suites (quadratics, logistic regression), a convergence
theory engine and an experiment harness.
"""

# set before the submodules load: harness writes it into each manifest.json,
# and pyproject.toml's version must equal it
__version__ = "0.1.0"

from .topology import (
    Graph,
    MixingMatrix,
    CommunicationStrategy,
    build_graph,
    metropolis_weights,
    compute_beta,
    matrix_power,
    strategy_for,
)
from .problems import (
    ObjectiveSuite,
    QuadraticSuite,
    QuadraticSpec,
    LogisticSuite,
    LogRegDataset,
    generate_quadratic,
    load_libsvm,
    logreg_suite,
    compute_reference_optimum,
)
from .tracking import (
    GtaConfig,
    GtaState,
    ErrorVector,
    RunTrace,
    DivergenceError,
    initialize,
    inner_step,
    outer_step,
    error_vector,
    run,
)
from . import theory, harness
