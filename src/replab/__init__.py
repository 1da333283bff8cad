"""replab: the replacement-and-reputation accountability game, end to end.

Exact full-effort-incentive decisions with witnesses and refutations,
construction and independent verification of the two benchmark equilibria,
closed-form outside-option ceilings, and seeded Monte Carlo career
simulation with analytic stationary-chain oracles.
"""
__version__ = "0.1.0"

import os as _os
import sys as _sys


def _one_blas_thread(name: str) -> None:
    """Import module ``name`` with OpenBLAS's pool held to one thread, unless it is
    loaded or the caller chose a size: numpy and scipy (with ``scipy.linalg``) each
    load an OpenBLAS, and replab's BLAS calls are too small for a second thread."""
    if name not in _sys.modules and _os.environ.keys().isdisjoint(
            ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        _os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read as the library loads
        try:
            __import__(name)
        finally:
            _os.environ.pop("OPENBLAS_NUM_THREADS", None)


_one_blas_thread("numpy")

from .model import (  # noqa: F401
    Belief,
    GameParams,
    MonitoringStructure,
    bayes_update,
    belief_growth_bound,
    iterated_max_update,
    max_update,
    model_from_dict,
    model_to_dict,
)
from .fei import (  # noqa: F401
    FeiCertificate,
    FeiRefutation,
    FeiWitness,
    binary_threshold,
    check_fei,
    fei_oracle,
    uniform_failure_horizon,
)
from .equilibria import (  # noqa: F401
    EquilibriumAutomaton,
    NonEfeParameters,
    automaton_from_dict,
    automaton_to_dict,
    construct_full_effort,
    construct_non_efe,
    non_efe_parameters,
)
from .verifier import (  # noqa: F401
    ValueTable, VerificationReport, compute_values, expected_effort, verify, verify_many,
)
from .bounds import OutsideOptionBound, bound_sweep, outside_option_bound  # noqa: F401
from .simulate import (  # noqa: F401
    AnalyticEffort,
    SimulationConfig,
    SimulationStats,
    analytic_long_run_effort,
    martingale_diagnostic,
    simulate,
)
