"""replab: the replacement-and-reputation accountability game, end to end.

Exact full-effort-incentive decisions with witnesses and refutations,
construction and independent verification of the two benchmark equilibria,
closed-form outside-option ceilings, and seeded Monte Carlo career
simulation with analytic stationary-chain oracles.
"""
__version__ = "0.1.0"

import os as _os
import sys as _sys

# Every BLAS call replab makes is tiny, so an OpenBLAS pool of more than one thread
# only spins. OpenBLAS reads its size when numpy loads it: unless the caller chose
# one, load numpy with one thread, then restore the caller's environment.
if "numpy" not in _sys.modules and _os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        _os.environ.pop("OPENBLAS_NUM_THREADS", None)

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
