"""replab: the replacement-and-reputation accountability game, end to end.

Exact full-effort-incentive decisions with witnesses and refutations,
construction and independent verification of the two benchmark equilibria,
closed-form outside-option ceilings, and seeded Monte Carlo career
simulation with analytic stationary-chain oracles.
"""
__version__ = "0.1.0"

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
    AutomatonState,
    EquilibriumAutomaton,
    NonEfeParameters,
    ValueTable,
    automaton_from_dict,
    automaton_to_dict,
    compute_values,
    construct_full_effort,
    construct_non_efe,
    non_efe_parameters,
)
from .verifier import VerificationReport, expected_effort, verify  # noqa: F401
from .bounds import OutsideOptionBound, bound_sweep, outside_option_bound  # noqa: F401
from .simulate import (  # noqa: F401
    AnalyticEffort,
    SimulationConfig,
    SimulationStats,
    analytic_long_run_effort,
    martingale_diagnostic,
    simulate,
)
