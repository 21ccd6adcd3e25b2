"""Solvers for conditional optimal stopping on trees and Markov chains.

The observer maximizes the expected stopped payoff conditional on stopping
while the problem is still relevant.  The package computes precommitted
optima, equilibrium stopping policies robust to one-step deviations, the
associated value/survival pairs, and exact verification reports, over finite
probability trees and discounted chains with finite or infinite horizon.
"""

from .numeric import (
    EXACT,
    NumericError,
    NumericMode,
    Scalar,
    SingularSystemError,
    decimal_render,
    float_mode,
    format_scalar,
    parse_rational,
    solve_linear,
)
from .model import (
    EXIT_SEGMENT,
    Atom,
    AtomTree,
    MarkovModel,
    ModelError,
    State,
    effective_horizon,
    unroll,
)
from .policy import (
    AdmissibilityResult,
    EquilibriumResult,
    InadmissiblePolicyError,
    PolicyError,
    PrecommitResult,
    SizeGuardError,
    StoppingPolicy,
    admissible,
    continuation_value,
    count_stopping_times,
    enumerate_equilibria,
    is_equilibrium,
    phi,
    precommitted,
)
from .recursion import (
    ConditionReport,
    PairError,
    SnellPair,
    VerificationReport,
    backward_solve,
    classical_snell,
    pair_from_policy,
    policy_from_pair,
    survival_identities,
    verify_pair_and_policy,
    verify_snell_pair,
)
from .infinite import (
    PeriodicEquilibrium,
    PeriodicMarkovPolicy,
    PolicyEvaluation,
    TruncationReport,
    check_growth,
    enumerate_periodic_equilibria,
    evaluate,
    is_periodic_equilibrium,
    phi_markov,
    reachable_pairs,
    truncation_limit,
)
from .modelio import (
    ParseError,
    TimedRegions,
    dump_model,
    dump_pair,
    dump_policy,
    load_model,
    load_pair,
    load_policy,
    model_digest,
    read_json,
)
from .catalog import (
    BUILTIN_MODELS,
    InequalityCheck,
    ParameterReport,
    binomial_tree,
    builtin_model,
    check_minnie_donald_conditions,
    minnie_donald_cycle_regions,
    minnie_donald_homogeneous_policy,
    minnie_donald_model,
    minnie_donald_periodic_policy,
    two_state_equilibrium_regions,
    two_state_history_policy,
    two_state_model,
)

__version__ = "0.1.0"
