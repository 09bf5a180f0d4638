"""csglab: capacitated cost-sharing connection games, solved exactly.

Build or load an instance, compute agent costs and potentials, run
deviation dynamics to an equilibrium, enumerate all equilibria, and check
the anarchy/stability bounds that apply to the instance's graph class.
The instance generators live in ``csglab.instances`` and the acceptance
suite in ``csglab.verification``; importing the package loads neither.
"""

from .analysis import (
    AnalysisReport,
    BoundCheck,
    Criterion,
    EquilibriumSet,
    EquilibriumSummary,
    RatioValue,
    all_nash,
    compute_ratios,
    enumerate_profiles,
    optimal_profile,
    verify_lemma_cost_bound,
)
from .dynamics import (
    ConstructiveResult,
    DeviationPolicy,
    DynamicsTrace,
    best_response,
    low_max_cost_equilibrium,
    run_dynamics,
)
from .errors import (
    CsglabError,
    GenerationFailed,
    InfeasibleFlow,
    InfeasibleGame,
    InfeasibleProfile,
    InstanceFormatError,
    InternalAssertion,
    MalformedProfile,
    NotSeriesParallel,
    NotSymmetric,
    ParameterViolation,
    PathExplosion,
    SchemeViolation,
    SelfCheckFailed,
    StepCapExceeded,
)
from .flows import Flow, ResidualArc, augmenting_path, decompose_unit_paths, max_flow
from .game import (
    CostSharingScheme,
    Deviation,
    GameInstance,
    StrategyProfile,
    agent_cost,
    feasible_extension,
    is_feasible,
    is_nash,
    make_instance,
    make_ordinary_scheme,
    make_threshold_scheme,
    max_cost,
    potential,
    sum_cost,
    validate_scheme,
)
from .graphs import (
    Edge,
    EdgeLeaf,
    Graph,
    GraphClass,
    Parallel,
    Series,
    SpExpression,
    build_sp_graph,
    classify,
    enumerate_st_paths,
    make_graph,
    parallel,
    series,
)
from .rational import as_decimal, format_rational, parse_rational

__version__ = "0.1.0"
