"""Cost-sensitive calibrated security classification and risk-ranked triage."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    Bus,
    FlowSolution,
    Generator,
    GridModel,
    Line,
    assess_security,
    load_grid,
    six_bus,
    solve_dc_power_flow,
    solve_dcopf,
)
from .scenario_gen import (  # noqa: F401
    Conditions,
    LabeledDatabase,
    build_database,
    load_database,
    save_database,
)
from .learner import (  # noqa: F401
    Ensemble,
    Stump,
    ensemble_score,
    ensemble_vote,
    load_model,
    save_model,
    train_adaboost,
    train_single_tree,
    train_stump,
    tree_predict,
)
from .calibration import (  # noqa: F401
    CalibratedEnsemble,
    PlattParams,
    brier_score,
    calibrated_probability,
    fit_platt,
)
from .risk_engine import (  # noqa: F401
    ContingencyParams,
    ScenarioTable,
    TriageReport,
    cost_ratio,
    perturb_params,
    prediction_risks,
    rank_scenarios,
    residual_risk_estimate,
    risk_optimal_predict,
    triage,
)
