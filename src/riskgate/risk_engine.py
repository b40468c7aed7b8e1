"""Risk mathematics: thresholds, scenario ranking, budgeted triage.

The central objects are per-contingency economic parameters (occurrence
probability, miss and false-alarm costs) and per-scenario residual
risks.  A prediction's residual risk is the smaller of the miss-side and
false-alarm-side expected costs; predictions are made to attain that
minimum, which is equivalent to thresholding the calibrated probability
at the shifted decision threshold.  Scenarios sorted by residual risk
feed the triage: the top ``budget`` scenarios are re-checked by the
exact oracle, the rest stay on the machine-learning prediction.

Cost conventions: when parameters are built from a cost ratio, the miss
cost is the ratio itself and the false-alarm cost its complement, which
makes every aggregate risk directly comparable with the test-set
residual-risk estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, MalformedFile, integer, number, read_json, write_texts

_PROB_CEIL = 1.0 - 1e-9
PROBABILITY_SUM_TOL = 1e-9  # condition probabilities must sum to 1 within this


def cost_ratio(miss_cost: float, false_alarm_cost: float) -> float:
    """Skew between miss and false-alarm costs, in (0, 1)."""
    if not (0 < miss_cost < np.inf and 0 < false_alarm_cost < np.inf):  # NaN fails both
        raise ValueError(f"costs must be strictly positive and finite, got {miss_cost} and {false_alarm_cost}")
    return miss_cost / (miss_cost + false_alarm_cost)


@dataclass(frozen=True)
class ContingencyParams:
    contingency: int
    probability: float  # chance the contingency occurs, in (0, 1)
    miss_cost: float
    false_alarm_cost: float

    def __post_init__(self):
        if not 0.0 < self.probability < 1.0:
            raise ValueError("contingency probability must be strictly inside (0, 1)")
        cost_ratio(self.miss_cost, self.false_alarm_cost)  # checks the costs

    @classmethod
    def from_cost_ratio(cls, contingency: int, probability: float, ratio: float) -> "ContingencyParams":
        if not 0.0 < ratio < 1.0:
            raise ValueError("cost ratio must be strictly inside (0, 1)")
        return cls(contingency, probability, miss_cost=ratio, false_alarm_cost=1.0 - ratio)

    @property
    def ratio(self) -> float:
        return cost_ratio(self.miss_cost, self.false_alarm_cost)


def prediction_risks(probability_estimate, params: ContingencyParams):
    """(risk of predicting secure, risk of predicting insecure), one entry each per probability."""
    p1 = np.asarray(probability_estimate, dtype=float)
    risk_secure = params.miss_cost * params.probability * (1.0 - p1)
    risk_insecure = params.false_alarm_cost * (1.0 - params.probability) * p1
    return risk_secure, risk_insecure


def risk_optimal_predict(probability_estimate, params: ContingencyParams):
    """Label with the smaller prediction risk, and that residual risk, per probability.

    Predicts secure exactly when the secure-side risk is strictly
    smaller, which coincides with ``p1`` above the shifted threshold
    ``m*p / (m*p + f*(1 - p))`` (``m``, ``f`` the miss and false-alarm
    costs, ``p`` the contingency probability); at the boundary the
    prediction is insecure.
    """
    risk_secure, risk_insecure = prediction_risks(probability_estimate, params)
    label = (risk_secure < risk_insecure).astype(int)
    return label, np.where(label == 1, risk_secure, risk_insecure)


def alarm_masks(predicted, truth):
    """(missed, false) alarm masks; label 1 is secure.

    A missed alarm predicts secure where the truth is insecure, a false
    alarm predicts insecure where the truth is secure.
    """
    pred = np.asarray(predicted, dtype=int)
    true = np.asarray(truth, dtype=int)
    return (true == 0) & (pred == 1), (true == 1) & (pred == 0)


def residual_risk_estimate(missed_alarms: int, false_alarms: int, ratio: float,
                           probability: float, n_conditions: int) -> float:
    """Test-set estimate of the residual risk of trusting the model.

    Assumes every operating condition is equally likely (Monte Carlo
    sampling), so each condition carries weight ``1 / n_conditions``.
    """
    if missed_alarms < 0 or false_alarms < 0:
        raise ValueError("alarm counts must be nonnegative")
    if n_conditions < 1:
        raise ValueError("n_conditions must be >= 1")
    return (missed_alarms * ratio * probability
            + false_alarms * (1.0 - ratio) * (1.0 - probability)) / n_conditions


def perturb_params(params: ContingencyParams, alpha: float, target: str) -> ContingencyParams:
    """Scale the miss cost and/or occurrence probability by ``alpha``.

    Returns a new object; callers keep the original for truth evaluation.
    The scaled probability is clamped to stay inside (0, 1).
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if target not in ("costs", "probabilities", "both"):
        raise ValueError(f"unknown perturbation target {target!r}")
    miss = params.miss_cost * alpha if target in ("costs", "both") else params.miss_cost
    prob = params.probability
    if target in ("probabilities", "both"):
        prob = min(prob * alpha, _PROB_CEIL)
    return ContingencyParams(params.contingency, prob, miss, params.false_alarm_cost)


# -- scenarios and triage ------------------------------------------------------

@dataclass(frozen=True)
class ScenarioTable:
    """Scenarios as aligned columns, one row per (condition, contingency) pair."""

    condition: np.ndarray
    contingency: np.ndarray
    scenario_probability: np.ndarray  # condition probability times contingency probability
    probability_estimate: np.ndarray  # calibrated secure-class probability
    predicted_label: np.ndarray
    risk: np.ndarray  # condition probability times residual prediction risk

    def __len__(self) -> int:
        return len(self.risk)


def rank_scenarios(probabilities, condition_probabilities, params_by_contingency):
    """Sort every (condition, contingency) pair by falling risk.

    ``probabilities`` maps contingency id to a column of calibrated
    secure-class probabilities, one per condition; a condition's id is its
    row position.  ``params_by_contingency`` maps contingency id to
    ContingencyParams.  Returns a ScenarioTable in descending-risk order;
    ties break on ascending (contingency, condition) so the ordering is
    fully deterministic.
    """
    p_cond = np.asarray(condition_probabilities, dtype=float)
    if not np.all(p_cond >= 0):  # NaN passes the sum check
        raise ValueError(f"condition probabilities must be >= 0, got {float(p_cond[~(p_cond >= 0)][0])}")
    if abs(p_cond.sum() - 1.0) > PROBABILITY_SUM_TOL:
        raise ValueError("condition probabilities must sum to 1")

    contingencies = sorted(params_by_contingency)
    n, m = len(p_cond), len(contingencies) * len(p_cond)
    p1, residual, c_prob = np.empty(m), np.empty(m), np.empty(m)
    labels = np.empty(m, dtype=int)
    for k, c in enumerate(contingencies):  # contingency-major rows
        if c not in probabilities:
            raise ConfigError(f"no model for contingency {c}")
        column = np.asarray(probabilities[c], dtype=float)
        if column.shape != (n,):
            raise ValueError(f"contingency {c}: {column.size} probabilities for {n} conditions")
        params = params_by_contingency[c]
        rows = slice(k * n, (k + 1) * n)
        p1[rows] = column
        labels[rows], residual[rows] = risk_optimal_predict(column, params)
        c_prob[rows] = params.probability
    p_rows = np.tile(p_cond, len(contingencies))
    table = ScenarioTable(
        condition=np.tile(np.arange(n), len(contingencies)),
        contingency=np.repeat(np.asarray(contingencies, dtype=int), n),
        scenario_probability=p_rows * c_prob,
        probability_estimate=p1,
        predicted_label=labels,
        risk=p_rows * residual,
    )
    order = np.lexsort((table.condition, table.contingency, -table.risk))
    return ScenarioTable(**{name: col[order] for name, col in vars(table).items()})


@dataclass
class TriageReport:
    scenarios: ScenarioTable  # descending-risk order
    n_high: int
    assessed_fraction: float  # share of scenarios sent to the oracle
    oracle_labels: list[int]  # aligned with the high-risk prefix
    conventional_risk: float  # residual risk carried by oracle results
    ml_risk: float  # residual risk carried by unverified predictions
    total_risk: float
    assessment_failures: list[int] = field(default_factory=list)  # always empty; kept only for bench/tracing.py


def triage(ranked: ScenarioTable, budget: int, oracle, params_by_contingency) -> TriageReport:
    """Assess the top-``budget`` scenarios with the oracle, keep the rest on ML.

    ``oracle(condition_id, contingency_id) -> 0/1``.  An oracle exception
    is re-raised as a ``DataError`` naming the scenario and its rank, so
    no assessed scenario is left without a label or out of the risk total.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    n_high = min(budget, len(ranked))
    high, low = slice(None, n_high), slice(n_high, None)
    oracle_labels: list[int] = []
    conventional = 0.0
    for rank, (cond, cont, p_scn) in enumerate(zip(ranked.condition[high].tolist(),
                                                   ranked.contingency[high].tolist(),
                                                   ranked.scenario_probability[high].tolist())):
        try:
            label = int(oracle(cond, cont))
        except Exception as exc:  # any oracle error leaves the scenario unassessed
            raise DataError(f"oracle failed on scenario {cond}:{cont} (rank {rank}): {exc}") from exc
        oracle_labels.append(label)
        if label == 0:  # binary severity: miss cost when insecure, else zero
            conventional += p_scn * params_by_contingency[cont].miss_cost

    ml = float(sum(ranked.risk[low].tolist()))
    return TriageReport(
        scenarios=ranked,
        n_high=n_high,
        assessed_fraction=n_high / len(ranked) if len(ranked) else 0.0,
        oracle_labels=oracle_labels,
        conventional_risk=conventional,
        ml_risk=ml,
        total_risk=conventional + ml,
    )


_TRIAGE_HEADER = "rank,scenario,condition,contingency,p_hat,label_pred,risk,in_high_set,oracle_label\n"


def _texts(column, template: str) -> list[str]:
    """``template % v`` for every value of ``column``, formatting each distinct bit pattern once."""
    column = np.asarray(column)
    bits, index = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    return np.array([template % v for v in bits.view(column.dtype).tolist()], dtype=object)[index].tolist()


def triage_csv(report: TriageReport, path) -> None:
    """Write ``triage.csv``: one row per scenario in rank order, floats with 17 significant digits."""
    table = report.scenarios
    n, n_high = len(table), report.n_high
    rows = zip(range(n), _texts(table.condition, "%d"), _texts(table.contingency, "%d"),
               _texts(table.probability_estimate, "%.17g"), _texts(table.predicted_label, "%d"),
               _texts(table.risk, "%.17g"), ["1"] * n_high + ["0"] * (n - n_high),
               report.oracle_labels + [""] * (n - n_high))
    write_texts({path: _TRIAGE_HEADER + "".join([
        f"{rank},{cond}:{cont},{cond},{cont},{p_hat},{label},{risk},{high},{oracle}\n"
        for rank, cond, cont, p_hat, label, risk, high, oracle in rows])})


# -- budget-sweep curves -------------------------------------------------------

def residual_error_curves(contingencies, predicted, truth, params_by_contingency,
                          n_conditions: int, budgets):
    """Errors and residual risk left after assessing the first S scenarios.

    The three arrays describe scenarios in assessment order.  Returns
    ``(budgets, missed, false_alarms, risk)`` where entry ``k`` counts
    only the scenarios beyond ``budgets[k]`` (assessed ones are corrected
    by the oracle and carry no residual error).
    """
    c_ids = np.asarray(contingencies)
    n = len(c_ids)
    budgets = np.asarray(budgets, dtype=int)
    if np.any(budgets < 0) or np.any(budgets > n):
        raise ValueError("budgets must lie in [0, number of scenarios]")

    is_missed, is_false = (mask.astype(float) for mask in alarm_masks(predicted, truth))
    weight = np.empty(n)
    for c in sorted(set(c_ids.tolist())):  # np.unique would import numpy.ma
        p = params_by_contingency[int(c)]
        mask = c_ids == c
        weight[mask] = np.where(
            is_missed[mask] > 0, p.ratio * p.probability / n_conditions,
            np.where(is_false[mask] > 0, (1.0 - p.ratio) * (1.0 - p.probability) / n_conditions, 0.0),
        )
    def suffix(a):
        return np.concatenate([np.cumsum(a[::-1])[::-1], [0.0]])

    missed_left = suffix(is_missed)[budgets]
    false_left = suffix(is_false)[budgets]
    risk_left = suffix(weight)[budgets]
    return budgets, missed_left.astype(int), false_left.astype(int), risk_left


def random_assessment_order(n_scenarios: int, seed: int) -> np.ndarray:
    """Uniformly random verification order (no-ML baseline)."""
    return np.random.default_rng([seed, 101]).permutation(n_scenarios)


def secure_first_order(predicted, seed: int) -> np.ndarray:
    """Predicted-secure scenarios first, random order inside each group."""
    pred = np.asarray(predicted, dtype=int)
    rng = np.random.default_rng([seed, 202])
    secure = np.flatnonzero(pred == 1)
    insecure = np.flatnonzero(pred == 0)
    return np.concatenate([rng.permutation(secure), rng.permutation(insecure)])


# -- contingencies.json --------------------------------------------------------

def load_contingency_params(path) -> dict[int, ContingencyParams]:
    """Read ``contingencies.json``: a list of per-contingency entries.

    Each entry names a line id (a JSON integer) and probability, plus
    either ``cost_ratio`` or the pair ``c_f1``/``c_f0``, all finite
    numbers.
    """
    entries = read_json(path)
    out: dict[int, ContingencyParams] = {}
    try:
        for k, entry in enumerate(entries):
            def field(name):
                return number(entry[name], f"entry {k} {name}")

            line_id = integer(entry["line_id"], f"entry {k} line_id")
            if "cost_ratio" in entry:
                params = ContingencyParams.from_cost_ratio(line_id, field("p_c"), field("cost_ratio"))
            else:
                params = ContingencyParams(line_id, field("p_c"), field("c_f1"), field("c_f0"))
            if line_id in out:
                raise ValueError(f"line {line_id} is listed twice")
            out[line_id] = params
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: bad contingency entry: {exc}") from exc
    if not out:
        raise MalformedFile(f"{path}: contingency file lists no contingencies")
    return out


def uniform_condition_probabilities(n: int) -> np.ndarray:
    """Equal condition likelihoods for Monte Carlo test sets."""
    if n < 1:
        raise ValueError("need at least one condition")
    return np.full(n, 1.0 / n)
