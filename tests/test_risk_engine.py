"""Risk engine tests: formulas, ranking determinism, triage invariants."""

import json
from pathlib import Path

import numpy as np
import pytest

from riskgate.errors import DataError, MalformedFile, MissingModel, NonPositiveCost
from riskgate.risk_engine import (
    ContingencyParams,
    ScenarioTable,
    TriageReport,
    cost_ratio,
    load_contingency_params,
    perturb_params,
    prediction_risks,
    rank_scenarios,
    random_assessment_order,
    residual_error_curves,
    residual_risk_estimate,
    risk_optimal_predict,
    secure_first_order,
    triage,
    triage_csv,
    uniform_condition_probabilities,
)


def params_for(probability=0.0002, ratio=10000.0 / 10001.0, contingency=3):
    return ContingencyParams.from_cost_ratio(contingency, probability, ratio)


def decision_threshold(params: ContingencyParams) -> float:
    """Reference: the probability cutoff above which predicting secure minimises risk."""
    num = params.miss_cost * params.probability
    return num / (num + params.false_alarm_cost * (1.0 - params.probability))


# -- scalar formulas ------------------------------------------------------

def test_cost_ratio_values():
    assert cost_ratio(5.0, 5.0) == pytest.approx(0.5)
    assert cost_ratio(500.0, 1.0) == pytest.approx(500.0 / 501.0)
    assert cost_ratio(3.0, 1.0) == pytest.approx(0.75)
    with pytest.raises(NonPositiveCost):
        cost_ratio(0.0, 1.0)


def test_decision_threshold_values():
    assert decision_threshold(ContingencyParams(1, 0.5, 2.0, 2.0)) == pytest.approx(0.5)
    z = decision_threshold(ContingencyParams(3, 0.0002, 10000.0, 1.0))
    assert z == pytest.approx(2.0 / 2.9998, abs=1e-5)
    tiny = decision_threshold(ContingencyParams(1, 1e-12, 10.0, 1.0))
    assert tiny < 1e-10


def test_threshold_monotonicity():
    base = ContingencyParams(1, 0.001, 100.0, 1.0)
    z0 = decision_threshold(base)
    assert decision_threshold(ContingencyParams(1, 0.01, 100.0, 1.0)) > z0
    assert decision_threshold(ContingencyParams(1, 0.001, 200.0, 1.0)) > z0


def test_prediction_risks_values():
    p = ContingencyParams(3, 0.0002, 10000.0, 1.0)
    assert prediction_risks(1.0, p)[0] == pytest.approx(0.0)
    assert prediction_risks(0.0, p)[1] == pytest.approx(0.0)
    risk_secure, risk_insecure = prediction_risks(0.9, p)
    assert risk_secure == pytest.approx(0.2)
    assert risk_insecure == pytest.approx(0.89982)


def test_boundary_prediction_is_insecure():
    p = ContingencyParams(1, 0.5, 2.0, 2.0)  # threshold exactly 0.5
    label, residual = risk_optimal_predict(0.5, p)
    assert label == 0
    assert residual == pytest.approx(prediction_risks(0.5, p)[1])
    assert risk_optimal_predict(0.6, p)[0] == 1


def test_risk_optimal_matches_argmin_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        params = ContingencyParams(
            1,
            float(rng.uniform(1e-6, 0.9999)),
            float(rng.uniform(1e-3, 1e5)),
            float(rng.uniform(1e-3, 1e5)),
        )
        p1 = float(rng.uniform(0, 1))
        label, residual = risk_optimal_predict(p1, params)
        rs, ri = prediction_risks(p1, params)
        assert label == (1 if rs < ri else 0)
        assert residual == min(rs, ri)


def test_threshold_risk_equivalence_grid():
    rng = np.random.default_rng(23)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    for _ in range(100):
        params = ContingencyParams(
            1,
            float(rng.uniform(1e-6, 0.999)),
            float(rng.uniform(1e-3, 1e4)),
            float(rng.uniform(1e-3, 1e4)),
        )
        z = decision_threshold(params)
        labels, _ = risk_optimal_predict(grid, params)
        assert np.array_equal(labels == 1, grid > z)


def test_residual_risk_estimate_values():
    assert residual_risk_estimate(0, 0, 0.9, 0.1, 100) == 0.0
    z = residual_risk_estimate(1, 0, 10000.0 / 10001.0, 0.0002, 1500)
    assert z == pytest.approx(1.333e-7, rel=1e-3)
    assert residual_risk_estimate(2, 4, 0.9, 0.01, 50) == pytest.approx(
        2 * residual_risk_estimate(1, 2, 0.9, 0.01, 50)
    )


def test_perturbation():
    p = ContingencyParams(4, 0.0005, 1000.0, 1.0)
    assert perturb_params(p, 1.0, "both") == p
    up = perturb_params(p, 100.0, "probabilities")
    assert up.probability == pytest.approx(0.05)
    assert up.miss_cost == 1000.0
    both = perturb_params(ContingencyParams(4, 0.0001, 1000.0, 1.0), 10.0, "both")
    assert both.probability == pytest.approx(0.001)
    assert both.miss_cost == pytest.approx(10000.0)
    clamped = perturb_params(ContingencyParams(4, 0.5, 1.0, 1.0), 1e12, "probabilities")
    assert clamped.probability < 1.0


# -- ranking ----------------------------------------------------------------

def test_rank_single_scenario():
    params = {3: params_for()}
    ranked = rank_scenarios({3: [0.9]}, [1.0], params)
    assert len(ranked) == 1
    rs, ri = prediction_risks(0.9, params[3])
    assert ranked.risk[0] == pytest.approx(min(rs, ri))
    assert ranked.scenario_probability[0] == pytest.approx(1.0 * params[3].probability)


def test_rank_sorting_and_ties():
    params = {1: ContingencyParams(1, 0.5, 2.0, 2.0)}
    # residual risk of insecure prediction = p1 (cost 2 * 0.5 * p1)
    ranked = rank_scenarios({1: [0.3, 0.1, 0.2]}, uniform_condition_probabilities(3), params)
    assert ranked.condition.tolist() == [0, 2, 1]
    # exact ties break on (contingency, condition) ascending
    probabilities = {1: [0.2, 0.2, 0.2], 2: [0.2, 0.2, 0.2]}
    params = {1: ContingencyParams(1, 0.5, 2.0, 2.0), 2: ContingencyParams(2, 0.5, 2.0, 2.0)}
    ranked = rank_scenarios(probabilities, uniform_condition_probabilities(3), params)
    assert list(zip(ranked.contingency.tolist(), ranked.condition.tolist())) == [
        (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_rank_columns_match_per_scenario_sort():
    # reference: one row per pair, sorted by (-risk, contingency, condition)
    rng = np.random.default_rng(31)
    n = 40
    p_cond = rng.choice([1.0, 2.0], n)
    p_cond /= p_cond.sum()
    params = {c: ContingencyParams.from_cost_ratio(c, p, r)
              for c, p, r in [(7, 0.01, 0.9), (2, 0.01, 0.9), (5, 0.002, 0.99)]}
    probabilities = {c: rng.choice([0.1, 0.5, 0.95], n) for c in params}  # many exact ties
    ranked = rank_scenarios(probabilities, p_cond, params)

    rows = []
    for c in sorted(params):
        p1 = probabilities[c]
        labels, residual = risk_optimal_predict(p1, params[c])
        for k in range(n):
            rows.append((k, c, float(p_cond[k] * params[c].probability),
                         float(p1[k]), int(labels[k]), float(p_cond[k] * residual[k])))
    rows.sort(key=lambda r: (-r[5], r[1], r[0]))
    columns = (ranked.condition, ranked.contingency, ranked.scenario_probability,
               ranked.probability_estimate, ranked.predicted_label, ranked.risk)
    assert len(ranked) == len(rows) == 3 * n
    for j, column in enumerate(columns):
        assert column.tolist() == [r[j] for r in rows]


def test_missing_model_raises():
    with pytest.raises(MissingModel):
        rank_scenarios({}, [1.0], {3: params_for()})


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        rank_scenarios({3: [0.5, 0.5]}, [0.7, 0.7], {3: params_for()})


def test_probability_column_must_cover_every_condition():
    with pytest.raises(ValueError, match="2 probabilities for 3 conditions"):
        rank_scenarios({3: [0.5, 0.5]}, uniform_condition_probabilities(3), {3: params_for()})


# -- triage ---------------------------------------------------------------

def make_ranked(n=6, contingency=1, probability=0.01, ratio=0.99):
    params = {contingency: ContingencyParams.from_cost_ratio(contingency, probability, ratio)}
    rng = np.random.default_rng(5)
    ranked = rank_scenarios({contingency: rng.uniform(0, 1, n)}, uniform_condition_probabilities(n), params)
    return ranked, params


def test_zero_budget_everything_on_ml():
    ranked, params = make_ranked()
    report = triage(ranked, 0, oracle=lambda i, c: 1, params_by_contingency=params)
    assert report.n_high == 0
    assert report.assessed_fraction == 0.0
    assert report.conventional_risk == 0.0
    assert report.ml_risk == pytest.approx(sum(ranked.risk.tolist()))
    assert report.total_risk == pytest.approx(report.ml_risk)


def test_full_budget_everything_verified():
    ranked, params = make_ranked()
    truth = lambda i, c: 0 if i % 2 == 0 else 1
    report = triage(ranked, 100, oracle=truth, params_by_contingency=params)
    assert report.n_high == len(ranked)
    assert report.ml_risk == 0.0
    expected = sum(
        p * params[1].miss_cost
        for p, i in zip(ranked.scenario_probability.tolist(), ranked.condition.tolist()) if truth(i, 1) == 0
    )
    assert report.conventional_risk == pytest.approx(expected)


def test_top_one_split():
    ranked, params = make_ranked(n=3)
    report = triage(ranked, 1, oracle=lambda i, c: 1, params_by_contingency=params)
    assert report.n_high == 1
    assert report.assessed_fraction == pytest.approx(1.0 / 3.0)
    high_risk = report.scenarios.risk[: report.n_high]
    assert high_risk[0] == ranked.risk.max()
    assert report.scenarios.risk[report.n_high:].max() <= high_risk[0]


def test_oracle_failure_is_a_data_error_naming_the_scenario():
    ranked, params = make_ranked(n=4)
    failing = int(ranked.condition[1])

    def oracle(i, c):
        if i == failing:
            raise RuntimeError("solver exploded")
        return 1

    with pytest.raises(DataError, match=rf"scenario {failing}:1 \(rank 1\): solver exploded") as info:
        triage(ranked, 2, oracle=oracle, params_by_contingency=params)
    assert isinstance(info.value.__cause__, RuntimeError)


def test_endpoint_identities():
    # residual risk at S=0 equals the pure-ML total; at S=n it equals the
    # conventional-assessment total, both computed independently here.
    ranked, params = make_ranked(n=8, probability=0.05, ratio=0.9)
    truth = lambda i, c: 0 if i in (2, 5) else 1
    ml_total = sum(ranked.risk.tolist())
    sa_total = sum(p * params[1].miss_cost
                   for p, i in zip(ranked.scenario_probability.tolist(), ranked.condition.tolist()) if truth(i, 1) == 0)
    r0 = triage(ranked, 0, oracle=truth, params_by_contingency=params)
    rn = triage(ranked, len(ranked), oracle=truth, params_by_contingency=params)
    assert r0.total_risk == pytest.approx(ml_total)
    assert rn.total_risk == pytest.approx(sa_total)


def test_residual_risk_non_increasing_in_budget():
    ranked, params = make_ranked(n=12, probability=0.02, ratio=0.95)
    rng = np.random.default_rng(9)
    truth = (rng.uniform(size=len(ranked)) > 0.4).astype(int)  # in ranked order
    _, _, _, risk = residual_error_curves(ranked.contingency, ranked.predicted_label, truth, params, 12,
                                          np.arange(len(ranked) + 1))
    assert len(risk) == len(ranked) + 1
    assert np.all(np.diff(risk) <= 1e-15)
    assert risk[0] > risk[-1] == 0.0


def test_triage_deterministic():
    ranked, params = make_ranked(n=10)
    truth = lambda i, c: 1
    a = triage(ranked, 4, truth, params)
    b = triage(ranked, 4, truth, params)
    assert a.total_risk == b.total_risk
    assert np.array_equal(a.scenarios.condition, b.scenarios.condition)


def test_triage_csv_schema(tmp_path):
    ranked, params = make_ranked(n=5)
    report = triage(ranked, 2, lambda i, c: 1, params)
    path = tmp_path / "triage.csv"
    triage_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,scenario,condition,contingency,p_hat,label_pred,risk,in_high_set,oracle_label"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and first[7] == "1" and first[8] == "1"
    assert lines[-1].split(",")[7] == "0"


# The writer as it stood before it formatted each row with one %-template,
# kept verbatim: the current writer must reproduce its bytes.
def reference_triage_csv(report: TriageReport, path) -> None:
    table = report.scenarios
    oracle = [str(v) for v in report.oracle_labels] + [""] * (len(table) - report.n_high)
    lines = ["rank,scenario,condition,contingency,p_hat,label_pred,risk,in_high_set,oracle_label"]
    for rank, (cond, cont, p_hat, label, risk, oracle_label) in enumerate(zip(
            table.condition.tolist(), table.contingency.tolist(), table.probability_estimate.tolist(),
            table.predicted_label.tolist(), table.risk.tolist(), oracle)):
        lines.append(
            f"{rank},{cond}:{cont},{cond},{cont},{p_hat:.17g},{label},{risk:.17g},"
            f"{int(rank < report.n_high)},{oracle_label}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, 3.0, -7.0,
                  1e16, 2.0 ** 53 + 2, 0.1, 1 / 3]


def test_triage_csv_matches_the_reference_writer(tmp_path):
    rng = np.random.default_rng(14)

    def floats(n):
        drawn = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n).astype(float)
        return np.where(rng.random(n) < 0.5, rng.choice(SPECIAL_FLOATS, n), drawn)

    for n in [0, 1, 2, 7, 50, 333]:
        n_high = int(rng.integers(0, n + 1))
        table = ScenarioTable(
            condition=rng.integers(0, 10**6, n), contingency=rng.integers(1, 12, n),
            scenario_probability=floats(n), probability_estimate=floats(n),
            predicted_label=rng.integers(0, 2, n), risk=floats(n))
        report = TriageReport(table, n_high, n_high / max(n, 1), rng.integers(0, 2, n_high).tolist(), 0.0, 0.0, 0.0)
        triage_csv(report, tmp_path / "new.csv")
        reference_triage_csv(report, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# -- sweep curves ----------------------------------------------------------

def test_error_curves_suffix_counts():
    params = {1: ContingencyParams.from_cost_ratio(1, 0.01, 0.9)}
    contingencies = [1, 1, 1, 1]
    pred = [1, 0, 1, 0]
    true = [0, 1, 1, 0]  # scenario 0: missed alarm; scenario 1: false alarm
    budgets, missed, false, risk = residual_error_curves(contingencies, pred, true, params, 4, np.arange(5))
    assert list(budgets) == [0, 1, 2, 3, 4]
    assert list(missed) == [1, 0, 0, 0, 0]
    assert list(false) == [1, 1, 0, 0, 0]
    z0 = residual_risk_estimate(1, 1, 0.9, 0.01, 4)
    assert risk[0] == pytest.approx(z0)
    assert risk[-1] == 0.0
    assert np.all(np.diff(risk) <= 1e-18)


def test_orders_are_deterministic_permutations():
    a = random_assessment_order(100, seed=4)
    b = random_assessment_order(100, seed=4)
    assert np.array_equal(a, b)
    assert sorted(a) == list(range(100))
    pred = np.array([1, 0, 1, 1, 0, 0, 1])
    order = secure_first_order(pred, seed=4)
    assert sorted(order) == list(range(7))
    k = int(pred.sum())
    assert np.all(pred[order[:k]] == 1) and np.all(pred[order[k:]] == 0)


# -- contingencies.json -------------------------------------------------------

def test_contingency_file_roundtrip(tmp_path):
    params = {
        3: ContingencyParams.from_cost_ratio(3, 0.0002, 10000.0 / 10001.0),
        5: ContingencyParams(5, 0.0003, 500.0, 1.0),
    }
    path = tmp_path / "contingencies.json"
    path.write_text(json.dumps([
        {"line_id": p.contingency, "p_c": p.probability, "c_f1": p.miss_cost, "c_f0": p.false_alarm_cost}
        for p in params.values()
    ]))
    loaded = load_contingency_params(path)
    assert loaded == params


def test_contingency_file_accepts_ratio(tmp_path):
    path = tmp_path / "contingencies.json"
    path.write_text('[{"line_id": 6, "p_c": 0.0001, "cost_ratio": 0.999}]')
    loaded = load_contingency_params(path)
    assert loaded[6].miss_cost == pytest.approx(0.999)
    assert loaded[6].false_alarm_cost == pytest.approx(0.001)


def test_contingency_file_errors(tmp_path):
    path = tmp_path / "contingencies.json"
    path.write_text("[{]")
    with pytest.raises(MalformedFile):
        load_contingency_params(path)
    path.write_text('[{"line_id": 6}]')
    with pytest.raises(MalformedFile):
        load_contingency_params(path)
    path.write_text("[]")
    with pytest.raises(MalformedFile):
        load_contingency_params(path)
    path.write_text('[{"line_id": 6, "p_c": 0.0001, "cost_ratio": 0.999}, {"line_id": 6, "p_c": 0.5, "cost_ratio": 0.9}]')
    with pytest.raises(MalformedFile, match="line 6 is listed twice"):
        load_contingency_params(path)
