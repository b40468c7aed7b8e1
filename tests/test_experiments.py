"""Experiment runner tests on a desk-size configuration.

These check structure, determinism and file contracts; the full-size
statistical claims live in the acceptance suite.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from riskgate import experiments
from riskgate.errors import ConfigError
from riskgate.experiments import (
    ALL_LINES,
    RUNNERS,
    ExperimentConfig,
    Study,
    _manifest_text,
    budget_sweep,
    draw_contingency_params,
    fit_contingency_model,
    run_study,
)

SMALL = dict(n=320, splits=(200, 60, 60), seed=5, rounds=8, repetitions=2)


def small_config(tmp_path, **over):
    return ExperimentConfig(**{**SMALL, **over, "out_dir": str(tmp_path)})


@pytest.fixture(scope="module")
def study():
    """One study of the SMALL config, shared by the runner tests."""
    return Study(ExperimentConfig(**SMALL))


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -- shared machinery ------------------------------------------------------

def test_budget_sweep_granularity():
    assert list(budget_sweep(5)) == [0, 1, 2, 3, 4, 5]
    big = budget_sweep(16500)
    assert big[0] == 0 and big[-1] == 16500
    assert np.all(np.diff(big) == 100)
    odd = budget_sweep(3250)
    assert odd[-1] == 3250 and odd[-2] == 3200


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(n=100, splits=(60, 20, 20), seed=9, out_dir="x")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_json(path) == cfg


def test_config_split_mismatch_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(n=100, splits=(50, 20, 20))


@pytest.mark.parametrize("repetitions", [0, -1])
def test_config_without_repetitions_rejected(repetitions):
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        ExperimentConfig(repetitions=repetitions)


@pytest.mark.parametrize("field", ["rounds", "repetitions"])
def test_config_rounds_and_repetitions_have_an_upper_bound(field):
    assert getattr(ExperimentConfig(**{field: 10_000}), field) == 10_000
    for value in (10_001, 10**30):
        with pytest.raises(ValueError, match=f"^{field} must be <= 10000, got {value}$"):
            ExperimentConfig(**{field: value})


@pytest.mark.parametrize("alpha", [0, -1.0, float("inf"), float("nan")])
def test_config_alpha_must_be_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        ExperimentConfig(alpha=alpha)


@pytest.mark.parametrize("field, value", [
    ("rounds", "6"), ("rounds", True), ("rounds", 6.0), ("seed", None), ("alpha", "10"), ("alpha", False),
    ("mode", 1), ("splits", [3500, "875", 1500]), ("splits", [5875]), ("splits", "3500,875,1500"),
])
def test_config_field_of_the_wrong_type_rejected(field, value):
    with pytest.raises(TypeError, match=f"^{field} must be "):
        ExperimentConfig(**{field: value})


def test_config_fields_accept_their_own_kinds(tmp_path):
    cfg = ExperimentConfig(alpha=10, splits=[3500, 875, 1500], seed=np.int64(7), out_dir=tmp_path)
    assert cfg.alpha == 10 and cfg.splits == (3500, 875, 1500) and cfg.seed == 7


def test_config_accepts_empty_calibration_and_test_splits():
    assert ExperimentConfig(n=300, splits=(200, 100, 0)).splits == (200, 100, 0)
    assert ExperimentConfig(n=300, splits=(300, 0, 0)).splits == (300, 0, 0)


def test_study_without_test_conditions_rejected():
    """Every study scores the test split, so a study refuses to start without one: no pool, no models."""
    with pytest.raises(ConfigError, match="the test split needs at least one condition"):
        Study(ExperimentConfig(n=200, splits=(150, 50, 0)))


def test_drawn_params_are_from_choice_sets():
    drawn = draw_contingency_params(ALL_LINES, seed=3)
    from riskgate.experiments import COST_RATIO_CHOICES, PROBABILITY_CHOICES

    assert set(drawn) == set(ALL_LINES)
    for p in drawn.values():
        assert p.probability in PROBABILITY_CHOICES
        assert min(abs(p.ratio - r) for r in COST_RATIO_CHOICES) < 1e-12
    assert draw_contingency_params(ALL_LINES, seed=3) == drawn


def test_pool_cached_and_deterministic(study):
    assert study.pool is study.pool  # built once per study
    assert set(study.pool.labels) == set(ALL_LINES)
    assert Study(ExperimentConfig(**SMALL)).pool == study.pool


# -- runners -----------------------------------------------------------------

def test_imbalance_study_structure(study, tmp_path):
    out = run_study("imbalance", study, tmp_path / "a")
    rows = read_csv(out / "imbalance.csv")
    assert len(rows) == 2 * SMALL["repetitions"] + 2
    mean_rows = [r for r in rows if r["repetition"] == "mean"]
    assert {r["contingency"] for r in mean_rows} == {"5", "6"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "imbalance"
    assert manifest["seed"] == SMALL["seed"]
    assert "pool_priors" in manifest["extras"]
    assert len(manifest["config_hash"]) == 64
    assert manifest["environment"] == {"numpy": np.__version__, "scipy": scipy.__version__,
                                       "openblas_core": experiments.openblas_core()}


def test_openblas_core_names_the_kernel_or_none(monkeypatch):
    assert isinstance(experiments.openblas_core(), str) and experiments.openblas_core()
    try:
        for module, name, stand_in in [(experiments.ctypes, "CDLL", lambda path: object()),  # no symbol
                                       (experiments.glob, "glob", lambda pattern: [])]:  # no library
            monkeypatch.setattr(module, name, stand_in)
            experiments.openblas_core.cache_clear()
            assert experiments.openblas_core() is None
    finally:
        monkeypatch.undo()
        experiments.openblas_core.cache_clear()


def test_imbalance_study_deterministic(study, tmp_path):
    out_a = run_study("imbalance", study, tmp_path / "a")
    out_b = run_study("imbalance", Study(ExperimentConfig(**SMALL)), tmp_path / "b")
    assert (out_a / "imbalance.csv").read_bytes() == (out_b / "imbalance.csv").read_bytes()


def test_config_hash_ignores_out_dir_but_not_seed(tmp_path):
    def config_hash(cfg):
        return json.loads(_manifest_text(cfg, "imbalance", cfg.out_dir, {}))["config_hash"]

    same = config_hash(small_config(tmp_path / "a")), config_hash(small_config(tmp_path / "b"))
    assert same[0] == same[1]
    assert config_hash(small_config(tmp_path / "c", seed=SMALL["seed"] + 1)) != same[0]


def test_calibration_study_outputs(tmp_path):
    cfg = small_config(tmp_path, bins=6)
    out = run_study("calibration", Study(cfg), tmp_path)
    rows = read_csv(out / "brier.csv")
    assert len(rows) == SMALL["repetitions"] + 1
    assert rows[-1]["repetition"] == "mean"
    for name in ("reliability_uncalibrated.csv", "reliability_calibrated.csv"):
        rel = read_csv(out / name)
        assert len(rel) == 6
        counts = [int(r["count"]) for r in rel]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == cfg.splits[2]


def test_threshold_study_grid(study, tmp_path):
    out = run_study("threshold", study, tmp_path)
    rows = read_csv(out / "threshold_risk.csv")
    assert len(rows) == 35  # 5 variants x 7 cost ratios
    assert all(float(r["mean_risk"]) >= 0.0 for r in rows)
    variants = {r["variant"] for r in rows}
    assert variants == {"dt", "dt_threshold", "adaboost", "adaboost_threshold", "calibrated_threshold"}


@pytest.mark.parametrize("name", ["calibration", "threshold"])
def test_each_repetition_scores_its_model_once(study, tmp_path, times_scored, name):
    run_study(name, study, tmp_path)
    for rep in range(study.config.repetitions):
        _, _, test_idx = study.split(rep)
        assert times_scored(study.pool.features_matrix()[test_idx]) == 1


def test_triage_study_curves(study, tmp_path):
    out = run_study("triage", study, tmp_path)
    n_test = study.config.splits[2]
    for name in ("proposed", "standard", "no_ml"):
        rows = read_csv(out / f"triage_{name}.csv")
        assert len(rows) == n_test + 1
        last = rows[-1]
        assert int(last["missed_alarms"]) == 0 and int(last["false_alarms"]) == 0
        assert float(last["residual_risk"]) == 0.0
        risks = np.array([float(r["residual_risk"]) for r in rows])
        assert np.all(np.diff(risks) <= 1e-18)


def test_multi_study_scenario_counts(study, tmp_path):
    out = run_study("multi", study, tmp_path)
    n_test = study.config.splits[2]
    rows2 = read_csv(out / "multi2_proposed.csv")
    assert int(rows2[-1]["budget"]) == 2 * n_test
    rows11 = read_csv(out / "multi11_proposed.csv")
    assert int(rows11[-1]["budget"]) == 11 * n_test
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["extras"]["drawn_params"]) == {str(c) for c in ALL_LINES}
    assert (out / "multi2_standard.csv").exists()
    assert (out / "multi11_standard.csv").exists()


def test_sensitivity_identity_at_alpha_one(tmp_path):
    out = run_study("sensitivity", Study(small_config(tmp_path, alpha=1.0)), tmp_path)
    rows = read_csv(out / "sensitivity.csv")
    curves = {}
    for r in rows:
        curves.setdefault(r["curve"], []).append(r["residual_risk"])
    assert set(curves) == {"unperturbed", "cost_up", "cost_down", "prob_up", "prob_down",
                           "superposed", "standard"}
    # alpha = 1 perturbations are the identity
    for name in ("cost_up", "cost_down", "prob_up", "prob_down", "superposed"):
        assert curves[name] == curves["unperturbed"]
    for name, risks in curves.items():
        assert float(risks[-1]) == 0.0  # full verification removes all risk


def test_sensitivity_curves_differ_when_distorted(study, tmp_path):
    assert study.config.alpha == 10.0
    out = run_study("sensitivity", study, tmp_path)
    rows = read_csv(out / "sensitivity.csv")
    by_curve = {}
    for r in rows:
        by_curve.setdefault(r["curve"], []).append(float(r["residual_risk"]))
    assert by_curve["superposed"][0] >= by_curve["unperturbed"][0]


def test_sensitivity_scores_each_model_once(study, tmp_path, times_scored):
    # six ranked curves and the standard one share one score per model
    run_study("sensitivity", study, tmp_path)
    _, _, test_idx = study.split(0)
    assert times_scored(study.pool.features_matrix()[test_idx]) == len(ALL_LINES)


def test_runner_isolation(study, tmp_path):
    out_a = run_study("imbalance", study, tmp_path / "imb")
    out_b = run_study("calibration", study, tmp_path / "cal")
    assert out_a != out_b
    assert not (Path(out_a) / "brier.csv").exists()
    assert not (Path(out_b) / "imbalance.csv").exists()


def test_a_study_that_raises_writes_nothing(study, tmp_path, monkeypatch):
    """The third Brier score is repetition 1's: repetition 0's reliability CSVs are computed by then."""
    calls, real = [], experiments.brier_score

    def brier_score(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("brier score failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "brier_score", brier_score)
    with pytest.raises(RuntimeError, match="brier score failed"):
        run_study("calibration", study, tmp_path / "out")
    assert len(calls) == 3
    assert not (tmp_path / "out").exists()


def test_run_study_refuses_an_unknown_name_or_a_file_as_out_dir_before_any_work(tmp_path, monkeypatch):
    fits = []
    monkeypatch.setattr(experiments, "fit_contingency_model", lambda *args: fits.append(args))
    study = Study(ExperimentConfig(**SMALL))
    with pytest.raises(ConfigError, match="unknown study 'all'; the studies are imbalance, calibration, "):
        run_study("all", study, tmp_path / "out")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    with pytest.raises(ConfigError, match="a_file exists and is not a directory"):
        run_study("imbalance", study, a_file)
    with pytest.raises(ConfigError, match=f"^cannot make {a_file}/sub/out: {a_file} exists and is not a directory$"):
        run_study("multi", study, a_file / "sub" / "out")  # mkdir would fail at a_file
    assert "pool" not in vars(study) and fits == []  # the pool was never built, and no model fitted
    assert not (tmp_path / "out").exists() and a_file.read_text() == ""


def test_emitted_dataset_reparses(study, tmp_path):
    # every CSV the package emits must be loadable by its own tooling;
    # the dataset writer round-trip is checked in the scenario tests, and
    # runner CSVs must parse as plain CSV with stable headers.
    out = run_study("triage", study, tmp_path)
    rows = read_csv(out / "triage_proposed.csv")
    assert set(rows[0]) == {"budget", "missed_alarms", "false_alarms", "residual_risk"}


# -- golden outputs ------------------------------------------------------------

# sha256 of every CSV the six runners write under SMALL, in both boosting
# modes.  Refactors of the runners must keep these bytes; a deliberate
# change of an experiment's output updates its digest here and says why.
GOLDEN_SHA256 = {
    "samme/imbalance/imbalance.csv":
        "f53ac7779ee5f72c96064bbdd18f8354bb0784623e859018272ff46fee5c9a83",
    "samme/calibration/brier.csv":
        "a83f4ae9a06003b9ea9795b97dd1c49c76ec22269993f7614f57bd6bcd7d2295",
    "samme/calibration/reliability_calibrated.csv":
        "a0fb78b3d473563b66113be694c6270bf6f95d043fc3f8ea0b74f338a4610b9d",
    "samme/calibration/reliability_uncalibrated.csv":
        "2a163c61e7bb1d91adaeea03da0d9f13f19db2a4847bf83f0481ca01a2324f1e",
    "samme/threshold/threshold_risk.csv":
        "0500cc70e6ae8d79d68d96bb0918f275319e75270e006bffbdb6e1e7ecb3df67",
    "samme/triage/triage_no_ml.csv":
        "9256a915d1cd72c769c3506c4dce1464e8930871517f389fe031172434ed22bc",
    "samme/triage/triage_proposed.csv":
        "27092837b0e86383771975fb12a0231212208102744368b1bcd79dec81e7080d",
    "samme/triage/triage_standard.csv":
        "f475393f538d8bd0b5f53cf7167ee6e6c55abcdd04bbce99141f4196d1db99eb",
    "samme/multi/multi11_proposed.csv":
        "ac7ef95910e34afc6994be7e3a0c8b1c92a4916bb317b5149c2341aed8c71c30",
    "samme/multi/multi11_standard.csv":
        "c4b305e9ff2d0c5c281096ca8809780f3b75c248a426454cde8a225690193e51",
    "samme/multi/multi2_proposed.csv":
        "58d300c49f22e4a9b6e8c95650950c92f6bc84510806a056650c5bf73e17d041",
    "samme/multi/multi2_standard.csv":
        "d965860ec6e1c4f05c1eaffa0b265a07dab572dcefa6cf14ed47acae95d81ce6",
    "samme/sensitivity/sensitivity.csv":
        "da9fd84145e713ff7f799c8fc2295d2ccfff0cad3463b9ee3a2fceccc40403ad",
    "samme.r/imbalance/imbalance.csv":
        "f53ac7779ee5f72c96064bbdd18f8354bb0784623e859018272ff46fee5c9a83",
    "samme.r/calibration/brier.csv":
        "a83f4ae9a06003b9ea9795b97dd1c49c76ec22269993f7614f57bd6bcd7d2295",
    "samme.r/calibration/reliability_calibrated.csv":
        "a0fb78b3d473563b66113be694c6270bf6f95d043fc3f8ea0b74f338a4610b9d",
    "samme.r/calibration/reliability_uncalibrated.csv":
        "2a163c61e7bb1d91adaeea03da0d9f13f19db2a4847bf83f0481ca01a2324f1e",
    "samme.r/threshold/threshold_risk.csv":
        "e389d19e9394797bdc64b2b47556eaf20c3dc1df975318bc1286c020cd3472ed",
    "samme.r/triage/triage_no_ml.csv":
        "9256a915d1cd72c769c3506c4dce1464e8930871517f389fe031172434ed22bc",
    "samme.r/triage/triage_proposed.csv":
        "531fccac6fa2506bded42f3933b7b12489fda78b5e742b27dd0954e6a45d95c9",
    "samme.r/triage/triage_standard.csv":
        "b2bbad5e81c5d42a030990626b6e47de0ef1a3a551ac2873aa1e3b67fcd2dfe9",
    "samme.r/multi/multi11_proposed.csv":
        "7ed0b008626fd0749fdc7aa04ca8b30df2ee9a131bf64514209b85078debbff1",
    "samme.r/multi/multi11_standard.csv":
        "2742ddbc52787284f7515dbc5052550add3bf229c0f0b96a79ef34d193b339f6",
    "samme.r/multi/multi2_proposed.csv":
        "63a8048ed1664e984b6754f794bc4c4ba913adf8d5a5fcd7a2805955f0a595b4",
    "samme.r/multi/multi2_standard.csv":
        "4262c41854c6a35cc0af1439caf227b68fe2e5ea43ee2f875c97a4e1fbce974e",
    "samme.r/sensitivity/sensitivity.csv":
        "fc55eaf1935d3f0ff123c1eb81b85bde962fd8e23fce7ded70f0b7dbd4b395d3",
}


# Distinct (repetition, contingency, mode) models the six runners need under
# SMALL: calibration fits line 6 in samme on both repetitions, threshold
# does so in the config's mode, and triage, multi and sensitivity read the
# repetition-0 models of all eleven lines in the config's mode.
DISTINCT_FITS = {"samme": 12, "samme.r": 14}


@pytest.mark.parametrize("mode", ["samme", "samme.r"])
def test_runner_outputs_match_golden_digests(tmp_path, monkeypatch, mode):
    fits = []

    def counting_fit(db, train_idx, calib_idx, contingency, config):
        fits.append((train_idx.tobytes(), contingency, config.mode))
        return fit_contingency_model(db, train_idx, calib_idx, contingency, config)

    monkeypatch.setattr(experiments, "fit_contingency_model", counting_fit)
    study = Study(ExperimentConfig(**SMALL, mode=mode))
    digests = {}
    for name in RUNNERS:
        out = run_study(name, study, tmp_path / name)
        for path in sorted(out.glob("*.csv")):
            digests[f"{mode}/{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {k: v for k, v in GOLDEN_SHA256.items() if k.startswith(f"{mode}/")}
    assert len(fits) == len(set(fits)) == DISTINCT_FITS[mode]
