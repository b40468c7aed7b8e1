"""Configuration-driven experiment runners.

Each runner reads a ``Study`` -- one config's labeled pool, built on
first use, and its calibrated per-contingency models, each fitted once
-- and writes machine-readable CSVs plus a ``manifest.json`` (config
hash, seed, version, measured extras) into the output directory it is
given.  All randomness flows from the config seed through named
substreams, so a rerun with the same config is byte-identical.

Repetitions are implemented as seeded re-splits of one generated pool:
repetition ``r`` permutes the pool with stream ``(seed, 7000 + r)`` and
re-cuts train/calibration/test at the configured sizes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibratedEnsemble, brier_score, calibrated_probability, fit_platt, reliability_csv
from .errors import MalformedFile, SingleClassCalibration, SingleClassData, read_json
from .grid import six_bus
from .learner import (
    MODES,
    Ensemble,
    ensemble_score,
    train_adaboost,
    train_single_tree,
    train_stump,
    tree_predict,
    tree_proba,
)
from .risk_engine import (
    ContingencyParams,
    alarm_masks,
    perturb_params,
    random_assessment_order,
    rank_scenarios,
    residual_error_curves,
    residual_risk_estimate,
    risk_optimal_predict,
    secure_first_order,
    uniform_condition_probabilities,
)
from .scenario_gen import LabeledDatabase, build_database

ALL_LINES = tuple(range(1, 12))

# Parameter sets the per-contingency draws come from.
PROBABILITY_CHOICES = (0.00001, 0.00005, 0.0001, 0.0005)
COST_RATIO_CHOICES = (500.0 / 501.0, 1000.0 / 1001.0, 5000.0 / 5001.0, 10000.0 / 10001.0)

COST_RATIO_GRID = (2.0 / 3.0, 5.0 / 6.0, 10.0 / 11.0, 50.0 / 51.0, 100.0 / 101.0, 500.0 / 501.0, 1000.0 / 1001.0)

CALIBRATION_CONTINGENCY = 6
CALIBRATION_SCORE_MODE = "samme"
THRESHOLD_CONTINGENCY = 6
TRIAGE_CONTINGENCY = 3
TRIAGE_PARAMS = ContingencyParams.from_cost_ratio(3, 0.0002, 10000.0 / 10001.0)
PAIR_PARAMS = {
    3: TRIAGE_PARAMS,
    5: ContingencyParams.from_cost_ratio(5, 0.0003, 500.0 / 501.0),
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ExperimentConfig field checks, by the type of the field's default
_FIELD_KINDS = {
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, (str, os.PathLike))),  # out_dir may be a Path
    tuple: ("a list of three integers", lambda v: isinstance(v, (list, tuple)) and len(v) == 3
            and all(map(_is_int, v))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 5875
    splits: tuple[int, int, int] = (3500, 875, 1500)
    seed: int = 101
    rounds: int = 100
    # Vote-share scoring: the logistic-margin score saturates at {0, 1},
    # leaving calibration nothing to repair and ranking errors last.
    mode: str = "samme"
    k_folds: int = 3
    max_tree_depth: int = 3
    bins: int = 10
    repetitions: int = 10
    alpha: float = 10.0
    out_dir: str = "out"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, fits = _FIELD_KINDS[type(f.default)]
            if not fits(value):
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
        object.__setattr__(self, "splits", tuple(int(v) for v in self.splits))
        if min(self.splits) < 0:
            raise ValueError(f"split sizes must be >= 0, got {self.splits}")
        if sum(self.splits) != self.n:
            raise ValueError(f"splits {self.splits} must sum to n={self.n}")
        if self.splits[0] < 1:  # an empty calibration or test split is allowed
            raise ValueError("the train split needs at least one condition")
        if self.mode not in MODES:
            raise ValueError(f"unknown boosting mode {self.mode!r}")
        for name, least in (("rounds", 1), ("k_folds", 2), ("max_tree_depth", 0), ("bins", 1),
                            ("repetitions", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if not 0 < self.alpha < float("inf"):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        doc = read_json(path)
        try:
            return cls(**doc)
        except TypeError as exc:
            raise MalformedFile(f"{path}: bad config field: {exc}") from exc

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "out_dir": str(self.out_dir)}


BUDGET_STRIDE_THRESHOLD = 3000  # larger sweeps step budgets by BUDGET_STRIDE
BUDGET_STRIDE = 100


def budget_sweep(n_scenarios: int) -> np.ndarray:
    """Every integer budget up to the threshold, then strided (end included)."""
    if n_scenarios <= BUDGET_STRIDE_THRESHOLD:
        return np.arange(n_scenarios + 1)
    budgets = np.arange(0, n_scenarios + 1, BUDGET_STRIDE)
    if budgets[-1] != n_scenarios:
        budgets = np.append(budgets, n_scenarios)
    return budgets


# -- the study: shared pool, splits and models ------------------------------

class Study:
    """One config's pool, built on first use, its repetition splits, and its models, each fitted once."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._models: dict[tuple[int, int, str], CalibratedEnsemble] = {}

    @cached_property
    def pool(self) -> LabeledDatabase:
        """Labeled pool of the packaged network, every line an outage."""
        return build_database(six_bus(), n=self.config.n, contingencies=ALL_LINES,
                              seed=self.config.seed, splits=self.config.splits)

    def split(self, repetition: int):
        """Permuted (train, calib, test) index arrays for one repetition."""
        perm = np.random.default_rng([self.config.seed, 7000 + repetition]).permutation(self.config.n)
        a, b, _ = self.config.splits
        return perm[:a], perm[a: a + b], perm[a + b:]

    def model(self, repetition: int, contingency: int, mode: str) -> CalibratedEnsemble:
        """The calibrated model of one contingency, trained on one repetition's splits."""
        key = (repetition, contingency, mode)
        if key not in self._models:
            train_idx, calib_idx, _ = self.split(repetition)
            self._models[key] = fit_contingency_model(self.pool, train_idx, calib_idx, contingency,
                                                      dataclasses.replace(self.config, mode=mode))
        return self._models[key]


def _constant_ensemble(label: int) -> Ensemble:
    stump = train_stump(np.zeros((2, 1)), [label, label])
    return Ensemble(mode="samme.r", stumps=[stump], weights=None)


def fit_contingency_model(db, train_idx, calib_idx, contingency, config) -> CalibratedEnsemble:
    """Train + calibrate one per-contingency model; degrade gracefully.

    A single-class training split yields a constant-score ensemble and a
    single-class calibration split leaves the score uncalibrated; both
    keep multi-contingency sweeps running when a contingency is (almost)
    always secure in the generated pool.
    """
    x = db.features_matrix()
    y = db.label_vector(contingency)
    try:
        ens = train_adaboost(x[train_idx], y[train_idx], rounds=config.rounds,
                             mode=config.mode, k_folds=config.k_folds)
    except SingleClassData:
        ens = _constant_ensemble(int(y[train_idx][0]))
    params = None
    try:
        params = fit_platt(ensemble_score(ens, x[calib_idx]), y[calib_idx])
    except SingleClassCalibration:
        params = None
    return CalibratedEnsemble(ensemble=ens, contingency=contingency, params=params)


def draw_contingency_params(contingencies, seed: int) -> dict[int, ContingencyParams]:
    """Seeded draw of (probability, cost ratio) from the shipped choice sets."""
    rng = np.random.default_rng([seed, 4242])
    out = {}
    for c in contingencies:
        prob = float(rng.choice(PROBABILITY_CHOICES))
        ratio = float(rng.choice(COST_RATIO_CHOICES))
        out[c] = ContingencyParams.from_cost_ratio(c, prob, ratio)
    return out


def _output_dir(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(config: ExperimentConfig, experiment: str, out_dir, extras: dict) -> None:
    """Write ``manifest.json`` into ``out_dir``, which it records as the config's ``out_dir``."""
    doc = {**config.to_dict(), "out_dir": str(out_dir)}
    study = {k: v for k, v in doc.items() if k != "out_dir"}  # the output directory is not part of the study
    payload = {
        "experiment": experiment,
        "version": __version__,
        "seed": config.seed,
        "config": doc,
        "config_hash": hashlib.sha256(json.dumps(study, sort_keys=True).encode()).hexdigest(),
        "extras": extras,
    }
    (Path(out_dir) / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header] + [",".join(str(v) for v in row) for row in rows]) + "\n")


def _error_rates(pred, truth):
    """(overall error, false-alarm rate, missed-alarm rate), per-class rates."""
    missed, false = alarm_masks(pred, truth)
    n_secure = int(np.sum(truth == 1))
    n_insecure = len(truth) - n_secure
    overall = float(np.mean(missed | false))
    false_alarm = int(false.sum()) / n_secure if n_secure else 0.0
    missed_alarm = int(missed.sum()) / n_insecure if n_insecure else 0.0
    return overall, false_alarm, missed_alarm


# -- study 1: class imbalance --------------------------------------------------

def run_imbalance_study(study: Study, out_dir) -> Path:
    """Per-class test errors of a depth-limited tree on lines 5 and 6."""
    config = study.config
    out = _output_dir(out_dir)
    db = study.pool
    x = db.features_matrix()
    contingencies = (5, 6)

    rows = []
    sums = {c: np.zeros(3) for c in contingencies}
    for rep in range(config.repetitions):
        train_idx, _, test_idx = study.split(rep)
        for c in contingencies:
            y = db.label_vector(c)
            tree = train_single_tree(x[train_idx], y[train_idx], max_depth=config.max_tree_depth)
            rates = _error_rates(tree_predict(tree, x[test_idx]), y[test_idx])
            sums[c] += rates
            rows.append((rep, c, f"{rates[0]:.17g}", f"{rates[1]:.17g}", f"{rates[2]:.17g}"))
    for c in contingencies:
        mean = sums[c] / config.repetitions
        rows.append(("mean", c, f"{mean[0]:.17g}", f"{mean[1]:.17g}", f"{mean[2]:.17g}"))

    _write_csv(out / "imbalance.csv", "repetition,contingency,test_error,false_alarm_rate,missed_alarm_rate", rows)
    extras = {
        "pool_priors": {str(c): {"insecure": db.priors(c)[0], "secure": db.priors(c)[1]} for c in contingencies},
        "mean_rates": {str(c): list(sums[c] / config.repetitions) for c in contingencies},
    }
    _write_manifest(config, "imbalance", out_dir, extras)
    return out


# -- study 2: calibration -------------------------------------------------

def run_calibration_study(study: Study, out_dir) -> Path:
    """Brier score of raw scores vs calibrated probabilities on the test set.

    The uncalibrated score here is the discrete weighted-vote share
    (``CALIBRATION_SCORE_MODE``), whose compression away from 0/1 is
    exactly the distortion calibration exists to repair; the real-valued
    mode's logistic margin is already near-calibrated and shows no effect.
    """
    config = study.config
    out = _output_dir(out_dir)
    contingency = CALIBRATION_CONTINGENCY
    db = study.pool
    x = db.features_matrix()
    y = db.label_vector(contingency)

    rows = []
    total = np.zeros(2)
    for rep in range(config.repetitions):
        _, _, test_idx = study.split(rep)
        model = study.model(rep, contingency, CALIBRATION_SCORE_MODE)
        scores = model.score(x[test_idx])
        probs = calibrated_probability(model.params, scores)
        b_raw, bins_raw = brier_score(scores, y[test_idx], bins=config.bins)
        b_cal, bins_cal = brier_score(probs, y[test_idx], bins=config.bins)
        total += (b_raw, b_cal)
        rows.append((rep, f"{b_raw:.17g}", f"{b_cal:.17g}"))
        if rep == 0:
            reliability_csv(bins_raw, out / "reliability_uncalibrated.csv")
            reliability_csv(bins_cal, out / "reliability_calibrated.csv")
    mean = total / config.repetitions
    rows.append(("mean", f"{mean[0]:.17g}", f"{mean[1]:.17g}"))

    _write_csv(out / "brier.csv", "repetition,uncalibrated,calibrated", rows)
    _write_manifest(config, "calibration", out_dir, {
        "contingency": contingency,
        "mean_uncalibrated": mean[0],
        "mean_calibrated": mean[1],
    })
    return out


# -- study 3: decision threshold --------------------------------------------

def run_threshold_study(study: Study, out_dir) -> Path:
    """Residual-risk grid over cost ratios for five classifier variants.

    The contingency probability is identified with the insecure-class
    prior of the training split, and the whole test set stays on machine
    learning (no conventional assessments).
    """
    config = study.config
    out = _output_dir(out_dir)
    contingency = THRESHOLD_CONTINGENCY
    db = study.pool
    x = db.features_matrix()
    y = db.label_vector(contingency)

    variants = ("dt", "dt_threshold", "adaboost", "adaboost_threshold", "calibrated_threshold")
    totals = {(v, ratio): 0.0 for v in variants for ratio in COST_RATIO_GRID}
    for rep in range(config.repetitions):
        train_idx, _, test_idx = study.split(rep)
        # contingency probability identified with the insecure-class prior
        prior_insecure = float(np.mean(y[train_idx] == 0))
        tree = train_single_tree(x[train_idx], y[train_idx], max_depth=config.max_tree_depth)
        leaf_p1 = tree_proba(tree, x[test_idx])
        model = study.model(rep, contingency, config.mode)
        score = model.score(x[test_idx])
        preds = {  # per variant: fixed labels, or probabilities thresholded per cost ratio
            "dt": ((leaf_p1 >= 0.5).astype(int), None),
            "dt_threshold": (None, leaf_p1),
            "adaboost": ((score >= 0.5).astype(int), None),
            "adaboost_threshold": (None, score),
            "calibrated_threshold": (None, calibrated_probability(model.params, score)),
        }
        truth = y[test_idx]
        for ratio in COST_RATIO_GRID:
            params = ContingencyParams.from_cost_ratio(contingency, prior_insecure, ratio)
            for variant in variants:
                fixed, proba = preds[variant]
                labels = fixed if proba is None else risk_optimal_predict(proba, params)[0]
                missed, false = alarm_masks(labels, truth)
                totals[(variant, ratio)] += residual_risk_estimate(
                    int(missed.sum()), int(false.sum()), ratio, prior_insecure, len(test_idx))

    rows = [
        (variant, f"{ratio:.17g}", f"{totals[(variant, ratio)] / config.repetitions:.17g}")
        for variant in variants for ratio in COST_RATIO_GRID
    ]
    _write_csv(out / "threshold_risk.csv", "variant,cost_ratio,mean_risk", rows)
    _write_manifest(config, "threshold", out_dir, {
        "contingency": contingency,
        "cost_ratios": [f"{r:.17g}" for r in COST_RATIO_GRID],
        "variants": list(variants),
    })
    return out


# -- budget-sweep curves shared by studies 4-6 -----------------------------------

def _budget_curves(study, true_params, rankings):
    """Residual-error curves over the joint test scenarios of ``true_params``.

    Each contingency of ``true_params`` is scored by its repetition-0
    model in the config's mode.  Each entry of ``rankings`` (name ->
    parameters used for ranking and thresholding) gives a risk-ranked curve;
    ``"standard"`` is the standard classifier, predicted-secure scenarios
    first in random order within each group.  Residual risk is always
    measured with ``true_params``.
    """
    db, config = study.pool, study.config
    _, _, test_idx = study.split(0)
    contingencies = sorted(true_params)
    n_test = len(test_idx)
    x = db.features_matrix()[test_idx]
    truth = np.stack([db.label_vector(c)[test_idx] for c in contingencies])  # contingency-major
    budgets = budget_sweep(truth.size)

    models = {c: study.model(0, c, config.mode) for c in contingencies}
    scores = {c: models[c].score(x) for c in contingencies}
    probabilities = {c: calibrated_probability(models[c].params, s) for c, s in scores.items()}
    curves = {}
    for name, ranking_params in rankings.items():
        ranked = rank_scenarios(probabilities, uniform_condition_probabilities(n_test), ranking_params)
        ranked_truth = truth[np.searchsorted(contingencies, ranked.contingency), ranked.condition]
        curves[name] = residual_error_curves(ranked.contingency, ranked.predicted_label, ranked_truth,
                                             true_params, n_test, budgets)
    votes = np.concatenate([(scores[c] >= 0.5).astype(int) for c in contingencies])
    order = secure_first_order(votes, config.seed)
    curves["standard"] = residual_error_curves(np.repeat(contingencies, n_test)[order], votes[order],
                                               truth.ravel()[order], true_params, n_test, budgets)
    return curves


def _write_curve(path: Path, curve, name: str) -> dict:
    """Write a curve as budget CSV; return its zero-budget summary extras."""
    bud, missed, false, risk = curve
    rows = [(int(s), int(m), int(f), f"{r:.17g}") for s, m, f, r in zip(bud, missed, false, risk)]
    _write_csv(path, "budget,missed_alarms,false_alarms,residual_risk", rows)
    errors = missed + false
    zero = np.flatnonzero(errors == 0)
    return {f"{name}_errors_at_zero": int(errors[0]),
            f"{name}_first_zero_budget": int(bud[zero[0]]) if len(zero) else None}


# -- study 4: single-contingency triage -----------------------------------------

def run_triage_study(study: Study, out_dir) -> Path:
    """Budgeted verification curves for the three assessment strategies."""
    out = _output_dir(out_dir)
    c = TRIAGE_CONTINGENCY
    params_by_c = {c: TRIAGE_PARAMS}
    curves = _budget_curves(study, params_by_c, {"proposed": params_by_c})

    train_idx, _, test_idx = study.split(0)
    y = study.pool.label_vector(c)
    n_test = len(test_idx)
    majority = int(np.mean(y[train_idx]) >= 0.5)
    order = random_assessment_order(n_test, study.config.seed)
    curves["no_ml"] = residual_error_curves(np.full(n_test, c), np.full(n_test, majority), y[test_idx][order],
                                            params_by_c, n_test, budget_sweep(n_test))

    extras = {"contingency": c, "n_test": n_test}
    for name, curve in curves.items():
        extras.update(_write_curve(out / f"triage_{name}.csv", curve, name))
    _write_manifest(study.config, "triage", out_dir, extras)
    return out


# -- study 5: several contingencies ---------------------------------------------

def run_multi_contingency_study(study: Study, out_dir) -> Path:
    """Joint triage across two contingencies and across all eleven lines."""
    out = _output_dir(out_dir)
    drawn = draw_contingency_params(ALL_LINES, study.config.seed)
    extras = {
        "pair_contingencies": sorted(PAIR_PARAMS),
        "drawn_params": {
            str(c): {"p_c": p.probability, "cost_ratio": p.ratio} for c, p in sorted(drawn.items())
        },
    }
    for prefix, params_by_c in (("multi2", PAIR_PARAMS), ("multi11", drawn)):
        curves = _budget_curves(study, params_by_c, {"proposed": params_by_c})
        _write_curve(out / f"{prefix}_standard.csv", curves["standard"], prefix)
        extras.update(_write_curve(out / f"{prefix}_proposed.csv", curves["proposed"], prefix))
        extras[f"{prefix}_risk_at_zero"] = float(curves["proposed"][3][0])
    _write_manifest(study.config, "multi", out_dir, extras)
    return out


# -- study 6: parameter sensitivity ---------------------------------------------

def run_sensitivity_study(study: Study, out_dir) -> Path:
    """True-risk curves when ranking uses distorted costs/probabilities."""
    out = _output_dir(out_dir)
    true_params = draw_contingency_params(ALL_LINES, study.config.seed)
    alpha = study.config.alpha
    rankings = {
        "unperturbed": true_params,
        "cost_up": {c: perturb_params(p, alpha, "costs") for c, p in true_params.items()},
        "cost_down": {c: perturb_params(p, 1.0 / alpha, "costs") for c, p in true_params.items()},
        "prob_up": {c: perturb_params(p, alpha, "probabilities") for c, p in true_params.items()},
        "prob_down": {c: perturb_params(p, 1.0 / alpha, "probabilities") for c, p in true_params.items()},
        "superposed": {c: perturb_params(p, alpha, "both") for c, p in true_params.items()},
    }

    rows = []
    extras = {"alpha": alpha}
    curves = _budget_curves(study, true_params, rankings)
    for name, (bud, _, _, risk) in curves.items():
        rows += [(name, int(s), f"{r:.17g}") for s, r in zip(bud, risk)]
        extras[f"{name}_risk_at_zero"] = float(risk[0])

    _write_csv(out / "sensitivity.csv", "curve,budget,residual_risk", rows)
    _write_manifest(study.config, "sensitivity", out_dir, extras)
    return out


RUNNERS = {
    "imbalance": run_imbalance_study,
    "calibration": run_calibration_study,
    "threshold": run_threshold_study,
    "triage": run_triage_study,
    "multi": run_multi_contingency_study,
    "sensitivity": run_sensitivity_study,
}
