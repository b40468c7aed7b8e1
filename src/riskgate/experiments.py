"""Configuration-driven experiment studies.

Each study reads a ``Study`` -- one config's labeled pool, built on
first use, and its calibrated per-contingency models, each fitted once
-- and computes its CSVs as text, plus its measured extras.  Only
``run_study`` writes: once the study has finished, it makes the output
directory and writes the CSVs and a ``manifest.json`` (config hash,
seed, version, numpy version, scipy's if installed, OpenBLAS core, extras), so a failed study
writes nothing.  All randomness flows from the config seed through
named substreams, so a rerun with the same config is byte-identical.

Repetitions are implemented as seeded re-splits of one generated pool:
repetition ``r`` permutes the pool with stream ``(seed, 7000 + r)`` and
re-cuts train/calibration/test at the configured sizes.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import json
import os
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import metadata
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibratedEnsemble, brier_score, calibrated_probability, fit_platt, reliability_text
from .errors import (
    ConfigError, MalformedFile, SingleClassCalibration, SingleClassData, integer, number, read_json, write_texts,
)
from .grid import six_bus
from .learner import (
    MAX_ROUNDS,
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


def _takes_type(reader):
    """The predicate "``reader`` takes the value's type"; ``__post_init__`` checks ranges with its own messages."""
    def takes(value) -> bool:
        try:
            reader(value, "")
        except TypeError:
            return False
        except ValueError:  # a non-finite number
            pass
        return True
    return takes


# ExperimentConfig field checks, by the type of the field's default
_FIELD_KINDS = {
    int: ("an integer", _takes_type(integer)),
    float: ("a number", _takes_type(number)),
    str: ("a string", lambda v: isinstance(v, (str, os.PathLike))),  # out_dir may be a Path
    tuple: ("a list of three integers", lambda v: isinstance(v, (list, tuple)) and len(v) == 3
            and all(map(_takes_type(integer), v))),
}


MAX_REPETITIONS = 10_000  # ample for the studies' 10 repetitions


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
        for name, least in (("seed", 0), ("rounds", 1), ("k_folds", 2), ("max_tree_depth", 0), ("bins", 1),
                            ("repetitions", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        for name, most in (("rounds", MAX_ROUNDS), ("repetitions", MAX_REPETITIONS)):
            if getattr(self, name) > most:
                raise ValueError(f"{name} must be <= {most}, got {getattr(self, name)}")
        if not 0 < self.alpha < float("inf"):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        doc = read_json(path)
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
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
        if config.splits[2] < 1:  # every study scores the test split; the config alone may leave it empty
            raise ConfigError("the test split needs at least one condition")
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


@cache
def openblas_core() -> str | None:
    """The core (kernel) name that numpy's bundled OpenBLAS chose for this CPU, such as ``SkylakeX``.

    Read with ``scipy_openblas_get_corename64_`` from numpy's
    ``libscipy_openblas64_*.so``; None where that library or symbol is
    missing.  The BLAS kernel sets the low bits of the network arrays and
    so of every digest, which is why manifests record it.
    """
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                         "libscipy_openblas64_*.so")))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _installed_version(distribution: str) -> str | None:
    """The installed version of ``distribution``, read from its metadata without importing it; None if absent."""
    try:
        return metadata.version(distribution)
    except metadata.PackageNotFoundError:
        return None


def _manifest_text(config: ExperimentConfig, experiment: str, out_dir, extras: dict) -> str:
    """The text of ``manifest.json``, which records ``out_dir`` as the config's ``out_dir``."""
    doc = {**config.to_dict(), "out_dir": str(out_dir)}
    study = {k: v for k, v in doc.items() if k != "out_dir"}  # the output directory is not part of the study
    payload = {
        "experiment": experiment,
        "version": __version__,
        "environment": {"numpy": np.__version__, "scipy": _installed_version("scipy"), "openblas_core": openblas_core()},
        "seed": config.seed,
        "config": doc,
        "config_hash": hashlib.sha256(json.dumps(study, sort_keys=True).encode()).hexdigest(),
        "extras": extras,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(str(v) for v in row) for row in rows]) + "\n"


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

def _imbalance(study: Study):
    """Per-class test errors of a depth-limited tree on lines 5 and 6."""
    config = study.config
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

    files = {"imbalance.csv": _csv("repetition,contingency,test_error,false_alarm_rate,missed_alarm_rate", rows)}
    return files, {
        "pool_priors": {str(c): {"insecure": db.priors(c)[0], "secure": db.priors(c)[1]} for c in contingencies},
        "mean_rates": {str(c): list(sums[c] / config.repetitions) for c in contingencies},
    }


# -- study 2: calibration -------------------------------------------------

def _calibration(study: Study):
    """Brier score of raw scores vs calibrated probabilities on the test set.

    The uncalibrated score here is the discrete weighted-vote share
    (``CALIBRATION_SCORE_MODE``), whose compression away from 0/1 is
    exactly the distortion calibration exists to repair; the real-valued
    mode's logistic margin is already near-calibrated and shows no effect.
    ``bins`` above the test split's size is a ConfigError, raised before
    the pool is built.
    """
    config = study.config
    if config.bins > config.splits[2]:
        raise ConfigError(f"bins must be <= the test split's {config.splits[2]} conditions, got {config.bins}")
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
            files = {"reliability_uncalibrated.csv": reliability_text(bins_raw),
                     "reliability_calibrated.csv": reliability_text(bins_cal)}
    mean = total / config.repetitions
    rows.append(("mean", f"{mean[0]:.17g}", f"{mean[1]:.17g}"))

    files["brier.csv"] = _csv("repetition,uncalibrated,calibrated", rows)
    return files, {"contingency": contingency, "mean_uncalibrated": mean[0], "mean_calibrated": mean[1]}


# -- study 3: decision threshold --------------------------------------------

def _threshold(study: Study):
    """Residual-risk grid over cost ratios for five classifier variants.

    The contingency probability is identified with the insecure-class
    prior of the training split, which must hold both classes, and the
    whole test set stays on machine learning (no conventional assessments).
    """
    config = study.config
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
        if prior_insecure in (0.0, 1.0):
            raise SingleClassData(f"repetition {rep}: the training split's insecure share on line {contingency} is"
                                  f" {prior_insecure:g}; the contingency probability must be strictly inside (0, 1)")
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
    return {"threshold_risk.csv": _csv("variant,cost_ratio,mean_risk", rows)}, {
        "contingency": contingency,
        "cost_ratios": [f"{r:.17g}" for r in COST_RATIO_GRID],
        "variants": list(variants),
    }


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


def _curve_csv(curve, name: str):
    """A curve's budget CSV text, and its zero-budget summary extras."""
    bud, missed, false, risk = curve
    rows = [(int(s), int(m), int(f), f"{r:.17g}") for s, m, f, r in zip(bud, missed, false, risk)]
    errors = missed + false
    zero = np.flatnonzero(errors == 0)
    extras = {f"{name}_errors_at_zero": int(errors[0]),
              f"{name}_first_zero_budget": int(bud[zero[0]]) if len(zero) else None}
    return _csv("budget,missed_alarms,false_alarms,residual_risk", rows), extras


# -- study 4: single-contingency triage -----------------------------------------

def _triage(study: Study):
    """Budgeted verification curves for the three assessment strategies."""
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

    files, extras = {}, {"contingency": c, "n_test": n_test}
    for name, curve in curves.items():
        files[f"triage_{name}.csv"], summary = _curve_csv(curve, name)
        extras.update(summary)
    return files, extras


# -- study 5: several contingencies ---------------------------------------------

def _multi_contingency(study: Study):
    """Joint triage across two contingencies and across all eleven lines."""
    drawn = draw_contingency_params(ALL_LINES, study.config.seed)
    files, extras = {}, {
        "pair_contingencies": sorted(PAIR_PARAMS),
        "drawn_params": {
            str(c): {"p_c": p.probability, "cost_ratio": p.ratio} for c, p in sorted(drawn.items())
        },
    }
    for prefix, params_by_c in (("multi2", PAIR_PARAMS), ("multi11", drawn)):
        curves = _budget_curves(study, params_by_c, {"proposed": params_by_c})
        files[f"{prefix}_standard.csv"], _ = _curve_csv(curves["standard"], prefix)
        files[f"{prefix}_proposed.csv"], summary = _curve_csv(curves["proposed"], prefix)
        extras.update(summary)
        extras[f"{prefix}_risk_at_zero"] = float(curves["proposed"][3][0])
    return files, extras


# -- study 6: parameter sensitivity ---------------------------------------------

def _sensitivity(study: Study):
    """True-risk curves when ranking uses distorted costs/probabilities."""
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
    return {"sensitivity.csv": _csv("curve,budget,residual_risk", rows)}, extras


# Each study computes ``(files, extras)``: CSV name -> text, and the manifest's extras.
RUNNERS = {
    "imbalance": _imbalance,
    "calibration": _calibration,
    "threshold": _threshold,
    "triage": _triage,
    "multi": _multi_contingency,
    "sensitivity": _sensitivity,
}


def run_study(name: str, study: Study, out_dir) -> Path:
    """Run study ``name``, and only once it has finished make ``out_dir`` and write its CSVs and manifest."""
    if name not in RUNNERS:
        raise ConfigError(f"unknown study {name!r}; the studies are {', '.join(RUNNERS)}")
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())  # mkdir would stop here
    if not existing.is_dir():
        raise ConfigError(f"cannot make {out}: {existing} exists and is not a directory")
    files, extras = RUNNERS[name](study)
    out.mkdir(parents=True, exist_ok=True)
    write_texts({**{out / file_name: text for file_name, text in files.items()},
                 out / "manifest.json": _manifest_text(study.config, name, out_dir, extras)})
    return out
