"""Command-line interface.

Subcommands mirror the pipeline stages: generate a labeled dataset,
train and calibrate per-contingency models, run budgeted triage with the
exact oracle, evaluate a model on the test split, and reproduce the
shipped experiments.  Exit codes: 0 success, 2 configuration error
(bad flags, malformed files), 3 data error (degenerate inputs).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .calibration import brier_score, calibrated_probability, fit_platt, reliability_text
from .errors import ConfigError, DataError, MalformedFile, read_text, write_texts
from .experiments import RUNNERS, ExperimentConfig, Study, run_study
from .grid import assess_security, load_grid, six_bus
from .learner import MODES, load_model, model_text, save_model, train_adaboost
from .risk_engine import (
    PROBABILITY_SUM_TOL,
    ContingencyParams,
    alarm_masks,
    load_contingency_params,
    rank_scenarios,
    residual_risk_estimate,
    risk_optimal_predict,
    triage,
    triage_csv,
    uniform_condition_probabilities,
)
from .scenario_gen import build_database, bus_loads, load_database, save_database


def _add_generate(sub):
    p = sub.add_parser("generate", help="sample, dispatch and label a dataset")
    p.add_argument("--out", required=True, help="output dataset.csv")
    p.add_argument("--n", type=int, default=5875)
    p.add_argument("--splits", default="3500,875,1500", help="train,calib,test sizes")
    p.add_argument("--seed", type=int, default=101)
    p.add_argument("--contingencies", help="line ids to label (default: every line of the network)")
    p.add_argument("--network", help="network.json (defaults to the packaged six-bus system)")


def _add_train(sub):
    p = sub.add_parser("train", help="train a boosted ensemble for one contingency")
    p.add_argument("--data", required=True)
    p.add_argument("--contingency", type=int, required=True)
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--mode", choices=MODES, default="samme.r")
    p.add_argument("--k-folds", type=int, default=3)
    p.add_argument("--out", required=True, help="output model.json")


def _add_calibrate(sub):
    p = sub.add_parser("calibrate", help="fit sigmoid calibration on the calibration split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="output model.json (defaults to --model, in place)")
    p.add_argument("--reliability", help="optional reliability-diagram CSV (test split)")
    p.add_argument("--bins", type=int, default=10)


def _add_triage(sub):
    p = sub.add_parser("triage", help="rank test scenarios and verify the riskiest with the oracle")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="comma-separated model.json paths")
    p.add_argument("--contingencies-file", required=True, help="contingencies.json with p_c and costs")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", required=True, help="output triage.csv")
    p.add_argument("--network", help="network.json for the oracle (defaults to packaged)")
    p.add_argument("--condition-probs", help="CSV id,probability overriding the uniform default")


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="test-split error, Brier and residual-risk metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--probability", type=float, required=True, help="contingency occurrence probability")
    p.add_argument("--cost-ratio", type=float, required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--out", help="optional metrics.json")


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run a shipped study end to end")
    p.add_argument("name", choices=RUNNERS)
    p.add_argument("--config", help="ExperimentConfig JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--bins", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--mode", choices=MODES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskgate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"riskgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_train(sub)
    _add_calibrate(sub)
    _add_triage(sub)
    _add_evaluate(sub)
    _add_experiment(sub)
    return parser


def _grid_from_args(args):
    return load_grid(args.network) if getattr(args, "network", None) else six_bus()


def _int_list(text, flag):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _load_database(path, split: str, purpose: str):
    """The dataset at ``path``; a MalformedFile, or a DataError if its ``split`` split is empty, names the file."""
    try:
        db = load_database(path)
    except MalformedFile as exc:
        if str(path) in str(exc):  # read_text's UTF-8 refusal names the file already
            raise
        named = MalformedFile(f"{path}: {exc}")
        named.line = exc.line
        raise named from exc
    if not len(db.split_indices(split)):
        raise DataError(f"{path} has no {split} conditions to {purpose}")
    return db


def _cmd_generate(args) -> int:
    splits = tuple(_int_list(args.splits, "--splits"))
    if len(splits) != 3:
        raise ConfigError("--splits needs exactly three comma-separated sizes")
    grid = _grid_from_args(args)
    contingencies = ([ln.id for ln in grid.lines] if args.contingencies is None
                     else _int_list(args.contingencies, "--contingencies"))
    db = build_database(grid, n=args.n, contingencies=contingencies, seed=args.seed, splits=splits)
    save_database(db, args.out)
    print(f"wrote {args.out}: {len(db)} conditions, contingencies {db.contingencies}")
    return 0


def _cmd_train(args) -> int:
    db = _load_database(args.data, "train", "train on")
    x = db.features_matrix("train")
    y = db.label_vector(args.contingency, "train")
    ens = train_adaboost(x, y, rounds=args.rounds, mode=args.mode, k_folds=args.k_folds)
    save_model(args.out, ens, contingency=args.contingency)
    print(f"wrote {args.out}: {ens.rounds} rounds ({ens.mode})")
    return 0


def _cmd_calibrate(args) -> int:
    db = _load_database(args.data, "calib", "calibrate on")
    if args.reliability and not len(db.split_indices("test")):
        raise DataError(f"{args.data} has no test conditions to bin for --reliability")
    model = load_model(args.model)
    params = fit_platt(model.score(db.features_matrix("calib")), db.label_vector(model.contingency, "calib"))
    texts = {}
    if args.reliability:
        probs = calibrated_probability(params, model.score(db.features_matrix("test")))
        _, bins = brier_score(probs, db.label_vector(model.contingency, "test"), bins=args.bins)
        texts[args.reliability] = reliability_text(bins)
    out = args.out or args.model  # without --out, the model file is both input and output
    texts[out] = model_text(model.ensemble, contingency=model.contingency, calibration=params)
    write_texts(texts)
    print(f"wrote {out}: a={params.a:.4f} b={params.b:.4f} ({params.iterations} iterations)")
    if args.reliability:
        print(f"wrote {args.reliability}")
    return 0


def _load_condition_probs(path, n):
    """Read ``id,probability`` lines covering test conditions ``0 .. n-1``."""
    probs = np.full(n, np.nan)
    lineno = 0
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip() or line.startswith("id"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'id,probability'")
        try:
            cid, p = int(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: expected an integer id and a number, got {line!r}") from None
        if not 0 <= cid < n:
            raise ConfigError(f"{path}:{lineno}: condition id {cid} outside 0..{n - 1}")
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"{path}:{lineno}: probability {parts[1].strip()} outside [0, 1]")
        if not np.isnan(probs[cid]):
            raise ConfigError(f"{path}:{lineno}: condition id {cid} listed twice")
        probs[cid] = p
    if np.any(np.isnan(probs)):
        raise ConfigError(f"{path}: condition probability file misses some test conditions")
    if abs(probs.sum() - 1.0) > PROBABILITY_SUM_TOL:
        raise ConfigError(f"{path}:{lineno}: condition probabilities sum to {probs.sum():.17g}, not 1")
    return probs


def _cmd_triage(args) -> int:
    db = _load_database(args.data, "test", "triage")
    grid = _grid_from_args(args)
    test = db.conditions[db.split_indices("test")]
    loads = bus_loads(grid, test.loads)
    for group, columns, count, what in (("gen", test.generation, len(grid.generators), "generators"),
                                        ("angle", test.angles, grid.n_buses, "buses"),
                                        ("flow", test.flows, len(grid.lines), "lines")):
        if columns.shape[1] != count:  # the oracle reads the dataset's dispatch on the network
            raise ConfigError(f"{args.data} has {columns.shape[1]} {group} columns, but the network has {count} {what}")
    params = load_contingency_params(args.contingencies_file)
    models, paths = {}, {}
    for path in args.models.split(","):
        model = load_model(path)
        if model.contingency in paths:
            raise ConfigError(f"{paths[model.contingency]} and {path} are both models of line {model.contingency}")
        models[model.contingency], paths[model.contingency] = model, path
    missing = sorted(set(params) - set(models))
    if missing:
        raise ConfigError(f"no model supplied for contingencies {missing}")

    for c in params:
        grid.check_line(c)  # an unknown line id is a configuration error, not an oracle failure
    n = len(test)
    p_cond = (_load_condition_probs(args.condition_probs, n)
              if args.condition_probs else uniform_condition_probabilities(n))
    x = db.features_matrix("test")
    probabilities = {}
    for c in params:
        try:
            probabilities[c] = models[c].probability(x)
        except ValueError as exc:  # a stump past the data's width
            raise ConfigError(f"{paths[c]}: {exc}") from exc
    ranked = rank_scenarios(probabilities, p_cond, params)

    def oracle(condition, contingency):
        return assess_security(grid, loads[condition], test.generation[condition], contingency)

    report = triage(ranked, args.budget, oracle, params)
    triage_csv(report, args.out)
    print(f"wrote {args.out}: assessed {report.n_high}/{len(ranked)} scenarios "
          f"(coverage {report.assessed_fraction:.3f}), total risk {report.total_risk:.6g}")
    return 0


def _cmd_evaluate(args) -> int:
    db = _load_database(args.data, "test", "evaluate")
    model = load_model(args.model)
    contingency = model.contingency
    x = db.features_matrix("test")
    y = db.label_vector(contingency, "test")
    params = ContingencyParams.from_cost_ratio(contingency, args.probability, args.cost_ratio)
    scores = model.score(x)
    probs = calibrated_probability(model.params, scores)
    labels, _ = risk_optimal_predict(probs, params)
    votes = (scores >= 0.5).astype(int)
    missed, false = (int(mask.sum()) for mask in alarm_masks(labels, y))
    metrics = {
        "contingency": contingency,
        "n_test": int(len(y)),
        "vote_error": float(np.mean(votes != y)),
        "thresholded_error": float(np.mean(labels != y)),
        "missed_alarms": missed,
        "false_alarms": false,
        "residual_risk": residual_risk_estimate(missed, false, args.cost_ratio, args.probability, len(y)),
        "brier_score": brier_score(probs, y, bins=args.bins)[0],
        "brier_score_uncalibrated": brier_score(scores, y, bins=args.bins)[0],
    }
    text = json.dumps(metrics, indent=2)
    if args.out:
        write_texts({args.out: text + "\n"})
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {name: getattr(args, name) for name in ("seed", "out_dir", "bins", "rounds", "mode")}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    out = run_study(args.name, Study(config), config.out_dir)
    print(f"experiment {args.name} complete: outputs in {out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "calibrate": _cmd_calibrate,
    "triage": _cmd_triage,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built once per process: building it costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # the package raises ValueError only in its checks of input values
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an input too large for this machine
        print(f"configuration error: out of memory: {' '.join(str(exc).split()) or 'MemoryError'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
