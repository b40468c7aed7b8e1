"""CLI tests: pipeline subcommands, overrides, exit codes."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from riskgate import cli, experiments
from riskgate.cli import main
from riskgate.errors import MalformedFile
from riskgate.experiments import ExperimentConfig
from riskgate.grid import Bus, Generator, GridModel, Line, grid_to_dict, six_bus
from riskgate.learner import MODES, Ensemble, load_model, save_model, train_stump
from riskgate.scenario_gen import Conditions, LabeledDatabase, load_database, save_database

from test_bench import load_tracing
from test_grid import save_grid

# sha256 of the CLI outputs on the fixtures below; the bytes must not move
# unless a change says which numbers it changes and why
GOLDEN_SHA256 = {
    "generate": "25d907e898ab51e21e6f8c583350de57b0515c5ce621f3b18727cdb8f1c3d68d",
    "evaluate": "b2c010f1da5e995a499cbbd17ea35c43779e36ccd993de707ead79b05739a452",
    "triage": "2a1c439246cc3bac72b9f2e3f96f9f564dedde22f4e59c84712f607e1bfedf71",
    "triage_condition_probs": "71177a9f6218fb7508423e8f54eee95f15b1824dbc8aa5141573c177fa4513cb",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    code = main([
        "generate", "--out", str(path), "--n", "240", "--splits", "150,45,45",
        "--seed", "11", "--contingencies", "5,6",
    ])
    assert code == 0
    return path


def test_generate_output_loads(dataset):
    db = load_database(dataset)
    assert len(db) == 240
    assert db.contingencies == [5, 6]
    assert db.seed == 11
    assert sha256(dataset) == GOLDEN_SHA256["generate"]


def test_train_calibrate_evaluate(dataset, tmp_path):
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(dataset), "--contingency", "6",
                 "--rounds", "10", "--mode", "samme", "--out", str(model)]) == 0
    assert main(["calibrate", "--data", str(dataset), "--model", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["calibration"] is not None

    metrics = tmp_path / "metrics.json"
    assert main(["evaluate", "--data", str(dataset), "--model", str(model),
                 "--probability", "0.0001", "--cost-ratio", "0.999",
                 "--bins", "5", "--out", str(metrics)]) == 0
    report = json.loads(metrics.read_text())
    assert report["contingency"] == 6
    assert 0.0 <= report["vote_error"] <= 1.0
    assert report["residual_risk"] >= 0.0
    assert sha256(metrics) == GOLDEN_SHA256["evaluate"]


@pytest.mark.parametrize("bins, code, message", [("0", 2, "bins must be >= 1"),
                                                  ("46", 3, "45 examples cannot fill 46 bins")])
def test_calibrate_checks_before_it_writes(dataset, tmp_path, capsys, bins, code, message):
    model, reliability = tmp_path / "model.json", tmp_path / "r.csv"
    assert main(["train", "--data", str(dataset), "--contingency", "6", "--rounds", "4", "--out", str(model)]) == 0
    uncalibrated = model.read_bytes()
    assert main(["calibrate", "--data", str(dataset), "--model", str(model), "--bins", bins,
                 "--reliability", str(reliability)]) == code
    assert message in capsys.readouterr().err
    assert model.read_bytes() == uncalibrated  # without --out, the model file is both input and output
    assert not reliability.exists()


def test_calibrate_that_cannot_write_its_reliability_csv_leaves_the_model(dataset, tmp_path, capsys):
    model, reliability = tmp_path / "model.json", tmp_path / "no_dir" / "r.csv"
    assert main(["train", "--data", str(dataset), "--contingency", "6", "--rounds", "4", "--out", str(model)]) == 0
    uncalibrated = model.read_bytes()
    assert main(["calibrate", "--data", str(dataset), "--model", str(model), "--reliability", str(reliability)]) == 2
    assert f"No such file or directory: '{reliability}'" in capsys.readouterr().err
    assert model.read_bytes() == uncalibrated  # nothing is written until every output can be
    assert not reliability.parent.exists()


@pytest.mark.parametrize("failing", ["--out", "--reliability"])
def test_calibrate_that_cannot_write_an_output_leaves_no_file(dataset, tmp_path, capsys, failing):
    """A write that fails, second or first, leaves the directory as it was: no output and no temporary file."""
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(dataset), "--contingency", "6", "--rounds", "4", "--out", str(model)]) == 0
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    outputs = {"--out": tmp_path / "m2.json", "--reliability": tmp_path / "r.csv", failing: tmp_path / "a_dir"}
    outputs[failing].mkdir()
    before[outputs[failing]] = None
    argv = [arg for flag, path in outputs.items() for arg in (flag, str(path))]
    assert main(["calibrate", "--data", str(dataset), "--model", str(model), *argv]) == 2
    assert f"Is a directory: '{outputs[failing]}'" in capsys.readouterr().err
    assert {p: None if p.is_dir() else p.read_bytes() for p in tmp_path.iterdir()} == before
    assert main(["calibrate", "--data", str(dataset), "--model", str(model),
                 "--out", str(tmp_path / "m2.json"), "--reliability", str(tmp_path / "r.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "m2.json", "model.json", "r.csv"]


def test_calibrate_in_place_through_a_symbolic_link_rewrites_the_file_it_names_with_its_mode(dataset, tmp_path):
    model, link = tmp_path / "model.json", tmp_path / "link.json"
    assert main(["train", "--data", str(dataset), "--contingency", "6", "--rounds", "4", "--out", str(model)]) == 0
    link.symlink_to(model.name)
    model.chmod(0o600)
    assert main(["calibrate", "--data", str(dataset), "--model", str(link)]) == 0
    assert link.is_symlink() and load_model(model).params is not None and model.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "model.json"]


_CALIBRATE = ["calibrate", "--data", "{data}", "--model", "{model6}", "--out", "{work}/model.json",
              "--reliability", "{work}/reliability.csv"]
_EXPERIMENT = ["experiment", "imbalance", "--config", "{config}", "--out", "{work}"]
WRITERS = {  # a command's argv, all of whose outputs go into {work}, and the output put in the way
    "generate": (["generate", "--n", "7", "--splits", "5,1,1", "--out", "{work}/data.csv"], "data.csv"),
    "train": (["train", "--data", "{data}", "--contingency", "6", "--rounds", "2", "--out", "{work}/model.json"],
              "model.json"),
    "calibrate-out": (_CALIBRATE, "model.json"),
    "calibrate-reliability": (_CALIBRATE, "reliability.csv"),
    "triage": (["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file", "{contingencies}",
                "--budget", "12", "--out", "{work}/triage.csv"], "triage.csv"),
    "evaluate": (["evaluate", "--data", "{data}", "--model", "{model6}", "--probability", "0.0001",
                  "--cost-ratio", "0.9", "--out", "{work}/metrics.json"], "metrics.json"),
    "experiment-csv": (_EXPERIMENT, "imbalance.csv"),
    "experiment-manifest": (_EXPERIMENT, "manifest.json"),
}


@pytest.mark.parametrize("obstacle", ["directory", "fifo"])
@pytest.mark.parametrize("writer", WRITERS)
def test_an_output_that_is_not_a_regular_file_exits_2_and_nothing_is_written(dataset, trained, tmp_path, capsys,
                                                                              writer, obstacle):
    """A directory or a FIFO where an output goes is refused, naming it; no output and no temporary file appear."""
    work = tmp_path / "work"
    work.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 240, "splits": [150, 45, 45], "seed": 11, "rounds": 2, "repetitions": 1}))
    argv, output = WRITERS[writer]
    target = work / output
    if obstacle == "directory":
        target.mkdir()
    else:
        os.mkfifo(target)
    assert main([arg.format(work=work, data=dataset, config=config, **trained) for arg in argv]) == 2
    reason = "Is a directory" if obstacle == "directory" else "exists and is not a regular file"
    assert f"{reason}: '{target}'" in capsys.readouterr().err
    assert [p.name for p in work.iterdir()] == [output]
    assert target.is_dir() if obstacle == "directory" else target.is_fifo()


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    """Calibrated models for lines 5 and 6 and their contingencies.json."""
    tmp = tmp_path_factory.mktemp("triage")
    models = []
    for c in (5, 6):
        model = tmp / f"model{c}.json"
        assert main(["train", "--data", str(dataset), "--contingency", str(c),
                     "--rounds", "8", "--mode", "samme", "--out", str(model)]) == 0
        assert main(["calibrate", "--data", str(dataset), "--model", str(model)]) == 0
        models.append(str(model))
    contingencies = tmp / "contingencies.json"
    contingencies.write_text(json.dumps([
        {"line_id": 5, "p_c": 0.0003, "cost_ratio": 500.0 / 501.0},
        {"line_id": 6, "p_c": 0.0001, "cost_ratio": 1000.0 / 1001.0},
    ]))
    return {"models": ",".join(models), "model5": models[0], "model6": models[1], "contingencies": str(contingencies)}


@pytest.fixture(scope="module")
def triage_inputs(dataset, trained):
    return ["triage", "--data", str(dataset), "--models", trained["models"],
            "--contingencies-file", trained["contingencies"], "--budget", "12"]


def test_triage_command(triage_inputs, dataset, tmp_path):
    out = tmp_path / "triage.csv"
    assert main(triage_inputs + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rank,scenario,condition,contingency")
    assert len(lines) == 1 + 2 * 45  # two contingencies x test conditions
    verified = [row for row in (ln.split(",") for ln in lines[1:]) if row[7] == "1"]
    assert len(verified) == 12
    db = load_database(dataset)
    for row in verified:  # the oracle reproduces the label the dataset was generated with
        assert int(row[8]) == db.label_vector(int(row[3]), "test")[int(row[2])]
    assert sha256(out) == GOLDEN_SHA256["triage"]


def test_evaluate_scores_the_test_split_once(dataset, trained, tmp_path, times_scored):
    assert main(["evaluate", "--data", str(dataset), "--model", trained["model6"], "--probability", "0.0001",
                 "--cost-ratio", "0.999", "--out", str(tmp_path / "metrics.json")]) == 0
    assert times_scored(load_database(dataset).features_matrix("test")) == 1


def test_traced_triage_scores_each_model_once(triage_inputs, tmp_path):
    # the benchmark's tracer sees the scoring where calibrated models look it up
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        assert cli.main(triage_inputs + ["--out", str(tmp_path / "triage.csv")]) == 0
    finally:
        tracer.end_op()
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["learner.ensemble_score"]["calls"] == 2  # lines 5 and 6
    assert summary["risk_engine.rank_scenarios"]["calls"] == 1


def test_triage_condition_probs_file(triage_inputs, tmp_path):
    probs = tmp_path / "probs.csv"
    weights = [2.0 if i % 3 == 0 else 1.0 for i in range(45)]
    probs.write_text("id,probability\n" + "".join(
        f"{i},{w / sum(weights)!r}\n" for i, w in reversed(list(enumerate(weights)))))
    out = tmp_path / "triage.csv"
    assert main(triage_inputs + ["--out", str(out), "--condition-probs", str(probs)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 45
    assert sha256(out) == GOLDEN_SHA256["triage_condition_probs"]


@pytest.mark.parametrize("bad_line, probability, line", [
    ("0,abc", 1.0 / 45, 2),  # non-numeric probability
    ("x,0.5", 1.0 / 45, 2),  # non-numeric id
    ("99,0.5", 1.0 / 45, 2),  # id past the 45 test conditions
    ("-1,0.5", 1.0 / 45, 2),  # negative id, not the last condition
    ("3,-0.1", 1.0 / 45, 2),  # negative probability
    ("44,0.5", 1.0 / 45, 47),  # id 44 listed again on the last line
    (None, 0.05, 46),  # 45 x 0.05 does not sum to 1
])
def test_triage_bad_condition_probs_is_config_error(triage_inputs, tmp_path, capsys,
                                                    bad_line, probability, line):
    probs = tmp_path / "probs.csv"
    rows = ["id,probability"] + ([bad_line] if bad_line else [])
    probs.write_text("\n".join(rows + [f"{i},{probability!r}" for i in range(45)]) + "\n")
    out = tmp_path / "triage.csv"
    assert main(triage_inputs + ["--out", str(out), "--condition-probs", str(probs)]) == 2
    assert f"{probs}:{line}:" in capsys.readouterr().err
    assert not out.exists()


def test_network_without_load_buses_is_config_error(triage_inputs, tmp_path, capsys):
    network = tmp_path / "network.json"
    save_grid(GridModel(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 0.1, 200.0), Line(2, 2, 3, 0.1, 200.0), Line(3, 1, 3, 0.1, 200.0)),
        generators=(Generator(1, 1, 0.0, 300.0, 1.0),),
    ), network)
    data = tmp_path / "data.csv"
    assert main(["generate", "--out", str(data), "--n", "7", "--splits", "5,1,1",
                 "--contingencies", "1,2", "--network", str(network)]) == 2
    assert "network has no bus 4, 5, 6" in capsys.readouterr().err
    assert not data.exists()
    out = tmp_path / "triage.csv"
    assert main(triage_inputs + ["--out", str(out), "--network", str(network)]) == 2
    assert "network has no bus 4, 5, 6" in capsys.readouterr().err
    assert not out.exists()


def test_generate_labels_every_line_of_its_network_by_default(tmp_path):
    network = grid_to_dict(six_bus())
    network["lines"] = [dict(line, limit=200.0) for line in network["lines"] if line["id"] not in (3, 6, 8, 11)]
    path = tmp_path / "network.json"
    path.write_text(json.dumps(network))
    data = tmp_path / "data.csv"
    assert main(["generate", "--out", str(data), "--n", "7", "--splits", "5,1,1", "--network", str(path)]) == 0
    assert load_database(data).contingencies == [1, 2, 4, 5, 7, 9, 10]


def test_experiment_command(tmp_path):
    out = tmp_path / "exp"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 240, "splits": [150, 45, 45], "seed": 11, "rounds": 6, "repetitions": 2,
    }))
    assert main(["experiment", "imbalance", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "imbalance.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["config"]["out_dir"] == str(out)  # the directory the study wrote into


def test_experiment_rejects_bad_alpha_before_generating(tmp_path, capsys, monkeypatch):
    # and every other config value that no study can run
    def build_database(*args, **kwargs):
        raise AssertionError("the pool was built for a config that cannot run")

    monkeypatch.setattr(experiments, "build_database", build_database)
    config = tmp_path / "config.json"
    out = tmp_path / "exp"
    for name, fields, flags, message in [
        ("sensitivity", {"alpha": -1.0}, [], "alpha must be finite and > 0, got -1.0"),
        ("imbalance", {"seed": -1}, [], "seed must be >= 0"),
        ("imbalance", {}, ["--seed", "-1"], "seed must be >= 0"),
        ("calibration", {}, ["--bins", "0"], "bins must be >= 1"),
        ("multi", {}, ["--rounds", "0"], "rounds must be >= 1"),
        ("triage", {"k_folds": 1}, [], "k_folds must be >= 2"),
        ("imbalance", {"max_tree_depth": -1}, [], "max_tree_depth must be >= 0"),
        ("threshold", {"splits": [-10, 160, 150]}, [], "split sizes must be >= 0, got (-10, 160, 150)"),
        ("imbalance", {"splits": [0, 150, 150]}, [], "the train split needs at least one condition"),
        ("imbalance", {"splits": [200, 100, 0]}, [], "the test split needs at least one condition"),
        ("triage", {"splits": [200, 100, 0]}, [], "the test split needs at least one condition"),
        ("calibration", {"bins": 80}, [], "bins must be <= the test split's 50 conditions, got 80"),
        ("multi", {"rounds": 10**30}, [], f"rounds must be <= 10000, got {10**30}"),
        ("calibration", {}, ["--rounds", "10001"], "rounds must be <= 10000, got 10001"),
        ("imbalance", {"repetitions": 10**30}, [], f"repetitions must be <= 10000, got {10**30}"),
    ]:
        config.write_text(json.dumps({"n": 300, "splits": [200, 50, 50], **fields}))
        assert main(["experiment", name, "--config", str(config), "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def no_test_split(dataset, tmp_path_factory):
    db = load_database(dataset)
    db.splits = ["calib" if split == "test" else split for split in db.splits]
    path = tmp_path_factory.mktemp("no_test") / "data.csv"
    save_database(db, path)
    return path


@pytest.fixture(scope="module")
def no_train_or_calib_split(dataset, tmp_path_factory):
    """The dataset with its train rows, or its calib rows, tagged test."""
    paths = {}
    for split in ("train", "calib"):
        db = load_database(dataset)
        db.splits = ["test" if tag == split else tag for tag in db.splits]
        paths[f"no_{split}_split"] = tmp_path_factory.mktemp(f"no_{split}") / "data.csv"
        save_database(db, paths[f"no_{split}_split"])
    return paths


@pytest.fixture(scope="module")
def unbalanced(dataset, tmp_path_factory):
    """The dataset with generator 1 of test condition 3 raised by 5 MW, so the oracle rejects it."""
    db = load_database(dataset)
    generation = db.conditions.generation.copy()
    generation[db.split_indices("test")[3]] += [5.0, 0, 0]
    db = LabeledDatabase(dataclasses.replace(db.conditions, generation=generation), db.labels, db.splits, db.seed)
    path = tmp_path_factory.mktemp("unbalanced") / "data.csv"
    save_database(db, path)
    return path


@pytest.fixture(scope="module")
def repeated_label(dataset, tmp_path_factory):
    """The dataset with its ``label_c6`` header column renamed ``label_c5``."""
    path = tmp_path_factory.mktemp("repeated_label") / "data.csv"
    path.write_text(Path(dataset).read_text().replace(",label_c6", ",label_c5"))
    return path


@pytest.fixture(scope="module")
def bad_fields(dataset, tmp_path_factory):
    """Copies of the dataset with one field of the first test row replaced.

    ``load1`` by nan, ``flow2`` by -inf, and the id by 99999999999999999999,
    past int64.  Also gives that row's line number.
    """
    lines = Path(dataset).read_text().splitlines()  # a seed comment, the header, then the rows
    header = lines[1].split(",")
    lineno = next(i for i in range(2, len(lines)) if lines[i].split(",")[header.index("split")] == "test")
    files = {"bad_line": str(lineno + 1)}
    for name, column, value in [("nan_load", "load1", "nan"), ("inf_flow", "flow2", "-inf"),
                                ("huge_id", "id", "99999999999999999999")]:
        edited = list(lines)
        parts = edited[lineno].split(",")
        parts[header.index(column)] = value
        edited[lineno] = ",".join(parts)
        files[name] = tmp_path_factory.mktemp(name) / "data.csv"
        files[name].write_text("\n".join(edited) + "\n")
    return files


@pytest.fixture(scope="module")
def bad_models(trained, tmp_path_factory):
    """Copies of the line-6 samme model, each with one defect."""
    tmp = tmp_path_factory.mktemp("bad_models")
    defects = {
        "feature40": lambda doc: doc["stumps"][0].update(feature=40),  # the data has 23 columns
        "negative_feature": lambda doc: doc["stumps"][0].update(feature=-1),
        "unknown_mode": lambda doc: doc.update(mode="SAMME"),
        "null_weights": lambda doc: doc.update(weights=None),
        "short_weights": lambda doc: doc.update(weights=doc["weights"][:-1]),
        "line12": lambda doc: doc.update(contingency=12),  # the network has 11 lines
        "copy6": lambda doc: None,
        "null_contingency": lambda doc: doc.update(contingency=None),
        "bool_contingency": lambda doc: doc.update(contingency=True),
        "string_contingency": lambda doc: doc.update(contingency="6"),
        "nan_calibration": lambda doc: doc["calibration"].update(a=float("nan")),
        "nan_weights": lambda doc: doc.update(weights=[float("nan")] * len(doc["weights"])),
        "negative_weights": lambda doc: doc.update(weights=[-1.0] * len(doc["weights"])),
        "fractional_feature": lambda doc: doc["stumps"][0].update(feature=2.7),
        "inf_threshold": lambda doc: doc["stumps"][0].update(threshold=float("inf")),
        "nan_leaf": lambda doc: doc["stumps"][0]["left"].update(p0=float("nan")),
        "leaf_above_one": lambda doc: doc["stumps"][0]["right"].update(p1=1.5),
        "string_weight": lambda doc: doc["weights"].__setitem__(0, "1.5"),
        "bool_threshold": lambda doc: doc["stumps"][0].update(threshold=True),
        "string_leaf": lambda doc: doc["stumps"][0]["left"].update(p1="0.5"),
        "string_calibration": lambda doc: doc["calibration"].update(a="-3"),
        # samme.r takes each leaf's log-odds, so p1 of 0 or 1 would be infinite and 1e-320 overflows exp
        **{name: lambda doc, p1=p1: doc.update(mode="samme.r", weights=None)
           or doc["stumps"][0]["right"].update(p0=1.0 - p1, p1=p1)
           for name, p1 in [("leaf_p1_zero", 0.0), ("leaf_p1_one", 1.0), ("leaf_p1_tiny", 1e-320)]},
        "leaf_p0_off": lambda doc: doc["stumps"][0]["left"].update(p0=doc["stumps"][0]["left"]["p0"] + 1e-8),
    }
    paths = {}
    for name, defect in defects.items():
        doc = json.loads(Path(trained["model6"]).read_text())
        defect(doc)
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """One-entry contingencies.json files and copies of the six-bus network.json, each with one defect.

    Also ``deep``, a JSON array nested too deeply for the parser, which every kind of JSON input file refuses.
    """
    tmp = tmp_path_factory.mktemp("bad_inputs")
    ratio_entry = {"line_id": 6, "p_c": 0.0001, "cost_ratio": 0.999}
    cost_entry = {"line_id": 6, "p_c": 0.0001, "c_f1": 999.0, "c_f0": 1.0}
    documents = {
        "float_line_id": [dict(ratio_entry, line_id=6.7)],
        "bool_line_id": [dict(ratio_entry, line_id=True)],
        "string_line_id": [dict(ratio_entry, line_id="6")],
        "string_p_c": [dict(ratio_entry, p_c="1e-3")],
        "inf_c_f1": [dict(cost_entry, c_f1=float("inf"))],
        "negative_c_f1": [dict(cost_entry, c_f1=-1)],
    }
    for name, (kind, k, field, value) in {
        "float_line": ("lines", 2, "id", 3.9),
        "float_generator_bus": ("generators", 0, "bus", 1.5),
        "string_reactance": ("lines", 0, "reactance", "0.2"),
        "inf_p_max": ("generators", 0, "p_max", float("inf")),
        "bool_limit": ("lines", 0, "limit", True),
        "nan_cost": ("generators", 1, "cost", float("nan")),
        "nan_reactance": ("lines", 4, "reactance", float("nan")),
        "inf_limit": ("lines", 10, "limit", float("inf")),
        "string_slack": ("buses", 0, "slack", "false"),
        "huge_reactance": ("lines", 0, "reactance", 1e308),
        "tiny_reactance": ("lines", 0, "reactance", 1e-308),
        "huge_limit": ("lines", 0, "limit", 1e308),
        "huge_cost": ("generators", 0, "cost", 1e308),
        "negative_huge_cost": ("generators", 1, "cost", -1e308),
        "huge_p_min": ("generators", 0, "p_min", -1e308),
        "huge_p_max": ("generators", 2, "p_max", 1e308),
    }.items():
        network = grid_to_dict(six_bus())
        network[kind][k][field] = value
        documents[name] = network
    paths = {}
    for name, doc in documents.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    paths["deep"] = tmp / "deep.json"
    paths["deep"].write_text("[" * 200000 + "]" * 200000)
    return paths


@pytest.fixture(scope="module")
def not_utf8(dataset, trained, tmp_path_factory):
    """A copy of each kind of input file with byte 0xE9, which is not UTF-8, at the start of its third line."""
    tmp = tmp_path_factory.mktemp("not_utf8")
    texts = {
        "data_csv": Path(dataset).read_text(),
        "model_json": json.dumps(json.loads(Path(trained["model6"]).read_text()), indent=1),
        "contingencies_json": json.dumps(json.loads(Path(trained["contingencies"]).read_text()), indent=1),
        "network_json": json.dumps(grid_to_dict(six_bus()), indent=1),
        "config_json": json.dumps({"rounds": 6}, indent=1),
        "probs_csv": "id,probability\n" + "".join(f"{i},{1 / 45!r}\n" for i in range(45)),
    }
    paths = {}
    for name, text in texts.items():
        lines = text.encode().split(b"\n")
        lines[2] = b"\xe9" + lines[2]
        paths[name] = tmp / name.replace("_", ".")
        paths[name].write_bytes(b"\n".join(lines))
    return paths


@pytest.mark.parametrize("argv, code, message", [
    (["generate", "--n", "7", "--splits", "5,1,1", "--contingencies", "99"], 2, "unknown line id 99"),
    (["generate", "--n", "7", "--splits", "5,1,2"], 2, "must sum to n=7"),
    (["generate", "--n", "0", "--splits", "0,0,0"], 2, "at least one condition"),
    (["generate", "--n", "3", "--splits=5,-1,-1"], 2, "n and split sizes must be >= 0, got n=3 and splits (5, -1, -1)"),
    (["generate", "--n", "-3", "--splits=-3,0,0"], 2, "n and split sizes must be >= 0, got n=-3 and splits (-3, 0, 0)"),
    (["train", "--data", "{data}", "--contingency", "6", "--rounds", "0"], 2, "rounds must be >= 1"),
    (["train", "--data", "{data}", "--contingency", "6", "--k-folds", "1"], 2, "k_folds must be >= 2"),
    (["train", "--data", "{data}", "--contingency", "42"], 2, "no labels for contingency 42"),
    (["evaluate", "--data", "{data}", "--model", "{model6}", "--probability", "2", "--cost-ratio", "0.9"],
     2, "probability must be strictly inside (0, 1)"),
    (["triage", "--data", "{no_test_split}", "--models", "{models}", "--contingencies-file", "{contingencies}",
      "--budget", "12"], 3, "has no test conditions"),
    (["evaluate", "--data", "{no_test_split}", "--model", "{model6}", "--probability", "0.0001", "--cost-ratio", "0.9"],
     3, "{no_test_split} has no test conditions to evaluate"),
    (["train", "--data", "{no_train_split}", "--contingency", "6"],
     3, "{no_train_split} has no train conditions to train on"),
    (["calibrate", "--data", "{no_calib_split}", "--model", "{model6}"],
     3, "{no_calib_split} has no calib conditions to calibrate on"),
    (["generate", "--n", "7", "--splits", "5,1,1", "--seed", "-1"], 2, "seed must be >= 0, got -1"),
    (["evaluate", "--data", "{data}", "--model", "{feature40}", "--probability", "0.0001", "--cost-ratio", "0.9"],
     2, "model reads feature 40, but the features have 23 columns"),
    (["evaluate", "--data", "{data}", "--model", "{negative_feature}", "--probability", "0.0001",
      "--cost-ratio", "0.9"], 2, "stump feature -1 is negative"),
    (["calibrate", "--data", "{data}", "--model", "{feature40}"], 2, "model reads feature 40"),
    (["triage", "--data", "{data}", "--models", "{model5},{feature40}", "--contingencies-file", "{contingencies}",
      "--budget", "12"], 2, "feature40.json: model reads feature 40"),
    (["evaluate", "--data", "{data}", "--model", "{unknown_mode}", "--probability", "0.0001", "--cost-ratio", "0.9"],
     2, "unknown_mode.json: unknown boosting mode 'SAMME'"),
    (["evaluate", "--data", "{data}", "--model", "{null_weights}", "--probability", "0.0001", "--cost-ratio", "0.9"],
     2, "null_weights.json: a samme model needs one weight per stump"),
    (["evaluate", "--data", "{data}", "--model", "{short_weights}", "--probability", "0.0001", "--cost-ratio", "0.9"],
     2, "short_weights.json: a samme model needs one weight per stump"),
    *[(["evaluate", "--data", "{data}", "--model", "{%s}" % name, "--probability", "0.0001", "--cost-ratio", "0.9"],
       2, f"{name}.json: bad model description: {message}") for name, message in [
        ("null_contingency", "contingency must be an integer, got None"),
        ("bool_contingency", "contingency must be an integer, got True"),
        ("string_contingency", "contingency must be an integer, got '6'"),
        ("nan_calibration", "calibration a must be a finite number, got nan"),
        ("nan_weights", "weight 0 must be a finite number, got nan"),
        ("negative_weights", "weight 0 must lie in [0, inf], got -1.0"),
        ("fractional_feature", "stump 0 feature must be an integer, got 2.7"),
        ("inf_threshold", "stump 0 threshold must be a finite number, got inf"),
        ("nan_leaf", "stump 0 left leaf p0 must be a finite number, got nan"),
        ("leaf_above_one", "stump 0 right leaf p1 must lie in [0, 1], got 1.5"),
        ("string_weight", "weight 0 must be a number, got '1.5'"),
        ("bool_threshold", "stump 0 threshold must be a number, got True"),
        ("string_leaf", "stump 0 left leaf p1 must be a number, got '0.5'"),
        ("string_calibration", "calibration a must be a number, got '-3'"),
        *[(name, f"stump 0 right leaf p1 must lie in [LEAF_EPS, 1 - LEAF_EPS] = [1e-06, 0.999999], got {p1}")
          for name, p1 in [("leaf_p1_zero", "0.0"), ("leaf_p1_one", "1.0"), ("leaf_p1_tiny", "1e-320")]],
        ("leaf_p0_off", "stump 0 left leaf p0 must be 1 - p1 = "),
    ]],
    (["triage", "--data", "{data}", "--models", "{models},{copy6}", "--contingencies-file", "{contingencies}",
      "--budget", "12"], 2, "{model6} and {copy6} are both models of line 6"),
    (["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file", "{lines_6_6}",
      "--budget", "12"], 2, "lines_6_6.json: bad contingency entry: line 6 is listed twice"),
    (["generate", "--n", "7", "--splits", "5,1,1", "--contingencies", ""], 2, "no contingencies to label"),
    (["generate", "--n", "7", "--splits", "5,1,1", "--contingencies", "3", "--network", "{two_lines_3}"],
     2, "duplicate line ids"),
    *[(["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file", "{contingencies}",
        "--budget", "12", "--network", "{%s}" % name], 2, "{data} has 3 gen columns, but the network has %d generators"
       % count) for name, count in [("two_generators", 2), ("four_generators", 4)]],
    (["experiment", "calibration", "--config", "{string_rounds}"],
     2, "string_rounds.json: bad config field: rounds must be an integer, got '6'"),
    (["experiment", "sensitivity", "--config", "{negative_alpha}"],
     2, "negative_alpha.json: bad config field: alpha must be finite and > 0, got -1"),
    (["triage", "--data", "{data}", "--models", "{model6},{line12}", "--contingencies-file", "{lines_6_12}",
      "--budget", "50"], 2, "unknown line id 12"),
    (["triage", "--data", "{unbalanced}", "--models", "{models}", "--contingencies-file", "{contingencies}",
      "--budget", "90"], 3, "oracle failed on scenario 3:5 (rank 41): pre-fault condition is not balanced"),
    (["triage", "--data", "{nan_load}", "--models", "{models}", "--contingencies-file", "{contingencies}",
      "--budget", "12"], 2, "line {bad_line}: feature load1 is nan, not a finite number"),
    (["evaluate", "--data", "{nan_load}", "--model", "{model6}", "--probability", "0.0001", "--cost-ratio", "0.9"],
     2, "line {bad_line}: feature load1 is nan, not a finite number"),
    (["train", "--data", "{inf_flow}", "--contingency", "6"], 2, "line {bad_line}: feature flow2 is -inf"),
    (["train", "--data", "{huge_id}", "--contingency", "6"],
     2, "line {bad_line}: id 99999999999999999999 does not fit a signed 64-bit integer"),
    (["triage", "--data", "{huge_id}", "--models", "{models}", "--contingencies-file", "{contingencies}",
      "--budget", "12"], 2, "line {bad_line}: id 99999999999999999999 does not fit a signed 64-bit integer"),
    (["train", "--data", "{a_dir}", "--contingency", "6"], 2, "Is a directory: '{a_dir}'"),
    (["train", "--data", "{repeated_label}", "--contingency", "5"], 2, "line 2: repeated label column 'label_c5'"),
    (["train", "--data", "{data}", "--contingency", "6", "--rounds", "2", "--out", "{a_dir}"],
     2, "Is a directory: '{a_dir}'"),
    *[(["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file", "{%s}" % name,
        "--budget", "12"], 2, f"{name}.json: bad contingency entry: {message}") for name, message in [
        ("float_line_id", "entry 0 line_id must be an integer, got 6.7"),
        ("bool_line_id", "entry 0 line_id must be an integer, got True"),
        ("string_line_id", "entry 0 line_id must be an integer, got '6'"),
        ("string_p_c", "entry 0 p_c must be a number, got '1e-3'"),
        ("inf_c_f1", "entry 0 c_f1 must be a finite number, got inf"),
        ("negative_c_f1", "costs must be strictly positive"),
    ]],
    *[(argv, 2, "line 3: {%s}: byte 0xe9 is not UTF-8" % name) for name, argv in [
        ("data_csv", ["train", "--data", "{data_csv}", "--contingency", "6"]),
        ("model_json", ["evaluate", "--data", "{data}", "--model", "{model_json}", "--probability", "0.0001",
                        "--cost-ratio", "0.9"]),
        ("contingencies_json", ["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file",
                                "{contingencies_json}", "--budget", "12"]),
        ("network_json", ["generate", "--n", "7", "--splits", "5,1,1", "--network", "{network_json}"]),
        ("config_json", ["experiment", "calibration", "--config", "{config_json}"]),
        ("probs_csv", ["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file",
                       "{contingencies}", "--budget", "12", "--condition-probs", "{probs_csv}"]),
    ]],
    *[(["generate", "--n", "7", "--splits", "5,1,1", "--contingencies", "3", "--network", "{%s}" % name],
       2, f"{name}.json: bad network description: {message}") for name, message in [
        ("float_line", "lines[2].id must be an integer, got 3.9"),
        ("float_generator_bus", "generators[0].bus must be an integer, got 1.5"),
        ("string_reactance", "lines[0].reactance must be a number, got '0.2'"),
        ("inf_p_max", "generators[0].p_max must be a finite number, got inf"),
        ("bool_limit", "lines[0].limit must be a number, got True"),
        ("nan_cost", "generators[1].cost must be a finite number, got nan"),
        ("nan_reactance", "lines[4].reactance must be a finite number, got nan"),
        ("inf_limit", "lines[10].limit must be a finite number, got inf"),
        ("string_slack", "buses[0].slack must be true or false, got 'false'"),
        ("huge_reactance", "line 1: reactance must lie in [0.0001, 10000] p.u., got 1e+308"),
        ("tiny_reactance", "line 1: reactance must lie in [0.0001, 10000] p.u., got 1e-308"),
        ("huge_limit", "line 1: flow limit must lie in [0.001, 1e+06] MW, got 1e+308"),
        ("huge_cost", "generator 1: cost must lie in [-1e+06, 1e+06] $/MWh, got 1e+308"),
        ("negative_huge_cost", "generator 2: cost must lie in [-1e+06, 1e+06] $/MWh, got -1e+308"),
    ]],
    *[(["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file", "{contingencies}",
        "--budget", "12", "--network", "{%s}" % name], code, message) for name, code, message in [
        ("huge_reactance", 2, "huge_reactance.json: bad network description: line 1: reactance must lie in"),
        ("tiny_reactance", 2, "tiny_reactance.json: bad network description: line 1: reactance must lie in"),
        ("huge_limit", 2, "huge_limit.json: bad network description: line 1: flow limit must lie in"),
        ("huge_cost", 2, "huge_cost.json: bad network description: generator 1: cost must lie in"),
        ("negative_huge_cost", 2, "negative_huge_cost.json: bad network description: generator 2: cost must lie in"),
    ]],
    *[(argv, 2, "invalid JSON in {deep}: nested too deeply") for argv in [
        ["evaluate", "--data", "{data}", "--model", "{deep}", "--probability", "0.0001", "--cost-ratio", "0.9"],
        ["experiment", "calibration", "--config", "{deep}"],
        ["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file", "{deep}", "--budget", "12"],
        ["generate", "--n", "7", "--splits", "5,1,1", "--network", "{deep}"],
    ]],
    (["calibrate", "--data", "{no_test_split}", "--model", "{model6}", "--reliability", "{a_dir}/reliability.csv"],
     3, "{no_test_split} has no test conditions to bin for --reliability"),
    (["experiment", "threshold", "--config", "{single_class}"], 3,
     "repetition 1: the training split's insecure share on line 6 is 0; the contingency probability must be"
     " strictly inside (0, 1)"),
    (["experiment", "multi", "--out", "{data}/sub"], 2, "cannot make {data}/sub: {data} exists and is not a directory"),
    # each failed write, the second and the first, leaves no file: here no reliability CSV at {out}
    (["calibrate", "--data", "{data}", "--model", "{model6}", "--out", "{a_dir}/nodir/m2.json", "--reliability",
      "{out}"], 2, "No such file or directory: '{a_dir}/nodir/m2.json'"),
    (["calibrate", "--data", "{data}", "--model", "{model6}", "--reliability", "{a_dir}/nodir/r.csv", "--out",
      "{out}"], 2, "No such file or directory: '{a_dir}/nodir/r.csv'"),
    # a pool too large to allocate is refused before any array is made
    (["generate", "--n", "1000000000000", "--splits", "999999999970,10,20"],
     2, "n must be < 2**32 = 4294967296, got 1000000000000"),
    (["experiment", "imbalance", "--config", "{huge_n}"], 2, "n must be < 2**32 = 4294967296, got 1000000000000"),
    # --k-folds 1, checked after the rounds, keeps a build without the bound from boosting 10001 rounds
    (["train", "--data", "{data}", "--contingency", "6", "--rounds", "10001", "--k-folds", "1"],
     2, "rounds must be <= 10000, got 10001"),
    *[(argv + ["--network", "{%s}" % name], 2, f"{name}.json: bad network description: generator {message}")
      for argv in [["generate", "--n", "7", "--splits", "5,1,1", "--contingencies", "3"],
                   ["triage", "--data", "{data}", "--models", "{models}", "--contingencies-file", "{contingencies}",
                    "--budget", "12"]]
      for name, message in [("huge_p_min", "1: p_min must lie in [-1e+06, 1e+06] MW, got -1e+308"),
                            ("huge_p_max", "3: p_max must lie in [-1e+06, 1e+06] MW, got 1e+308")]],
    # a refused dataset is named first, once, whichever command reads it
    *[(argv, 2, "configuration error: {bad_header}: line 1: unexpected header columns") for argv in [
        ["train", "--data", "{bad_header}", "--contingency", "6"],
        ["calibrate", "--data", "{bad_header}", "--model", "{model6}"],
        ["triage", "--data", "{bad_header}", "--models", "{models}", "--contingencies-file", "{contingencies}",
         "--budget", "12"],
        ["evaluate", "--data", "{bad_header}", "--model", "{model6}", "--probability", "0.0001", "--cost-ratio", "0.9"],
    ]],
    (["calibrate", "--data", "{data_csv}", "--model", "{model6}"],
     2, "configuration error: line 3: {data_csv}: byte 0xe9 is not UTF-8"),
], ids=["unknown-line", "splits-sum", "no-conditions", "negative-split", "negative-n", "zero-rounds", "one-fold",
        "unlabelled-line", "probability-above-one", "empty-test-split", "evaluate-empty-test-split",
        "train-empty-train-split", "calibrate-empty-calib-split", "generate-negative-seed", "feature-past-width",
        "negative-feature",
        "calibrate-feature-past-width", "triage-feature-past-width", "unknown-mode", "null-weights",
        "short-weights", "null-contingency", "bool-contingency", "string-contingency", "nan-calibration",
        "nan-weights", "negative-weights", "fractional-feature", "inf-threshold", "nan-leaf", "leaf-above-one", "string-weight", "bool-threshold", "string-leaf", "string-calibration",
        "leaf-p1-zero", "leaf-p1-one", "leaf-p1-tiny", "leaf-p0-off",
        "triage-two-models-of-a-line", "triage-line-listed-twice", "generate-no-contingencies",
        "generate-duplicate-line-ids", "triage-two-generator-network", "triage-four-generator-network",
        "config-string-rounds", "config-negative-alpha", "triage-unknown-line",
        "triage-unbalanced-condition",
        "triage-nan-feature", "evaluate-nan-feature", "train-inf-feature", "train-id-past-int64",
        "triage-id-past-int64", "train-data-directory",
        "repeated-label-column", "train-out-directory", "float-line-id", "bool-line-id", "string-line-id", "string-p-c", "inf-c-f1",
        "negative-c-f1", "not-utf8-dataset", "not-utf8-model", "not-utf8-contingencies", "not-utf8-network",
        "not-utf8-config", "not-utf8-condition-probs", "float-network-line-id", "float-generator-bus",
        "string-reactance", "inf-p-max",
        "bool-limit", "nan-cost", "nan-reactance", "inf-limit", "string-slack", "generate-huge-reactance",
        "generate-tiny-reactance", "generate-huge-limit", "generate-huge-cost", "generate-negative-huge-cost",
        "triage-huge-reactance", "triage-tiny-reactance", "triage-huge-limit", "triage-huge-cost",
        "triage-negative-huge-cost",
        "deep-json-model", "deep-json-config", "deep-json-contingencies", "deep-json-network",
        "calibrate-reliability-empty-test-split", "threshold-single-class-training-split",
        "experiment-out-under-a-file", "calibrate-unwritable-out", "calibrate-unwritable-reliability",
        "generate-huge-n", "experiment-huge-n", "train-rounds-past-bound",
        "generate-huge-p-min", "generate-huge-p-max", "triage-huge-p-min", "triage-huge-p-max",
        "train-bad-header", "calibrate-bad-header", "triage-bad-header", "evaluate-bad-header",
        "calibrate-not-utf8-dataset-named-once"])
def test_bad_input_exits_without_traceback(dataset, trained, no_test_split, no_train_or_calib_split, unbalanced,
                                           bad_fields, bad_models, bad_inputs, repeated_label, not_utf8, tmp_path,
                                           capsys, argv, code, message):
    out = tmp_path / "out"
    string_rounds = tmp_path / "string_rounds.json"
    string_rounds.write_text('{"rounds": "6"}\n')
    negative_alpha = tmp_path / "negative_alpha.json"
    negative_alpha.write_text('{"alpha": -1}\n')
    single_class = tmp_path / "single_class.json"  # repetition 1 trains on two secure conditions of line 6
    single_class.write_text('{"n": 6, "splits": [2, 2, 2], "rounds": 2, "repetitions": 3, "seed": 1}\n')
    huge_n = tmp_path / "huge_n.json"
    huge_n.write_text('{"n": 1000000000000, "splits": [999999999970, 10, 20]}\n')
    lines_6_12 = tmp_path / "lines_6_12.json"
    lines_6_12.write_text(json.dumps([{"line_id": c, "p_c": 0.0001, "cost_ratio": 0.999} for c in (6, 12)]))
    lines_6_6 = tmp_path / "lines_6_6.json"
    lines_6_6.write_text(json.dumps([{"line_id": 5, "p_c": 0.0003, "cost_ratio": 0.998}]
                                    + [{"line_id": 6, "p_c": p, "cost_ratio": 0.999} for p in (0.0001, 0.5)]))
    network = grid_to_dict(six_bus())
    network["lines"].append(dict(network["lines"][3], id=3))  # a second line 3, in parallel with line 4
    two_lines_3 = tmp_path / "two_lines_3.json"
    two_lines_3.write_text(json.dumps(network))
    network = grid_to_dict(six_bus())
    generators = {"two_generators": network["generators"][:2],
                  "four_generators": network["generators"] + [dict(network["generators"][0], id=4, bus=4)]}
    for name, listed in generators.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(network, generators=listed)))
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("a,b\n1,2\n")
    fields = {"out": out, "data": dataset, "bad_header": bad_header, "no_test_split": no_test_split, **no_train_or_calib_split,
              "unbalanced": unbalanced, "string_rounds": string_rounds,
              "negative_alpha": negative_alpha, "single_class": single_class, "huge_n": huge_n,
              "lines_6_12": lines_6_12, "lines_6_6": lines_6_6, "two_lines_3": two_lines_3, "a_dir": a_dir,
              **{name: tmp_path / f"{name}.json" for name in generators},
              "repeated_label": repeated_label, **trained, **bad_fields, **bad_models, **bad_inputs, **not_utf8}
    argv = [arg.format(**fields) for arg in argv]
    assert main(argv if "--out" in argv else argv + ["--out", str(out)]) == code
    assert message.format(**fields) in capsys.readouterr().err
    assert not out.exists()


def test_a_refused_dataset_is_named_and_keeps_its_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# seed=1\na,b\n")
    with pytest.raises(MalformedFile) as err:
        cli._load_database(bad, "train", "train on")
    assert str(err.value) == f"{bad}: line 2: unexpected header columns (missing feature or split column?)"
    assert err.value.line == 2


@pytest.mark.parametrize("flag", ["--network", "--model", "--contingencies-file", "--config"])
def test_broken_json_input_names_the_file(dataset, trained, tmp_path, capsys, flag):
    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "version": 1,\n  oops\n}\n')
    data, out = str(dataset), str(tmp_path / "out")
    argv = {
        "--network": ["generate", "--n", "7", "--splits", "5,1,1", "--out", out],
        "--model": ["evaluate", "--data", data, "--probability", "0.0001", "--cost-ratio", "0.9"],
        "--contingencies-file": ["triage", "--data", data, "--models", trained["models"], "--budget", "12",
                                 "--out", out],
        "--config": ["experiment", "imbalance", "--out", out],
    }[flag]
    assert main(argv + [flag, str(broken)]) == 2
    assert f"line 3: invalid JSON in {broken}" in capsys.readouterr().err
    assert not Path(out).exists()


def test_every_mode_check_accepts_exactly_the_learner_modes(tmp_path):
    def accepts(check):
        try:
            check()
        except (SystemExit, ValueError, MalformedFile):
            return False
        return True

    def loads_model(mode):
        path = tmp_path / "model.json"
        save_model(path, Ensemble(mode, [train_stump(np.zeros((2, 1)), [1, 1])], [1.0] if mode == "samme" else None),
                   contingency=6)
        load_model(path)

    parser = cli.build_parser()
    for mode in MODES + ("SAMME", "samme_r", ""):
        verdicts = [
            accepts(lambda: parser.parse_args(["train", "--data", "d", "--contingency", "6", "--out", "m",
                                               "--mode", mode])),
            accepts(lambda: parser.parse_args(["experiment", "imbalance", "--mode", mode])),
            accepts(lambda: ExperimentConfig(mode=mode)),
            accepts(lambda: loads_model(mode)),
        ]
        assert verdicts == [mode in MODES] * 4, mode


def test_twelve_line_network_generates_and_trains(tmp_path):
    # the dataset's flow columns follow the network: 12 here, not the packaged 11
    six = six_bus()
    parallel = Line(12, six.lines[0].from_bus, six.lines[0].to_bus, six.lines[0].reactance, six.lines[0].limit)
    network = tmp_path / "network.json"
    save_grid(GridModel(six.buses, six.lines + (parallel,), six.generators, six.base_mva), network)
    data = tmp_path / "data.csv"
    assert main(["generate", "--out", str(data), "--n", "60", "--splits", "40,10,10", "--seed", "3",
                 "--contingencies", "6,12", "--network", str(network)]) == 0
    db = load_database(data)
    assert db.features_matrix().shape == (60, 3 + 3 + 6 + 12)
    assert main(["train", "--data", str(data), "--contingency", "12", "--rounds", "5",
                 "--out", str(tmp_path / "model.json")]) == 0


def test_exit_code_config_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "missing.csv"),
                 "--contingency", "6", "--out", str(tmp_path / "m.json")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,dataset\n")
    assert main(["train", "--data", str(bad), "--contingency", "6",
                 "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 21.8 TiB for an array with shape (1000000000000, 3) and data type float64"),
    MemoryError(), MemoryError("two\nlines"),
])
def test_out_of_memory_is_a_one_line_config_error(tmp_path, capsys, monkeypatch, error):
    def build_database(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "build_database", build_database)
    out = tmp_path / "data.csv"
    assert main(["generate", "--out", str(out), "--n", "7", "--splits", "5,1,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out of memory: ") and err.count("\n") == 1
    assert " ".join(str(error).split()) in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--splits", "5,2,x"), ("--splits", "5,2"),
                                         ("--contingencies", "5,six")])
def test_generate_bad_integer_list_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "data.csv"
    assert main(["generate", "--out", str(out), "--n", "7", flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_data_error(dataset, tmp_path):
    # contingency 5 exists but asking for an unlabeled one is a config error;
    # a single-class training split is a data error (exit 3)
    conditions = Conditions(np.arange(8), np.full((8, 3), 60.0), np.full((8, 3), 60.0), np.zeros((8, 6)),
                            np.zeros((8, 11)))
    db = LabeledDatabase(
        conditions=conditions,
        labels={5: np.ones(8, dtype=int)},
        splits=["train"] * 4 + ["calib"] * 2 + ["test"] * 2,
        seed=1,
    )
    path = tmp_path / "single.csv"
    save_database(db, path)
    assert main(["train", "--data", str(path), "--contingency", "5",
                 "--out", str(tmp_path / "m.json")]) == 3
