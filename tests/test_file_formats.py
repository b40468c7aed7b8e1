"""The file contract: the field readers, the exit code of every error class, file round trips and the writer.

Each round-trip property checks that the strict readers accept every
file riskgate writes; the two reference properties check that the
dataset.csv reader and the triage.csv writer match the line-at-a-time
code they replace; and the writer's property checks that `write_texts`
writes all of its files or none.  CI reruns all of them with more examples under
``--hypothesis-profile reference`` (tests/conftest.py).
"""

import errno
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskgate import errors
from riskgate.calibration import CalibratedEnsemble, PlattParams
from riskgate.errors import ConfigError, DataError, DegenerateData, MalformedFile, integer, number
from riskgate.grid import grid_from_dict, grid_to_dict
from riskgate.learner import MODES, load_model, save_model, train_adaboost
from riskgate.risk_engine import ContingencyParams, ScenarioTable, TriageReport, load_contingency_params, triage_csv
from riskgate.scenario_gen import (
    _FEATURE_GROUPS,
    SPLIT_NAMES,
    Conditions,
    LabeledDatabase,
    _header,
    load_database,
    save_database,
)

from test_grid import connected_grids
from test_scenario_gen import databases

ROUND_TRIP = settings(max_examples=max(100, settings.default.max_examples), deadline=None)


def test_every_error_class_maps_to_an_exit_code():
    # cli.main maps ConfigError to exit 2 and DataError to exit 3; any other class would print a traceback
    classes = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]
    assert classes
    for c in classes:
        assert issubclass(c, (ConfigError, DataError)), c


@pytest.mark.parametrize("value", [0, -3, 2**70, np.int64(7), np.uint8(200)])
def test_integer_accepts_integers(value):
    got = integer(value, "x")
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [True, False, 1.0, 6.7, "6", None, [1], np.float64(2.0)])
def test_integer_refuses_everything_else(value):
    with pytest.raises(TypeError, match=f"^{re.escape(f'x must be an integer, got {value!r}')}$"):
        integer(value, "x")


@pytest.mark.parametrize("value", [0, -3, 1.5, 1e308, np.float32(0.25), np.int64(4)])
def test_number_accepts_finite_reals(value):
    got = number(value, "x")
    assert type(got) is float and got == float(value)


@pytest.mark.parametrize("value", [True, False, "1.5", "nan", None, [1.0]])
def test_number_refuses_non_numbers_by_type(value):
    with pytest.raises(TypeError, match=r"^x must be a number, got "):
        number(value, "x")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_number_refuses_non_finite_values(value):
    with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
        number(value, "x")


def test_number_bounds_are_inclusive():
    assert number(0, "x", lo=0.0, hi=1.0) == 0.0 and number(1, "x", lo=0.0, hi=1.0) == 1.0
    for value in (-1e-300, 1.0000000000000002):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got "):
            number(value, "x", lo=0.0, hi=1.0)


@pytest.mark.reference
@ROUND_TRIP
@given(connected_grids())
def test_network_round_trips(case):
    grid, _ = case
    assert grid_from_dict(json.loads(json.dumps(grid_to_dict(grid)))) == grid


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def calibrated_models(draw):
    """A model trained on a small random matrix, in either mode, with or without sigmoid parameters."""
    n = draw(st.integers(2, 20))
    values = st.floats(-1e6, 1e6) | st.integers(-2, 2).map(float)  # repeats make ties and constant columns
    x = draw(arrays(float, (n, draw(st.integers(1, 4))), elements=values))
    y = draw(arrays(int, n, elements=st.integers(0, 1)))
    assume(0 < y.sum() < n)
    try:
        ensemble = train_adaboost(x, y, rounds=draw(st.integers(1, 4)), mode=draw(st.sampled_from(MODES)),
                                  k_folds=2)
    except DegenerateData:  # every row alike
        assume(False)
    params = draw(st.none() | st.builds(PlattParams, a=finite, b=finite))
    return CalibratedEnsemble(ensemble, draw(st.integers(-(2**63), 2**63)), params)


@pytest.mark.reference
@ROUND_TRIP
@given(calibrated_models())
def test_model_round_trips(tmp_path_factory, model):
    path = tmp_path_factory.getbasetemp() / "round_trip_model.json"
    save_model(path, model.ensemble, model.contingency, model.params)
    loaded = load_model(path)
    assert loaded.ensemble == model.ensemble and loaded.contingency == model.contingency
    if model.params is None:
        assert loaded.params is None
    else:
        assert (loaded.params.a, loaded.params.b) == (model.params.a, model.params.b)


inside_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
positive = st.integers(1, 10**9) | st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def contingency_entries(draw):
    """``(entries, expected)``: contingencies.json entries of both forms and the parameters they describe."""
    lines = draw(st.lists(st.integers(-(2**63), 2**63), min_size=1, max_size=5, unique=True))
    entries, expected = [], {}
    for line in lines:
        p = draw(inside_unit)
        if draw(st.booleans()):
            ratio = draw(inside_unit)
            entries.append({"line_id": line, "p_c": p, "cost_ratio": ratio})
            expected[line] = ContingencyParams.from_cost_ratio(line, p, ratio)
        else:
            miss, false_alarm = draw(positive), draw(positive)
            entries.append({"line_id": line, "p_c": p, "c_f1": miss, "c_f0": false_alarm})
            expected[line] = ContingencyParams(line, p, miss, false_alarm)
    return entries, expected


@pytest.mark.reference
@ROUND_TRIP
@given(contingency_entries())
def test_contingencies_round_trip(tmp_path_factory, case):
    entries, expected = case
    path = tmp_path_factory.getbasetemp() / "round_trip_contingencies.json"
    path.write_text(json.dumps(entries, indent=2))
    assert load_contingency_params(path) == expected


# -- dataset.csv: what the reader accepts -------------------------------------

PINNED = LabeledDatabase(Conditions(np.array([3, 4]), np.array([[1.5, 2.0], [-0.0, 7.25]]), np.array([[9.0], [1e300]]),
                                    np.zeros((2, 0)), np.array([[0.1], [5e-324]])),
                         {5: np.array([1, 0]), 2: np.array([0, 1])}, ["train", "test"], 11)


@pytest.mark.parametrize("edit, row, column, value", [
    (lambda text: text.replace("\n", "\r\n"), None, None, None),
    (lambda text: text.replace("\n3,", "\n\n  \n3,").replace("\n4,", "\n\t\n4,") + "\n \n", None, None, None),
    (lambda text: text.replace("\n4,", "\n 7,"), 1, "id", int(" 7")),
    (lambda text: text.replace("\n4,-0,", "\n4,1_0.5,"), 1, "load1", float("1_0.5")),
    (lambda text: text.replace(",9,", ",١٢.٥,"), 0, "gen1", float("١٢.٥")),
], ids=["crlf", "blank-lines", "spaced-id", "underscore-feature", "arabic-indic-feature"])
def test_load_database_accepts_what_int_and_float_accept(tmp_path, edit, row, column, value):
    path = tmp_path / "dataset.csv"
    save_database(PINNED, path)
    path.write_bytes(edit(path.read_text()).encode())
    loaded = load_database(path)
    ids, features = PINNED.conditions.id.copy(), PINNED.features_matrix()
    if column == "id":
        ids[row] = value
    elif column is not None:
        features[row, ["load1", "load2", "gen1"].index(column)] = value
    assert loaded.conditions.id.tolist() == ids.tolist()
    assert loaded.features_matrix().tobytes() == features.tobytes()
    assert loaded.splits == PINNED.splits and loaded.seed == 11
    assert {c: v.tolist() for c, v in loaded.labels.items()} == {c: v.tolist() for c, v in PINNED.labels.items()}


def test_load_database_refuses_a_spaced_label_at_its_line(tmp_path):
    path = tmp_path / "dataset.csv"
    save_database(PINNED, path)
    path.write_text(path.read_text().replace(",test,1,0\n", ",test, 1,0\n"))  # label_c2, then label_c5
    with pytest.raises(MalformedFile, match=r"^line 4: label must be 0 or 1, got ' 1'$"):
        load_database(path)


# -- dataset.csv: the reader against the line-at-a-time one it replaced --------

# The reader as it stood before it parsed the data block a column at a time,
# kept verbatim: the current reader must accept and refuse the same files,
# with the same values, exception, message and line.
def line_scan_load_database(path) -> LabeledDatabase:
    raw = Path(path).read_text().splitlines()
    seed = None
    lineno = 0
    if raw and raw[0].startswith("#"):
        lineno = 1
        meta = raw[0].lstrip("# ").strip()
        if meta.startswith("seed="):
            try:
                seed = int(meta[5:])
            except ValueError as exc:
                raise MalformedFile("unparseable seed metadata", line=1) from exc
        raw = raw[1:]
    if not raw:
        raise MalformedFile("empty dataset file", line=1)

    header = raw[0].split(",")
    lineno += 1
    widths = [sum(col.rstrip("0123456789") == group for col in header) for group in _FEATURE_GROUPS]
    expected_fixed = _header(widths)
    n_fixed = len(expected_fixed)
    if header[:n_fixed] != expected_fixed:
        raise MalformedFile("unexpected header columns (missing feature or split column?)", line=lineno)
    cons = []
    for col in header[n_fixed:]:
        if not col.startswith("label_c"):
            raise MalformedFile(f"unexpected trailing column {col!r}", line=lineno)
        try:
            cons.append(int(col[len("label_c"):]))
        except ValueError as exc:
            raise MalformedFile(f"bad label column {col!r}", line=lineno) from exc
        if cons[-1] in cons[:-1]:
            raise MalformedFile(f"repeated label column {col!r}", line=lineno)
    if not cons:
        raise MalformedFile("no label columns", line=lineno)

    ids, linenos, splits = [], [], []
    values = np.empty((len(raw) - 1, n_fixed - 2))  # rows left over by blank lines are cut below
    labels = {c: [] for c in cons}
    for row_text in raw[1:]:
        lineno += 1
        if not row_text.strip():
            continue
        parts = row_text.split(",")
        if len(parts) != len(header):
            raise MalformedFile(f"expected {len(header)} columns, got {len(parts)}", line=lineno)
        try:
            cid = int(parts[0])
            values[len(ids)] = [float(v) for v in parts[1: n_fixed - 1]]
        except ValueError as exc:
            raise MalformedFile(f"unparseable numeric field: {exc}", line=lineno) from exc
        ids.append(cid)
        linenos.append(lineno)
        split = parts[n_fixed - 1]
        if split not in SPLIT_NAMES:
            raise MalformedFile(f"unknown split tag {split!r}", line=lineno)
        splits.append(split)
        for c, text in zip(cons, parts[n_fixed:]):
            if text not in ("0", "1"):
                raise MalformedFile(f"label must be 0 or 1, got {text!r}", line=lineno)
            labels[c].append(int(text))

    values = values[:len(ids)]
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise MalformedFile(f"feature {header[1 + j]} is {values[i, j]}, not a finite number", line=linenos[i])
    return LabeledDatabase(
        conditions=Conditions(np.array(ids, dtype=int), *np.split(values, np.cumsum(widths)[:-1], axis=1)),
        labels={c: np.array(v, dtype=int) for c, v in labels.items()},
        splits=splits,
        seed=seed,
    )


# fields a mutation may put in place of another: what int and float accept beyond the writer's output, and
# what they refuse
FIELDS = ["", " ", "0", "1", " 1", "1 ", "2", "-1", "+3", "1_0", "1__0", "_1", "0x1f", "1e5", "1.5e-3", "inf", "-Inf",
          "nan", "NaN", "infinity", "1,0", "١٢", "٣.٥", " 1 ", "\t7", "x", "1e400",
          "-0", "5e-324", "99999999999999999999", "-99999999999999999999", "train", "calib", "test", "test ",
          "Test", "seed=4", "#", "label_c1", "é"]
LINE_ENDS = ["\r\n", "\r", "\n\n", "\n \t\n", "\x0c", "\u2028", " "]  # " " joins two lines


@st.composite
def dataset_texts(draw):
    """The text of a dataset.csv as `save_database` writes it, then (maybe) mutated field by field or line by line."""
    db = draw(databases(max_rows=8))  # mutations reach a small file's every line
    with tempfile.TemporaryDirectory() as tmp:
        save_database(db, Path(tmp) / "dataset.csv")
        lines = (Path(tmp) / "dataset.csv").read_text().splitlines()
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "pad", "drop-field", "add-field", "drop-line", "copy-line", "end"]))
        parts = lines[k].split(",")
        j = draw(st.integers(0, len(parts) - 1))
        if kind == "field":
            parts[j] = draw(st.sampled_from(FIELDS) | st.text(max_size=4))
        elif kind == "pad":  # what int and float strip or skip, around or inside a field
            pad = st.sampled_from(["", " ", "\t", "\u2007", "_", "0", "+"])
            parts[j] = draw(pad) + parts[j] + draw(pad)
        elif kind == "drop-field":
            del parts[j]
        elif kind == "add-field":
            parts.insert(j, draw(st.sampled_from(FIELDS)))
        if kind == "drop-line":
            del lines[k], ends[k]
        elif kind == "copy-line":
            lines.insert(k, lines[k])
            ends.insert(k, ends[k])
        elif kind == "end":
            ends[k] = draw(st.sampled_from(LINE_ENDS))
        else:
            lines[k] = ",".join(parts)
        if not lines:
            break
    return "".join(line + end for line, end in zip(lines, ends))


def outcome(read, path):
    """What ``read(path)`` gives: the database's bits, or the exception's type, message and line."""
    try:
        db = read(path)
    except Exception as exc:  # whatever the reference raises is what the reader must raise
        return type(exc), str(exc), getattr(exc, "line", None)
    c = db.conditions
    return (c.id.dtype, c.id.tolist(), [(a.shape, a.tobytes()) for a in (c.loads, c.generation, c.angles, c.flows)],
            db.splits, {k: (v.dtype, v.tolist()) for k, v in db.labels.items()}, db.seed)


PINNED_TEXT = ("# seed=11\nid,load1,load2,gen1,flow1,split,label_c2,label_c5\n"
               "3,1.5,2,9,0.10000000000000001,train,0,1\n4,-0,7.25,1e300,5e-324,test,1,0\n")


@pytest.mark.reference
@ROUND_TRIP
@given(dataset_texts())
@example(PINNED_TEXT)
@example(PINNED_TEXT.replace("\n4,-0,", "\n\n \n4,nan,"))  # the non-finite feature's line counts blank lines
@example(PINNED_TEXT.replace(",2,9,", ",-inf,9,").replace("4,-0,", "4,-0,x"))  # a bad field before a non-finite one
@example(PINNED_TEXT.replace("\n4,", "\n99999999999999999999,"))  # past int64: MalformedFile naming its line
@example(PINNED_TEXT.replace("\n4,", "\n4.0,"))
@example(PINNED_TEXT.replace("\n", "\r\n").replace("1.5", "1_5.0"))
@example(PINNED_TEXT.replace(",train,0,1", ",train,0,1,").replace(",test,1,0", ",test,1"))  # one column moved
@example(PINNED_TEXT.replace("\n4,", ",4,").replace(",test,1,0", ",test,1\n0"))  # two rows' fields, one per field
@example(PINNED_TEXT.replace(",train,0,1", ",train, 0,1"))
@example(PINNED_TEXT.replace(",train,0,1", ", train,0,1"))
def test_load_database_matches_line_scan_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "reference_dataset.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(line_scan_load_database, path)
    if expected[0] is OverflowError:  # where the reference fails on an id past int64, the reader names its line
        lines = Path(path).read_text().splitlines()
        first = 3 if lines[0].startswith("#") else 2  # the first data line, after the seed line and the header
        k, cid = next((k, int(row.split(",")[0])) for k, row in enumerate(lines[first - 1:], start=first)
                      if row.strip() and not -2**63 <= int(row.split(",")[0]) < 2**63)
        expected = MalformedFile, f"line {k}: id {cid} does not fit a signed 64-bit integer", k
    assert outcome(load_database, path) == expected


# -- triage.csv: the writer against the row-template one it replaced ----------

_ROW_TEMPLATE = "%d,%d:%d,%d,%d,%.17g,%d,%.17g,%d,%s\n".__mod__


# The writer as it stood before it formatted each distinct value once, kept
# verbatim: the current writer must reproduce its bytes.
def row_template_triage_csv(report: TriageReport, path) -> None:
    table = report.scenarios
    n, n_high = len(table), report.n_high
    cond, cont = table.condition.tolist(), table.contingency.tolist()
    rows = zip(range(n), cond, cont, cond, cont, table.probability_estimate.tolist(),
               table.predicted_label.tolist(), table.risk.tolist(),
               [1] * n_high + [0] * (n - n_high), report.oracle_labels + [""] * (n - n_high))
    Path(path).write_text("rank,scenario,condition,contingency,p_hat,label_pred,risk,in_high_set,oracle_label\n"
                          + "".join(map(_ROW_TEMPLATE, rows)))


TABLE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, 0.1, 1 / 3,
                float("inf"), float("nan"), -float("nan"), float.fromhex("0x1.8p+1023")]


@st.composite
def triage_reports(draw):
    """A triage report over a random table whose float columns repeat a few values, special ones among them."""
    n = draw(st.integers(0, 40))
    pool = draw(st.lists(st.sampled_from(TABLE_FLOATS) | st.floats(), min_size=1, max_size=6))
    floats = st.lists(st.sampled_from(pool) | st.floats(), min_size=n, max_size=n)
    ints = st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(0, 3), min_size=n, max_size=n)
    n_high = draw(st.integers(0, n))
    table = ScenarioTable(
        condition=np.array(draw(ints), dtype=np.int64), contingency=np.array(draw(ints), dtype=np.int64),
        scenario_probability=np.zeros(n), probability_estimate=np.array(draw(floats), dtype=float),
        predicted_label=np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64),
        risk=np.array(draw(floats), dtype=float))
    oracle = draw(st.lists(st.integers(0, 1), min_size=n_high, max_size=n_high))
    return TriageReport(table, n_high, n_high / max(n, 1), oracle, 0.0, 0.0, 0.0)


@pytest.mark.reference
@ROUND_TRIP
@given(triage_reports())
def test_triage_csv_matches_row_template_reference(tmp_path_factory, report):
    new, reference = (tmp_path_factory.getbasetemp() / name for name in ("new_triage.csv", "reference_triage.csv"))
    triage_csv(report, new)
    row_template_triage_csv(report, reference)
    assert new.read_bytes() == reference.read_bytes()


# -- the output writer ---------------------------------------------------------

@st.composite
def text_writes(draw):
    """``(targets, failing)`` for one `write_texts` call: ``(kind, old, new)`` per target, and the write that fails.

    A target is a new file, an existing one with its own text and mode
    (``old``, None for a new file), or a symbolic link to either.
    ``failing`` is the index of the target whose write raises, or None.
    """
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["new", "existing", "link to new", "link to existing"]))
        old = draw(st.tuples(st.text(max_size=30), st.sampled_from([0o600, 0o640, 0o644, 0o700, 0o755])))
        targets.append((kind, old if kind.endswith("existing") else None, draw(st.text(max_size=30))))
    return targets, draw(st.none() | st.integers(0, len(targets) - 1))


class _FailingWrite:
    """A file that writes half of what it is given, then raises ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.reference
@ROUND_TRIP
@given(text_writes())
def test_write_texts_writes_every_file_or_none(case):
    targets, failing = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths, files = [], []  # the path written, and the file it names
        for k, (kind, old, _) in enumerate(targets):
            paths.append(tmp / f"t{k}")
            files.append(tmp / f"f{k}" if kind.startswith("link") else paths[-1])
            if kind.startswith("link"):
                paths[-1].symlink_to(files[-1].name)
            if old is not None:
                files[-1].write_text(old[0], encoding="utf-8")
                files[-1].chmod(old[1])
        opened = []

        def open_failing(file, *args, **kwargs):
            opened.append(file)
            fh = open(file, *args, **kwargs)
            return _FailingWrite(fh) if len(opened) - 1 == failing else fh

        texts = {str(path): new for path, (_, _, new) in zip(paths, targets)}
        with mock.patch.object(errors, "open", open_failing, create=True):
            if failing is None:
                errors.write_texts(texts)
            else:
                with pytest.raises(OSError, match=f"No space left on device: '{re.escape(str(paths[failing]))}'$"):
                    errors.write_texts(texts)
        expected = set()
        for path, file, (kind, old, new) in zip(paths, files, targets):
            if kind.startswith("link"):
                assert path.is_symlink()
                expected.add(path.name)
            if failing is None or old is not None:
                assert file.read_bytes() == (new if failing is None else old[0]).encode()
                expected.add(file.name)
            if old is not None:
                assert file.stat().st_mode & 0o7777 == old[1]
        assert {p.name for p in tmp.iterdir()} == expected  # no new file on failure, and no temporary file


def test_write_texts_through_two_paths_to_one_file_writes_the_last_text(tmp_path):
    (tmp_path / "link").symlink_to("file")
    errors.write_texts({tmp_path / "file": "first", tmp_path / "link": "last"})
    assert (tmp_path / "file").read_text() == "last" and (tmp_path / "link").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "link"]
