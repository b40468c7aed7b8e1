"""Database generation tests: copula sampling, labeling, CSV round-trip."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from riskgate import grid, scenario_gen
from riskgate.errors import GenerationStalled, InvalidCorrelation, MalformedFile
from riskgate.grid import six_bus
from riskgate.scenario_gen import (
    LOAD_CORRELATION,
    SPLIT_NAMES,
    Conditions,
    LabeledDatabase,
    _copula_cholesky,
    _draw_load_triple,
    build_database,
    kumaraswamy_ppf,
    load_database,
    save_database,
)


def sample_loads(n, seed, correlation=LOAD_CORRELATION, dim=3):
    """``n`` correlated load tuples (MW), row ``i`` from the stream ``build_database`` draws first."""
    chol = _copula_cholesky(correlation, dim)
    return np.array([_draw_load_triple(np.random.default_rng([seed, i, 0]), chol, dim) for i in range(n)])


# -- marginal transform ---------------------------------------------------

def test_quantile_endpoints():
    assert kumaraswamy_ppf(0.0) == 0.0
    assert kumaraswamy_ppf(1.0) == 1.0


def test_median_quantile_value():
    # Closed form: (1 - (1 - 0.5)^(1/2.8))^(1/1.6)
    expected = (1.0 - 0.5 ** (1.0 / 2.8)) ** (1.0 / 1.6)
    assert kumaraswamy_ppf(0.5) == pytest.approx(expected, abs=1e-15)
    assert 50.0 + 100.0 * expected == pytest.approx(88.74, abs=0.01)


def test_quantile_inverts_cdf():
    for u in np.linspace(0.01, 0.99, 23):
        x = kumaraswamy_ppf(u)
        cdf = 1.0 - (1.0 - x ** 1.6) ** 2.8
        assert cdf == pytest.approx(u, abs=1e-12)


# -- load sampling -----------------------------------------------------------

def test_loads_within_range_and_shape():
    loads = sample_loads(400, seed=1)
    assert loads.shape == (400, 3)
    assert loads.min() >= 50.0 and loads.max() <= 150.0


def test_sampling_deterministic_and_prefix_stable():
    a = sample_loads(50, seed=42)
    b = sample_loads(80, seed=42)
    assert np.array_equal(a, b[:50])


def test_invalid_correlation_rejected():
    with pytest.raises(InvalidCorrelation):
        sample_loads(10, seed=0, correlation=-0.9)


def test_marginal_ks_distance():
    # Empirical CDF of each load (mapped back to [0,1]) vs the target CDF.
    loads = sample_loads(3500, seed=7)
    u = (loads - 50.0) / 100.0
    for j in range(3):
        x = np.sort(u[:, j])
        cdf = 1.0 - (1.0 - x ** 1.6) ** 2.8
        n = len(x)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        assert ks <= 0.05


def spearman(x, y):
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return np.corrcoef(rx, ry)[0, 1]


def test_pairwise_rank_correlation():
    # Gaussian copula with Pearson rho implies rank correlation
    # (6/pi) * arcsin(rho/2); monotone marginals leave it unchanged.
    loads = sample_loads(3500, seed=11)
    target = 6.0 / math.pi * math.asin(0.75 / 2.0)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert spearman(loads[:, i], loads[:, j]) == pytest.approx(target, abs=0.05)


# -- database build -----------------------------------------------------------

@pytest.fixture(scope="module")
def small_db():
    return build_database(six_bus(), n=12, contingencies=[5, 6], seed=3, splits=(6, 3, 3))


def test_database_structure(small_db):
    assert len(small_db) == 12
    assert set(small_db.labels) == {5, 6}
    assert all(len(v) == 12 for v in small_db.labels.values())
    assert small_db.splits == ["train"] * 6 + ["calib"] * 3 + ["test"] * 3
    pi0, pi1 = small_db.priors(5)
    assert pi0 + pi1 == pytest.approx(1.0)


def test_condition_invariants(small_db):
    c = small_db.conditions
    assert small_db.features_matrix().shape == (12, 23)
    assert np.all(c.loads >= 50.0) and np.all(c.loads <= 150.0)
    assert np.all(np.abs(c.generation.sum(axis=1) - c.loads.sum(axis=1)) < 1e-6)


def test_features_matrix_is_built_once_and_handed_out_fresh(small_db, tmp_path, monkeypatch):
    db = LabeledDatabase(conditions=small_db.conditions, labels=small_db.labels, splits=small_db.splits, seed=3)
    c = db.conditions
    rows = np.array([np.concatenate([c.loads[i], c.generation[i], c.angles[i], c.flows[i]]) for i in range(len(db))])
    built = []
    hstack = np.hstack
    monkeypatch.setattr(scenario_gen.np, "hstack", lambda arrays: built.append(len(arrays)) or hstack(arrays))
    full = db.features_matrix()
    assert np.array_equal(full, rows) and built == [4]  # one stack of the four feature groups
    full[:] = 0.0  # the caller's copy, not the database's
    assert np.array_equal(db.features_matrix(), rows)
    for split in SPLIT_NAMES:
        assert np.array_equal(db.features_matrix(split), rows[db.split_indices(split)])
    assert built == [4]
    monkeypatch.undo()
    save_database(db, tmp_path / "dataset.csv")
    assert load_database(tmp_path / "dataset.csv") == db


def test_a_list_of_single_conditions_stacks_into_the_table(small_db, tmp_path):
    # bench/workloads.py builds its triage batches from single conditions
    idx = np.array([0, 4, 5, 11])
    parts = dict(labels={c: small_db.labels[c][idx] for c in small_db.labels}, splits=["test"] * len(idx), seed=3)
    from_rows = LabeledDatabase(conditions=[small_db.conditions[i] for i in idx], **parts)
    assert from_rows == LabeledDatabase(conditions=small_db.conditions[idx], **parts)
    assert np.array_equal(from_rows.features_matrix(), small_db.features_matrix()[idx])
    row = small_db.conditions[5]
    assert row.id == 5 and row.loads.shape == (3,) and np.array_equal(row.flows, small_db.conditions.flows[5])

    save_database(small_db, tmp_path / "dataset.csv")
    for table in (small_db.conditions, load_database(tmp_path / "dataset.csv").conditions, from_rows.conditions, row):
        for name in ("id", "loads", "generation", "angles", "flows"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[...] = 0


def test_generation_deterministic():
    a = build_database(six_bus(), n=8, contingencies=[5], seed=21, splits=(4, 2, 2))
    b = build_database(six_bus(), n=8, contingencies=[5], seed=21, splits=(4, 2, 2))
    assert a == b


def test_bad_splits_rejected():
    with pytest.raises(ValueError):
        build_database(six_bus(), n=10, contingencies=[5], seed=0, splits=(5, 3, 3))


@pytest.mark.parametrize("n, splits", [(3, (5, -1, -1)), (-3, (-3, 0, 0))])
def test_negative_sizes_rejected_before_sampling(monkeypatch, n, splits):
    def solve_dcopf(*args):
        raise AssertionError("a condition was dispatched")

    monkeypatch.setattr(grid, "solve_dcopf", solve_dcopf)
    with pytest.raises(ValueError, match=rf"must be >= 0, got n={n} and splits \({splits[0]}, "):
        build_database(six_bus(), n=n, contingencies=[5], seed=0, splits=splits)


def test_generation_stalls_on_hopeless_network():
    import dataclasses

    g = six_bus()
    tight = dataclasses.replace(g.lines[1], limit=1.0)
    bad = type(g)(
        buses=g.buses,
        lines=(g.lines[0], tight) + g.lines[2:],
        generators=g.generators,
        base_mva=g.base_mva,
    )
    with pytest.raises(GenerationStalled):
        build_database(bad, n=30, contingencies=[5], seed=1, splits=(20, 5, 5))


# -- dataset.csv ----------------------------------------------------------

def test_csv_roundtrip(tmp_path, small_db):
    path = tmp_path / "dataset.csv"
    save_database(small_db, path)
    loaded = load_database(path)
    assert loaded == small_db
    assert loaded.seed == small_db.seed


def test_csv_header_format(tmp_path, small_db):
    path = tmp_path / "dataset.csv"
    save_database(small_db, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=3"
    header = lines[1].split(",")
    assert header[0] == "id"
    assert header[1:4] == ["load1", "load2", "load3"]
    assert header[4:7] == ["gen1", "gen2", "gen3"]
    assert header[7] == "angle1" and header[12] == "angle6"
    assert header[13] == "flow1" and header[23] == "flow11"
    assert header[24] == "split"
    assert header[25:] == ["label_c5", "label_c6"]


def test_missing_label_column_rejected(tmp_path, small_db):
    path = tmp_path / "dataset.csv"
    save_database(small_db, path)
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    body = [row.rsplit(",", 1)[0] for row in lines[2:]]
    path.write_text("\n".join([lines[0], ",".join(header[:-1])] + body) + "\n")
    loaded = load_database(path)  # one label column is still a valid schema
    assert set(loaded.labels) == {5}

    path.write_text("\n".join([lines[0], ",".join(header[:-2])] + [r.rsplit(",", 1)[0] for r in body]) + "\n")
    with pytest.raises(MalformedFile):
        load_database(path)


def test_bad_label_value_rejected(tmp_path, small_db):
    path = tmp_path / "dataset.csv"
    save_database(small_db, path)
    text = path.read_text().splitlines()
    parts = text[2].split(",")
    parts[-1] = "2"
    text[2] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MalformedFile) as err:
        load_database(path)
    assert err.value.line == 3


def test_wrong_column_count_reports_line(tmp_path, small_db):
    path = tmp_path / "dataset.csv"
    save_database(small_db, path)
    text = path.read_text().splitlines()
    text[4] = text[4] + ",0"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MalformedFile) as err:
        load_database(path)
    assert err.value.line == 5


# The writer as it stood while the pool was a list of condition objects,
# kept verbatim but for ``cond.features``, spelled out as the concatenation
# that property made: the current writer must reproduce its bytes.
def reference_save_database(db: LabeledDatabase, path) -> None:
    if not db.conditions:
        raise ValueError("a dataset needs at least one condition to take its feature widths from")
    first = db.conditions[0]
    widths = [len(first.loads), len(first.generation), len(first.angles), len(first.flows)]
    cons = sorted(db.labels)
    lines = []
    if db.seed is not None:
        lines.append(f"# seed={db.seed}")
    lines.append(",".join(scenario_gen._header(widths) + [f"label_c{c}" for c in cons]))
    for i, cond in enumerate(db.conditions):
        row = [str(cond.id)]
        row += [f"{v:.17g}" for v in np.concatenate([cond.loads, cond.generation, cond.angles, cond.flows])]
        row.append(db.splits[i])
        row += [str(int(db.labels[c][i])) for c in cons]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, 3.0, -7.0,
                  1e16, 2.0 ** 53 + 2, 0.1, 1 / 3]


@st.composite
def databases(draw):
    n = draw(st.integers(1, 50))
    widths = draw(st.lists(st.integers(0, 6), min_size=4, max_size=4))
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
    values = np.array(draw(st.lists(floats, min_size=n * sum(widths), max_size=n * sum(widths))),
                      dtype=float).reshape(n, sum(widths))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    cons = draw(st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return LabeledDatabase(
        conditions=Conditions(np.array(ids), *np.split(values, np.cumsum(widths)[:-1], axis=1)),
        labels={c: np.array(draw(bits)) for c in cons},
        splits=draw(st.lists(st.sampled_from(SPLIT_NAMES), min_size=n, max_size=n)),
        seed=draw(st.none() | st.integers(-2**40, 2**40)),
    )


@given(databases())
@example(LabeledDatabase(Conditions(np.array([7]), np.array([[-0.0, 5e-324, -5e-324]]), np.array([[1e300, 3.0]]),
                                    np.zeros((1, 0)), np.array([[2.0 ** 53 + 2]])),
                         {2: np.array([1]), 1: np.array([0])}, ["calib"], 0))
def test_save_database_matches_the_reference_writer(db):
    with tempfile.TemporaryDirectory() as tmp:
        new, reference = Path(tmp) / "new.csv", Path(tmp) / "reference.csv"
        save_database(db, new)
        reference_save_database(db, reference)
        assert new.read_bytes() == reference.read_bytes()
        assert load_database(new) == db
