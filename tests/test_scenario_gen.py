"""Database generation tests: copula sampling, labeling, CSV round-trip."""

import math

import numpy as np
import pytest

from riskgate.errors import GenerationStalled, InvalidCorrelation, MalformedFile
from riskgate.grid import six_bus
from riskgate.scenario_gen import (
    LOAD_CORRELATION,
    SPLIT_NAMES,
    LabeledDatabase,
    OperatingCondition,
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
    for cond in small_db.conditions:
        assert cond.features.shape == (23,)
        assert np.all(cond.loads >= 50.0) and np.all(cond.loads <= 150.0)
        assert abs(cond.generation.sum() - cond.loads.sum()) < 1e-6


def test_features_matrix_is_built_once_and_handed_out_fresh(small_db, tmp_path, monkeypatch):
    db = LabeledDatabase(conditions=small_db.conditions, labels=small_db.labels, splits=small_db.splits, seed=3)
    rows = np.array([cond.features for cond in db.conditions])
    built = []
    features = OperatingCondition.features
    monkeypatch.setattr(OperatingCondition, "features", property(lambda c: built.append(c.id) or features.fget(c)))
    full = db.features_matrix()
    assert np.array_equal(full, rows) and len(built) == len(db)
    full[:] = 0.0  # the caller's copy, not the database's
    assert np.array_equal(db.features_matrix(), rows)
    for split in SPLIT_NAMES:
        assert np.array_equal(db.features_matrix(split), rows[db.split_indices(split)])
    assert len(built) == len(db)
    monkeypatch.undo()
    save_database(db, tmp_path / "dataset.csv")
    assert load_database(tmp_path / "dataset.csv") == db


def test_generation_deterministic():
    a = build_database(six_bus(), n=8, contingencies=[5], seed=21, splits=(4, 2, 2))
    b = build_database(six_bus(), n=8, contingencies=[5], seed=21, splits=(4, 2, 2))
    assert a == b


def test_bad_splits_rejected():
    with pytest.raises(ValueError):
        build_database(six_bus(), n=10, contingencies=[5], seed=0, splits=(5, 3, 3))


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
