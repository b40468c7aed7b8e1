"""Database generation tests: copula sampling, labeling, CSV round-trip."""

import dataclasses
import hashlib
import inspect
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr

from riskgate import grid, grid as grid_mod, scenario_gen, simplex
from riskgate.errors import ConfigError, DataError, MalformedFile
from riskgate.grid import six_bus
from riskgate.simplex import LPResult
from riskgate.scenario_gen import (
    LOAD_BUSES,
    LOAD_CORRELATION,
    LOAD_RANGE,
    SPLIT_NAMES,
    Conditions,
    LabeledDatabase,
    _copula_cholesky,
    _draw_loads,
    _ndtr,
    build_database,
    bus_loads,
    kumaraswamy_ppf,
    load_database,
    save_database,
)
from test_grid import fresh_six_bus


def sample_loads(n, seed, correlation=LOAD_CORRELATION, dim=3):
    """``n`` correlated load tuples (MW), row ``i`` from the stream ``build_database`` draws first."""
    return _draw_loads(seed, [(i, 0) for i in range(n)], _copula_cholesky(correlation, dim))


def reference_draw_loads(seed, draws, chol):
    """`_draw_loads` with each row's normals drawn from a new ``np.random.default_rng([seed, index, attempt])``."""
    z = np.array([chol @ np.random.default_rng([seed, i, attempt]).standard_normal(len(chol))
                  for i, attempt in draws]).reshape(-1, len(chol))
    low, high = LOAD_RANGE
    return low + (high - low) * kumaraswamy_ppf(ndtr(z))


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


# -- normal CDF ---------------------------------------------------------------

def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns: tells -0.0 from 0.0 and one NaN from another."""
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)),
       st.integers(0, 2**32 - 1), st.integers(0, 700))
def test_ndtr_matches_scipy_bit_for_bit(wide, seed, n_normal):
    """Any float64, NaN and the infinities included, and standard-normal draws such as the loads take."""
    normal = np.random.default_rng(seed).standard_normal(n_normal)
    for a in (wide, normal, np.concatenate([wide, normal]).reshape(-1, 1)):
        assert same_bits(_ndtr(a), ndtr(a))


SQRT2 = math.sqrt(2.0)


# the branch points (|a| = sqrt(2) between erf and erfc, 8·sqrt(2) between erfc's two tables), the signed
# zeros and subnormals, the infinities, NaN, the largest floats and the span where erfc underflows to 0
@pytest.mark.parametrize("a", [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, SQRT2, -SQRT2, np.nextafter(SQRT2, 0.0),
                               np.nextafter(-SQRT2, 0.0), 8 * SQRT2, -8 * SQRT2, np.nextafter(8 * SQRT2, 0.0),
                               1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan, 37.5, -37.5, -37.7, -38.5])
def test_ndtr_matches_scipy_at_fixed_values(a):
    assert same_bits(_ndtr(np.array([a])), ndtr(np.array([a])))


def test_ndtr_matches_scipy_across_the_underflow_point():
    a = np.linspace(-38.5, -37.5, 10001)
    assert same_bits(_ndtr(a), ndtr(a))
    assert _ndtr(a)[0] == 0.0 and _ndtr(a)[-1] > 0.0 and same_bits(_ndtr(-a), ndtr(-a))


# -- load sampling -----------------------------------------------------------

def test_loads_within_range_and_shape():
    loads = sample_loads(400, seed=1)
    assert loads.shape == (400, 3)
    assert loads.min() >= 50.0 and loads.max() <= 150.0


def test_sampling_deterministic_and_prefix_stable():
    a = sample_loads(50, seed=42)
    b = sample_loads(80, seed=42)
    assert np.array_equal(a, b[:50])


@pytest.mark.reference
@settings(deadline=None)
@given(st.integers(0, 2**80 - 1), st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 999)), max_size=8))
@example(0, [(0, 0), (1, 0)])
@example(2**32 - 1, [(2**32 - 1, 999)])
@example(2**32, [(5, 1), (2**32 - 1, 0)])
@example(2**64 + 5, [(0, 3), (2**32 - 1, 2)])
@example(7, [])
def test_draw_loads_matches_numpy_default_rng(seed, draws):
    """Each stream's state words are ``SeedSequence``'s and its loads those of numpy's ``default_rng``, bit for bit.

    `reference_build_database` draws through `_draw_loads` too, so this
    property alone ties the pool's streams to numpy's.
    """
    chol = _copula_cholesky(LOAD_CORRELATION, len(LOAD_BUSES))
    words = scenario_gen._stream_words(seed, draws)
    assert words.dtype == np.uint64 and words.shape == (len(draws), 4)
    for (i, attempt), row in zip(draws, words):
        assert np.array_equal(row, np.random.SeedSequence([seed, i, attempt]).generate_state(4, np.uint64))
    loads = _draw_loads(seed, draws, chol)
    assert loads.shape == (len(draws), 3)
    assert loads.tobytes() == reference_draw_loads(seed, draws, chol).tobytes()


def test_invalid_correlation_rejected():
    with pytest.raises(ConfigError, match="correlation -0.9 is not positive definite"):
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


def test_a_pool_of_2_32_conditions_rejected_before_allocating(monkeypatch):
    def empty(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(scenario_gen.np, "empty", empty)
    with pytest.raises(ValueError, match=r"^n must be < 2\*\*32 = 4294967296, got 4294967296$"):
        build_database(six_bus(), n=2**32, contingencies=[5], seed=0, splits=(2**32, 0, 0))


@pytest.mark.parametrize("n, splits", [(3, (5, -1, -1)), (-3, (-3, 0, 0))])
def test_negative_sizes_rejected_before_sampling(monkeypatch, n, splits):
    def solve_dcopf(*args):
        raise AssertionError("a condition was dispatched")

    monkeypatch.setattr(grid, "solve_dcopf", solve_dcopf)
    with pytest.raises(ValueError, match=rf"must be >= 0, got n={n} and splits \({splits[0]}, "):
        build_database(six_bus(), n=n, contingencies=[5], seed=0, splits=splits)


def test_negative_seed_rejected_before_sampling(monkeypatch):
    def solve_dcopf(*args):
        raise AssertionError("a condition was dispatched")

    monkeypatch.setattr(grid, "solve_dcopf", solve_dcopf)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        build_database(six_bus(), n=3, contingencies=[5], seed=-1, splits=(3, 0, 0))


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
    # condition 0 fails its first 50 attempts, where a one-at-a-time build stops
    with pytest.raises(DataError, match="^50/50 sampled conditions are pre-fault infeasible$"):
        build_database(bad, n=30, contingencies=[5], seed=1, splits=(20, 5, 5))


def test_a_build_that_stalls_draws_one_condition_a_round_after_the_first(monkeypatch):
    """With more rejects than half the counted attempts, rounds draw only the condition the replay waits on."""
    g = six_bus()
    rows = []
    solve_dcopf = grid.solve_dcopf
    monkeypatch.setattr(grid, "solve_dcopf", lambda net, loads: rows.append(len(loads)) or solve_dcopf(net, loads))
    hopeless = dataclasses.replace(g, lines=(g.lines[0], dataclasses.replace(g.lines[1], limit=1.0)) + g.lines[2:])
    with pytest.raises(DataError, match="^50/50 sampled"):
        build_database(hopeless, n=300, contingencies=[5], seed=1, splits=(300, 0, 0))
    assert rows == [300] + [1] * 49


ALL_LINES = [ln.id for ln in six_bus().lines]


@pytest.mark.parametrize("seed", [1, 2, 3, 101])
def test_a_pool_begins_with_the_smaller_pool_of_the_same_seed(seed):
    full = build_database(six_bus(), n=40, contingencies=ALL_LINES, seed=seed, splits=(40, 0, 0))
    for k in (0, 1, 7):
        part = build_database(six_bus(), n=k, contingencies=ALL_LINES, seed=seed, splits=(k, 0, 0))
        assert part.features_matrix().shape == (k, 23)
        assert np.array_equal(part.features_matrix(), full.features_matrix()[:k])
        assert all(np.array_equal(part.labels[c], full.labels[c][:k]) for c in ALL_LINES)


def test_the_build_solves_single_lps_and_records_only_inside_them(monkeypatch):
    """What bench/tracing.py counts: ``grid.solve_lp`` calls, with 1-D right-hand sides; no recording outside them.

    Each call records at least one path segment, so the batches hand
    `solve_lp` only members on paths the memo lacks, and a second build
    of the same pool on the same network makes no call.
    """
    solve_lp, record = grid.solve_lp, simplex._Tableau.record
    signature = inspect.signature(simplex.solve_lp)
    depth, posed, recorded = [0], [], []

    def counting_solve_lp(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        posed.append((np.ndim(bound.get("b_eq")), np.ndim(bound.get("b_ub"))))
        recorded.append(0)
        depth[0] += 1
        try:
            return solve_lp(*args, **kwargs)
        finally:
            depth[0] -= 1

    def checked_record(self, *args, **kwargs):
        assert depth[0] == 1, "a pivot path was recorded outside solve_lp"
        recorded[-1] += 1
        return record(self, *args, **kwargs)

    monkeypatch.setattr(grid, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(simplex._Tableau, "record", checked_record)
    net = fresh_six_bus()
    first = build_database(net, n=60, contingencies=ALL_LINES, seed=1, splits=(60, 0, 0))
    assert posed and set(posed) == {(1, 1)}
    assert min(recorded) >= 1
    calls = len(posed)
    assert build_database(net, n=60, contingencies=ALL_LINES, seed=1, splits=(60, 0, 0)) == first
    assert len(posed) == calls


def pool_bytes(db) -> bytes:
    """A pool's condition ids, features and labels, bit for bit."""
    return b"".join([db.conditions.id.tobytes(), db.features_matrix().tobytes(),
                     *(db.labels[c].tobytes() for c in sorted(db.labels))])


@pytest.mark.reference
@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 30)), min_size=1, max_size=3), st.data())
def test_the_shared_network_builds_and_labels_as_a_fresh_one(builds, data):
    """`six_bus`'s memos, grown by every earlier build and check in the process, change no pool byte and no label.

    The labels are the triage oracle's: one condition at a time, through
    the LP unless a fast path decides it.
    """
    shared = six_bus()
    for seed, n in builds:
        pool = build_database(shared, n=n, contingencies=ALL_LINES, seed=seed, splits=(n, 0, 0))
        fresh = grid_mod.grid_from_dict(grid_mod.grid_to_dict(shared))
        assert pool_bytes(pool) == pool_bytes(build_database(fresh, n=n, contingencies=ALL_LINES, seed=seed,
                                                             splits=(n, 0, 0)))
        fresh = grid_mod.grid_from_dict(grid_mod.grid_to_dict(shared))
        loads, dispatch = bus_loads(shared, pool.conditions.loads), pool.conditions.generation
        for i, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(ALL_LINES)), max_size=6)):
            assert (grid_mod.assess_security(shared, loads[i], dispatch[i], c)
                    == grid_mod.assess_security(fresh, loads[i], dispatch[i], c))


def dispatch_one_at_a_time(g, n, seed):
    """Load triples and dispatch as the build made them before it went in rounds, one condition at a time."""
    chol = _copula_cholesky(LOAD_CORRELATION, 3)
    triples, outputs = [], []
    attempts = rejects = 0
    for i in range(n):
        for attempt in range(1000):
            attempts += 1
            triple = _draw_loads(seed, [(i, attempt)], chol)[0]
            [dispatch] = grid.solve_dcopf(g, scenario_gen.bus_loads(g, triple)[None])
            if isinstance(dispatch, Exception):
                raise dispatch
            if dispatch.optimal:
                break
            rejects += 1
            if attempts >= 50 and rejects > 0.5 * attempts:
                raise DataError(f"{rejects}/{attempts} sampled conditions are pre-fault infeasible")
        else:
            raise DataError(f"condition {i}: no feasible dispatch in 1000 attempts")
        triples.append(triple)
        outputs.append(dispatch.x)
    return np.array(triples).reshape(n, 3), np.array(outputs).reshape(n, 3)


def scripted_dcopf(p_infeasible, p_failing, never=frozenset()):
    """A `solve_dcopf` whose outcome for a row of loads is a function of its bits.

    A row is infeasible with probability ``p_infeasible``, or if its bytes
    are in ``never``, and fails with probability ``p_failing``; otherwise
    one unit covers the load.  It gives one outcome per row, with a
    failing row's error in its place, as `grid.solve_dcopf` does.
    """
    def outcome(row):
        u = int.from_bytes(hashlib.blake2b(row.tobytes(), digest_size=8).digest()) / 2**64
        if u < p_infeasible or row.tobytes() in never:
            return LPResult("infeasible", None, None)
        if u < p_infeasible + p_failing:
            return ValueError(f"row failed at u={u!r}")
        return LPResult("optimal", np.array([row.sum(), 0.0, 0.0]), 0.0)

    return lambda g, loads: [outcome(row) for row in np.asarray(loads, dtype=float)]


def assert_builds_like_one_at_a_time(n, seed):
    try:
        expected = dispatch_one_at_a_time(six_bus(), n, seed)
    except (DataError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            build_database(six_bus(), n=n, contingencies=[5], seed=seed, splits=(n, 0, 0))
        return str(exc)
    db = build_database(six_bus(), n=n, contingencies=[5], seed=seed, splits=(n, 0, 0))
    assert np.array_equal(db.conditions.loads, expected[0])
    assert np.array_equal(db.conditions.generation, expected[1])
    return None


# On seeds 0-2 these build, stall after 50-65 attempts, or raise a row's error, each at least once.
@pytest.mark.parametrize("p_infeasible, p_failing", [(0.3, 0.0), (0.55, 0.0), (0.2, 0.04), (0.45, 0.01),
                                                     (0.48, 0.0), (0.52, 0.002)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rounds_raise_what_a_one_at_a_time_build_raises(monkeypatch, p_infeasible, p_failing, seed):
    """The stall, a row's LP error or the pool, each as the build made it before it went in rounds."""
    monkeypatch.setattr(grid, "solve_dcopf", scripted_dcopf(p_infeasible, p_failing))
    assert_builds_like_one_at_a_time(80, seed)


@pytest.mark.parametrize("failures", [999, 1000])
def test_a_condition_has_1000_attempts(monkeypatch, failures):
    n = 1100  # enough feasible conditions before it that the stall never triggers
    chol = _copula_cholesky(LOAD_CORRELATION, 3)
    hopeless = scenario_gen.bus_loads(six_bus(), _draw_loads(7, [(n - 2, a) for a in range(failures)], chol))
    monkeypatch.setattr(grid, "solve_dcopf", scripted_dcopf(0.0, 0.0, {row.tobytes() for row in hopeless}))
    error = assert_builds_like_one_at_a_time(n, 7)
    assert error == (f"condition {n - 2}: no feasible dispatch in 1000 attempts" if failures == 1000 else None)


# The build as it stood while it replayed its rounds' outcomes in condition
# order, kept verbatim but for its docstring: the loop that takes each
# attempt as it comes must make its `solve_dcopf` calls and end as it did.
def reference_build_database(
    grid: grid_mod.GridModel,
    n: int,
    contingencies,
    seed: int,
    splits: tuple[int, int, int],
) -> LabeledDatabase:
    contingencies = list(contingencies)
    for c in contingencies:
        grid.topology(c)
    if n < 0 or min(splits) < 0:
        raise ValueError(f"n and split sizes must be >= 0, got n={n} and splits {tuple(splits)}")
    if sum(splits) != n:
        raise ValueError(f"splits {splits} must sum to n={n}")
    if not contingencies:
        raise ValueError("no contingencies to label")
    chol = _copula_cholesky(LOAD_CORRELATION, len(LOAD_BUSES))

    triples, outputs, angles, flows = (np.empty((n, width)) for width in (
        len(LOAD_BUSES), len(grid.generators), grid.n_buses, len(grid.lines)))
    tries = [0] * n  # attempts drawn, per condition
    pending = list(range(n))
    ends = {}  # condition -> (its last attempt, the error it raised or None)
    done = counted = attempts = rejects = 0  # the replay: conditions passed, attempts of the next one counted
    while pending:
        # While more than half of the attempts counted are rejects, as when the
        # build is about to stall, a round draws only the condition the replay waits on.
        draws = [(i, tries[i]) for i in (pending if 2 * rejects <= attempts else [done])]
        drawn = _draw_loads(seed, draws, chol)
        loads = bus_loads(grid, drawn)
        for (i, attempt), triple, row, result in zip(draws, drawn, loads, grid_mod.solve_dcopf(grid, loads)):
            tries[i] += 1
            if isinstance(result, Exception):
                ends[i] = attempt, result
            elif result.optimal:
                ends[i] = attempt, None
                triples[i], outputs[i] = triple, result.x
                angles[i], flows[i] = grid_mod.solve_dc_power_flow(grid, grid.incidence @ result.x - row)
        pending = [i for i in pending if i not in ends and tries[i] < 1000]

        # Count the attempts known so far in condition order, as a build that
        # dispatched one condition at a time would meet them, and raise its error.
        while done < n:
            last, error = ends.get(done, (None, None))
            for _ in range(counted, tries[done] if last is None else last):
                attempts += 1
                rejects += 1
                if attempts >= 50 and rejects > 0.5 * attempts:
                    raise DataError(f"{rejects}/{attempts} sampled conditions are pre-fault infeasible")
            if last is None:
                if tries[done] == 1000:
                    raise DataError(f"condition {done}: no feasible dispatch in 1000 attempts")
                counted = tries[done]
                break
            attempts += 1
            if error is not None:
                raise error
            done, counted = done + 1, 0

    # Label one contingency at a time, for every condition at once.
    loads = bus_loads(grid, triples)
    labels = {c: grid_mod.assess_security(grid, loads, outputs, c) for c in contingencies}
    tags = [SPLIT_NAMES[0]] * splits[0] + [SPLIT_NAMES[1]] * splits[1] + [SPLIT_NAMES[2]] * splits[2]
    return LabeledDatabase(Conditions(np.arange(n), triples, outputs, angles, flows), labels, tags, seed)


def calls_and_end(build, net, n, seed, solve):
    """The shape and bytes of the loads of each `solve_dcopf` call ``build`` makes, and its pool's bits or error."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid, "solve_dcopf",
                      lambda g, loads: calls.append((loads.shape, loads.tobytes())) or solve(g, loads))
        try:
            db = build(net, n=n, contingencies=[5], seed=seed, splits=(n, 0, 0))
        except (DataError, ValueError) as exc:
            return calls, (type(exc), str(exc))
    return calls, (db.conditions.id.tobytes(), db.features_matrix().tobytes(), db.labels[5].tobytes())


@pytest.mark.reference
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(st.integers(1, 150), st.integers(0, 2**32 - 1), st.floats(0.0, 0.7), st.floats(0.0, 0.05),
       st.integers(0, 1000))
# the last condition but one fails its first 999 attempts and builds, or all 1000 and raises (no stall: n = 1100)
@example(1100, 7, 0.0, 0.0, 999)
@example(1100, 7, 0.0, 0.0, 1000)
def test_the_build_makes_the_calls_and_ends_of_the_round_and_replay_build(n, seed, p_infeasible, p_failing,
                                                                          failures):
    """Rows infeasible or failing at random, and the first ``failures`` attempts of condition n - 2 infeasible."""
    stuck = bus_loads(six_bus(), _draw_loads(seed, [(max(n - 2, 0), a) for a in range(failures)],
                                             _copula_cholesky(LOAD_CORRELATION, 3)))
    solve = scripted_dcopf(p_infeasible, p_failing, {row.tobytes() for row in stuck})
    net = six_bus()
    assert calls_and_end(build_database, net, n, seed, solve) == calls_and_end(reference_build_database, net, n,
                                                                               seed, solve)


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
def databases(draw, max_rows=50):
    n = draw(st.integers(1, max_rows))
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
