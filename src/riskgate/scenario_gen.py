"""Synthetic operating-condition database: sampling, labeling, persistence.

Loads are drawn from a Gaussian copula (pairwise correlation applied to
the Gaussian draw) with Kumaraswamy-shaped marginals mapped onto a MW
range, dispatched by DC-OPF, and labeled per contingency by the exact
security oracle.  Every condition owns an independent RNG stream derived
from ``(seed, index, attempt)``, so generation is reproducible no matter
how the work is partitioned, and rejected (pre-fault infeasible) samples
never perturb the streams of other conditions.  The pool is one
`Conditions` table: a read-only array per feature group, aligned by row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from . import grid as grid_mod
from .errors import ConfigError, GenerationStalled, InvalidCorrelation, MalformedFile

SPLIT_NAMES = ("train", "calib", "test")

# Fixed sampling recipe for the packaged six-bus pipeline.
LOAD_RANGE = (50.0, 150.0)
LOAD_CORRELATION = 0.75
KUMARASWAMY_A = 1.6
KUMARASWAMY_B = 2.8
LOAD_BUSES = (4, 5, 6)


@dataclass(frozen=True, eq=False)
class Conditions:
    """Operating conditions as aligned read-only columns, one row per condition.

    The features are loads, generator outputs, bus angles and line flows,
    in that order.  An int index gives one condition (its columns lose the
    leading axis); an index array or slice gives a sub-table.
    """

    id: np.ndarray  # (n,)
    loads: np.ndarray  # (n, 3): MW on LOAD_BUSES
    generation: np.ndarray  # (n, G)
    angles: np.ndarray  # (n, B)
    flows: np.ndarray  # (n, L)

    def __post_init__(self):
        for f in fields(self):
            col = np.asarray(getattr(self, f.name)).view()  # the caller's array stays writeable
            col.setflags(write=False)
            object.__setattr__(self, f.name, col)

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, index) -> Conditions:
        return Conditions(**{f.name: getattr(self, f.name)[index] for f in fields(self)})

    @classmethod
    def stack(cls, rows) -> Conditions:
        """The table of a sequence of single conditions."""
        return cls(**{f.name: np.stack([getattr(row, f.name) for row in rows]) for f in fields(cls)})


@dataclass(eq=False)
class LabeledDatabase:
    """Conditions, their per-contingency labels and split tags; features are stacked once, on first use."""

    conditions: Conditions
    labels: dict[int, np.ndarray]  # contingency id -> 0/1 per condition
    splits: list[str]  # one of SPLIT_NAMES per condition
    seed: int | None = None

    def __post_init__(self):
        """Stack a sequence of single conditions: bench/workloads.py builds its triage batches so."""
        if not isinstance(self.conditions, Conditions):
            self.conditions = Conditions.stack(self.conditions)
        n = len(self.conditions)
        if len(self.splits) != n:
            raise ValueError("split tags must cover every condition")
        for c, lab in self.labels.items():
            if len(lab) != n:
                raise ValueError(f"labels for contingency {c} must cover every condition")

    def __len__(self) -> int:
        return len(self.conditions)

    @property
    def contingencies(self) -> list[int]:
        return sorted(self.labels)

    def split_indices(self, split: str) -> np.ndarray:
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        return np.array([i for i, s in enumerate(self.splits) if s == split], dtype=int)

    @cached_property
    def _features(self) -> np.ndarray:
        c = self.conditions
        features = np.hstack([c.loads, c.generation, c.angles, c.flows])
        features.setflags(write=False)
        return features

    def features_matrix(self, split: str | None = None) -> np.ndarray:
        """One feature row per condition (of ``split``, if given), as a new array."""
        return self._features.copy() if split is None else self._features[self.split_indices(split)]

    def label_vector(self, contingency: int, split: str | None = None) -> np.ndarray:
        if contingency not in self.labels:
            raise ValueError(f"no labels for contingency {contingency}; labelled: {self.contingencies}")
        lab = np.asarray(self.labels[contingency], dtype=int)
        return lab if split is None else lab[self.split_indices(split)]

    def priors(self, contingency: int, split: str | None = None) -> tuple[float, float]:
        """(insecure, secure) class fractions for one contingency."""
        lab = self.label_vector(contingency, split)
        pi1 = float(np.mean(lab)) if len(lab) else 0.0
        return 1.0 - pi1, pi1

    def __eq__(self, other):
        return (
            isinstance(other, LabeledDatabase)
            and np.array_equal(self.conditions.id, other.conditions.id)
            and np.array_equal(self._features, other._features)
            and self.splits == other.splits
            and self.seed == other.seed
            and sorted(self.labels) == sorted(other.labels)
            and all(np.array_equal(self.labels[c], other.labels[c]) for c in self.labels)
        )


def _copula_cholesky(correlation: float, dim: int) -> np.ndarray:
    corr = np.full((dim, dim), correlation)
    np.fill_diagonal(corr, 1.0)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise InvalidCorrelation(f"correlation {correlation} is not positive definite for dim {dim}") from exc


def kumaraswamy_ppf(u):
    """Inverse CDF of the Kumaraswamy(``KUMARASWAMY_A``, ``KUMARASWAMY_B``) distribution on [0, 1]."""
    u = np.asarray(u, dtype=float)
    return (1.0 - (1.0 - u) ** (1.0 / KUMARASWAMY_B)) ** (1.0 / KUMARASWAMY_A)


def _draw_load_triple(rng, chol, dim: int) -> np.ndarray:
    z = chol @ rng.standard_normal(dim)
    u = ndtr(z)
    low, high = LOAD_RANGE
    return low + (high - low) * kumaraswamy_ppf(u)


def bus_loads(grid: grid_mod.GridModel, loads) -> np.ndarray:
    """Per-bus loads (MW, zero off ``LOAD_BUSES``) from load triples, ``(3,)`` or ``(m, 3)``.

    Raises ConfigError naming the load buses the network lacks.
    """
    missing = [str(b) for b in LOAD_BUSES if b not in {bus.id for bus in grid.buses}]
    if missing:
        raise ConfigError(f"network has no bus {', '.join(missing)}; loads go on buses "
                          f"{', '.join(map(str, LOAD_BUSES))}")
    loads = np.asarray(loads, dtype=float)
    out = np.zeros(loads.shape[:-1] + (grid.n_buses,))
    out[..., [grid.bus_position(b) for b in LOAD_BUSES]] = loads
    return out


def build_database(
    grid: grid_mod.GridModel,
    n: int,
    contingencies,
    seed: int,
    splits: tuple[int, int, int],
) -> LabeledDatabase:
    """Sample, dispatch and label ``n`` operating conditions.

    Conditions whose loads admit no feasible pre-fault dispatch are
    resampled from the same per-condition stream (attempt counter bumps),
    keeping the load distribution unbiased within the feasible region.
    Once every condition is dispatched, each contingency labels all of
    them in one `grid.assess_security` call.

    Raises
    ------
    GenerationStalled
        If more than half of all sampled load tuples are pre-fault
        infeasible, which signals bad network data.
    """
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
    attempts = 0
    rejects = 0
    for i in range(n):
        for attempt in range(1000):
            attempts += 1
            triple = _draw_load_triple(np.random.default_rng([seed, i, attempt]), chol, len(LOAD_BUSES))
            loads = bus_loads(grid, triple)
            dispatch = grid_mod.solve_dcopf(grid, loads)
            if dispatch.optimal:
                break
            rejects += 1
            if attempts >= 50 and rejects > 0.5 * attempts:
                raise GenerationStalled(
                    f"{rejects}/{attempts} sampled conditions are pre-fault infeasible"
                )
        else:
            raise GenerationStalled(f"condition {i}: no feasible dispatch in 1000 attempts")

        flow = grid_mod.solve_dc_power_flow(grid, grid.incidence @ dispatch.x - loads)
        triples[i], outputs[i], angles[i], flows[i] = triple, dispatch.x, flow.angles, flow.flows

    # Label one contingency at a time, for every condition at once.
    loads = bus_loads(grid, triples)
    labels = {c: grid_mod.assess_security(grid, loads, outputs, c) for c in contingencies}
    tags = [SPLIT_NAMES[0]] * splits[0] + [SPLIT_NAMES[1]] * splits[1] + [SPLIT_NAMES[2]] * splits[2]
    return LabeledDatabase(Conditions(np.arange(n), triples, outputs, angles, flows), labels, tags, seed)


# -- dataset.csv -------------------------------------------------------------

_FEATURE_GROUPS = ("load", "gen", "angle", "flow")  # the feature matrix's column order


def _header(widths) -> list[str]:
    """Columns before the labels: id, numbered feature groups of ``widths``, split."""
    cols = ["id"]
    for group, width in zip(_FEATURE_GROUPS, widths):
        cols += [f"{group}{k}" for k in range(1, width + 1)]
    return cols + ["split"]


def save_database(db: LabeledDatabase, path) -> None:
    """Write ``dataset.csv``; floats carry 17 significant digits.

    The database must hold at least one condition.
    """
    if not len(db):
        raise ValueError("a dataset needs at least one condition")
    table = db.conditions
    widths = [col.shape[1] for col in (table.loads, table.generation, table.angles, table.flows)]
    cons = sorted(db.labels)
    head = [] if db.seed is None else [f"# seed={db.seed}\n"]
    head.append(",".join(_header(widths) + [f"label_c{c}" for c in cons]) + "\n")
    row = ",".join(["%d"] + ["%.17g"] * sum(widths) + ["%s"] + ["%d"] * len(cons)) + "\n"
    rows = zip(table.id.tolist(), *db._features.T.tolist(), db.splits, *(db.label_vector(c).tolist() for c in cons))
    Path(path).write_text("".join(head) + "".join(map(row.__mod__, rows)))


def load_database(path) -> LabeledDatabase:
    """Parse ``dataset.csv``; raises MalformedFile with the offending line.

    The feature widths are the sizes of the header's ``load``, ``gen``,
    ``angle`` and ``flow`` column groups.
    """
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
