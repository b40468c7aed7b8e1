"""Synthetic operating-condition database: sampling, labeling, persistence.

Loads are drawn from a Gaussian copula (pairwise correlation applied to
the Gaussian draw) with Kumaraswamy-shaped marginals mapped onto a MW
range, dispatched by DC-OPF, and labeled per contingency by the exact
security oracle.  Every condition owns an independent RNG stream derived
from ``(seed, index, attempt)``, so generation is reproducible no matter
how the work is partitioned, and rejected (pre-fault infeasible) samples
never perturb the streams of other conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class OperatingCondition:
    """One pre-fault steady state; features are loads, outputs, angles, flows."""

    id: int
    loads: np.ndarray
    generation: np.ndarray
    angles: np.ndarray
    flows: np.ndarray

    @property
    def features(self) -> np.ndarray:
        return np.concatenate([self.loads, self.generation, self.angles, self.flows])

    def __eq__(self, other):
        return (
            isinstance(other, OperatingCondition)
            and self.id == other.id
            and np.array_equal(self.features, other.features)
        )


@dataclass(eq=False)
class LabeledDatabase:
    """Conditions, their per-contingency labels and split tags.

    ``conditions`` and their arrays are not mutated after construction:
    the feature matrix is built from them once, on first use, and kept.
    """

    conditions: list[OperatingCondition]
    labels: dict[int, np.ndarray]  # contingency id -> 0/1 per condition
    splits: list[str]  # one of SPLIT_NAMES per condition
    seed: int | None = None

    def __post_init__(self):
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
        features = np.array([cond.features for cond in self.conditions])
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
            and self.conditions == other.conditions
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
    if sum(splits) != n:
        raise ValueError(f"splits {splits} must sum to n={n}")
    chol = _copula_cholesky(LOAD_CORRELATION, len(LOAD_BUSES))

    conditions: list[OperatingCondition] = []
    attempts = 0
    rejects = 0
    for i in range(n):
        for attempt in range(1000):
            attempts += 1
            triple = _draw_load_triple(np.random.default_rng([seed, i, attempt]), chol, len(LOAD_BUSES))
            loads = bus_loads(grid, triple)
            dispatch = grid_mod.solve_dcopf(grid, loads)
            if dispatch.feasible:
                break
            rejects += 1
            if attempts >= 50 and rejects > 0.5 * attempts:
                raise GenerationStalled(
                    f"{rejects}/{attempts} sampled conditions are pre-fault infeasible"
                )
        else:
            raise GenerationStalled(f"condition {i}: no feasible dispatch in 1000 attempts")

        injections = grid.incidence @ dispatch.outputs - loads
        flow = grid_mod.solve_dc_power_flow(grid, injections)
        conditions.append(
            OperatingCondition(
                id=i,
                loads=triple,
                generation=dispatch.outputs.copy(),
                angles=flow.angles.copy(),
                flows=flow.flows.copy(),
            )
        )

    # Label one contingency at a time, for every condition at once.
    loads = bus_loads(grid, np.array([cond.loads for cond in conditions]).reshape(n, len(LOAD_BUSES)))
    outputs = np.array([cond.generation for cond in conditions]).reshape(n, len(grid.generators))
    labels = {c: grid_mod.assess_security(grid, loads, outputs, c) for c in contingencies}
    tags = [SPLIT_NAMES[0]] * splits[0] + [SPLIT_NAMES[1]] * splits[1] + [SPLIT_NAMES[2]] * splits[2]
    return LabeledDatabase(conditions=conditions, labels=labels, splits=tags, seed=seed)


# -- dataset.csv -------------------------------------------------------------

_FEATURE_GROUPS = ("load", "gen", "angle", "flow")  # OperatingCondition.features order


def _header(widths) -> list[str]:
    """Columns before the labels: id, numbered feature groups of ``widths``, split."""
    cols = ["id"]
    for group, width in zip(_FEATURE_GROUPS, widths):
        cols += [f"{group}{k}" for k in range(1, width + 1)]
    return cols + ["split"]


def save_database(db: LabeledDatabase, path) -> None:
    """Write ``dataset.csv``; floats carry 17 significant digits.

    The feature widths are the conditions' own, so the database must
    hold at least one condition.
    """
    if not db.conditions:
        raise ValueError("a dataset needs at least one condition to take its feature widths from")
    first = db.conditions[0]
    widths = [len(first.loads), len(first.generation), len(first.angles), len(first.flows)]
    cons = sorted(db.labels)
    lines = []
    if db.seed is not None:
        lines.append(f"# seed={db.seed}")
    lines.append(",".join(_header(widths) + [f"label_c{c}" for c in cons]))
    for i, cond in enumerate(db.conditions):
        row = [str(cond.id)]
        row += [f"{v:.17g}" for v in cond.features]
        row.append(db.splits[i])
        row += [str(int(db.labels[c][i])) for c in cons]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


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
    edges = np.cumsum([0] + widths).tolist()
    cons = []
    for col in header[n_fixed:]:
        if not col.startswith("label_c"):
            raise MalformedFile(f"unexpected trailing column {col!r}", line=lineno)
        try:
            cons.append(int(col[len("label_c"):]))
        except ValueError as exc:
            raise MalformedFile(f"bad label column {col!r}", line=lineno) from exc
    if not cons:
        raise MalformedFile("no label columns", line=lineno)

    conditions, splits = [], []
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
            values = [float(v) for v in parts[1: n_fixed - 1]]
        except ValueError as exc:
            raise MalformedFile(f"unparseable numeric field: {exc}", line=lineno) from exc
        split = parts[n_fixed - 1]
        if split not in SPLIT_NAMES:
            raise MalformedFile(f"unknown split tag {split!r}", line=lineno)
        vals = np.array(values)
        loads, gens, angles, flows = (vals[a:b] for a, b in zip(edges, edges[1:]))
        conditions.append(OperatingCondition(cid, loads, gens, angles, flows))
        splits.append(split)
        for c, text in zip(cons, parts[n_fixed:]):
            if text not in ("0", "1"):
                raise MalformedFile(f"label must be 0 or 1, got {text!r}", line=lineno)
            labels[c].append(int(text))

    return LabeledDatabase(
        conditions=conditions,
        labels={c: np.array(v, dtype=int) for c, v in labels.items()},
        splits=splits,
        seed=seed,
    )
