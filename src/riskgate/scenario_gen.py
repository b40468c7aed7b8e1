"""Synthetic operating-condition database: sampling, labeling, persistence.

Loads are drawn from a Gaussian copula (pairwise correlation applied to
the Gaussian draw) with Kumaraswamy-shaped marginals mapped onto a MW
range, dispatched by DC-OPF, and labeled per contingency by the exact
security oracle.  Every condition owns an independent RNG stream derived
from ``(seed, index, attempt)``, so generation is reproducible no matter
how the work is partitioned, and rejected (pre-fault infeasible) samples
never perturb the streams of other conditions.  A stream is numpy's
``default_rng([seed, index, attempt])``, bit for bit; the `SeedSequence`
hash that seeds it is run here for a whole round of draws at once
(`_stream_words`), and a `reference` property in the tests pins it to
numpy's.  The build takes each
condition's attempts in condition order; their DC-OPFs are drawn ahead
in rounds, one `grid.solve_dcopf` call each.  The pool is one
`Conditions` table: a read-only array per feature group, aligned by row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence

from . import grid as grid_mod
from .errors import ConfigError, DataError, MalformedFile, read_text, write_texts

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
        raise ConfigError(f"correlation {correlation} is not positive definite for dim {dim}") from exc


def kumaraswamy_ppf(u):
    """Inverse CDF of the Kumaraswamy(``KUMARASWAMY_A``, ``KUMARASWAMY_B``) distribution on [0, 1]."""
    u = np.asarray(u, dtype=float)
    return (1.0 - (1.0 - u) ** (1.0 / KUMARASWAMY_B)) ** (1.0 / KUMARASWAMY_A)


# The standard normal CDF as Cephes computes it (Moshier, "Methods and Programs for Mathematical
# Functions", 1989), which is what scipy.special.ndtr runs.  With x = a / sqrt(2): |x| < 1 takes
# 0.5 + 0.5·erf(x), erf(x) = x·T(x²)/U(x²); otherwise 0.5·erfc(|x|), reflected to 1 - that for
# x > 0, with erfc(z) = exp(-z²)·P(z)/Q(z) for z < 8 and exp(-z²)·R(z)/S(z) from 8 on, and 0 once
# -z² < -MAXLOG.  The published tables, highest power first; U, Q and S have a leading 1 left out.
_CEPHES_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
             7.00332514112805075473E3, 5.55923013010394962768E4)
_CEPHES_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
             2.26290000613890934246E4, 4.92673942608635921086E4)
_CEPHES_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
             4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
             9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_CEPHES_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
             9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
             1.65666309194161350182E3, 5.57535340817727675546E2)
_CEPHES_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
             6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_CEPHES_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
             1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_CEPHES_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440
# (term, numerator | denominator, branch): each branch's pair of polynomials padded with leading zeros to
# nine terms, so that one Horner pass takes every branch; 0·v + 0 and 1·v + c are exact, so a padded
# term gives the bits of Cephes' shorter `polevl`, and a leading 1 those of `p1evl` (which starts at x + c)
_NDTR_TERMS = np.array([[(0.0,) * (9 - len(c)) + c for c in (num, (1.0,) + den)]
                        for num, den in ((_CEPHES_T, _CEPHES_U), (_CEPHES_P, _CEPHES_Q), (_CEPHES_R, _CEPHES_S))]
                       ).transpose(2, 1, 0).copy()
_NDTR_BRANCHES = np.array([1.0, 8.0])  # the |x| at which each branch after the first starts


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF of each value of ``a``, with the bits of ``scipy.special.ndtr``.

    The Cephes rational forms in the C code's operation order, and libm's
    ``exp`` (`math.exp`, which scipy's C calls too; numpy's own ``exp``
    differs in the last bit for some inputs).  NaN gives NaN; a value past
    Cephes' underflow point gives 0 or 1 before any square can overflow.
    """
    a = np.asarray(a, dtype=float)
    nan = np.isnan(a)
    x = np.where(nan, 0.0, a) * _SQRT1_2  # no arithmetic on a NaN: a signalling one would warn
    w = np.minimum(np.abs(x), 27.0)  # 27² is past MAXLOG, so the clip changes no verdict and squares stay finite
    square = w * w
    branch = np.searchsorted(_NDTR_BRANCHES, w, side="right")  # erf, erfc below 8, erfc from 8 on
    erf = branch == 0
    v = np.where(erf, square, w)  # erf's polynomials take x², erfc's |x|
    terms = np.take(_NDTR_TERMS, branch, axis=2)
    v = np.stack([v, v])
    ratio = terms[0].copy()  # Horner's rule, numerator and denominator at once
    for term in terms[1:]:
        ratio *= v
        ratio += term
    scale = np.where(erf, x, 0.0)  # erfc's exp(-x²), 0 where it underflows
    tail = np.flatnonzero(~erf & (square <= _CEPHES_MAXLOG))
    scale.flat[tail] = list(map(math.exp, (-square.flat[tail]).tolist()))
    half = 0.5 * (scale * ratio[0] / ratio[1])
    return np.where(nan, np.nan, np.where(erf, 0.5 + half, np.where(x > 0, 1.0 - half, half)))


# numpy's SeedSequence hash (NEP 19), in uint32 arithmetic: the entropy words enter a pool of four
# words by `hashmix`, every pool word is mixed into every other, and `generate_state` hashes the
# pool's words out again.  Each hash steps its own running constant by its multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_OTHERS = [[d for d in range(_POOL_SIZE) if d != src] for src in range(_POOL_SIZE)]


@cache
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``count`` successive hashes' xor and multiplier: the running constant before and after its step."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    consts.setflags(write=False)
    return consts[:-1], consts[1:]


def _hash(words, xor, mul):
    words = (words ^ xor) * mul
    return words ^ words >> _XSHIFT


def _mix(x, y):
    words = _MIX_MULT_L * x - _MIX_MULT_R * y
    return words ^ words >> _XSHIFT


def _stream_words(seed: int, draws) -> np.ndarray:
    """``SeedSequence([seed, index, attempt]).generate_state(4, np.uint64)`` for every draw, as ``(m, 4)`` rows.

    The entropy is the little-endian uint32 words of ``seed`` (0 gives
    one word), then ``index`` and ``attempt``, which must each fit one
    word.  A seed of 2**64 or more gives more entropy words than the pool
    holds, and each extra word is mixed into every pool word.
    """
    seed = operator.index(seed)
    entropy = np.empty((len(draws), max(1, -(-seed.bit_length() // 32)) + 2), dtype=np.uint32)
    entropy[:, :-2] = [seed >> 32 * k & 0xFFFFFFFF for k in range(entropy.shape[1] - 2)]
    entropy[:, -2:] = np.reshape(draws, (-1, 2))
    width = entropy.shape[1]
    # hashes: one per pool word as the entropy enters, one per ordered pair of pool words, and one per
    # pool word for each entropy word past the pool, 4 + 12 + 4 * (width - 4) = 4 * max(4, width) in all
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, width))
    pool = np.zeros((len(draws), _POOL_SIZE), dtype=np.uint32)  # a pool longer than the entropy hashes zeros
    pool[:, :width] = entropy[:, :_POOL_SIZE]
    pool = _hash(pool, xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    k = _POOL_SIZE
    for src, others in enumerate(_OTHERS):
        pool[:, others] = _mix(pool[:, others], _hash(pool[:, src, None], xor[k:k + len(others)],
                                                      mul[k:k + len(others)]))
        k += len(others)
    for src in range(_POOL_SIZE, width):
        pool = _mix(pool, _hash(entropy[:, src, None], xor[k:k + _POOL_SIZE], mul[k:k + _POOL_SIZE]))
        k += _POOL_SIZE
    # generate_state: two passes over the pool give eight words, paired little-endian into four uint64
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hash(pool[:, None], xor.reshape(2, _POOL_SIZE), mul.reshape(2, _POOL_SIZE))
    pairs = state.reshape(len(draws), _POOL_SIZE, 2).astype(np.uint64)
    return pairs[..., 0] | pairs[..., 1] << np.uint64(32)


class _StreamSeed(ISeedSequence):
    """Hands `PCG64` the state words of one stream, as ``SeedSequence`` would generate them.

    `PCG64` asks for exactly those: ``generate_state(4, np.uint64)``.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _draw_loads(seed: int, draws, chol) -> np.ndarray:
    """Load triples (MW), one row per ``(index, attempt)`` of ``draws``, from stream ``(seed, index, attempt)``.

    A stream is ``np.random.default_rng([seed, index, attempt])``: its
    `PCG64` state words come from `_stream_words`, a copy of numpy's
    `SeedSequence` hash run for all draws at once, and ``index`` and
    ``attempt`` must each be below 2**32.  The property
    ``test_draw_loads_matches_numpy_default_rng`` pins the rows to numpy's.
    The Gaussian draw is one product per row; the marginal map takes all rows at once, with the same bits.
    """
    z = np.array([chol @ np.random.Generator(PCG64(_StreamSeed(words))).standard_normal(len(chol))
                  for words in _stream_words(seed, draws)]).reshape(-1, len(chol))
    low, high = LOAD_RANGE
    return low + (high - low) * kumaraswamy_ppf(_ndtr(z))


def bus_loads(grid: grid_mod.GridModel, loads) -> np.ndarray:
    """Per-bus loads (MW, zero off ``LOAD_BUSES``) from load triples, ``(3,)`` or ``(m, 3)``.

    Raises ConfigError naming the load buses the network lacks.
    """
    try:
        positions = [grid.bus_position(b) for b in LOAD_BUSES]
    except KeyError:
        missing = [str(b) for b in LOAD_BUSES if b not in {bus.id for bus in grid.buses}]
        raise ConfigError(f"network has no bus {', '.join(missing)}; loads go on buses "
                          f"{', '.join(map(str, LOAD_BUSES))}") from None
    loads = np.asarray(loads, dtype=float)
    out = np.zeros(loads.shape[:-1] + (grid.n_buses,))
    out[..., positions] = loads
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
    The build takes the conditions in order, and each one's attempts in
    order until one is feasible, counting every attempt it takes.  The
    DC-OPFs are drawn ahead in rounds: when the build needs an attempt not
    drawn yet, one `grid.solve_dcopf` call dispatches the next attempt of
    every open condition, or only the awaited one while more than half of
    the attempts counted are rejects; so the errors, and the attempts
    counted before them, are those of a build that dispatched one
    condition at a time, and a network that stalls costs one full round
    and then one DC-OPF per attempt.  Once every condition is dispatched,
    each contingency labels all of them in one `grid.assess_security`
    call.

    ``n`` must be below 2**32, checked before anything is allocated: a
    condition's index is then one uint32 word of its stream's entropy
    (see `_draw_loads`).

    Raises
    ------
    ValueError
        On a bad size, split or seed.
    DataError
        If more than half of all sampled load tuples are pre-fault
        infeasible (checked from the 50th on), which signals bad network
        data, or a condition finds no feasible dispatch in 1000 attempts.
    """
    contingencies = list(contingencies)
    for c in contingencies:
        grid.topology(c)
    if n < 0 or min(splits) < 0:
        raise ValueError(f"n and split sizes must be >= 0, got n={n} and splits {tuple(splits)}")
    if sum(splits) != n:
        raise ValueError(f"splits {splits} must sum to n={n}")
    if n >= 2**32:
        raise ValueError(f"n must be < 2**32 = {2**32}, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not contingencies:
        raise ValueError("no contingencies to label")
    chol = _copula_cholesky(LOAD_CORRELATION, len(LOAD_BUSES))

    triples, outputs, angles, flows = (np.empty((n, width)) for width in (
        len(LOAD_BUSES), len(grid.generators), grid.n_buses, len(grid.lines)))
    tries = dict.fromkeys(range(n), 0)  # open condition -> its attempts drawn
    outcomes = {}  # (condition, attempt) -> its load triple, bus loads and DC-OPF outcome, until taken
    attempts = rejects = 0
    for i in range(n):
        for attempt in range(1000):
            if (i, attempt) not in outcomes:
                # A round draws the next attempt of every open condition, or only this one
                # while more than half of the attempts counted are rejects, as when the build is about to stall.
                draws = list(tries.items()) if 2 * rejects <= attempts else [(i, attempt)]
                drawn = _draw_loads(seed, draws, chol)
                loads = bus_loads(grid, drawn)
                for (k, a), triple, row, result in zip(draws, drawn, loads, grid_mod.solve_dcopf(grid, loads)):
                    outcomes[k, a] = triple, row, result
                    if isinstance(result, Exception) or result.optimal or a == 999:
                        del tries[k]
                    else:
                        tries[k] = a + 1
            triple, row, result = outcomes.pop((i, attempt))
            attempts += 1
            if isinstance(result, Exception):
                raise result
            if result.optimal:
                break
            rejects += 1
            if attempts >= 50 and rejects > 0.5 * attempts:
                raise DataError(f"{rejects}/{attempts} sampled conditions are pre-fault infeasible")
        else:
            raise DataError(f"condition {i}: no feasible dispatch in 1000 attempts")
        triples[i], outputs[i] = triple, result.x
        angles[i], flows[i] = grid_mod.solve_dc_power_flow(grid, grid.incidence @ result.x - row)

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
    write_texts({path: "".join(head) + "".join(map(row.__mod__, rows))})


def load_database(path) -> LabeledDatabase:
    """Parse ``dataset.csv``; raises MalformedFile with the offending line.

    The feature widths are the sizes of the header's ``load``, ``gen``,
    ``angle`` and ``flow`` column groups.  A field is read by Python's
    ``int`` (the id) or ``float`` (a feature); blank lines are skipped.
    The rows follow `_parse_rows`; then every feature must be finite and
    every id must fit a signed 64-bit integer.
    """
    raw = read_text(path).splitlines()
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

    # the data block a column at a time; on a bad row, the same parse of one row at a time finds it
    rows = [text for text in raw[1:] if text.strip()]
    width = len(header)

    def line(i: int) -> int:  # the line number of rows[i]
        return [k for k, text in enumerate(raw[1:], start=lineno + 1) if text.strip()][i]

    try:
        ids, values, splits, label_columns = _parse_rows(rows, width, n_fixed)
    except ValueError:
        for i, text in enumerate(rows):
            try:
                _parse_rows([text], width, n_fixed)
            except ValueError as exc:
                raise MalformedFile(str(exc), line=line(i)) from exc
        raise

    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise MalformedFile(f"feature {header[1 + j]} is {values[i, j]}, not a finite number", line=line(i))
    try:
        id_column = np.array(ids, dtype=np.int64)
    except OverflowError:
        i = next(i for i, cid in enumerate(ids) if not -2**63 <= cid < 2**63)
        raise MalformedFile(f"id {ids[i]} does not fit a signed 64-bit integer", line=line(i)) from None
    return LabeledDatabase(
        conditions=Conditions(id_column, *np.split(values, np.cumsum(widths)[:-1], axis=1)),
        labels={c: (np.array(column) == "1").astype(int) for c, column in zip(cons, label_columns)},
        splits=splits,
        seed=seed,
    )


def _parse_rows(rows, width: int, n_fixed: int):
    """The ids, feature matrix, split tags and label columns of data ``rows``, parsed a column at a time.

    A row holds ``width`` fields, an id, the features, a split tag and the labels, and is checked in that
    order after its column count; ValueError carries the message for the first bad field of a one-row block.
    """
    for text in rows:
        if text.count(",") != width - 1:
            raise ValueError(f"expected {width} columns, got {text.count(',') + 1}")
    cells = ",".join(rows).split(",") if rows else []
    columns = [cells[j::width] for j in range(width)]
    values = np.empty((len(rows), n_fixed - 2))
    try:
        ids = list(map(int, columns[0]))
        for j, column in enumerate(columns[1:n_fixed - 1]):
            values[:, j] = list(map(float, column))
    except ValueError as exc:
        raise ValueError(f"unparseable numeric field: {exc}") from exc
    splits = columns[n_fixed - 1]
    if not set(splits) <= set(SPLIT_NAMES):
        raise ValueError(f"unknown split tag {next(s for s in splits if s not in SPLIT_NAMES)!r}")
    for column in columns[n_fixed:]:
        if not set(column) <= {"0", "1"}:
            raise ValueError(f"label must be 0 or 1, got {next(v for v in column if v not in ('0', '1'))!r}")
    return ids, values, splits, columns[n_fixed:]
