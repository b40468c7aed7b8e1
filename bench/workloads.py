"""The benchmark's workloads: set-up, one op, and the check of the op's output.

Every op input is a pure function of the workload seed: a run derives
``N_INPUTS`` inputs in set-up and its ops cycle through them, so the
same seed gives the same ops in every run.  The pools that training and
triage start from are fixed datasets (``DATASET_SEED``; held-out data
from a second seed), so that seeds change the ops' inputs, not the cost
of the data they are drawn from: with a pool per seed, the median
train-models op ranged from 2.9 s to 4.0 s over ten seeds (2-core VM).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json

import numpy as np

from riskgate import cli, experiments, grid, learner, scenario_gen

ALL_LINES = tuple(range(1, 12))
N_INPUTS = 8
DEFAULT_SEED = 1
DATASET_SEED = 101  # the riskgate CLI's default seed
TOL_MW = 1e-6  # slack on generator and flow limits, as the LP's feasibility tolerance allows
# slack on an uncalibrated model's probability, its raw ensemble score: the
# weighted vote over the separately summed weights rounds to 1 + 1 ulp when
# every stump votes secure
SCORE_ROUNDING = 1e-12


class CheckFailed(Exception):
    pass


def derive_seed(seed: int, *stream: int) -> int:
    """A 31-bit seed for one named substream of the workload seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0] >> 1)


def run_cli(argv) -> None:
    """One in-process ``riskgate`` command; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"riskgate {argv[0]} exited with {code}")


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def pool_digest(db) -> str:
    """Feature values and labels, bit for bit (not the CSV bytes)."""
    return _digest(db.features_matrix().astype("<f8"),
                   *[db.label_vector(c).astype("<i8") for c in db.contingencies])


def models_digest(models) -> str:
    """Stumps and vote weights of every model (not the Platt parameters)."""
    parts = []
    for m in models:
        ens = m.ensemble
        parts.append(np.array([-1.0 if s.feature is None else s.feature for s in ens.stumps], "<f8"))
        parts.append(np.array([[s.threshold, s.left.p0, s.left.p1, s.right.p0, s.right.p1]
                               for s in ens.stumps], "<f8"))
        parts.append(np.array(ens.weights or [], "<f8"))
    return _digest(*parts)


class Workload:
    name = ""
    items = 0  # conditions one op handles; conditions_per_s counts them
    min_ops = 3
    setup_repeats = 2  # setup_s is their median

    def __init__(self, seed: int):
        self.seed = seed
        self.notes = {}  # counts for the info line

    # setup(work_dir), op(k) -> output and check(k, output) are per workload

    def close(self) -> None:
        pass


class GeneratePool(Workload):
    """Op: ``riskgate generate`` of one pool; the pool seed is the input."""

    name = "generate-pool"
    N, SPLITS = 200, (120, 40, 40)
    items = N
    setup_repeats = 5  # a short set-up, so more repeats steady its median
    # pool_digest of input k at DEFAULT_SEED, recorded at the benchmark's first commit
    DIGESTS = {
        0: "18adc84f564a7c8a", 1: "80ab86402092215c", 2: "60d5626c82ef731c", 3: "9ba044376e61e4b8",
        4: "e89b5f0d1d93093d", 5: "6bf0a2ecdf70ca0b", 6: "0edd5d9a3808630e", 7: "71dc557ea6eeb10d",
    }

    def setup(self, work):
        self.out = work / "dataset.csv"
        self.pool_seeds = [derive_seed(self.seed, 1, k) for k in range(N_INPUTS)]
        self.grid = grid.six_bus()
        # keep the database ``riskgate generate`` builds, for the round-trip check
        self._build = cli.build_database
        cli.build_database = self._capture
        # warm-up: code paths and the per-outage network caches
        run_cli(["generate", "--out", work / "warmup.csv", "--n", 100, "--splits", "100,0,0",
                 "--seed", derive_seed(self.seed, 0)])

    def _capture(self, *args, **kwargs):
        self.built = self._build(*args, **kwargs)
        return self.built

    def close(self):
        cli.build_database = self._build

    def op(self, k):
        self.built = None
        run_cli(["generate", "--out", self.out, "--n", self.N,
                 "--splits", ",".join(map(str, self.SPLITS)), "--seed", self.pool_seeds[k]])
        return self.built

    def check(self, k, db):
        expect(db is not None and len(db) == self.N, "generate built no pool of the requested size")
        expect(db.contingencies == list(ALL_LINES), "pool is not labelled for all 11 lines")
        g = self.grid
        loads = np.array([c.loads for c in db.conditions])
        gens = np.array([c.generation for c in db.conditions])
        flows = np.array([c.flows for c in db.conditions])
        expect(np.all(np.abs(gens.sum(1) - loads.sum(1)) <= grid.BALANCE_TOL), "pre-fault balance")
        p_min = np.array([gen.p_min for gen in g.generators])
        p_max = np.array([gen.p_max for gen in g.generators])
        expect(np.all((gens >= p_min - TOL_MW) & (gens <= p_max + TOL_MW)), "generator limits")
        expect(np.all(np.abs(flows) <= g.line_limits + TOL_MW), "pre-fault line limits")
        expect(scenario_gen.load_database(self.out) == db, "dataset.csv does not round-trip")
        if self.seed == DEFAULT_SEED and k in self.DIGESTS:
            expect(pool_digest(db) == self.DIGESTS[k], f"pool digest of input {k} changed")


class TrainModels(Workload):
    """Op: one seeded re-split of a fixed pool, then 11 calibrated models."""

    name = "train-models"
    N, SPLITS = 500, (300, 100, 100)
    items = SPLITS[0]
    # models_digest of input k at DEFAULT_SEED, recorded at the benchmark's first commit
    DIGESTS = {
        0: "51ba740fc3153cc8", 1: "3f09aa5656ef7a91", 2: "99e4fa940a86f2d0", 3: "ec79d71b94b39838",
        4: "9c8d5c817d5603e9", 5: "32df1f1081ba26fe", 6: "0bd0fd2b01405d33", 7: "6a78d51cf5848110",
    }

    def setup(self, work):
        self.db = scenario_gen.build_database(grid.six_bus(), n=self.N, contingencies=ALL_LINES,
                                              seed=DATASET_SEED, splits=self.SPLITS)
        self.config = experiments.ExperimentConfig(n=self.N, splits=self.SPLITS, seed=self.seed,
                                                   rounds=100, mode="samme", k_folds=3)
        a, b, _ = self.SPLITS
        self.cuts = []
        for k in range(N_INPUTS):
            perm = np.random.default_rng([self.seed, 3, k]).permutation(self.N)
            self.cuts.append((perm[:a], perm[a:a + b], perm[a + b:]))
        self.x = self.db.features_matrix()
        self.notes["probabilities_outside_0_1"] = 0  # all rounding overshoots of raw scores

    def op(self, k):
        train_idx, calib_idx, _ = self.cuts[k]
        return [experiments.fit_contingency_model(self.db, train_idx, calib_idx, c, self.config)
                for c in ALL_LINES]

    def check(self, k, models):
        expect([m.contingency for m in models] == list(ALL_LINES), "one model per line")
        x_test = self.x[self.cuts[k][2]]
        for m in models:
            score = np.asarray(learner.ensemble_score(m.ensemble, x_test))
            vote = np.asarray(learner.ensemble_vote(m.ensemble, x_test))
            expect(np.array_equal(vote, (score >= 0.5).astype(int)), f"line {m.contingency}: vote != score >= 0.5")
            prob = np.asarray(m.probability(x_test), dtype=float)
            tol = SCORE_ROUNDING if m.params is None else 0.0
            expect(np.all(np.isfinite(prob) & (prob >= -tol) & (prob <= 1 + tol)),
                   f"line {m.contingency}: probability outside [0, 1]")
            self.notes["probabilities_outside_0_1"] += int(np.sum((prob < 0) | (prob > 1)))
        if self.seed == DEFAULT_SEED and k in self.DIGESTS:
            expect(models_digest(models) == self.DIGESTS[k], f"model digest of input {k} changed")


class TriageCli(Workload):
    """Op (a cycle): ``riskgate triage`` of one held-out batch, with its own line costs, against 11 models."""

    name = "triage-cli"
    TRAIN_SPLITS = (200, 100, 0)
    HELD_OUT, BATCH = 330, 300
    BUDGET = 33  # 1% of the batch's 300 x 11 scenarios
    items = BATCH
    min_ops = 100  # so that cycle_ms_p90 has ten samples beyond it

    def setup(self, work):
        six = grid.six_bus()
        pool = scenario_gen.build_database(six, n=sum(self.TRAIN_SPLITS), contingencies=ALL_LINES,
                                           seed=DATASET_SEED, splits=self.TRAIN_SPLITS)
        held = scenario_gen.build_database(six, n=self.HELD_OUT, contingencies=ALL_LINES,
                                           seed=DATASET_SEED + 1, splits=(0, 0, self.HELD_OUT))
        config = experiments.ExperimentConfig(n=len(pool), splits=self.TRAIN_SPLITS, seed=self.seed,
                                              rounds=100, mode="samme", k_folds=3)
        train_idx, calib_idx = pool.split_indices("train"), pool.split_indices("calib")
        paths = []
        for c in ALL_LINES:
            m = experiments.fit_contingency_model(pool, train_idx, calib_idx, c, config)
            paths.append(work / f"model{c}.json")
            learner.save_model(paths[-1], m.ensemble, contingency=c, calibration=m.params)
        self.models = ",".join(map(str, paths))
        self.contingencies, self.batches, self.labels = [], [], []
        for k in range(N_INPUTS):
            # the line probabilities and costs decide which scenarios are verified, and how
            # many of them need an LP (0.55 to 1.0 of them): a draw per input, not per run,
            # so that a run's cost does not hang on one draw
            params = experiments.draw_contingency_params(ALL_LINES, derive_seed(self.seed, 6, k))
            self.contingencies.append(work / f"contingencies{k}.json")
            self.contingencies[-1].write_text(json.dumps(
                [{"line_id": c, "p_c": p.probability, "cost_ratio": p.ratio} for c, p in sorted(params.items())]))
            rng = np.random.default_rng([self.seed, 7, k])
            idx = np.sort(rng.choice(self.HELD_OUT, self.BATCH, replace=False))
            batch = scenario_gen.LabeledDatabase(
                conditions=[held.conditions[i] for i in idx],
                labels={c: held.labels[c][idx] for c in ALL_LINES},
                splits=["test"] * self.BATCH, seed=held.seed)
            self.batches.append(work / f"batch{k}.csv")
            scenario_gen.save_database(batch, self.batches[-1])
            self.labels.append(batch.labels)
        self.out = work / "triage.csv"
        self.op(0)  # warm-up cycle

    def op(self, k):
        run_cli(["triage", "--data", self.batches[k], "--models", self.models,
                 "--contingencies-file", self.contingencies[k], "--budget", self.BUDGET, "--out", self.out])
        return self.out

    def check(self, k, out):
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        expect(len(rows) == self.BATCH * len(ALL_LINES), "triage.csv does not list every scenario")
        risk = np.array([float(r["risk"]) for r in rows])
        expect(np.all(np.diff(risk) <= 0), "risk in triage.csv increases")
        high = [r for r in rows if r["in_high_set"] == "1"]
        expect(len(high) == self.BUDGET, f"high-risk set has {len(high)} rows, budget {self.BUDGET}")
        for r in high:
            truth = self.labels[k][int(r["contingency"])][int(r["condition"])]
            expect(r["oracle_label"] == str(truth), f"scenario {r['scenario']}: oracle label != batch label")


WORKLOADS = {w.name: w for w in (GeneratePool, TrainModels, TriageCli)}
