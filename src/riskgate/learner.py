"""Boosted decision-stump ensembles and the depth-limited tree baseline.

Two boosting modes are supported.  The real-valued variant
(``"samme.r"``, the default of `train_adaboost` and of ``riskgate train
--mode``) drives an additive half-log-odds margin from stump leaf
probabilities.  The discrete variant (``"samme"``, the default of
``ExperimentConfig.mode``, so of the shipped studies and the benchmark)
keeps explicit nonnegative stump weights and realises the
weighted-majority vote literally.  Both expose the same two outputs, as
arrays with one entry per row of a feature matrix: a binary vote and a
secure-class score in [0, 1] with ``vote == (score >= 0.5)`` exactly.
A 1-D feature vector is one row.

The ensemble size is chosen by k-fold cross-validation: the final model
is retrained on the full split with the round count that minimised the
mean fold error (ties go to fewer rounds).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateData, MalformedFile, SingleClassData, VersionMismatch, read_json

LEAF_EPS = 1e-6  # probability clamp applied before any logarithm
_TIE_TOL = 1e-12  # impurity window treated as a tie (lexicographic winner)
_ERR_FLOOR = 1e-10  # weighted-error clamp for discrete stump weights

MODEL_SCHEMA_VERSION = 1
MODES = ("samme", "samme.r")  # discrete vote weights, real-valued half-log-odds


@dataclass(frozen=True)
class Leaf:
    p0: float
    p1: float

    @property
    def label(self) -> int:
        return 1 if self.p1 >= self.p0 else 0


@dataclass(frozen=True)
class Stump:
    """Depth-1 split: ``x[feature] <= threshold`` goes left."""

    feature: int | None  # None for a constant (single-leaf) stump
    threshold: float
    left: Leaf
    right: Leaf

    def values(self, x: np.ndarray, left, right) -> np.ndarray:
        """``left`` for rows of ``x`` that go left, ``right`` for the others."""
        if self.feature is None:
            return np.full(len(x), left)
        return np.where(x[:, self.feature] <= self.threshold, left, right)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.values(x, self.left.label, self.right.label)


class _StumpFitter:
    """Searches every feature's split at once over a cached sort order.

    Built once per training matrix, so boosting rounds only redo the
    weighted prefix sums: per feature (one row each) it keeps the stable
    sort order, the mask of sorted positions that are not a cut (equal
    to the next value) and the cut midpoints, all ``(F, n-1)``.  Each
    row's prefix sum is sequential, so every impurity equals the one a
    feature-by-feature search computes.  Ties break lexicographically:
    the first feature wins unless a later one beats it by more than
    ``_TIE_TOL``, and within a feature the first cut within ``_TIE_TOL``
    of its minimum wins.
    """

    def __init__(self, x: np.ndarray):
        order = np.argsort(x.T, axis=1, kind="stable")
        sv = np.take_along_axis(x.T, order, axis=1)
        self.order = order[:, :-1].copy()  # the last position is never a cut
        self.not_cut = sv[:, :-1] == sv[:, 1:]
        self.has_cut = np.flatnonzero(~self.not_cut.all(axis=1)).tolist()
        self.midpoints = (sv[:, :-1] + sv[:, 1:]) / 2.0
        # Work arrays reused by every fit: fresh temporaries of this size
        # cost more in page faults than the arithmetic on them.
        self.work = np.empty((6,) + self.midpoints.shape)
        self.mask = np.empty(self.midpoints.shape, dtype=bool)

    def fit(self, y: np.ndarray, w: np.ndarray) -> Stump:
        w0 = np.where(y == 0, w, 0.0)
        w1 = np.where(y == 1, w, 0.0)
        t0, t1 = w0.sum(), w1.sum()
        total = t0 + t1
        if total <= 0:
            raise ValueError("example weights must not all be zero")
        if t0 == 0.0 or t1 == 0.0:
            leaf = _leaf(t0, t1)
            return Stump(feature=None, threshold=0.0, left=leaf, right=leaf)
        if not self.has_cut:
            raise DegenerateData("all feature vectors are identical with both classes present")

        c0, c1, side, left, right, tmp = self.work
        # mode="clip" skips the bounds check that would buffer ``out``
        np.cumsum(np.take(w0, self.order, out=c0, mode="clip"), axis=1, out=c0)
        np.cumsum(np.take(w1, self.order, out=c1, mode="clip"), axis=1, out=c1)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.add(c0, c1, out=side)
            _gini_term(c0, c1, side, left, tmp, self.mask)
            np.subtract(total, side, out=side)
            _gini_term(np.subtract(t0, c0, out=right), np.subtract(t1, c1, out=tmp),
                       side, right, tmp, self.mask)
        impurity = np.subtract(total, left, out=left)
        impurity -= right
        impurity /= total
        np.copyto(impurity, np.inf, where=self.not_cut)
        near_min = np.less_equal(impurity, impurity.min(axis=1, keepdims=True) + _TIE_TOL, out=self.mask)
        cut = near_min.argmax(axis=1)
        best = impurity[np.arange(len(cut)), cut].tolist()

        f = self.has_cut[0]
        for g in self.has_cut[1:]:
            if best[g] < best[f] - _TIE_TOL:
                f = g
        j = cut[f]
        l0, l1 = c0[f, j], c1[f, j]
        return Stump(feature=f, threshold=float(self.midpoints[f, j]),
                     left=_leaf(l0, l1), right=_leaf(t0 - l0, t1 - l1))


def _leaf(n0, n1) -> Leaf:
    """Leaf of class weights ``n0``, ``n1``; its probabilities stay ``LEAF_EPS`` from 0 and 1."""
    tot = n0 + n1
    p1 = min(max(n1 / tot if tot > 0 else 0.5, LEAF_EPS), 1.0 - LEAF_EPS)
    return Leaf(1.0 - p1, float(p1))


def _gini_term(n0, n1, side, out, tmp, mask):
    """``out = (n0*n0 + n1*n1) / side``, or 0 where ``side <= 0``; ``tmp`` may alias ``n1``."""
    np.multiply(n0, n0, out=out)
    out += np.multiply(n1, n1, out=tmp)
    out /= side
    np.copyto(out, 0.0, where=np.less_equal(side, 0.0, out=mask))


def train_stump(features, labels, weights=None) -> Stump:
    """Fit the weighted-gini-optimal stump (midpoint thresholds).

    Single-class data yields a constant stump predicting that class;
    identical feature vectors with both classes present raise
    DegenerateData.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("example weights must be nonnegative")
    return _StumpFitter(x).fit(y, w)


# -- boosting ----------------------------------------------------------------

@dataclass
class Ensemble:
    """Boosted stump ensemble; ``weights`` is None in real-valued mode."""

    mode: str  # one of MODES
    stumps: list[Stump]
    weights: list[float] | None

    @property
    def rounds(self) -> int:
        return len(self.stumps)


def _term(stump: Stump, alpha, mode, x) -> np.ndarray:
    """One round's addition to the score of each row of ``x``.

    SAMME adds the stump's vote weighted by ``alpha``; the real-valued
    mode adds the half-log-odds of the leaf the row falls in.
    """
    if mode == "samme":
        return alpha * stump.predict(x)
    p1 = np.array([stump.left.p1, stump.right.p1])
    half_log_odds = 0.5 * (np.log(p1) - np.log1p(-p1))
    return stump.values(x, half_log_odds[0], half_log_odds[1])


def _prefix_scores(stumps, alphas, mode, x) -> np.ndarray:
    """``(len(stumps) + 1, n)`` scores: row ``r`` sums the first ``r`` rounds' terms.

    The sum runs in round order (``cumsum``), as the rounds were added;
    a pairwise sum such as ``np.sum(axis=0)`` would round differently.
    """
    x = np.atleast_2d(x)
    if mode != "samme":
        alphas = [None] * len(stumps)
    terms = [np.zeros(len(x))] + [_term(s, a, mode, x) for s, a in zip(stumps, alphas)]
    return np.cumsum(terms, axis=0)


def _boost(x, y, fitter, rounds, mode):
    n = len(y)
    w = np.full(n, 1.0 / n)
    sign = np.where(y == 1, 1.0, -1.0)
    stumps: list[Stump] = []
    alphas: list[float] = []
    for _ in range(rounds):
        stump = fitter.fit(y, w)
        if mode == "samme":
            miss = stump.predict(x) != y
            err = float(w[miss].sum())
            if err >= 0.5 and stumps:
                break
            err = min(max(err, _ERR_FLOOR), 1.0 - _ERR_FLOOR)
            alpha = np.log((1.0 - err) / err)  # + log(K-1) = 0 for two classes
            alphas.append(float(max(alpha, 0.0)))
            w = w * np.exp(alpha * miss)
        else:
            w = w * np.exp(-sign * _term(stump, None, mode, x))
        stumps.append(stump)
        w = w / w.sum()
    return stumps, alphas


def _prefix_error_curve(stumps, alphas, mode, x, y, rounds):
    """Validation error of every prefix ensemble, padded to ``rounds`` with the last."""
    scores = _prefix_scores(stumps, alphas, mode, x)
    threshold = np.zeros(len(scores))
    if mode == "samme":  # secure from half the weight so far; with no weight yet, every row is
        threshold[1:] = 0.5 * np.cumsum(alphas)
    errs = np.mean((scores >= threshold[:, None]) != y, axis=1)
    return errs[np.minimum(np.arange(1, rounds + 1), len(stumps))]


def train_adaboost(features, labels, rounds: int = 100, mode: str = "samme.r", k_folds: int = 3) -> Ensemble:
    """Boost stumps for up to ``rounds`` rounds with cross-validated stopping.

    Folds are assigned round-robin within each class (deterministic, no
    RNG); folds whose training part degenerates to one class are skipped.

    Raises
    ------
    SingleClassData
        If the training split contains only one class.
    """
    if mode not in MODES:
        raise ValueError(f"unknown boosting mode {mode!r}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if len(np.unique(y)) < 2:
        raise SingleClassData("training split contains a single class")

    best_rounds = rounds
    if rounds > 1:
        fold_of = np.empty(len(y), dtype=int)
        for cls in (0, 1):
            idx = np.flatnonzero(y == cls)
            fold_of[idx] = np.arange(len(idx)) % k_folds
        curves = []
        for fold in range(k_folds):
            tr = fold_of != fold
            va = ~tr
            if len(np.unique(y[tr])) < 2 or not va.any():
                continue
            stumps, alphas = _boost(x[tr], y[tr], _StumpFitter(x[tr]), rounds, mode)
            curves.append(_prefix_error_curve(stumps, alphas, mode, x[va], y[va], rounds))
        if curves:
            mean_err = np.mean(curves, axis=0)
            best_rounds = int(np.flatnonzero(mean_err <= mean_err.min() + 1e-12)[0]) + 1

    stumps, alphas = _boost(x, y, _StumpFitter(x), best_rounds, mode)
    return Ensemble(mode=mode, stumps=stumps, weights=alphas if mode == "samme" else None)


def ensemble_score(ensemble: Ensemble, features):
    """Secure-class score in [0, 1] of each row; complements to 1 for the other class.

    Raises ValueError if a stump reads a feature past the width of ``features``.
    """
    x = np.asarray(features, dtype=float)
    widest = max((s.feature for s in ensemble.stumps if s.feature is not None), default=-1)
    if widest >= x.shape[-1]:
        raise ValueError(f"model reads feature {widest}, but the features have {x.shape[-1]} columns")
    score = _prefix_scores(ensemble.stumps, ensemble.weights, ensemble.mode, x)[-1]
    if ensemble.mode == "samme":
        total = float(np.sum(ensemble.weights))
        # the vote sums in order and the total pairwise, which can put a
        # unanimous secure vote one ulp above 1
        score = np.full(len(score), 0.5) if total <= 0 else np.minimum(score / total, 1.0)
    else:
        score = 1.0 / (1.0 + np.exp(-2.0 * score))
    return score


def ensemble_vote(ensemble: Ensemble, features):
    """Binary label of each row; 1 exactly when the score reaches 0.5."""
    return (ensemble_score(ensemble, features) >= 0.5).astype(int)


# -- depth-limited tree baseline ----------------------------------------------

@dataclass(frozen=True)
class TreeNode:
    feature: int | None
    threshold: float
    left: "TreeNode | None"
    right: "TreeNode | None"
    p0: float
    p1: float

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _grow(x, y, depth, max_depth):
    n1 = int(np.sum(y == 1))
    n0 = len(y) - n1
    if depth >= max_depth or n0 == 0 or n1 == 0:
        return TreeNode(None, 0.0, None, None, n0 / len(y), n1 / len(y))
    try:
        stump = _StumpFitter(x).fit(y, np.ones(len(y)))
    except DegenerateData:
        return TreeNode(None, 0.0, None, None, n0 / len(y), n1 / len(y))
    if stump.feature is None:
        return TreeNode(None, 0.0, None, None, n0 / len(y), n1 / len(y))
    mask = x[:, stump.feature] <= stump.threshold
    return TreeNode(
        feature=stump.feature,
        threshold=stump.threshold,
        left=_grow(x[mask], y[mask], depth + 1, max_depth),
        right=_grow(x[~mask], y[~mask], depth + 1, max_depth),
        p0=n0 / len(y),
        p1=n1 / len(y),
    )


def train_single_tree(features, labels, max_depth: int = 3) -> TreeNode:
    """Greedy gini CART to ``max_depth``, as its root node; leaves keep class frequencies."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    return _grow(x, y, 0, max_depth)


def _tree_leaf(node: TreeNode, row: np.ndarray) -> TreeNode:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def tree_predict(tree: TreeNode, features):
    """Majority label of the leaf each row falls in (ties go secure)."""
    return (tree_proba(tree, features) >= 0.5).astype(int)


def tree_proba(tree: TreeNode, features):
    """Secure-class leaf frequency of each row, used when thresholding a plain tree."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    return np.array([_tree_leaf(tree, row).p1 for row in x])


# -- model.json ---------------------------------------------------------------

def _leaf_to_dict(leaf: Leaf) -> dict:
    return {"p0": leaf.p0, "p1": leaf.p1, "label": leaf.label}


def _stump_to_dict(stump: Stump) -> dict:
    return {
        "feature": stump.feature,
        "threshold": stump.threshold,
        "left": _leaf_to_dict(stump.left),
        "right": _leaf_to_dict(stump.right),
    }


def save_model(path, ensemble: Ensemble, contingency: int, calibration=None) -> None:
    """Write ``model.json``: the line id, stumps, weights, optional sigmoid parameters."""
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "mode": ensemble.mode,
        "contingency": contingency,
        "stumps": [_stump_to_dict(s) for s in ensemble.stumps],
        "weights": ensemble.weights,
        "calibration": None if calibration is None else {"a": calibration.a, "b": calibration.b},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _integer(value, what) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what, lo=-math.inf, hi=math.inf) -> float:
    """``value`` as a float; ValueError unless it is finite and within ``[lo, hi]``."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    if not lo <= v <= hi:
        raise ValueError(f"{what} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return v


def _stump_from_dict(s, what) -> Stump:
    feature = s["feature"]
    if feature is not None and _integer(feature, f"{what} feature") < 0:
        raise ValueError(f"stump feature {feature} is negative")
    leaves = [Leaf(*(_finite(s[side][p], f"{what} {side} leaf {p}", 0.0, 1.0) for p in ("p0", "p1")))
              for side in ("left", "right")]
    return Stump(feature, _finite(s["threshold"], f"{what} threshold"), *leaves)


def load_model(path):
    """Read ``model.json`` as the `CalibratedEnsemble` it was saved from.

    The contingency must be an integer line id and the mode one of
    ``MODES``, with one finite nonnegative weight per stump in
    ``"samme"`` and null weights in ``"samme.r"``.  Stump features are
    null or nonnegative integers, thresholds and sigmoid parameters
    finite, leaf probabilities in [0, 1].  A stump feature past the
    data's width is rejected when the model is scored.  Every rejection
    is a MalformedFile naming ``path``.
    """
    from .calibration import CalibratedEnsemble, PlattParams

    doc = read_json(path)
    try:
        version = doc["version"]
        if version != MODEL_SCHEMA_VERSION:
            raise VersionMismatch(f"{path}: unsupported model version {version!r}")
        contingency = _integer(doc["contingency"], "contingency")
        stumps = [_stump_from_dict(s, f"stump {k}") for k, s in enumerate(doc["stumps"])]
        mode, weights = doc["mode"], doc["weights"]
        if mode not in MODES:
            raise MalformedFile(f"{path}: unknown boosting mode {mode!r}, expected one of {MODES}")
        if mode == "samme" and (weights is None or len(weights) != len(stumps)):
            raise MalformedFile(f"{path}: a samme model needs one weight per stump ({len(stumps)})")
        if mode != "samme" and weights is not None:
            raise MalformedFile(f"{path}: a {mode} model needs null weights")
        ensemble = Ensemble(mode=mode, stumps=stumps, weights=None if weights is None else
                            [_finite(v, f"weight {k}", lo=0.0) for k, v in enumerate(weights)])
        cal = doc.get("calibration")
        params = None if cal is None else PlattParams(a=_finite(cal["a"], "calibration a"),
                                                      b=_finite(cal["b"], "calibration b"))
        return CalibratedEnsemble(ensemble, contingency, params)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: bad model description: {exc}") from exc
