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
mean fold error (ties go to fewer rounds).  The k fold chains boost in
lockstep, one batched stump search per round for all of them, and each
chain's stumps and weights are bit for bit those it would get alone.  A
batch keeps its chains for its whole life: a SAMME chain that ends steps
on with the others, and its later stumps and weights are dropped.

There is one stump search, `_StumpFitter`, and a single training matrix
is a batch of one: the final chain, `train_stump` and each node of the
tree baseline use it too.  Every chain's sort order is filtered from one
stable argsort of the training split, so `train_adaboost` and
`train_single_tree` each sort once, and both classes' prefix sums run as
the real and imaginary parts of one complex ``cumsum``.  Training inputs
must be a finite matrix with 0/1 labels (`_training_data`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateData, MalformedFile, SingleClassData, integer, number, read_json, write_texts

LEAF_EPS = 1e-6  # probability clamp applied before any logarithm
_TIE_TOL = 1e-12  # impurity window treated as a tie (lexicographic winner)
_ERR_FLOOR = 1e-10  # weighted-error clamp for discrete stump weights
_CLASSES = np.array([0, 1]).reshape(2, 1, 1)

MODEL_SCHEMA_VERSION = 1
MODES = ("samme", "samme.r")  # discrete vote weights, real-valued half-log-odds
MAX_ROUNDS = 10_000  # ample for the studies' 100-round ensembles


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


def _goes_left(stumps, columns) -> np.ndarray:
    """``(len(stumps), n)``: whether each row goes left at each stump.

    Row ``r`` of ``columns`` holds the values stump ``r`` splits on; a
    constant stump sends every row left, whatever its row holds.
    """
    goes_left = columns <= np.array([s.threshold for s in stumps]).reshape(-1, 1)
    constant = [s.feature is None for s in stumps]
    if any(constant):
        goes_left[constant] = True
    return goes_left


class _StumpFitter:
    """Searches every feature's split of a batch of training sets at once.

    Chain ``i`` of the batch trains on the rows ``rows[i]`` of ``x``;
    by default there is one chain, on every row.  A chain's rows sit in
    its row of a ``(k, M)`` layout, in the order of ``x``, and the slots
    past its row count are zero-weight padding.  The fitter is built
    once per batch, in one pass over its chains, and boosting rounds
    only redo the weighted prefix sums: per chain and searched feature
    it keeps the stable sort order, the mask of sorted positions that
    are not a cut (equal to the next value, or padding) and the cut
    midpoints, all ``(k, F, M-1)``.  Every chain's order is filtered
    from one stable argsort of ``x`` (pass ``order`` when it is known):
    restricted to a subset of the rows, a stable order is that subset's
    own stable order.  A feature not constant over ``x`` is searched,
    and left out of ``has_cut`` by each chain that cannot cut it.

    Both classes' prefix sums run as the real and imaginary parts of one
    complex ``cumsum``, and each is sequential along its row, so every
    impurity equals the one a feature-by-feature search of the chain's
    rows alone computes; the class totals are summed over each chain's
    own rows, as numpy's pairwise sum rounds by length.  Ties break
    lexicographically: the first feature wins unless a later one beats
    it by more than ``_TIE_TOL``, and within a feature the first cut
    within ``_TIE_TOL`` of its minimum wins.
    """

    def __init__(self, x: np.ndarray, rows=None, order=None):
        n, n_features = x.shape
        rows = np.ones((1, n), dtype=bool) if rows is None else np.asarray(rows, dtype=bool)
        if order is None:
            order = np.argsort(x.T, axis=1, kind="stable")
        ends = np.take_along_axis(x.T, order[:, [0, -1]], axis=1) if n else np.zeros((n_features, 2))
        self.features = np.flatnonzero(ends[:, 0] != ends[:, 1]).tolist()
        order, xt = order[self.features], x.T[self.features]
        self.sizes = rows.sum(axis=1).tolist()
        k, m, f = len(rows), max(self.sizes, default=0), len(self.features)
        self.index = np.zeros((k, m), dtype=np.intp)  # row of x in each slot; padding reads row 0
        self.order = np.empty((k, f, max(m - 1, 0)), dtype=np.intp)
        self.not_cut = np.ones(self.order.shape, dtype=bool)
        self.midpoints = np.zeros(self.order.shape)
        self.has_cut = []  # positions in ``features`` of the features with a cut, per chain
        for i, (chain, size) in enumerate(zip(rows, self.sizes)):
            self.index[i, :size] = np.flatnonzero(chain)
            sr = order[chain[order]].reshape(f, size)
            sv = np.take_along_axis(xt, sr, axis=1)
            slot = np.cumsum(chain) - 1 + i * m  # flat slot of each row of the chain
            # the last sorted position is never a cut; padding points at a zero-weight slot
            self.order[i] = i * m + m - 1
            cuts = max(size - 1, 0)
            self.order[i, :, :cuts] = slot[sr[:, :-1]]
            self.not_cut[i, :, :cuts] = sv[:, :-1] == sv[:, 1:]
            self.midpoints[i, :, :cuts] = (sv[:, :-1] + sv[:, 1:]) / 2.0
            self.has_cut.append(np.flatnonzero(~self.not_cut[i].all(axis=1)).tolist())
        # flat position of the first cut of each (chain, feature) row
        self.starts = np.arange(k * f).reshape(k, f) * self.order.shape[2]
        # Work arrays reused by every fit: fresh temporaries of this size
        # cost more in page faults than the arithmetic on them.
        self.weights = np.zeros(self.index.shape, dtype=complex)
        self.sums = np.empty(self.order.shape, dtype=complex)
        self.work = np.empty((3, 2) + self.order.shape)
        self.mask = np.empty((2,) + self.order.shape, dtype=bool)

    def fit(self, y: np.ndarray, w: np.ndarray):
        """The best stump of each chain, for labels ``y`` and weights ``w`` in the ``(k, M)`` layout.

        One-dimensional ``y`` and ``w`` are a batch of one, and give one stump.
        """
        if np.ndim(y) == 1:
            return self.fit(np.asarray(y)[None], np.asarray(w)[None])[0]
        w01 = np.where(np.equal(y, _CLASSES), w, 0.0)  # (2, k, M): the weights of class 0, of class 1
        t0, t1 = zip(*(np.add.reduce(w01[:, i, :size], axis=1).tolist()
                       for i, size in enumerate(self.sizes)))
        total = [a + b for a, b in zip(t0, t1)]
        searched = [a != 0.0 and b != 0.0 for a, b in zip(t0, t1)]
        for tot, search, has_cut in zip(total, searched, self.has_cut):
            if tot <= 0:
                raise ValueError("example weights must not all be zero")
            if search and not has_cut:
                raise DegenerateData("all feature vectors are identical with both classes present")
        if any(searched):
            c0, c1, best, cut = self._search(w01, np.array([t0, t1, total]))
        stumps = []
        for i, (n0, n1, search, has_cut) in enumerate(zip(t0, t1, searched, self.has_cut)):
            if not search:
                leaf = _leaf(n0, n1)
                stumps.append(Stump(feature=None, threshold=0.0, left=leaf, right=leaf))
                continue
            row = best[i]
            f = has_cut[0]
            for g in has_cut[1:]:
                if row[g] < row[f] - _TIE_TOL:
                    f = g
            j = cut[i][f]
            l0, l1 = float(c0[i, f, j]), float(c1[i, f, j])
            stumps.append(Stump(feature=self.features[f], threshold=float(self.midpoints[i, f, j]),
                                left=_leaf(l0, l1), right=_leaf(n0 - l0, n1 - l1)))
        return stumps

    def _search(self, w01, totals):
        """Search every chain and feature for its best cut.

        ``w01`` holds the weights of each class and ``totals`` each chain's
        class and total weights, ``(3, k)``.  Returns the class prefix
        sums ``c0``, ``c1`` at every sorted position, and per chain and
        feature the first cut within ``_TIE_TOL`` of its least impurity
        and the impurity there, as lists.
        """
        self.weights.real, self.weights.imag = w01
        # mode="clip" skips the bounds check that would buffer ``out``
        sums = np.add.accumulate(self.weights.take(self.order, out=self.sums, mode="clip"),
                                 axis=2, out=self.sums)
        t0, t1, total = totals[:, :, None, None]
        # the class weights and total weight left (0) and right (1) of each cut
        n0, n1, side = self.work
        np.copyto(n0[0], sums.real)
        np.copyto(n1[0], sums.imag)
        np.subtract(t0, n0[0], out=n0[1])
        np.subtract(t1, n1[0], out=n1[1])
        np.add(n0[0], n1[0], out=side[0])
        np.subtract(total, side[0], out=side[1])
        # both sides' gini terms (n0*n0 + n1*n1) / side, 0 on a side without weight
        gini = np.multiply(n0, n0, out=n0)
        gini += np.multiply(n1, n1, out=n1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gini /= side
        np.copyto(gini, 0.0, where=np.less_equal(side, 0.0, out=self.mask))
        impurity = np.subtract(total, gini[0], out=n1[0])
        impurity -= gini[1]
        impurity /= total
        np.copyto(impurity, np.inf, where=self.not_cut)
        near_min = np.less_equal(impurity, np.minimum.reduce(impurity, axis=2, keepdims=True) + _TIE_TOL,
                                 out=self.mask[0])
        cut = near_min.argmax(axis=2)
        best = np.take(impurity, self.starts + cut).tolist()
        return sums.real, sums.imag, best, cut.tolist()


def _leaf(n0: float, n1: float) -> Leaf:
    """Leaf of class weights ``n0``, ``n1``; its probabilities stay ``LEAF_EPS`` from 0 and 1."""
    tot = n0 + n1
    p1 = min(max(n1 / tot if tot > 0 else 0.5, LEAF_EPS), 1.0 - LEAF_EPS)
    return Leaf(1.0 - p1, p1)


def _training_data(features, labels, weights=None):
    """``features``, ``labels`` and ``weights`` as arrays, or ValueError.

    The features must be a finite matrix, the labels 0 or 1 and the
    weights finite and nonnegative (default: all 1), one of each per row.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be a matrix, got {x.ndim} dimension(s)")
    if y.shape != (len(x),) or w.shape != (len(x),):
        raise ValueError(f"{len(x)} feature rows need as many labels and weights, "
                         f"got {y.shape} and {w.shape}")
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if not np.all(np.isfinite(w)):
        raise ValueError("example weights must be finite")
    if np.any(w < 0):
        raise ValueError("example weights must be nonnegative")
    return x, y.astype(int), w


def train_stump(features, labels, weights=None) -> Stump:
    """Fit the weighted-gini-optimal stump (midpoint thresholds).

    Single-class data yields a constant stump predicting that class;
    identical feature vectors with both classes present raise
    DegenerateData.  Inputs outside `_training_data`'s contract raise
    ValueError.
    """
    x, y, w = _training_data(features, labels, weights)
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


def _half_log_odds(stumps) -> np.ndarray:
    """``(len(stumps), 2)``: the half-log-odds of each stump's left and right leaf."""
    p1 = np.array([[s.left.p1, s.right.p1] for s in stumps]).reshape(-1, 2)
    return 0.5 * (np.log(p1) - np.log1p(-p1))


def _prefix_scores(stumps, alphas, mode, x) -> np.ndarray:
    """``(len(stumps) + 1, n)`` scores: row ``r`` sums the first ``r`` rounds' terms.

    SAMME adds each stump's vote weighted by its ``alpha``; the
    real-valued mode adds the half-log-odds of the leaf the row falls
    in.  The sum runs in round order (``cumsum``), as the rounds were
    added; a pairwise sum such as ``np.sum(axis=0)`` would round
    differently.
    """
    x = np.atleast_2d(x)
    if mode == "samme":
        labels = np.array([[s.left.label, s.right.label] for s in stumps]).reshape(-1, 2)
        leaves = np.array(alphas, dtype=float).reshape(-1, 1) * labels
    else:
        leaves = _half_log_odds(stumps)
    columns = x.T[[s.feature or 0 for s in stumps]] if x.shape[1] else np.zeros((len(stumps), len(x)))
    scores = np.zeros((len(stumps) + 1, len(x)))
    scores[1:] = np.where(_goes_left(stumps, columns), leaves[:, :1], leaves[:, 1:])
    return np.cumsum(scores, axis=0, out=scores)


def _boost(x, y, fitter, rounds, mode):
    """Boost every chain of ``fitter`` for up to ``rounds`` rounds in lockstep.

    Returns ``(stumps, alphas)`` for each chain.  Each round is one
    batched stump search and one array step of the weight update; the
    sums that score and normalise a chain's weights run over its own
    rows, so every chain boosts as it would alone.  A SAMME chain ends
    when a stump other than its first has a weighted error of 0.5 or
    more: that stump and every later one are dropped with their weights,
    but the chain steps on in the batch, which stops once every chain
    has ended.
    """
    lengths = np.array(fitter.sizes)[:, None]
    valid = np.arange(fitter.index.shape[1]) < lengths
    columns = np.moveaxis(x[fitter.index], 2, 1)  # (k, F, M): each chain's features in its slots
    y = np.where(valid, y[fitter.index], 0)
    sign = np.where(y == 1, 1.0, -1.0)
    w = np.where(valid, 1.0 / lengths, 0.0)
    result = [([], []) for _ in fitter.sizes]
    ended = [False] * len(result)
    for _ in range(rounds):
        stumps = fitter.fit(y, w)
        goes_left = _goes_left(stumps, columns[range(len(stumps)), [s.feature or 0 for s in stumps]])
        if mode == "samme":
            votes = np.array([(s.left.label, s.right.label) for s in stumps])
            miss = np.where(goes_left, votes[:, :1], votes[:, 1:]) != y
            err = [np.add.reduce(row[:n][hit[:n]]) for row, hit, n in zip(w, miss, fitter.sizes)]
            ended = [end or (e >= 0.5 and bool(chain)) for end, e, (chain, _) in zip(ended, err, result)]
            err = np.minimum(np.maximum(err, _ERR_FLOOR), 1.0 - _ERR_FLOOR)
            alpha = np.log((1.0 - err) / err)  # + log(K-1) = 0 for two classes
            for (_, alphas), a, end in zip(result, np.maximum(alpha, 0.0).tolist(), ended):
                if not end:
                    alphas.append(a)
            w = w * np.exp(alpha[:, None] * miss)
        else:
            leaves = _half_log_odds(stumps)
            w = w * np.exp(-sign * np.where(goes_left, leaves[:, :1], leaves[:, 1:]))
        w /= np.array([np.add.reduce(row[:n]) for row, n in zip(w, fitter.sizes)])[:, None]
        for (chain, _), stump, end in zip(result, stumps, ended):
            if not end:
                chain.append(stump)
        if all(ended):
            break
    return result


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
    RNG); folds whose training part degenerates to one class, or whose
    validation part is empty, are skipped.  The fold chains boost in
    lockstep, and they and the final chain share one sort order of the
    features.

    Raises
    ------
    SingleClassData
        If the training split contains only one class.
    ValueError
        On a bad parameter, or inputs outside `_training_data`'s contract.
    """
    if mode not in MODES:
        raise ValueError(f"unknown boosting mode {mode!r}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds > MAX_ROUNDS:
        raise ValueError(f"rounds must be <= {MAX_ROUNDS}, got {rounds}")
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    x, y, _ = _training_data(features, labels)
    if len(np.unique(y)) < 2:
        raise SingleClassData("training split contains a single class")
    order = np.argsort(x.T, axis=1, kind="stable")

    best_rounds = rounds
    if rounds > 1:
        fold_of = np.empty(len(y), dtype=int)
        for cls in (0, 1):
            idx = np.flatnonzero(y == cls)
            fold_of[idx] = np.arange(len(idx)) % k_folds
        rows = [fold_of != fold for fold in range(k_folds)]
        rows = [tr for tr in rows if len(np.unique(y[tr])) == 2 and not tr.all()]
        if rows:
            chains = _boost(x, y, _StumpFitter(x, rows, order), rounds, mode)
            curves = [_prefix_error_curve(stumps, alphas, mode, x[~tr], y[~tr], rounds)
                      for (stumps, alphas), tr in zip(chains, rows)]
            mean_err = np.mean(curves, axis=0)
            best_rounds = int(np.flatnonzero(mean_err <= mean_err.min() + 1e-12)[0]) + 1

    [(stumps, alphas)] = _boost(x, y, _StumpFitter(x, order=order), best_rounds, mode)
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


def _grow(x, y, order, rows, depth, max_depth):
    """The subtree grown on the rows ``rows`` (a mask over ``x``), searched through the split's ``order``."""
    n = int(rows.sum())
    n1 = int(np.sum(y[rows] == 1))
    n0 = n - n1
    leaf = TreeNode(None, 0.0, None, None, n0 / n, n1 / n)
    if depth >= max_depth or n0 == 0 or n1 == 0:
        return leaf
    try:  # unit weights with both classes present always search
        stump = _StumpFitter(x, rows[None], order).fit(y[rows], np.ones(n))
    except DegenerateData:
        return leaf
    left = x[:, stump.feature] <= stump.threshold
    return replace(leaf, feature=stump.feature, threshold=stump.threshold,
                   left=_grow(x, y, order, rows & left, depth + 1, max_depth),
                   right=_grow(x, y, order, rows & ~left, depth + 1, max_depth))


def train_single_tree(features, labels, max_depth: int = 3) -> TreeNode:
    """Greedy gini CART to ``max_depth``, as its root node; leaves keep class frequencies.

    Every node searches through one argsort of the split.  No rows raise ValueError.
    """
    x, y, _ = _training_data(features, labels)
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not len(y):
        raise ValueError("a tree needs at least one training row")
    return _grow(x, y, np.argsort(x.T, axis=1, kind="stable"), np.ones(len(y), dtype=bool), 0, max_depth)


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


def model_text(ensemble: Ensemble, contingency: int, calibration=None) -> str:
    """The text of ``model.json``: the line id, stumps, weights, optional sigmoid parameters."""
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "mode": ensemble.mode,
        "contingency": contingency,
        "stumps": [_stump_to_dict(s) for s in ensemble.stumps],
        "weights": ensemble.weights,
        "calibration": None if calibration is None else {"a": calibration.a, "b": calibration.b},
    }
    return json.dumps(doc, indent=2) + "\n"


def save_model(path, ensemble: Ensemble, contingency: int, calibration=None) -> None:
    """Write `model_text` to ``path``."""
    write_texts({path: model_text(ensemble, contingency, calibration)})


def _leaf_from_dict(leaf, what) -> Leaf:
    """A leaf as training writes it (`_leaf`): ``p1`` within ``LEAF_EPS`` of 0 and 1, so its log-odds are finite."""
    p0, p1 = (number(leaf[p], f"{what} {p}", 0.0, 1.0) for p in ("p0", "p1"))
    if not LEAF_EPS <= p1 <= 1.0 - LEAF_EPS:
        raise ValueError(f"{what} p1 must lie in [LEAF_EPS, 1 - LEAF_EPS] = [{LEAF_EPS:g}, {1.0 - LEAF_EPS:g}], "
                         f"got {p1!r}")
    if abs(p0 - (1.0 - p1)) > 1e-9:  # training writes p0 = 1 - p1 exactly
        raise ValueError(f"{what} p0 must be 1 - p1 = {1.0 - p1!r}, got {p0!r}")
    return Leaf(p0, p1)


def _stump_from_dict(s, what) -> Stump:
    feature = s["feature"]
    if feature is not None and integer(feature, f"{what} feature") < 0:
        raise ValueError(f"stump feature {feature} is negative")
    leaves = [_leaf_from_dict(s[side], f"{what} {side} leaf") for side in ("left", "right")]
    return Stump(feature, number(s["threshold"], f"{what} threshold"), *leaves)


def load_model(path):
    """Read ``model.json`` as the `CalibratedEnsemble` it was saved from.

    The contingency must be an integer line id and the mode one of
    ``MODES``, with one finite nonnegative weight per stump in
    ``"samme"`` and null weights in ``"samme.r"``.  Stump features are
    null or nonnegative integers, thresholds and sigmoid parameters
    finite.  A leaf's ``p1`` lies in [``LEAF_EPS``, 1 - ``LEAF_EPS``], the
    range training writes, and its ``p0`` within 1e-9 of 1 - ``p1``.  A
    stump feature past the data's width is rejected when the model is
    scored.  Every rejection is a MalformedFile naming ``path``.
    """
    from .calibration import CalibratedEnsemble, PlattParams

    doc = read_json(path)
    try:
        version = doc["version"]
        if version != MODEL_SCHEMA_VERSION:
            raise MalformedFile(f"{path}: unsupported model version {version!r}")
        contingency = integer(doc["contingency"], "contingency")
        stumps = [_stump_from_dict(s, f"stump {k}") for k, s in enumerate(doc["stumps"])]
        mode, weights = doc["mode"], doc["weights"]
        if mode not in MODES:
            raise MalformedFile(f"{path}: unknown boosting mode {mode!r}, expected one of {MODES}")
        if mode == "samme" and (weights is None or len(weights) != len(stumps)):
            raise MalformedFile(f"{path}: a samme model needs one weight per stump ({len(stumps)})")
        if mode != "samme" and weights is not None:
            raise MalformedFile(f"{path}: a {mode} model needs null weights")
        ensemble = Ensemble(mode=mode, stumps=stumps, weights=None if weights is None else
                            [number(v, f"weight {k}", lo=0.0) for k, v in enumerate(weights)])
        cal = doc.get("calibration")
        params = None if cal is None else PlattParams(a=number(cal["a"], "calibration a"),
                                                      b=number(cal["b"], "calibration b"))
        return CalibratedEnsemble(ensemble, contingency, params)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: bad model description: {exc}") from exc
