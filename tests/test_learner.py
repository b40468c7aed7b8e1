"""Learner tests: stump fitting, boosting, trees, model serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskgate.calibration import CalibratedEnsemble
from riskgate.errors import DegenerateData, MalformedFile, SingleClassData, VersionMismatch
from riskgate.learner import (
    _TIE_TOL,
    LEAF_EPS,
    Ensemble,
    Leaf,
    Stump,
    _StumpFitter,
    _prefix_error_curve,
    _prefix_scores,
    _tree_leaf,
    ensemble_score,
    ensemble_vote,
    load_model,
    save_model,
    train_adaboost,
    train_single_tree,
    train_stump,
    tree_predict,
    tree_proba,
)


# -- stump ---------------------------------------------------------------

def test_two_point_split():
    stump = train_stump([[0.0], [1.0]], [0, 1])
    assert stump.feature == 0
    assert stump.threshold == pytest.approx(0.5)
    assert stump.left.label == 0 and stump.right.label == 1
    assert stump.left.p0 == pytest.approx(1 - LEAF_EPS)
    assert stump.right.p1 == pytest.approx(1 - LEAF_EPS)


def test_single_class_gives_constant_stump():
    stump = train_stump([[0.0], [1.0], [2.0]], [1, 1, 1])
    assert stump.feature is None
    assert stump.left.label == 1
    assert stump.left.p1 == pytest.approx(1 - LEAF_EPS)


def test_identical_features_two_classes_degenerate():
    with pytest.raises(DegenerateData):
        train_stump([[3.0, 1.0], [3.0, 1.0]], [0, 1])


def test_second_feature_separates():
    # Labels follow feature 1; feature 0 is useless. Gini enumeration over
    # all candidate splits picks feature 1 at 0.5.
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    stump = train_stump(x, y)
    assert stump.feature == 1
    assert stump.threshold == pytest.approx(0.5)


def test_stump_matches_exhaustive_search():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=(40, 3))
        y = (x[:, 1] + 0.3 * rng.normal(size=40) > 0).astype(int)
        w = rng.uniform(0.1, 1.0, 40)
        stump = train_stump(x, y, w)

        def weighted_gini(mask):
            best = 0.0
            for side in (mask, ~mask):
                tot = w[side].sum()
                if tot == 0:
                    continue
                p1 = w[side][y[side] == 1].sum() / tot
                best += tot * 2 * p1 * (1 - p1)
            return best / w.sum()

        best = None
        for f in range(3):
            vals = np.unique(x[:, f])
            for lo, hi in zip(vals[:-1], vals[1:]):
                thr = (lo + hi) / 2
                g = weighted_gini(x[:, f] <= thr)
                if best is None or g < best - 1e-12:
                    best = g
        got = weighted_gini(x[:, stump.feature] <= stump.threshold)
        assert got == pytest.approx(best, abs=1e-9)


def reference_stump(x, y, w):
    """Column-by-column stump search, the reference for ``_StumpFitter``."""
    order = np.argsort(x, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(x, order, axis=0)
    cuts = []
    midpoints = []
    for f in range(x.shape[1]):
        sv = sorted_vals[:, f]
        idx = np.nonzero(sv[:-1] != sv[1:])[0]
        cuts.append(idx)
        midpoints.append((sv[idx] + sv[idx + 1]) / 2.0)

    w0 = np.where(y == 0, w, 0.0)
    w1 = np.where(y == 1, w, 0.0)
    t0, t1 = w0.sum(), w1.sum()
    total = t0 + t1
    if total <= 0:
        raise ValueError("example weights must not all be zero")
    if t0 == 0.0 or t1 == 0.0:
        label1 = t1 > 0.0
        p1 = 1.0 - LEAF_EPS if label1 else LEAF_EPS
        leaf = Leaf(1.0 - p1, p1)
        return Stump(feature=None, threshold=0.0, left=leaf, right=leaf)

    best = None  # (impurity, feature, cut position, stats)
    for f in range(x.shape[1]):
        idx = cuts[f]
        if len(idx) == 0:
            continue
        c0 = np.cumsum(w0[order[:, f]])[idx]
        c1 = np.cumsum(w1[order[:, f]])[idx]
        wl = c0 + c1
        wr = total - wl
        r0 = t0 - c0
        r1 = t1 - c1
        left_term = np.divide(c0 * c0 + c1 * c1, wl, out=np.zeros_like(wl), where=wl > 0)
        right_term = np.divide(r0 * r0 + r1 * r1, wr, out=np.zeros_like(wr), where=wr > 0)
        impurity = (total - left_term - right_term) / total
        j = int(np.flatnonzero(impurity <= impurity.min() + _TIE_TOL)[0])
        if best is None or impurity[j] < best[0] - _TIE_TOL:
            best = (float(impurity[j]), f, j, (c0[j], c1[j], r0[j], r1[j]))

    if best is None:
        raise DegenerateData("all feature vectors are identical with both classes present")
    _, f, j, (l0, l1, r0, r1) = best

    def leaf(n0, n1):
        tot = n0 + n1
        p1 = np.clip(n1 / tot if tot > 0 else 0.5, LEAF_EPS, 1.0 - LEAF_EPS)
        return Leaf(1.0 - p1, float(p1))

    return Stump(feature=f, threshold=float(midpoints[f][j]), left=leaf(l0, l1), right=leaf(r0, r1))


@st.composite
def stump_problems(draw):
    """Small matrices with many repeated values, so ties and constant columns occur."""
    n = draw(st.integers(1, 12))
    f = draw(st.integers(1, 4))
    values = st.one_of(st.integers(-2, 2).map(float), st.sampled_from([0.1, 0.25, 1.5, -0.7]))
    x = draw(arrays(float, (n, f), elements=values))
    y = draw(arrays(int, n, elements=st.integers(0, 1)))
    w = draw(arrays(float, n, elements=st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0])))
    return x, y, w


# The three bit-for-bit reference properties run tier-1's budget, or more
# under ``--hypothesis-profile learner-reference`` (tests/conftest.py).
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(stump_problems())
def test_stump_fitter_matches_reference(problem):
    x, y, w = problem
    try:
        expected = reference_stump(x, y, w)
    except (ValueError, DegenerateData) as exc:
        with pytest.raises(type(exc)):
            _StumpFitter(x).fit(y, w)
        return
    got = _StumpFitter(x).fit(y, w)
    assert got.feature == expected.feature
    assert got.threshold == expected.threshold
    assert got.left == expected.left
    assert got.right == expected.right
    assert got == expected


def test_stump_fitter_edge_cases_match_reference():
    x = np.full((4, 3), 2.0)
    y = np.array([0, 1, 1, 0])
    w = np.ones(4)
    with pytest.raises(DegenerateData):
        reference_stump(x, y, w)
    with pytest.raises(DegenerateData):
        _StumpFitter(x).fit(y, w)
    # all weight on one class, with and without the other class present
    x = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    for y, w, label in (([1, 1, 1], [0.2, 0.5, 0.3], 1), ([0, 0, 0], [0.2, 0.5, 0.3], 0),
                        ([0, 1, 1], [0.0, 0.5, 0.3], 1), ([0, 1, 0], [0.2, 0.0, 0.3], 0)):
        y, w = np.array(y), np.array(w)
        got = _StumpFitter(x).fit(y, w)
        assert got == reference_stump(x, y, w)
        assert got.feature is None and got.left.label == label


def test_boosted_stumps_match_reference():
    # every round of a boosting run, with its reweighted examples, picks
    # the reference's stump; one fitter and its work arrays serve all rounds
    rng = np.random.default_rng(31)
    x = np.round(rng.normal(size=(150, 6)), 1)
    x[:, 4] = 1.0
    y = (x[:, 0] + x[:, 2] + 0.5 * rng.normal(size=150) > 0).astype(int)
    fitter = _StumpFitter(x)
    w = np.full(150, 1.0 / 150)
    for _ in range(30):
        stump = fitter.fit(y, w)
        assert stump == reference_stump(x, y, w)
        miss = stump.predict(x) != y
        w = w * np.exp(0.7 * miss)
        w = w / w.sum()


def test_stump_permutation_invariant():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(60, 4))
    y = (x[:, 2] > 0.2).astype(int)
    w = rng.uniform(0.5, 1.5, 60)
    ref = train_stump(x, y, w)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(60)
        other = train_stump(x[perm], y[perm], w[perm])
        assert other.feature == ref.feature
        assert other.threshold == ref.threshold


# -- boosting ------------------------------------------------------------

def test_separable_data_selects_one_round():
    x = np.linspace(0, 1, 30).reshape(-1, 1)
    y = (x[:, 0] > 0.5).astype(int)
    for mode in ("samme", "samme.r"):
        ens = train_adaboost(x, y, rounds=10, mode=mode, k_folds=3)
        assert ens.rounds == 1
        assert np.array_equal(ensemble_vote(ens, x), y)


def test_single_round_equals_stump():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 2))
    y = (x[:, 0] + 0.5 * rng.normal(size=50) > 0).astype(int)
    ens = train_adaboost(x, y, rounds=1, mode="samme", k_folds=2)
    stump = train_stump(x, y)
    assert ens.rounds == 1
    assert np.array_equal(ensemble_vote(ens, x), stump.predict(x))


def test_single_class_training_rejected():
    with pytest.raises(SingleClassData):
        train_adaboost(np.zeros((5, 2)), np.ones(5, dtype=int), rounds=3)


def test_samme_exponential_loss_non_increasing():
    # Independent checker: margins recomputed from the serialized stump
    # weights; the training exponential loss must never rise.
    rng = np.random.default_rng(77)
    x = rng.normal(size=(100, 2))
    y = ((x[:, 0] + x[:, 1] + 0.7 * rng.normal(size=100)) > 0).astype(int)
    ens = train_adaboost(x, y, rounds=25, mode="samme", k_folds=2)
    sign = np.where(y == 1, 1.0, -1.0)
    margin = np.zeros(len(y))
    losses = []
    for alpha, stump in zip(ens.weights, ens.stumps):
        margin += 0.5 * alpha * sign * (2.0 * stump.predict(x) - 1.0)
        losses.append(np.exp(-margin).sum())
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert all(w >= 0 for w in ens.weights)


def test_samme_accepted_stumps_beat_chance():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(80, 3))
    y = (x[:, 0] > 0.1).astype(int)
    ens = train_adaboost(x, y, rounds=15, mode="samme", k_folds=3)
    # replay the boosting weights to verify every accepted stump's error
    w = np.full(len(y), 1.0 / len(y))
    for alpha, stump in zip(ens.weights, ens.stumps):
        miss = stump.predict(x) != y
        assert w[miss].sum() < 0.5
        w = w * np.exp(alpha * miss)
        w = w / w.sum()


# -- vote / score --------------------------------------------------------

def constant_stump(p1):
    from riskgate.learner import Leaf, Stump

    leaf = Leaf(1.0 - p1, p1)
    return Stump(feature=None, threshold=0.0, left=leaf, right=leaf)


def split_stump(feature, threshold, p1_left, p1_right):
    from riskgate.learner import Leaf, Stump

    return Stump(feature, threshold, Leaf(1 - p1_left, p1_left), Leaf(1 - p1_right, p1_right))


def test_weighted_vote_and_score():
    # votes 1 and 0 with weights 0.7/0.3: normalized vote 0.7 -> label 1
    ens = Ensemble(mode="samme", stumps=[constant_stump(0.9), constant_stump(0.1)], weights=[0.7, 0.3])
    x = np.zeros(23)
    assert ensemble_score(ens, x) == pytest.approx(0.7)
    assert ensemble_vote(ens, x) == 1


def test_unanimous_votes():
    ens0 = Ensemble("samme", [constant_stump(0.1)] * 3, [0.5, 0.2, 0.3])
    x = np.zeros(23)
    assert ensemble_vote(ens0, x) == 0
    assert ensemble_score(ens0, x) == 0.0
    ens1 = Ensemble("samme", [constant_stump(0.9)] * 2, [1.0, 2.0])
    assert ensemble_score(ens1, x) == pytest.approx(1.0)


def test_unanimous_secure_vote_scores_at_most_one():
    # summed pairwise, these weights come to one ulp less than summed in order
    weights = [1.2, 0.4, 1.9, 2.8, 1.4, 2.9, 1.5, 1.3, 1.9, 3.0]
    ens = Ensemble("samme", [constant_stump(0.9)] * len(weights), weights)
    score = ensemble_score(ens, np.zeros((3, 23)))
    assert np.all(score == 1.0)
    assert ensemble_score(ens, np.zeros(23)) == 1.0
    assert np.all(ensemble_vote(ens, np.zeros((3, 23))) == 1)


def test_half_log_odds_margin():
    # single stump with p1 = 0.9: margin = 0.5*ln(9) > 0 -> vote 1
    ens = Ensemble("samme.r", [constant_stump(0.9)], None)
    x = np.zeros(23)
    assert _prefix_scores(ens.stumps, ens.weights, ens.mode, x)[-1, 0] == pytest.approx(0.5 * np.log(9.0))
    assert ensemble_vote(ens, x) == 1
    assert ensemble_score(ens, x) == pytest.approx(1.0 / (1.0 + np.exp(-np.log(9.0))))


def test_zero_margin_score_half():
    ens = Ensemble("samme.r", [constant_stump(0.5)], None)
    assert ensemble_score(ens, np.zeros(4)) == pytest.approx(0.5)


def test_score_vote_consistency_property():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(200, 5))
    y = (x[:, 0] - x[:, 3] > 0).astype(int)
    for mode in ("samme", "samme.r"):
        ens = train_adaboost(x, y, rounds=12, mode=mode, k_folds=3)
        pts = rng.normal(size=(300, 5))
        score = ensemble_score(ens, pts)
        vote = ensemble_vote(ens, pts)
        assert np.array_equal(vote, (score >= 0.5).astype(int))
        assert np.all((score >= 0.0) & (score <= 1.0))


# The round-by-round score loops that the prefix-score path replaced, kept
# verbatim as references; ``stump.proba`` and ``stump.predict`` are the old
# split tests, ``reference_proba`` and ``reference_predict``.

def reference_proba(stump, x):
    x = np.atleast_2d(x)
    if stump.feature is None:
        return np.full(len(x), stump.left.p1)
    mask = x[:, stump.feature] <= stump.threshold
    return np.where(mask, stump.left.p1, stump.right.p1)


def reference_predict(stump, x):
    x = np.atleast_2d(x)
    if stump.feature is None:
        return np.full(len(x), stump.left.label, dtype=int)
    mask = x[:, stump.feature] <= stump.threshold
    return np.where(mask, stump.left.label, stump.right.label)


def reference_prefix_error_curve(stumps, alphas, mode, x, y, rounds):
    errs = np.empty(rounds)
    if mode == "samme":
        vote_sum = np.zeros(len(y))
        weight_sum = 0.0
        for r in range(rounds):
            if r < len(stumps):
                vote_sum += alphas[r] * reference_predict(stumps[r], x)
                weight_sum += alphas[r]
            pred = vote_sum >= 0.5 * weight_sum if weight_sum > 0 else np.ones(len(y), bool)
            errs[r] = np.mean(pred.astype(int) != y)
    else:
        margin = np.zeros(len(y))
        for r in range(rounds):
            if r < len(stumps):
                p1 = reference_proba(stumps[r], x)
                margin += 0.5 * (np.log(p1) - np.log1p(-p1))
            errs[r] = np.mean((margin >= 0).astype(int) != y)
    return errs


def reference_margin(ensemble, features):
    x = np.atleast_2d(np.asarray(features, dtype=float))
    margin = np.zeros(len(x))
    for stump in ensemble.stumps:
        p1 = reference_proba(stump, x)
        margin += 0.5 * (np.log(p1) - np.log1p(-p1))
    return margin


def reference_score(ensemble, features):
    x = np.asarray(features, dtype=float)
    if ensemble.mode == "samme":
        total = float(np.sum(ensemble.weights))
        if total <= 0:
            score = np.full(len(x), 0.5)
        else:
            vote = np.zeros(len(x))
            for alpha, stump in zip(ensemble.weights, ensemble.stumps):
                vote += alpha * reference_predict(stump, x)
            score = np.minimum(vote / total, 1.0)
    else:
        score = 1.0 / (1.0 + np.exp(-2.0 * reference_margin(ensemble, x)))
    return score


def reference_tree_label(node):
    return 1 if node.p1 >= node.p0 else 0


def same_bits(got, expected):
    return type(got) is type(expected) and np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def same_as_one_row(got, batch):
    """A 1-D input's result is the one-row batch's: same type, shape and bytes."""
    return same_bits(got, batch) and got.shape == batch.shape


@st.composite
def random_ensembles(draw):
    """Ensembles of 0-16 random stumps with inputs of 1-5 rows; SAMME weights may all be zero."""
    mode = draw(st.sampled_from(["samme", "samme.r"]))
    n_features = draw(st.integers(1, 3))
    n_rows = draw(st.sampled_from([1, 1, 2, 5]))
    n_stumps = draw(st.integers(0, 16))
    cut = st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0])
    p1 = st.one_of(st.sampled_from([LEAF_EPS, 1.0 - LEAF_EPS, 0.5]), st.floats(LEAF_EPS, 1.0 - LEAF_EPS))
    stumps = []
    for _ in range(n_stumps):
        feature = draw(st.one_of(st.none(), st.integers(0, n_features - 1)))
        left, right = draw(p1), draw(p1)
        stumps.append(Stump(feature, 0.0 if feature is None else draw(cut),
                            Leaf(1.0 - left, left), Leaf(1.0 - right, right)))
    weights = None
    if mode == "samme":
        weight = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
        weights = draw(st.one_of(st.just([0.0] * n_stumps),
                                 st.lists(weight, min_size=n_stumps, max_size=n_stumps)))
    x = draw(arrays(float, (n_rows, n_features), elements=st.one_of(cut, st.floats(-2.0, 2.0))))
    y = draw(arrays(int, n_rows, elements=st.integers(0, 1)))
    return Ensemble(mode, stumps, weights), x, y


# one row through ten rounds: summed pairwise, both modes' scores differ from the sequential sum
ONE_ROW = np.array([[0.3, -0.2]])
TEN_STUMPS = [split_stump(k % 2, 0.1 * k - 0.5, 0.9 / (k + 1.3), 0.9 - 0.07 * k) for k in range(10)]


@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(random_ensembles(), st.integers(0, 3))
@example((Ensemble("samme.r", [], None), ONE_ROW, np.array([1])), 2)
@example((Ensemble("samme", TEN_STUMPS[:3], [0.0] * 3), ONE_ROW, np.array([0])), 1)
@example((Ensemble("samme", TEN_STUMPS, [float(np.log(k + 2)) for k in range(10)]), ONE_ROW, np.array([1])), 0)
@example((Ensemble("samme.r", TEN_STUMPS, None), ONE_ROW, np.array([0])), 0)
def test_prefix_scores_match_reference_loops(case, pad):
    ens, x, y = case
    for stump in ens.stumps:
        assert same_bits(stump.predict(x), reference_predict(stump, x))
    assert same_bits(ensemble_score(ens, x), reference_score(ens, x))
    assert same_as_one_row(ensemble_score(ens, x[0]), ensemble_score(ens, x[:1]))
    if ens.mode == "samme.r":
        assert same_bits(_prefix_scores(ens.stumps, None, ens.mode, x)[-1], reference_margin(ens, x))
    rounds = max(len(ens.stumps) + pad, 1)
    assert same_bits(_prefix_error_curve(ens.stumps, ens.weights, ens.mode, x, y, rounds),
                     reference_prefix_error_curve(ens.stumps, ens.weights, ens.mode, x, y, rounds))


# -- single tree -----------------------------------------------------------

def test_pure_training_set_constant_tree():
    tree = train_single_tree(np.random.default_rng(0).normal(size=(10, 3)), np.ones(10, dtype=int))
    assert tree.is_leaf
    assert tree_predict(tree, np.zeros(3)) == 1


def test_separable_tree_depth_one():
    x = np.linspace(-1, 1, 20).reshape(-1, 1)
    y = (x[:, 0] > 0).astype(int)
    tree = train_single_tree(x, y, max_depth=3)
    assert np.array_equal(tree_predict(tree, x), y)
    assert tree.feature is not None
    assert tree.left.is_leaf and tree.right.is_leaf


def test_tree_beats_stump_on_training_error():
    rng = np.random.default_rng(100)
    x = rng.normal(size=(200, 2))
    y = ((x[:, 0] > 0) & (x[:, 1] > 0.3)).astype(int)  # needs depth 2
    stump = train_stump(x, y)
    tree = train_single_tree(x, y, max_depth=3)
    stump_err = np.mean(stump.predict(x) != y)
    tree_err = np.mean(tree_predict(tree, x) != y)
    assert tree_err <= stump_err
    assert tree_err < 0.05


def test_tree_depth_limit():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(300, 4))
    y = rng.integers(0, 2, 300)

    def depth(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    tree = train_single_tree(x, y, max_depth=3)
    assert depth(tree) <= 3


def test_tree_proba_in_unit_interval():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(120, 3))
    y = (x[:, 1] > 0.3).astype(int)
    tree = train_single_tree(x, y)
    p = tree_proba(tree, x)
    assert np.all((p >= 0) & (p <= 1))
    assert np.array_equal(tree_predict(tree, x), (p >= 0.5).astype(int))


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(stump_problems(), st.integers(0, 3))
def test_tree_predict_matches_leaf_label_reference(problem, max_depth):
    x, y, _ = problem
    tree = train_single_tree(x, y, max_depth=max_depth)
    expected = np.array([reference_tree_label(_tree_leaf(tree, row)) for row in x])
    assert same_bits(tree_predict(tree, x), expected)
    assert same_as_one_row(tree_predict(tree, x[0]), tree_predict(tree, x[:1]))


# -- model files ------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(80, 23))
    y = (x[:, 4] > 0).astype(int)
    for mode in ("samme", "samme.r"):
        ens = train_adaboost(x, y, rounds=8, mode=mode, k_folds=2)
        path = tmp_path / f"model_{mode}.json"
        save_model(path, ens, contingency=6)
        loaded = load_model(path)
        assert isinstance(loaded, CalibratedEnsemble)
        assert loaded.contingency == 6
        assert loaded.params is None
        pts = rng.normal(size=(100, 23))
        assert np.array_equal(ensemble_vote(ens, pts), ensemble_vote(loaded.ensemble, pts))
        assert ensemble_score(ens, pts) == pytest.approx(loaded.score(pts))


def test_model_with_calibration_roundtrip(tmp_path):
    from riskgate.calibration import PlattParams

    ens = Ensemble("samme.r", [constant_stump(0.8)], None)
    path = tmp_path / "model.json"
    save_model(path, ens, contingency=3, calibration=PlattParams(a=-4.0, b=2.0))
    params = load_model(path).params
    assert params.a == -4.0 and params.b == 2.0


def test_truncated_model_rejected(tmp_path):
    path = tmp_path / "model.json"
    ens = Ensemble("samme", [constant_stump(0.8)], [1.0])
    save_model(path, ens, contingency=6)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(MalformedFile):
        load_model(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "model.json"
    ens = Ensemble("samme", [constant_stump(0.8)], [1.0])
    save_model(path, ens, contingency=6)
    doc = path.read_text().replace('"version": 1', '"version": 999')
    path.write_text(doc)
    with pytest.raises(VersionMismatch):
        load_model(path)
