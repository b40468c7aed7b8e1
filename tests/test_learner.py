"""Learner tests: stump fitting, boosting, trees, model serialization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskgate import learner
from riskgate.calibration import CalibratedEnsemble
from riskgate.errors import DegenerateData, MalformedFile, SingleClassData
from riskgate.learner import (
    _ERR_FLOOR,
    _TIE_TOL,
    LEAF_EPS,
    MODES,
    Ensemble,
    Leaf,
    Stump,
    TreeNode,
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


# The six bit-for-bit reference properties run tier-1's budget, or more
# under ``--hypothesis-profile reference`` (tests/conftest.py).
@pytest.mark.reference
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
        miss = reference_predict(stump, x) != y
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


# -- input contract: the padded batch layout relies on 0/1 labels and finite values

CONTRACT_X = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0], [3.0, 1.5], [4.0, 2.0], [5.0, 0.25]])
CONTRACT_Y = np.array([0, 1, 0, 1, 1, 0])


def test_labels_outside_zero_one_rejected():
    y = np.array([0, 1, 2, 1, 1, 0])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        train_adaboost(CONTRACT_X, y, rounds=3)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        train_stump(CONTRACT_X, y)


def test_non_finite_features_rejected():
    x = CONTRACT_X.copy()
    x[2, 1] = np.nan
    with pytest.raises(ValueError, match="features must be finite"):
        train_adaboost(x, CONTRACT_Y, rounds=3)
    x[2, 1] = -np.inf
    with pytest.raises(ValueError, match="features must be finite"):
        train_stump(x, CONTRACT_Y)


def test_non_finite_weights_rejected():
    w = np.full(6, np.nan)
    with pytest.raises(ValueError, match="weights must be finite"):
        train_stump(CONTRACT_X, CONTRACT_Y, w)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="5 feature rows need as many labels and weights"):
        train_adaboost(CONTRACT_X[:5], CONTRACT_Y, rounds=3)
    with pytest.raises(ValueError, match="6 feature rows need as many labels and weights"):
        train_stump(CONTRACT_X, CONTRACT_Y, np.ones(4))


@pytest.mark.parametrize("rounds", [10_001, 10**30])
def test_rounds_past_the_bound_rejected_before_the_data(rounds):
    # single-class labels, checked after the bound, keep a build without it from boosting
    with pytest.raises(ValueError, match=f"^rounds must be <= 10000, got {rounds}$"):
        train_adaboost(CONTRACT_X, np.zeros(6, dtype=int), rounds=rounds)

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
    assert np.array_equal(ensemble_vote(ens, x), reference_predict(stump, x))


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
        margin += 0.5 * alpha * sign * (2.0 * reference_predict(stump, x) - 1.0)
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
        miss = reference_predict(stump, x) != y
        assert w[miss].sum() < 0.5
        w = w * np.exp(alpha * miss)
        w = w / w.sum()


# The per-fold boosting that lockstep cross-validation replaced, kept as
# written (``Stump.values`` inlined in ``reference_term``) as the reference
# for ``train_adaboost``: each fold chain boosts alone, on its own fitter.
# ``reference_train_adaboost`` also returns the round count the folds chose
# and each fold chain's stumps and alphas.

def reference_term(stump, alpha, mode, x):
    if mode == "samme":
        return alpha * reference_predict(stump, x)
    p1 = np.array([stump.left.p1, stump.right.p1])
    half_log_odds = 0.5 * (np.log(p1) - np.log1p(-p1))
    if stump.feature is None:
        return np.full(len(x), half_log_odds[0])
    return np.where(x[:, stump.feature] <= stump.threshold, half_log_odds[0], half_log_odds[1])


def reference_boost(x, y, fitter, rounds, mode):
    n = len(y)
    w = np.full(n, 1.0 / n)
    sign = np.where(y == 1, 1.0, -1.0)
    stumps = []
    alphas = []
    for _ in range(rounds):
        stump = fitter.fit(y, w)
        if mode == "samme":
            miss = reference_predict(stump, x) != y
            err = float(w[miss].sum())
            if err >= 0.5 and stumps:
                break
            err = min(max(err, _ERR_FLOOR), 1.0 - _ERR_FLOOR)
            alpha = np.log((1.0 - err) / err)  # + log(K-1) = 0 for two classes
            alphas.append(float(max(alpha, 0.0)))
            w = w * np.exp(alpha * miss)
        else:
            w = w * np.exp(-sign * reference_term(stump, None, mode, x))
        stumps.append(stump)
        w = w / w.sum()
    return stumps, alphas


def reference_train_adaboost(x, y, rounds, mode, k_folds):
    if len(np.unique(y)) < 2:
        raise SingleClassData("training split contains a single class")

    best_rounds = rounds
    folds = []
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
            stumps, alphas = reference_boost(x[tr], y[tr], _StumpFitter(x[tr]), rounds, mode)
            folds.append((stumps, alphas))
            curves.append(_prefix_error_curve(stumps, alphas, mode, x[va], y[va], rounds))
        if curves:
            mean_err = np.mean(curves, axis=0)
            best_rounds = int(np.flatnonzero(mean_err <= mean_err.min() + 1e-12)[0]) + 1

    stumps, alphas = reference_boost(x, y, _StumpFitter(x), best_rounds, mode)
    ensemble = Ensemble(mode=mode, stumps=stumps, weights=alphas if mode == "samme" else None)
    return ensemble, best_rounds, folds


def stump_bits(stumps) -> bytes:
    """Every field of every stump, bit for bit; a constant stump's feature reads -1."""
    return np.array([[-1.0 if s.feature is None else s.feature, s.threshold, s.left.p0, s.left.p1,
                      s.right.p0, s.right.p1] for s in stumps]).tobytes()


def chain_bits(stumps, alphas) -> tuple:
    return stump_bits(stumps), np.array(alphas, dtype=float).tobytes()


def traced_train_adaboost(x, y, rounds, mode, k_folds):
    """``train_adaboost``, with the rounds and results of each `_boost` call it made."""
    calls = []
    boost = learner._boost

    def recording(*args):
        result = boost(*args)
        calls.append((args[3], result))
        return result

    with mock.patch.object(learner, "_boost", recording):
        ensemble = train_adaboost(x, y, rounds=rounds, mode=mode, k_folds=k_folds)
    return ensemble, calls


@st.composite
def adaboost_problems(draw):
    """Small training splits with ties and constant columns, so folds skip and SAMME chains stop."""
    n = draw(st.integers(2, 60))
    f = draw(st.integers(1, 4))
    values = st.one_of(st.integers(-2, 2).map(float), st.sampled_from([0.1, 0.25, 1.5, -0.7]),
                       st.floats(-3.0, 3.0))
    x = draw(arrays(float, (n, f), elements=values))
    y = draw(arrays(int, n, elements=st.integers(0, 1)))
    return x, y, draw(st.integers(1, 12)), draw(st.sampled_from(MODES)), draw(st.integers(2, 5))


# a SAMME fold chain that stops at an error of 0.5 or more
STOP = (np.array([[2.0], [1.0], [1.0], [2.0], [2.0]]), np.array([1, 1, 0, 0, 0]))
# of three folds, one trains on a single class and one validates on no row
SKIP = (np.array([[1.0], [1.0], [2.0]]), np.array([0, 0, 1]))
# a constant column, and three of five folds validate on no row
CONSTANT = (np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 1.0], [0.0, 2.0]]), np.array([0, 1, 1, 0]))


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(adaboost_problems())
@example((*STOP, 6, "samme", 3))
@example((*STOP, 6, "samme.r", 3))
@example((*SKIP, 6, "samme", 3))
@example((*CONSTANT, 5, "samme.r", 5))
def test_lockstep_cross_validation_matches_reference(problem):
    x, y, rounds, mode, k_folds = problem
    try:
        expected, best_rounds, folds = reference_train_adaboost(x, y, rounds, mode, k_folds)
    except (DegenerateData, SingleClassData) as exc:
        with pytest.raises(type(exc)):
            train_adaboost(x, y, rounds=rounds, mode=mode, k_folds=k_folds)
        return
    got, calls = traced_train_adaboost(x, y, rounds, mode, k_folds)
    assert stump_bits(got.stumps) == stump_bits(expected.stumps)
    assert got.weights == expected.weights
    final_rounds, [final] = calls[-1]
    assert final_rounds == best_rounds
    assert chain_bits(*final) == chain_bits(expected.stumps, expected.weights or [])
    fold_calls = calls[:-1]
    assert len(fold_calls) == (1 if folds else 0)
    if folds:
        assert fold_calls[0][0] == rounds
        assert [chain_bits(*c) for c in fold_calls[0][1]] == [chain_bits(*c) for c in folds]


def test_lockstep_examples_cover_the_cases():
    _, _, folds = reference_train_adaboost(*STOP, 6, "samme", 3)
    assert [len(stumps) for stumps, _ in folds] == [6, 6, 1]
    _, _, folds = reference_train_adaboost(*SKIP, 6, "samme", 3)
    assert len(folds) == 1
    _, _, folds = reference_train_adaboost(*CONSTANT, 5, "samme.r", 5)
    assert len(folds) == 2


def test_an_ended_chain_steps_on_without_recording():
    # chain 1 ends at its second stump; stepping on in the batch, it later
    # finds stumps that beat chance again, and must record none of them
    x = np.array([[1.0], [0.0], [0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [0.0]])
    y = np.array([0, 1, 1, 1, 1, 1, 1, 1, 0])
    rows = [np.arange(9) % 3 != k for k in range(3)]
    got = learner._boost(x, y, _StumpFitter(x, rows), 8, "samme")
    expected = [reference_boost(x[tr], y[tr], _StumpFitter(x[tr]), 8, "samme") for tr in rows]
    assert [len(stumps) for stumps, _ in expected] == [8, 1, 8]
    assert [chain_bits(*c) for c in got] == [chain_bits(*c) for c in expected]


@st.composite
def stump_batches(draw):
    """A matrix, 1-4 row subsets of it and per-chain labels and weights, zero weights included."""
    x, y, w = draw(stump_problems())
    rows = draw(arrays(bool, (draw(st.integers(1, 4)), len(y)), elements=st.booleans()))
    return x, rows, y, w


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(stump_batches())
def test_batched_stump_fit_matches_reference(batch):
    x, rows, y, w = batch
    fitter = _StumpFitter(x, rows)
    layout = np.zeros(fitter.index.shape)
    ys, ws = layout.astype(int), layout.copy()
    for i, tr in enumerate(rows):
        ys[i, :tr.sum()], ws[i, :tr.sum()] = y[tr], w[tr]
    expected = []
    for tr in rows:
        try:
            expected.append(reference_stump(x[tr], y[tr], w[tr]))
        except (ValueError, DegenerateData) as exc:
            with pytest.raises(type(exc)):
                fitter.fit(ys, ws)
            return
    assert [stump_bits([s]) for s in fitter.fit(ys, ws)] == [stump_bits([s]) for s in expected]


def test_fold_order_is_filtered_from_one_argsort():
    # restricted to a fold's rows, the stable order of the whole split is the fold's own
    rng = np.random.default_rng(3)
    x = rng.integers(-2, 3, size=(40, 3)).astype(float)
    x[:, 1] = 0.5  # a constant column, left out of the search
    fold_of = np.arange(40) % 3
    rows = np.array([fold_of != fold for fold in range(3)])
    fitter = _StumpFitter(x, rows)
    assert fitter.features == [0, 2]
    width = fitter.index.shape[1]
    for i, tr in enumerate(rows):
        n = tr.sum()
        assert np.array_equal(fitter.index[i, :n], np.flatnonzero(tr))
        own = np.argsort(x[tr].T, axis=1, kind="stable")[fitter.features]
        assert np.array_equal(fitter.order[i, :, :n - 1] - i * width, own[:, :-1])


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
# split tests, ``reference_proba`` and ``reference_predict``.  The package no
# longer has ``Stump.predict``: the tests above label rows with ``reference_predict``.

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


@pytest.mark.reference
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(random_ensembles(), st.integers(0, 3))
@example((Ensemble("samme.r", [], None), ONE_ROW, np.array([1])), 2)
@example((Ensemble("samme", TEN_STUMPS[:3], [0.0] * 3), ONE_ROW, np.array([0])), 1)
@example((Ensemble("samme", TEN_STUMPS, [float(np.log(k + 2)) for k in range(10)]), ONE_ROW, np.array([1])), 0)
@example((Ensemble("samme.r", TEN_STUMPS, None), ONE_ROW, np.array([0])), 0)
def test_prefix_scores_match_reference_loops(case, pad):
    ens, x, y = case
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
    stump_err = np.mean(reference_predict(stump, x) != y)
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


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(stump_problems(), st.integers(0, 3))
def test_tree_predict_matches_leaf_label_reference(problem, max_depth):
    x, y, _ = problem
    tree = train_single_tree(x, y, max_depth=max_depth)
    expected = np.array([reference_tree_label(_tree_leaf(tree, row)) for row in x])
    assert same_bits(tree_predict(tree, x), expected)
    assert same_as_one_row(tree_predict(tree, x[0]), tree_predict(tree, x[:1]))


# The tree grower before every node searched through the split's one sort
# order, kept verbatim as the reference (recursion renamed): each node
# builds a fitter on its own rows, which argsorts them again.
def reference_grow(x, y, depth, max_depth):
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
        left=reference_grow(x[mask], y[mask], depth + 1, max_depth),
        right=reference_grow(x[~mask], y[~mask], depth + 1, max_depth),
        p0=n0 / len(y),
        p1=n1 / len(y),
    )


def tree_bits(node) -> list:
    """Each node's feature, threshold and class frequencies, bit for bit, in preorder."""
    if node is None:
        return []
    bits = (node.feature, np.array([node.threshold, node.p0, node.p1]).tobytes())
    return [bits] + tree_bits(node.left) + tree_bits(node.right)


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(stump_problems(), st.integers(0, 3))
@example((np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0]]), np.array([0, 1, 1, 0, 1]), None), 3)
def test_tree_grown_through_one_sort_matches_reference(problem, max_depth):
    # the example's second column varies over the split but not in every node
    x, y, _ = problem
    got = train_single_tree(x, y, max_depth=max_depth)
    assert tree_bits(got) == tree_bits(reference_grow(x, y, 0, max_depth))


def test_one_sort_per_training_split():
    # cross-validation and the final fit share one argsort, and so do all of a tree's nodes
    rng = np.random.default_rng(8)
    x = np.round(rng.normal(size=(90, 4)), 1)
    y = (x[:, 0] + x[:, 1] + 0.5 * rng.normal(size=90) > 0).astype(int)
    with mock.patch.object(learner.np, "argsort", wraps=np.argsort) as argsort:
        train_adaboost(x, y, rounds=8, mode="samme", k_folds=3)
    assert argsort.call_count == 1
    with mock.patch.object(learner.np, "argsort", wraps=np.argsort) as argsort:
        tree = train_single_tree(x, y, max_depth=3)
    assert argsort.call_count == 1
    assert sum(feature is not None for feature, _ in tree_bits(tree)) > 3  # more than two levels split


def test_tree_on_no_rows_rejected():
    with pytest.raises(ValueError, match="a tree needs at least one training row"):
        train_single_tree(np.zeros((0, 2)), [])


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
    with pytest.raises(MalformedFile, match="unsupported model version 999"):
        load_model(path)
