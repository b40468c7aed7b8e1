"""Calibration tests: sigmoid fit against a grid-search oracle, Brier score."""

import warnings

import numpy as np
import pytest

from riskgate.calibration import (
    CalibratedEnsemble,
    PlattParams,
    ReliabilityBins,
    brier_score,
    calibrated_probability,
    fit_platt,
    reliability_text,
)
from riskgate.errors import DataError, SingleClassCalibration


def oracle_fit(scores, labels, grid=60):
    """Coarse grid search over (a, b) minimizing the regularized NLL."""
    s = np.asarray(scores, float)
    y = np.asarray(labels, int)
    n_pos = (y == 1).sum()
    n_neg = (y == 0).sum()
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def nll(a, b):
        p = 1.0 / (1.0 + np.exp(np.clip(a * s + b, -500, 500)))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return -np.sum(t * np.log(p) + (1 - t) * np.log(1 - p))

    best = (np.inf, 0.0, 0.0)
    for a in np.linspace(-40, 5, grid):
        for b in np.linspace(-20, 20, grid):
            v = nll(a, b)
            if v < best[0]:
                best = (v, a, b)
    return best


# -- fitting ----------------------------------------------------------------

def test_regularized_targets():
    # N+ = 3, N- = 2 -> targets 0.8 and 0.25. With a pinned at 0 the
    # optimum is analytic: p = mean(t); verify via the fit diagnostics on
    # constant scores (no slope information).
    params = fit_platt([0.5] * 5, [1, 1, 1, 0, 0])
    p = calibrated_probability(params, 0.5)
    expected = (3 * 0.8 + 2 * 0.25) / 5
    assert p == pytest.approx(expected, abs=1e-6)


def test_separated_scores_sharp_sigmoid():
    scores = np.array([0.0] * 50 + [1.0] * 50)
    labels = np.array([0] * 50 + [1] * 50)
    params = fit_platt(scores, labels)
    assert params.a < 0
    assert calibrated_probability(params, 1.0) > 0.9
    assert calibrated_probability(params, 0.0) < 0.1
    oracle_nll, _, _ = oracle_fit(scores, labels)
    assert params.nll <= oracle_nll + 1e-6


def test_uninformative_scores_flat_fit():
    rng = np.random.default_rng(2)
    scores = rng.uniform(0, 1, 400)
    labels = rng.integers(0, 2, 400)
    params = fit_platt(scores, labels)
    for s in (0.0, 0.3, 0.7, 1.0):
        assert calibrated_probability(params, s) == pytest.approx(0.5, abs=0.05)


def test_fit_beats_oracle_grid():
    rng = np.random.default_rng(9)
    scores = rng.uniform(0, 1, 300)
    labels = (rng.uniform(0, 1, 300) < 0.2 + 0.6 * scores).astype(int)
    params = fit_platt(scores, labels)
    oracle_nll, _, _ = oracle_fit(scores, labels)
    assert params.nll <= oracle_nll + 1e-3


def test_fit_beats_constant_predictor_and_initialization():
    rng = np.random.default_rng(31)
    scores = rng.uniform(0, 1, 200)
    labels = (scores + 0.3 * rng.normal(size=200) > 0.5).astype(int)
    params = fit_platt(scores, labels)
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    t = np.where(labels == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def nll_at(a, b):
        p = 1.0 / (1.0 + np.exp(a * scores + b))
        return -np.sum(t * np.log(p) + (1 - t) * np.log(1 - p))

    p_const = n_pos / len(labels)
    nll_const = -np.sum(t * np.log(p_const) + (1 - t) * np.log(1 - p_const))
    assert params.nll <= nll_const + 1e-9
    # never worse than the Newton starting point (flat sigmoid at the prior)
    assert params.nll <= nll_at(0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))) + 1e-9
    assert params.nll == pytest.approx(nll_at(params.a, params.b), rel=1e-12)


def test_single_class_calibration_rejected():
    with pytest.raises(SingleClassCalibration):
        fit_platt([0.1, 0.9], [1, 1])


@pytest.mark.parametrize("scores, labels, message", [
    ([0.1, np.nan, 0.9], [0, 1, 1], "^scores must be finite$"),
    ([0.1, 0.5, np.inf], [0, 1, 1], "^scores must be finite$"),
    ([0.1, 0.5, 0.9], [0, 1, 2], "^labels must be 0 or 1, got 2$"),
    ([0.1, 0.5, 0.9], [0, 0.5, 1], r"^labels must be 0 or 1, got 0\.5$"),
    ([0.1, 0.5, 0.9], [0, 1], "^2 labels for 3 scores$"),
])
def test_fit_platt_refuses_bad_input(scores, labels, message):
    with pytest.raises(ValueError, match=message):
        fit_platt(scores, labels)


# -- probability map -----------------------------------------------------

def test_flat_sigmoid():
    params = PlattParams(a=0.0, b=0.0)
    assert calibrated_probability(params, 0.123) == pytest.approx(0.5)


def test_exponent_cancels():
    params = PlattParams(a=-4.0, b=2.0)
    assert calibrated_probability(params, 0.5) == pytest.approx(0.5)


def test_sigmoid_value():
    params = PlattParams(a=-4.0, b=2.0)
    assert calibrated_probability(params, 1.0) == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-12)


def test_monotonicity_and_closure():
    params = PlattParams(a=-6.0, b=3.0)
    s = np.linspace(0, 1, 1001)
    p = calibrated_probability(params, s)
    assert np.all(np.diff(p) >= 0)
    assert np.all((p > 0) & (p < 1))
    # closure: the insecure-class estimate is defined as the complement
    assert np.all((p + (1.0 - p)) == 1.0)


# -- Brier score ----------------------------------------------------------

def test_perfectly_calibrated_bins():
    values = np.array([0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75])
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 0])
    score, _ = brier_score(values, labels, bins=2)
    assert score == pytest.approx(0.0, abs=1e-12)


def test_maximal_miscalibration():
    score, _ = brier_score(np.ones(10), np.zeros(10, dtype=int), bins=5)
    assert score == pytest.approx(1.0)


def test_hand_computed_two_bins():
    score, bins = brier_score([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], bins=2)
    assert score == pytest.approx(0.0225)
    assert bins.mean_value == pytest.approx([0.15, 0.85])
    assert bins.secure_fraction == pytest.approx([0.0, 1.0])
    assert list(bins.count) == [2, 2]


def test_remainder_goes_to_early_bins():
    _, bins = brier_score(np.linspace(0, 1, 11), np.zeros(11, dtype=int), bins=3)
    assert list(bins.count) == [4, 4, 3]


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, 97).round(1)  # force ties
    labels = rng.integers(0, 2, 97)
    ref, _ = brier_score(values, labels, bins=10)
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(97)
        score, _ = brier_score(values[perm], labels[perm], bins=10)
        assert score == ref


def test_brier_bounds_and_errors():
    rng = np.random.default_rng(8)
    values = rng.uniform(0, 1, 50)
    labels = rng.integers(0, 2, 50)
    score, _ = brier_score(values, labels, bins=7)
    assert 0.0 <= score <= 1.0
    with pytest.raises(DataError, match="5 examples cannot fill 6 bins"):
        brier_score(values[:5], labels[:5], bins=6)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^values must be finite$"):
            brier_score(np.append(values, bad), np.append(labels, 1), bins=7)


def test_brier_score_refuses_labels_other_than_0_or_1():
    """Checked before the int cast, which would count a 2 as secure and read 0.5 as 0."""
    for labels, got in (([0, 2], "2"), ([0.5, 1], "0.5")):
        with pytest.raises(ValueError, match=f"^labels must be 0 or 1, got {got}$"):
            brier_score([0.2, 0.7], labels, bins=1)


def test_reliability_csv_roundtrip():
    bins = ReliabilityBins(
        mean_value=np.array([0.2, 0.8]),
        secure_fraction=np.array([0.25, 0.75]),
        count=np.array([5, 5]),
    )
    lines = reliability_text(bins).splitlines()
    assert lines[0] == "bin,mean_value,secure_fraction,count"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


# -- calibrated ensemble wrapper ----------------------------------------------

def test_calibrated_ensemble_probability():
    from riskgate.learner import Ensemble, Leaf, Stump

    leaf = Leaf(0.2, 0.8)
    ens = Ensemble("samme.r", [Stump(None, 0.0, leaf, leaf)], None)
    model = CalibratedEnsemble(ensemble=ens, contingency=6, params=PlattParams(a=-4.0, b=2.0))
    s = model.score(np.zeros(23))
    assert model.probability(np.zeros(23)) == pytest.approx(calibrated_probability(model.params, s))
    bare = CalibratedEnsemble(ensemble=ens, contingency=6, params=None)
    assert bare.probability(np.zeros(23)) == s


def test_unfitted_probability_is_the_raw_score():
    scores = np.array([0.0, 0.25, 1.0])
    assert calibrated_probability(None, scores) is scores
    assert calibrated_probability(None, 0.25) == 0.25


def test_extreme_scores_do_not_overflow():
    params = PlattParams(a=-1.0, b=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = calibrated_probability(params, np.array([-1e6, -800.0, 0.0, 800.0, 1e6]))
        assert calibrated_probability(params, -1e6) == 1e-15
    assert np.array_equal(p, [1e-15, 1e-15, 0.5, 1.0 - 1e-15, 1.0 - 1e-15])
