"""Platt scaling and the binned Brier score.

The sigmoid ``p = 1 / (1 + exp(a*s + b))`` is fitted by Newton iteration
on the regularised maximum-likelihood targets (positive examples aim at
(N+ + 1)/(N+ + 2), negatives at 1/(N- + 2)), which is the standard guard
against overfitting the calibration split.  A well-trained score gives
``a <= 0``, i.e. a monotone non-decreasing probability map.

The Brier score here is the binned variant: examples are sorted by the
evaluated value, split into N equal-size contiguous bins (remainder
spread over the earliest bins), and the score is the mean squared gap
between each bin's average value and its empirical secure fraction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, SingleClassCalibration
from .learner import Ensemble, ensemble_score

_NEWTON_MAX_ITER = 100
_NEWTON_STEP_TOL = 1e-10
_RIDGE = 1e-12
_EXP_MAX = float(np.log(np.finfo(float).max))  # largest argument with a finite exp


@dataclass(frozen=True)
class PlattParams:
    a: float
    b: float
    nll: float = float("nan")  # final negative log-likelihood
    iterations: int = 0


@dataclass(frozen=True)
class ReliabilityBins:
    mean_value: np.ndarray
    secure_fraction: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return len(self.count)


def _sigmoid(f):
    """``1 / (1 + exp(f))``; arguments past the float range are capped so exp cannot overflow."""
    return 1.0 / (1.0 + np.exp(np.minimum(f, _EXP_MAX)))


def _nll(a, b, s, t):
    f = a * s + b
    # -sum t*log(p) + (1-t)*log(1-p) with p = sigmoid(-f), written stably
    return float(np.sum(np.logaddexp(0.0, -f) + t * f))


def _binary_labels(labels) -> np.ndarray:
    """``labels`` as ints; ValueError, checked before the cast, unless every label is 0 or 1."""
    y = np.asarray(labels)
    bad = ~np.isin(y, (0, 1))
    if bad.any():
        raise ValueError(f"labels must be 0 or 1, got {y[bad][0].item()!r}")
    return y.astype(int)


def fit_platt(scores, labels) -> PlattParams:
    """Fit sigmoid parameters by Newton iteration on regularised targets.

    Raises ValueError unless the scores are finite and the labels, one
    per score, are 0 or 1, and SingleClassCalibration when the
    calibration set has one class; warns (and returns the best iterate)
    if the step tolerance is not reached within the iteration budget.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise ValueError(f"{y.size} labels for {s.size} scores")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    y = _binary_labels(y)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassCalibration("calibration split contains a single class")
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    a, b = 0.0, float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    best = (a, b, _nll(a, b, s, t))
    iterations = 0
    converged = False
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        p = _sigmoid(a * s + b)
        # dNLL/df = t - p per example
        g = t - p
        grad = np.array([np.sum(g * s), np.sum(g)])
        h = p * (1.0 - p)
        hess = np.array([[np.sum(h * s * s) + _RIDGE, np.sum(h * s)],
                         [np.sum(h * s), np.sum(h) + _RIDGE]])
        step = np.linalg.solve(hess, grad)
        # backtrack until the objective improves (Newton with damping)
        scale = 1.0
        for _ in range(32):
            na, nb = a - scale * step[0], b - scale * step[1]
            if _nll(na, nb, s, t) <= best[2]:
                break
            scale *= 0.5
        a, b = a - scale * step[0], b - scale * step[1]
        value = _nll(a, b, s, t)
        if value < best[2]:
            best = (a, b, value)
        if np.linalg.norm(scale * step) < _NEWTON_STEP_TOL:
            converged = True
            break
    if not converged:
        warnings.warn("sigmoid fit did not reach step tolerance; returning best iterate", RuntimeWarning)
    a, b, value = best
    return PlattParams(a=float(a), b=float(b), nll=value, iterations=iterations)


def calibrated_probability(params: PlattParams | None, score):
    """Map a score through the fitted sigmoid, strictly inside (0, 1); unfitted (None) keeps the raw score."""
    if params is None:
        return score
    p = _sigmoid(params.a * np.asarray(score, dtype=float) + params.b)
    return np.clip(p, 1e-15, 1.0 - 1e-15)


def brier_score(values, labels, bins: int = 10) -> tuple[float, ReliabilityBins]:
    """Binned Brier score plus the reliability-diagram data behind it; the values must be finite, the labels 0 or 1."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    y = _binary_labels(labels)
    if n < bins:
        raise DataError(f"{n} examples cannot fill {bins} bins")
    order = np.lexsort((y, v))  # label as tiebreak keeps bins canonical
    v = v[order]
    y = y[order]
    base, extra = divmod(n, bins)
    sizes = np.full(bins, base)
    sizes[:extra] += 1
    edges = np.concatenate([[0], np.cumsum(sizes)])
    mean_value = np.empty(bins)
    frac = np.empty(bins)
    for k in range(bins):
        lo, hi = edges[k], edges[k + 1]
        mean_value[k] = v[lo:hi].mean()
        frac[k] = y[lo:hi].mean()
    score = float(np.mean((mean_value - frac) ** 2))
    return score, ReliabilityBins(mean_value=mean_value, secure_fraction=frac, count=sizes)


def reliability_csv(bins: ReliabilityBins, path) -> None:
    lines = ["bin,mean_value,secure_fraction,count"]
    for k in range(len(bins)):
        lines.append(f"{k},{bins.mean_value[k]:.17g},{bins.secure_fraction[k]:.17g},{int(bins.count[k])}")
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class CalibratedEnsemble:
    """Per-contingency ensemble plus optional fitted sigmoid."""

    ensemble: Ensemble
    contingency: int
    params: PlattParams | None = None

    def score(self, features):
        return ensemble_score(self.ensemble, features)

    def probability(self, features):
        return calibrated_probability(self.params, self.score(features))
