"""Fixtures shared by several test modules."""

import numpy as np
import pytest
from hypothesis import settings

from riskgate import calibration, experiments, learner

# CI reruns the bit-for-bit simplex properties (``-k bit_for_bit``) under this profile
# (``--hypothesis-profile simplex-reference``); they take the larger of
# their tier-1 budget and its ``max_examples``.
settings.register_profile("simplex-reference", max_examples=5000)
# and, likewise, under this one (``--hypothesis-profile reference``): the
# tests marked ``reference`` (``pytest -m reference``).
settings.register_profile("reference", max_examples=2000)


@pytest.fixture
def times_scored(monkeypatch):
    """``times_scored(x)``: how often ``ensemble_score`` has been given exactly the matrix ``x``.

    Counts every lookup the package makes: ``calibration`` (the calibrated
    model, which the CLI scores through), ``experiments`` and ``learner``
    (``ensemble_vote``).
    """
    original = learner.ensemble_score
    matrices = []

    def counting(ensemble, features):
        matrices.append(np.asarray(features))
        return original(ensemble, features)

    for module in (calibration, experiments, learner):
        monkeypatch.setattr(module, "ensemble_score", counting)
    return lambda x: sum(m.shape == x.shape and np.array_equal(m, x) for m in matrices)
