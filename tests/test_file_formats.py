"""The input contract: the field readers, the exit code of every error class, and file round trips.

Each round-trip property checks that the strict readers accept every
file riskgate writes.  CI reruns them with more examples under
``--hypothesis-profile file-formats`` (tests/conftest.py).
"""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskgate import errors
from riskgate.calibration import CalibratedEnsemble, PlattParams
from riskgate.errors import ConfigError, DataError, DegenerateData, integer, number
from riskgate.grid import grid_from_dict, grid_to_dict
from riskgate.learner import MODES, load_model, save_model, train_adaboost
from riskgate.risk_engine import ContingencyParams, load_contingency_params

from test_grid import connected_grids

ROUND_TRIP = settings(max_examples=max(100, settings.default.max_examples), deadline=None)


def test_every_error_class_maps_to_an_exit_code():
    # cli.main maps ConfigError to exit 2 and DataError to exit 3; any other class would print a traceback
    classes = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]
    assert classes
    for c in classes:
        assert issubclass(c, (ConfigError, DataError)), c


@pytest.mark.parametrize("value", [0, -3, 2**70, np.int64(7), np.uint8(200)])
def test_integer_accepts_integers(value):
    got = integer(value, "x")
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [True, False, 1.0, 6.7, "6", None, [1], np.float64(2.0)])
def test_integer_refuses_everything_else(value):
    with pytest.raises(TypeError, match=f"^{re.escape(f'x must be an integer, got {value!r}')}$"):
        integer(value, "x")


@pytest.mark.parametrize("value", [0, -3, 1.5, 1e308, np.float32(0.25), np.int64(4)])
def test_number_accepts_finite_reals(value):
    got = number(value, "x")
    assert type(got) is float and got == float(value)


@pytest.mark.parametrize("value", [True, False, "1.5", "nan", None, [1.0]])
def test_number_refuses_non_numbers_by_type(value):
    with pytest.raises(TypeError, match=r"^x must be a number, got "):
        number(value, "x")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_number_refuses_non_finite_values(value):
    with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
        number(value, "x")


def test_number_bounds_are_inclusive():
    assert number(0, "x", lo=0.0, hi=1.0) == 0.0 and number(1, "x", lo=0.0, hi=1.0) == 1.0
    for value in (-1e-300, 1.0000000000000002):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got "):
            number(value, "x", lo=0.0, hi=1.0)


@ROUND_TRIP
@given(connected_grids())
def test_network_round_trips(case):
    grid, _ = case
    assert grid_from_dict(json.loads(json.dumps(grid_to_dict(grid)))) == grid


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def calibrated_models(draw):
    """A model trained on a small random matrix, in either mode, with or without sigmoid parameters."""
    n = draw(st.integers(2, 20))
    values = st.floats(-1e6, 1e6) | st.integers(-2, 2).map(float)  # repeats make ties and constant columns
    x = draw(arrays(float, (n, draw(st.integers(1, 4))), elements=values))
    y = draw(arrays(int, n, elements=st.integers(0, 1)))
    assume(0 < y.sum() < n)
    try:
        ensemble = train_adaboost(x, y, rounds=draw(st.integers(1, 4)), mode=draw(st.sampled_from(MODES)),
                                  k_folds=2)
    except DegenerateData:  # every row alike
        assume(False)
    params = draw(st.none() | st.builds(PlattParams, a=finite, b=finite))
    return CalibratedEnsemble(ensemble, draw(st.integers(-(2**63), 2**63)), params)


@ROUND_TRIP
@given(calibrated_models())
def test_model_round_trips(tmp_path_factory, model):
    path = tmp_path_factory.getbasetemp() / "round_trip_model.json"
    save_model(path, model.ensemble, model.contingency, model.params)
    loaded = load_model(path)
    assert loaded.ensemble == model.ensemble and loaded.contingency == model.contingency
    if model.params is None:
        assert loaded.params is None
    else:
        assert (loaded.params.a, loaded.params.b) == (model.params.a, model.params.b)


inside_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
positive = st.integers(1, 10**9) | st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def contingency_entries(draw):
    """``(entries, expected)``: contingencies.json entries of both forms and the parameters they describe."""
    lines = draw(st.lists(st.integers(-(2**63), 2**63), min_size=1, max_size=5, unique=True))
    entries, expected = [], {}
    for line in lines:
        p = draw(inside_unit)
        if draw(st.booleans()):
            ratio = draw(inside_unit)
            entries.append({"line_id": line, "p_c": p, "cost_ratio": ratio})
            expected[line] = ContingencyParams.from_cost_ratio(line, p, ratio)
        else:
            miss, false_alarm = draw(positive), draw(positive)
            entries.append({"line_id": line, "p_c": p, "c_f1": miss, "c_f0": false_alarm})
            expected[line] = ContingencyParams(line, p, miss, false_alarm)
    return entries, expected


@ROUND_TRIP
@given(contingency_entries())
def test_contingencies_round_trip(tmp_path_factory, case):
    entries, expected = case
    path = tmp_path_factory.getbasetemp() / "round_trip_contingencies.json"
    path.write_text(json.dumps(entries, indent=2))
    assert load_contingency_params(path) == expected
