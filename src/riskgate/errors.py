"""Exception hierarchy shared across the package, and the JSON file reader.

``ConfigError`` subclasses signal malformed inputs (bad files, bad
parameters) and map to CLI exit code 2; ``DataError`` subclasses signal
problems with otherwise well-formed data (degenerate training sets,
stalled generation) and map to exit code 3.
"""

import json
from pathlib import Path


class RiskgateError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RiskgateError):
    """Malformed configuration, file, or parameter."""


class DataError(RiskgateError):
    """Well-formed input whose content cannot be processed."""


# -- network / LP ------------------------------------------------------------

class IslandedNetwork(DataError):
    """A line outage (or bad topology) disconnects the network graph."""


class SingularSystem(DataError):
    """The reduced susceptance matrix is not invertible."""


class UnboundedLP(DataError):
    """The linear program has an unbounded objective (malformed model)."""


# -- sampling / database -----------------------------------------------------

class InvalidCorrelation(ConfigError):
    """Load correlation matrix is not positive definite."""


class GenerationStalled(DataError):
    """Too many sampled conditions are pre-fault infeasible."""


class MalformedFile(ConfigError):
    """A data or model file failed to parse.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_json(path):
    """Parse the JSON file at ``path``; a syntax error raises MalformedFile naming the file and line."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"invalid JSON in {path}: {exc.msg} (column {exc.colno})", line=exc.lineno) from exc


class VersionMismatch(ConfigError):
    """A serialized artifact carries an unsupported version tag."""


# -- learning / calibration --------------------------------------------------

class DegenerateData(DataError):
    """All feature vectors identical while both classes are present."""


class SingleClassData(DataError):
    """Training split contains only one class."""


class SingleClassCalibration(DataError):
    """Calibration split contains only one class."""


# -- risk engine -------------------------------------------------------------

class NonPositiveCost(ConfigError):
    """Miss / false-alarm costs must be strictly positive."""


class EmptyDatabase(DataError):
    """An operation requires at least one labeled example."""


class InsufficientData(DataError):
    """Fewer examples than required (e.g. fewer than requested bins)."""


class MissingModel(ConfigError):
    """No trained model supplied for a contingency in scope."""

    def __init__(self, contingency: int):
        super().__init__(f"no model for contingency {contingency}")
        self.contingency = contingency
