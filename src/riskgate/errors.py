"""The input contract: which inputs are refused, and with which exit code.

``ConfigError`` (and ``ValueError``) signal malformed inputs (bad files,
bad parameters) and map to CLI exit code 2; ``DataError`` signals
problems with otherwise well-formed data (degenerate training sets,
stalled generation) and maps to exit code 3.  The subclasses below exist
only where some code tells them apart.  `read_text` reads every input
file as UTF-8; `read_json`, `integer` and `number` decide what a JSON
input file may contain.
"""

import json
import math
import numbers
from pathlib import Path


class ConfigError(Exception):
    """Malformed configuration, file, or parameter."""


class DataError(Exception):
    """Well-formed input whose content cannot be processed."""


class UnboundedLP(DataError):
    """The linear program has an unbounded objective (malformed model)."""


class DegenerateData(DataError):
    """All feature vectors identical while both classes are present."""


class SingleClassData(DataError):
    """Training split contains only one class."""


class SingleClassCalibration(DataError):
    """Calibration split contains only one class."""


class MalformedFile(ConfigError):
    """A data or model file failed to parse.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, with universal newlines as ``open`` reads it.

    A byte that does not decode raises MalformedFile naming the file and
    the line it is on, counting lines as `str.splitlines` does.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        line = len((before + "?").splitlines())  # the bad byte's line: one past the line breaks before it
        raise MalformedFile(f"{path}: byte 0x{data[exc.start]:02x} is not UTF-8", line=line) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path):
    """Parse the JSON file at ``path``; a syntax error raises MalformedFile naming the file and line."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"invalid JSON in {path}: {exc.msg} (column {exc.colno})", line=exc.lineno) from exc


def integer(value, what: str) -> int:
    """``value`` as an int; TypeError unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def number(value, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float.

    TypeError unless it is a real number (a bool or a string is not);
    ValueError unless it is finite and within ``[lo, hi]``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    if not lo <= v <= hi:
        raise ValueError(f"{what} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return v
