"""The file contract: how input files are read and refused, how output files are written, and the exit codes.

Inputs.  `read_text` reads every input file as UTF-8; a byte that does
not decode is refused naming the file and its line.  `read_json` parses
a JSON input file (network, model, contingencies, config) and refuses a
syntax error, naming the file and line, or nesting too deep to parse,
naming the file; `integer` and `number` decide what its fields may hold.

Outputs.  `write_texts` writes every output file of the package, all of
one command's outputs at once: each to a temporary file beside it, all
renamed into place only once all are written, so a failed write leaves
no new file and every old one as it was.  A rewritten file keeps its
mode; an output that exists and is not a regular file is refused.

Errors.  ``ConfigError`` (and ``ValueError`` and ``OSError``) signal
malformed inputs (bad files, bad parameters, an output that cannot be
written) and map to CLI exit code 2; ``DataError`` signals problems
with otherwise well-formed data (degenerate training sets, stalled
generation) and maps to exit code 3.  The subclasses below exist only
where some code tells them apart.
"""

import errno
import json
import math
import numbers
import os
import stat
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
    """Parse the JSON file at ``path``.

    A syntax error raises MalformedFile naming the file and line, and
    arrays or objects nested too deep for the parser one naming the file.
    """
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"invalid JSON in {path}: {exc.msg} (column {exc.colno})", line=exc.lineno) from exc
    except RecursionError:
        raise MalformedFile(f"invalid JSON in {path}: nested too deeply") from None


def write_texts(texts: dict) -> None:
    """Write each ``path: text``, or, if any write fails, leave every file as it was.

    Each text goes to a temporary file beside its path (beside the file a
    symbolic link names), renamed into place only once all are written; a
    rewritten file keeps its mode.  A path that exists and is not a regular
    file is refused, and paths naming one file write the last text.  An
    error is an OSError naming the path, not its temporary file.
    """
    targets = {Path(os.path.realpath(path)): (path, text) for path, text in texts.items()}
    temps = []
    try:
        for target, (path, text) in targets.items():
            try:
                mode = target.stat().st_mode if os.path.lexists(target) else None  # a symbolic-link loop raises
                if mode is not None and not stat.S_ISREG(mode):
                    raise (OSError(errno.EISDIR, os.strerror(errno.EISDIR)) if stat.S_ISDIR(mode)
                           else OSError(errno.EEXIST, "exists and is not a regular file"))
                temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
                with open(temp, "w", encoding="utf-8") as fh:
                    temps.append(temp)
                    fh.write(text)
                if mode is not None:
                    os.chmod(temp, stat.S_IMODE(mode))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


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
