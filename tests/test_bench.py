"""The benchmark's tracer wraps package attributes by name, so each one must exist."""

import importlib.util
from pathlib import Path


def load_tracing():
    """``bench/tracing.py`` as a module (``bench`` is not a package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_entry_points_exist():
    tracing = load_tracing()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.ENTRY_POINTS
               if not callable(getattr(module, attr, None))]
    assert missing == []
