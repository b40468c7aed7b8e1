"""What the package imports: every name a module imports is used in it, and nothing imports scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "riskgate"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


# __init__.py imports names only to re-export them
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os.path\nimport numpy as np\nfrom .simplex import LPResult, solve_lp\n\nsolve_lp(np.zeros(1))\n"
    assert unused_imports(source) == ["os", "LPResult"]


# -- scipy is a test dependency only ------------------------------------------

SRC = PACKAGE.parent
# Run first in a child interpreter: every import of scipy, or of a module of it, fails.
REFUSE_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} refused", name=name)


sys.meta_path.insert(0, RefuseScipy())
"""


def python(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """``python -c code args...`` in a new interpreter that imports riskgate from this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_importing_the_cli_loads_no_scipy_module():
    run = python("import sys\nimport riskgate.cli\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_the_blocker_refuses_scipy():
    run = python(REFUSE_SCIPY + "import scipy.special\n")
    assert run.returncode == 1 and "import of scipy refused" in run.stderr


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "200", "--splits", "120,40,40", "--out", "out/dataset.csv"],
    ["experiment", "imbalance", "--config", "../small.json", "--out", "out"],
], ids=["generate", "experiment-imbalance"])
def test_commands_run_without_scipy_and_write_the_same_bytes(argv, tmp_path, monkeypatch):
    from riskgate.cli import main
    from test_experiments import SMALL

    (tmp_path / "small.json").write_text(json.dumps(SMALL))
    runs = {}
    for name in ("without_scipy", "in_process"):
        (tmp_path / name / "out").mkdir(parents=True)
        if name == "without_scipy":
            run = python(REFUSE_SCIPY + "from riskgate.cli import main\nsys.exit(main(sys.argv[1:]))\n", *argv,
                         cwd=tmp_path / name)
            assert run.returncode == 0, run.stderr
        else:
            monkeypatch.chdir(tmp_path / name)
            assert main(argv) == 0
        out = tmp_path / name / "out"
        runs[name] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert runs["without_scipy"] == runs["in_process"] and runs["in_process"]
