"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)  # the examples write under out/
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {k}", "exec"), {"__name__": f"readme_block_{k}"})
