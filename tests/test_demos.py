"""Every demo script, and the README's python code, runs against the public API."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _code(path):
    """A demo's source, or the README's fenced python blocks in order."""
    text = path.read_text()
    if path.suffix == ".md":
        text = "".join(block.split("```", 1)[0] for block in text.split("```python\n")[1:])
    return text


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    exec(compile(_code(path), str(path), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
