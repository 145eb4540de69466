"""Every Python example of README.md runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"example{k}" for k in range(len(EXAMPLES))])
def test_readme_example_runs(source):
    # a fresh namespace per example; a warning fails it (pyproject's filterwarnings)
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
