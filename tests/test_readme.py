"""The README's library examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippets():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_library_section_has_snippets():
    assert len(library_snippets()) >= 2


@pytest.mark.parametrize("index", range(len(library_snippets())))
def test_library_snippet_runs(index, capsys):
    exec(compile(library_snippets()[index], f"README.md Library snippet {index}", "exec"), {})
    assert capsys.readouterr().out
