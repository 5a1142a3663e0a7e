"""The README's library examples run as written, and its config keys are the parser's."""

import re
from pathlib import Path

import pytest

from robinsim import config

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


# a documented key: a snake_case name, or any lowercase name followed by "="
KEY_LIKE = re.compile(r"\b([a-z][a-z0-9]*(?:_[a-z0-9]+)+)\b|\b([a-z][a-z0-9]*)\s*=(?!=)")


def readme_ini_block():
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


@pytest.mark.parametrize("source", ["README.md ini block", "robinsim.config docstring"])
def test_documented_config_keys_are_the_parsers(source):
    # the docstring's keys are in its literal block, after its prose
    text = readme_ini_block() if source.startswith("README") else config.__doc__.split("::\n", 1)[1]
    words = set(re.findall(r"\b[a-z][a-z0-9_]*\b", text))
    named = {snake or assigned for snake, assigned in KEY_LIKE.findall(text)}
    assert sorted(config._KNOWN_KEYS - words) == [], "keys the parser takes but the text never names"
    assert sorted(named - config._KNOWN_KEYS) == [], "names the text gives as keys but the parser rejects"
