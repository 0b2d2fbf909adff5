import ast
import re

import pytest

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "paratide").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (REPO_ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_at_the_declared_minimum_python(path):
    # syntax only: a standard-library call newer than the floor still
    # passes, since ast.parse does not resolve names
    ast.parse(path.read_text(), str(path), feature_version=declared_floor())


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type X = int\n",
    "def f[T](x: T) -> T:\n    return x\n",
], ids=["except-star", "type-alias", "type-params"])
def test_syntax_newer_than_the_floor_is_refused(source):
    # the check above has teeth: syntax of 3.11 and 3.12 fails it
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=declared_floor())
