"""Tests of the package's public surface: the names it exports and the
library example README shows."""

import re
from pathlib import Path

import pytest

import resmat

README = Path(__file__).resolve().parent.parent / "README.md"

#: The exported names and the lazily loaded ones.
NAMES = sorted(set(resmat.__all__) | set(resmat._LAZY_NAMES))


@pytest.mark.parametrize("name", NAMES)
def test_every_exported_name_resolves(name):
    # Lazy names load their module on first access; a stale entry fails here.
    assert getattr(resmat, name) is not None


def test_star_import():
    namespace = {}
    exec("from resmat import *", namespace)
    assert set(resmat.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        resmat.no_such_name


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library usage") :]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, str(README), "exec"), {})
