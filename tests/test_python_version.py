"""The package declares requires-python >= 3.10; keep newer syntax out of it.

ast's feature_version check is best effort: it rejects forms such as
``except*`` and PEP 695 type parameters, but not every newer construct, and
it says nothing about library APIs newer than 3.10."""

import ast
from pathlib import Path

import pytest

import mdnas

SOURCES = sorted(Path(mdnas.__file__).resolve().parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 7


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
