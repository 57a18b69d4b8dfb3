"""Every Python file of the project parses under the 3.10 grammar.

pyproject.toml declares requires-python >= 3.10, and the CI workflow runs
the suite on 3.10, but a newer interpreter accepts syntax that 3.10
rejects, such as `except*` groups (3.11).
`ast.parse(..., feature_version=(3, 10))` rejects such syntax on a newer
interpreter. It is a best-effort check of the grammar only: it does not
catch standard-library APIs newer than 3.10 (tomllib, itertools.batched,
datetime.UTC, new keyword arguments), typing features evaluated at run
time, or changes in behaviour between versions. Only a 3.10 run of the
suite catches those.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "bench", "scripts") for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "bench", "scripts"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
