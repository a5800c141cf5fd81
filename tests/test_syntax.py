"""Every Python file under src/, tests/ and perfbench/ parses as Python
3.10, the oldest version that pyproject.toml admits.

ast.parse with feature_version=(3, 10) refuses syntax that 3.10 lacks,
such as except*, under whichever version runs the suite.  The files are
only read, never imported, and nothing here needs tomllib, which 3.10
lacks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))


def test_every_file_parses_as_python_3_10():
    assert len(FILES) > 30
    for path in FILES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_refused():
    # the check would pass on anything if feature_version were ignored:
    # except* is 3.11 syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
