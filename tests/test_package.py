"""Package root: the public names it exports, and the Python it declares."""

import ast
from pathlib import Path

import biramsey


def test_all_names_exist_once():
    # a name left in __all__ after its object is gone breaks star imports
    names = biramsey.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(biramsey, name)] == []


def test_sources_parse_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; this rejects syntax
    # newer than that, such as except* and type aliases or PEP 695 generics
    sources = sorted(Path(biramsey.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
