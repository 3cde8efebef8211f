"""The package's public names: every export resolves, once, to an import."""

import ast
import os

import nudgelab

INIT = os.path.join(os.path.dirname(nudgelab.__file__), "__init__.py")


def _imported_names():
    with open(INIT, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level == 1 for alias in node.names]


def test_every_export_resolves():
    missing = [name for name in nudgelab.__all__
               if not hasattr(nudgelab, name)]
    assert missing == []


def test_every_export_listed_once():
    names = nudgelab.__all__
    assert len(names) == len(set(names))


def test_exports_match_imports():
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert sorted(imported) == sorted(nudgelab.__all__)
