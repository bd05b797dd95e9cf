"""The benchmark imports only what the package exports.

``bench/`` lies outside the test paths, so trimming the public surface
could break the benchmark without any test failing.  These tests read
the benchmark's imports with ``ast``; they neither run nor edit it.
"""

import ast
import importlib
from pathlib import Path

import analogical

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_imports(tree: ast.Module) -> list[str]:
    """Names the module imports with ``from analogical import ...``."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "analogical" and node.level == 0
        for alias in node.names
    ]


def _attributes_of(tree: ast.Module, name: str) -> set[str]:
    """Attributes read off the bare name ``name``, such as ``cli.main``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


def test_bench_imports_resolve():
    files = sorted(BENCH.glob("*.py"))
    assert files, f"no benchmark sources under {BENCH}"
    imported = 0
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _package_imports(tree):
            imported += 1
            if name in analogical.__all__:
                continue
            # a submodule (``from analogical import cli``): what is read off it must exist
            try:
                module = importlib.import_module(f"analogical.{name}")
            except ModuleNotFoundError:
                raise AssertionError(
                    f"{path.name} imports {name!r}, which is not in analogical.__all__"
                ) from None
            for attr in _attributes_of(tree, name):
                assert hasattr(module, attr), f"{path.name} reads {name}.{attr}, which is gone"
    assert imported, "no 'from analogical import' found in the benchmark"


def test_every_exported_name_resolves():
    assert len(set(analogical.__all__)) == len(analogical.__all__)
    for name in analogical.__all__:
        assert hasattr(analogical, name), name
