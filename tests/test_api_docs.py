"""Documentation contract: every public item carries a doc comment."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.ir",
    "repro.frontend",
    "repro.analysis",
    "repro.core",
    "repro.pipette",
    "repro.runtime",
    "repro.taco",
    "repro.workloads",
    "repro.bench",
    "repro.api",
    "repro.service",
    "repro.obs",
    "repro.cache",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


@pytest.mark.parametrize("name", MODULES)
def test_public_items_documented(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    undocumented = []
    for item_name in exported:
        item = getattr(module, item_name)
        if inspect.isfunction(item) or inspect.isclass(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(item_name)
    assert not undocumented, "%s: %s" % (name, undocumented)


def test_benchmark_modules_documented():
    import pathlib

    for path in (pathlib.Path(__file__).parent.parent / "benchmarks").glob("test_*.py"):
        first = path.read_text().lstrip()
        assert first.startswith('"""'), path.name
