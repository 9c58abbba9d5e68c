"""The example scripts at least import (importing catches API drift
cheaply); CI's ``examples`` job runs each one's main to completion."""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    p.stem for p in (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_present():
    assert "quickstart" in EXAMPLES
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports(name):
    path = pathlib.Path(__file__).parent.parent / "examples" / ("%s.py" % name)
    spec = importlib.util.spec_from_file_location("example_%s" % name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
