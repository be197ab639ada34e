"""Every name the benchmark's tracer wraps must exist in the package.

perfbench/traced_cli.py replaces functions at the names their callers look
up; a rename or deletion there would only surface when the benchmark runs.
This runs that file by path, which defines its WRAPPED table and nothing
else, and checks each entry here instead.
"""
import importlib
import runpy
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def wrapped_names():
    wrapped = runpy.run_path(str(TRACED_CLI))["WRAPPED"]
    return [(owner, attr) for owner, attr, _name, _counts in wrapped]


@pytest.mark.parametrize("owner, attr", wrapped_names(), ids=lambda v: v)
def test_traced_name_resolves_to_a_callable(owner, attr):
    module = importlib.import_module(f"optomech.{owner}")
    assert callable(getattr(module, attr, None)), f"optomech.{owner}.{attr}"
