"""The benchmark's tracer wraps package functions by name, so a rename would
break traced runs while every other test passes: each name it wraps must be
a function of the package."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without importing it as a module, so no
# bytecode is written next to it
TRACING = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracing.py"))


@pytest.mark.parametrize("module,function", [*TRACING["TIMED"], ("gaussian", "level_rate")])
def test_each_traced_name_is_a_package_function(module, function):
    mod = importlib.import_module(f"{TRACING['PACKAGE']}.{module}")
    # unwrap: a cached function (``cli.build_parser``) is wrapped in place
    assert inspect.isfunction(inspect.unwrap(getattr(mod, function, None))), function
