"""The public surface: each module's __all__ is what the package re-exports."""

import importlib
import inspect

import pytest

import opsample


@pytest.mark.parametrize("name", ["gabor", "support", "channel", "reconstruct", "sparse", "rates"])
def test_all_names_exist_and_are_reexported(name):
    module = importlib.import_module(f"opsample.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined_here = {
        n for n, value in vars(opsample).items()
        if getattr(value, "__module__", None) == module.__name__
    }
    assert defined_here == set(module.__all__)
    assert all(getattr(opsample, n) is getattr(module, n) for n in module.__all__)


@pytest.mark.parametrize("name", ["reconstruct", "sparse"])
def test_recoveries_take_no_ground_truth(name):
    module = importlib.import_module(f"opsample.{name}")
    functions = [getattr(module, n) for n in module.__all__]
    assert any(inspect.isfunction(f) for f in functions)
    for function in filter(inspect.isfunction, functions):
        params = inspect.signature(function).parameters
        assert not {"eta_true", "gamma_true"} & set(params), function.__name__
