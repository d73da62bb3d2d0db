"""The public surface: each module's __all__ is what the package re-exports."""

import importlib
import inspect

import pytest

import opsample
from opsample import errors

MODULES = ["gabor", "support", "channel", "reconstruct", "sparse", "rates"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_reexported(name):
    module = importlib.import_module(f"opsample.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined_here = {
        n for n, value in vars(opsample).items()
        if getattr(value, "__module__", None) == module.__name__
    }
    assert defined_here == set(module.__all__)
    assert all(getattr(opsample, n) is getattr(module, n) for n in module.__all__)


def test_namespace_is_the_all_lists_the_errors_and_the_version():
    modules = [importlib.import_module(f"opsample.{n}") for n in MODULES]
    want = {n for module in modules for n in module.__all__}
    want |= {
        n for n, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.OpSampleError)
    }
    want.add("__version__")
    public = {
        n for n, value in vars(opsample).items()
        if not inspect.ismodule(value) and not (n.startswith("__") and n != "__version__")
    }
    assert public == want
    # the modules bound are submodules (formats, cli and presets once imported), never numpy
    for name, value in vars(opsample).items():
        assert not inspect.ismodule(value) or value.__name__ == f"opsample.{name}"


@pytest.mark.parametrize("name", ["reconstruct", "sparse"])
def test_recoveries_take_no_ground_truth(name):
    module = importlib.import_module(f"opsample.{name}")
    functions = [getattr(module, n) for n in module.__all__]
    assert any(inspect.isfunction(f) for f in functions)
    for function in filter(inspect.isfunction, functions):
        params = inspect.signature(function).parameters
        assert not {"eta_true", "gamma_true"} & set(params), function.__name__
