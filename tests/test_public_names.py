"""Each wgqed module's __all__ names exactly its public definitions, so a
name deleted from a module cannot linger in __all__, and a new public class
or function cannot go unlisted."""

import importlib
import inspect
import pkgutil

import pytest

import wgqed

MODULES = sorted(info.name for info in pkgutil.iter_modules(wgqed.__path__)
                 if not info.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"wgqed.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"wgqed.{name}.__all__ names what the module does not define: {missing}"
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == module.__name__}
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"wgqed.{name} defines public names its __all__ leaves out: {unlisted}"
