"""Every name a homindex module exports through `__all__` exists."""

import importlib
import pkgutil

import pytest

import homindex

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(homindex.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"homindex.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"homindex.{name}.__all__ names missing attributes: {missing}"
