"""The package's public names."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import morreyconst

MODULES = ["morreyconst"] + [
    f"morreyconst.{info.name}" for info in pkgutil.iter_modules(morreyconst.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
