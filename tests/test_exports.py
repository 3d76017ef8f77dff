"""Every public name a module declares exists."""

import importlib

import pytest

MODULES = ("flmc", "flmc.cli", "flmc.drift", "flmc.oracle", "flmc.riesz",
           "flmc.sampler", "flmc.stable", "flmc.targets")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
