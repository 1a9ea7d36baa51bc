"""Every name a ``repro`` module exports through ``__all__`` resolves.

A deletion that leaves its name in a package's ``__all__`` breaks
``from repro.x import *`` and misleads readers of the export list.
Ruff's F822 catches that only where ruff is installed; this test runs
with the tier-1 suite everywhere.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"duplicate names in {name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def test_packages_export_something():
    """The scan above is not vacuous: the packages declare their exports."""
    counts = {
        name: len(getattr(importlib.import_module(name), "__all__", ()))
        for name in MODULES
    }
    assert sum(counts.values()) > 200
    assert all(counts[pkg] for pkg in ("repro.sim", "repro.network", "repro.payment"))
