"""Public-API hygiene: exports resolve and every public item is documented.

Walks every module under ``repro``: everything named in ``__all__`` must be
importable, every public module/class/function must carry a docstring, and
public dataclasses/classes must document their public methods.  This is the
mechanical enforcement of the "doc comments on every public item" rule.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        yield name, getattr(module, name)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ names missing {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented: list[str] = []
    for name, member in _public_members(module):
        if inspect.isclass(member) or inspect.isfunction(member):
            # Only police objects defined in this package.
            if getattr(member, "__module__", "").startswith("repro"):
                if not (member.__doc__ and member.__doc__.strip()):
                    undocumented.append(f"{module_name}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def _inherits_doc(cls, attr_name: str) -> bool:
    """True when a base class documents the same attribute (interface docs)."""
    for base in cls.__mro__[1:]:
        base_attr = base.__dict__.get(attr_name)
        if base_attr is None:
            continue
        func = base_attr.fget if isinstance(base_attr, property) else base_attr
        if func is not None and func.__doc__ and func.__doc__.strip():
            return True
    return False


def test_public_class_methods_documented():
    """Every public method of every public class carries a docstring.

    Overrides of a documented base-class method (the distribution families
    implementing the ``DurationDistribution`` contract, for example) inherit
    their documentation; dunder methods and private helpers are exempt.
    """
    missing: list[str] = []
    seen: set[str] = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, member in _public_members(module):
            if not inspect.isclass(member):
                continue
            if not getattr(member, "__module__", "").startswith("repro"):
                continue
            qualified = f"{member.__module__}.{name}"
            if qualified in seen:  # re-exports police the definition once
                continue
            seen.add(qualified)
            for attr_name, attr in vars(member).items():
                if attr_name.startswith("_"):
                    continue
                func = attr.fget if isinstance(attr, property) else attr
                if not (inspect.isfunction(func) or isinstance(attr, property)):
                    continue
                if func is None or not getattr(func, "__module__", "").startswith("repro"):
                    continue
                if func.__doc__ and func.__doc__.strip():
                    continue
                if _inherits_doc(member, attr_name):
                    continue
                missing.append(f"{qualified}.{attr_name}")
    assert not missing, f"undocumented public methods: {missing}"


def test_version_exported():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_no_numerics_backend_switch():
    """Model evaluation has one path: the old process-global backend
    selector module is gone, not merely unused."""
    assert "repro.numerics.backend" not in MODULES
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.numerics.backend")
