"""Meta-tests over the package surface: exports exist and are documented."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.core",
    "repro.baselines",
    "repro.index",
    "repro.topk",
    "repro.geometry",
    "repro.optimize",
    "repro.data",
    "repro.dbms",
    "repro.bench",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def iter_public_objects():
    package = repro
    for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name, None)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj


def test_every_public_item_has_a_docstring():
    undocumented = [
        qualified
        for qualified, obj in iter_public_objects()
        if not (inspect.getdoc(obj) or "").strip()
    ]
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_every_module_has_a_docstring():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_public_classes_document_their_methods():
    """Public (non-underscore) methods of public classes are documented."""
    undocumented = []
    for qualified, obj in iter_public_objects():
        if not inspect.isclass(obj):
            continue
        for name, member in inspect.getmembers(obj, predicate=inspect.isfunction):
            if name.startswith("_") or member.__qualname__.split(".")[0] != obj.__name__:
                continue
            if not (inspect.getdoc(member) or "").strip():
                undocumented.append(f"{qualified}.{name}")
    assert not undocumented, f"undocumented methods: {undocumented}"


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"
