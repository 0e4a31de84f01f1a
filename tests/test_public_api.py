"""Meta-tests over the package surface: exports exist and are documented."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The package and every module under it but the ``__main__`` entry points.
MODULES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if "__main__" not in info.name
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def iter_public_objects():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name, None)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{module_name}.{name}", obj


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


#: A stand-in ``numba`` whose ``njit`` returns the function it wraps.
FAKE_NUMBA = '''\
def njit(*args, **kwargs):
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]
    return lambda func: func


jit = njit
'''

ONE_IQ = '''\
import numba
import repro
from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.data.synthetic import independent
from repro.data.workloads import uniform_queries

assert numba.__file__.startswith(STUB_DIR), numba.__file__
engine = ImprovementQueryEngine(
    Dataset(independent(20, 3, seed=1)), uniform_queries(12, 3, seed=2, k_range=(1, 3))
)
print(engine.min_cost(0, tau=4).hits_after)
'''


def test_library_imports_with_numba_installed(tmp_path):
    """Having numba importable must not change what ``import repro`` does."""
    stub = tmp_path / "stub"
    (stub / "numba").mkdir(parents=True)
    (stub / "numba" / "__init__.py").write_text(FAKE_NUMBA)
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(stub), str(src)]))
    completed = subprocess.run(
        [sys.executable, "-c", f"STUB_DIR = {str(stub)!r}\n" + ONE_IQ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout.strip()) >= 4
