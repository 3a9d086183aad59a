import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import swarmguide

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_declared_dependency_imports():
    # A dependency that cannot be imported here would also break an offline
    # ``pip install -e .``.
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0)
        importlib.import_module(name.replace("-", "_"))


def _modules():
    yield swarmguide
    for info in pkgutil.iter_modules(swarmguide.__path__):
        yield importlib.import_module(f"swarmguide.{info.name}")


def test_every_exported_name_resolves():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def test_removed_wrappers_stay_gone():
    # The stencil (``Topology``) and a float ``d_chsn`` replaced the first
    # three; an exact symmetry check on the stencil replaced the last two.
    for module in _modules():
        for name in ("LaplacianView", "SynthesisParams", "error_vector", "symmetric_eigenvalues", "SYMMETRY_TOL"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
