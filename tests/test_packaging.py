import dataclasses
import importlib
import inspect
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


def test_each_public_name_is_declared_once():
    # A name is listed only by the module that defines it, and the package
    # exports the union of its modules' lists.
    modules = [m for m in _modules() if m is not swarmguide and hasattr(m, "__all__")]
    declared = [name for m in modules for name in m.__all__]
    assert len(declared) == len(set(declared)), sorted({n for n in declared if declared.count(n) > 1})
    assert sorted(swarmguide.__all__) == sorted(["__version__", *declared])
    for module in modules:
        for name in module.__all__:
            assert getattr(swarmguide, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_removed_wrappers_stay_gone():
    # The stencil (``Topology``) and a float ``d_chsn`` replaced the first
    # three; an exact symmetry check on the stencil replaced the next two;
    # ``Scenario`` normalises its own validated grids, replacing
    # ``from_weight_map``; ``partition_states`` decides connectivity; one
    # sampler table type, ``_kernels.Tables``, replaced the next three; a
    # column is a density, so ``density.SUM_TOL`` bounds its sum.
    names = (
        "LaplacianView", "SynthesisParams", "error_vector", "symmetric_eigenvalues", "SYMMETRY_TOL",
        "from_weight_map", "is_strongly_connected", "StayTables", "stay_tables", "Guide",
        "COLUMN_SUM_TOL",
    )
    for module in _modules():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # metropolis_hastings partitions the topology itself.
    assert list(inspect.signature(swarmguide.metropolis_hastings).parameters) == ["desired", "topology"]
    # Every cumulative column ends at exactly 1.0, so the tables keep no last
    # positive slots, and a caller rewrites columns with one assignment.
    assert swarmguide._kernels.Tables._fields == ("cum", "table")
    assert not hasattr(swarmguide._kernels.Tables, "rewrite")
    # Removal is the one kind of event, so an Event carries no kind.
    assert [f.name for f in dataclasses.fields(swarmguide.Event)] == ["step", "fraction"]


def test_partition_holds_the_recurrent_bins_and_each_bins_distance_only():
    # Each bin's distance to the support is held once; the dense builders'
    # block order is derived from it in ``synthesis._block_order``.
    assert [f.name for f in dataclasses.fields(swarmguide.Partition)] == ["recurrent", "distance"]
    assert not hasattr(swarmguide.Partition, "m_t")
