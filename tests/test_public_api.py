"""The public API surface stays importable and coherent."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.cluster",
    "repro.raft",
    "repro.store",
    "repro.txn",
    "repro.core",
    "repro.systems",
    "repro.systems.carousel",
    "repro.systems.tapir",
    "repro.systems.twopl",
    "repro.workloads",
    "repro.harness",
    "repro.verify",
    "repro.faults",
    "repro.obs",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} is dangling"


def test_version():
    import repro

    assert repro.__version__


def test_headline_objects_are_reachable_from_core():
    from repro.core import Natto, natto_recsf

    system = Natto(natto_recsf())
    assert system.name == "Natto-RECSF"
