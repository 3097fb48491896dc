"""The packages' lazy public API: every exported name resolves on access."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg and hasattr(importlib.import_module(info.name), "__all__")
)


def test_every_subpackage_with_exports_is_covered():
    assert set(PACKAGES) >= {
        "repro", "repro.analysis", "repro.core", "repro.experiments",
        "repro.gpu", "repro.memory", "repro.perf", "repro.platform",
        "repro.power", "repro.runtime", "repro.sensitivity",
        "repro.telemetry", "repro.workloads",
    }


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listing = dir(package)
    assert package.__all__, name
    for attr in package.__all__:
        assert hasattr(package, attr), f"{name}.{attr}"
        assert attr in listing, f"{name}.{attr} missing from dir()"


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_attribute_raises_naming_it(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")


def test_names_resolve_to_their_defining_objects():
    from repro import HarmoniaPolicy, NULL_TELEMETRY, __version__
    from repro.core.harmonia import HarmoniaPolicy as defined
    from repro.telemetry.handle import NULL_TELEMETRY as null
    from repro.workloads import serialization

    assert HarmoniaPolicy is defined
    assert NULL_TELEMETRY is null
    assert serialization is importlib.import_module(
        "repro.workloads.serialization")
    assert __version__ == "1.0.0"


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from repro.gpu import *", namespace)
    assert set(importlib.import_module("repro.gpu").__all__) <= set(namespace)
