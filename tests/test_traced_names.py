"""Names the package promises: its public API and the benchmark's traced functions.

The benchmark's tracer patches package functions by name; each must exist.
``bench/tracing.py`` imports only the standard library, so it loads here by
path without the rest of the benchmark.
"""

import importlib
import importlib.util
import types

import energyshare

from conftest import REPO_ROOT


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", REPO_ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_layer():
    tracing = load_tracing()
    traced = [
        (layer, name)
        for table in (tracing.SPANS, tracing.LEAVES)
        for layer, names in table.items()
        for name in names
    ]
    assert len(traced) > 40
    missing = [
        f"energyshare.{layer}.{name}"
        for layer, name in traced
        if not callable(getattr(importlib.import_module(f"energyshare.{layer}"), name, None))
    ]
    assert not missing, f"traced but not callable: {missing}"


def test_public_api_is_every_imported_name_but_the_submodules():
    assert len(energyshare.__all__) == len(set(energyshare.__all__)) > 60
    values = [getattr(energyshare, name) for name in energyshare.__all__]
    assert not [v for v in values if isinstance(v, types.ModuleType)]
    namespace = {}
    exec("from energyshare import *", namespace)
    assert all(namespace[name] is v for name, v in zip(energyshare.__all__, values))
    assert {"integrate", "closed_loop_rhs", "run_verify", "NonfiniteState"} <= set(namespace)
