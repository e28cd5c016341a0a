"""The functions the benchmark tracer (`perfbench/tracer.py`) wraps by name.

`--trace 1` runs fail when one of them is renamed or deleted; this test
catches that in the tier-1 suite.  The tracer module is loaded from its
file without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_exist():
    tracer = _tracer()
    for _, modname, names in tracer.LAYERS:
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    series = importlib.import_module("hilbloc.series")
    for name in tracer.SERIES_METHODS:
        assert callable(vars(series.TruncSeries).get(name)), f"TruncSeries.{name}"
    assert len(importlib.import_module("hilbloc.verify").CHECKS) == tracer.N_CHECKS


def test_traced_caches_exist():
    tracer = _tracer()
    for key, (modname, name) in tracer.CACHED.items():
        fn = getattr(importlib.import_module(modname), name, None)
        assert hasattr(fn, "cache_info"), f"{key}: {modname}.{name}"
