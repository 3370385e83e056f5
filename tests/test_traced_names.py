"""The benchmark tracer's (module, function) names still exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    # a dropped name would otherwise surface only as an AttributeError in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module_name, func_name)
        for module_name, func_name in tracing.TRACED
        if not callable(getattr(importlib.import_module(module_name), func_name, None))
    ]
    assert tracing.TRACED and missing == []
