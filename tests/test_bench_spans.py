"""The benchmark's tracer patches tatek functions by name; every name in
its span table must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    missing = []
    for span, module_name, attr in _load_tracing().SPANS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append((span, module_name, attr))
    assert not missing
