"""The benchmark's tracer patches tatek functions by name; every name in
its span table must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

from tatek.groups import cyclic_group, direct_product, symmetric_group
from tatek.wreath import wreath
from test_groups import brute_pair_classes

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


def test_tracer_counts_pair_classes():
    # the tracer reads the pair table attributes by name to count classes
    for make in (lambda: symmetric_group(3), lambda: wreath(cyclic_group(2), 2)):
        with _load_tracing().Tracer() as tracer:
            G = make()
            G.commuting_pair_classes()
        assert tracer.counts["groups.pair_classes"] == len(brute_pair_classes(G)[0])
    # a direct product classifies its pairs through its factors' tables;
    # they are built first, so that only the product's own classes count
    factors = cyclic_group(2), symmetric_group(3)
    for F in factors:
        F.commuting_pair_classes()
    with _load_tracing().Tracer() as tracer:
        P = direct_product(*factors)
        P.commuting_pair_classes()
    assert tracer.counts["groups.pair_classes"] == len(brute_pair_classes(P)[0])
