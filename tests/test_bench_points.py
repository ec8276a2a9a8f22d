"""The benchmark's trace points still name attributes of the package.

`bench/spans.py` wraps module attributes and class methods of `cf2` by
(owner path, attribute); a renamed or moved function would make every
traced run fail.  These tests only read `bench/`.
"""

from __future__ import annotations

import importlib.util
import pathlib

import cf2
import cf2.cli  # noqa: F401  (the benchmark imports the CLI too)
from cf2 import EpsSpec

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_point_resolves():
    for name, owner_path, attr, _ in _spans()._POINTS:
        owner = cf2
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert attr in owner.__dict__, (name, owner_path, attr)


def test_positions_counters_count_indices():
    spans = _spans()
    seed = EpsSpec.parse("a(bc)")
    tracer = spans.Tracer()
    with tracer.patched(cf2):
        enumerated = cf2.seqcore.positions(seed, "b", 40)
        predicted = cf2.seqcore.positions_predicted(seed, 0, 40)
    assert enumerated == predicted
    metrics = tracer.layer_metrics(0, 1.0)
    assert metrics["seqcore.indices"] == 2 * len(enumerated.indices) > 0
    assert not hasattr(cf2.seqcore.positions, "__wrapped__")  # restored
