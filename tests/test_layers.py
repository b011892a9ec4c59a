"""The functions perfbench traces must exist under the names it looks up.

perfbench/tracing.py wraps each (module, qualified name) in its LAYERS, and
BENCHMARK.json defines a per-layer metric on each.  A renamed or deleted
function would not fail the benchmark: its metric would read 0.  These
tests read both files without changing them.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from arithsite import belyi, ratpoly

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(tracing):
    for mod, qual in tracing.LAYERS:
        owner = importlib.import_module(f"arithsite.{mod}")
        for part in qual.split("."):
            assert hasattr(owner, part), f"arithsite.{mod}.{qual} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"arithsite.{mod}.{qual} is not callable"


def test_every_layer_has_its_metrics(tracing):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name in tracing.NAMES:
        assert {f"{name}.calls", f"{name}.self_s"} <= declared


def test_compose_is_traced_through_the_product(tracing):
    # the belyi-compose workload reaches PolyQ.__mul__ only through compose
    p, q = belyi.b_dk(5, 2), belyi.b_dk(4, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        belyi.compose(p, q)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.calls["belyi.compose"] == 1
    assert tracer.calls["ratpoly.PolyQ.compose"] == 1
    assert tracer.calls["ratpoly.PolyQ.__mul__"] > 0
    assert not hasattr(ratpoly.PolyQ.__mul__, "__wrapped__")  # bindings restored
