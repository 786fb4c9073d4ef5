"""Every `(owner, attribute)` pair that the benchmark's tracer wraps, in
`perfbench/workloads.py:LAYERS` and `ALLOC_LAYERS`, resolves in the program.

A pair that no longer resolves would otherwise end the benchmark in an
`AttributeError` inside `Tracer.install`; here the failure names the pair.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def unresolved(layers) -> list[str]:
    """`owner.attribute` of each layer entry whose owner (a module, or a
    `module:Class`) cannot be imported or lacks the attribute."""
    missing = []
    for target, attr, *_ in layers:
        module, _, cls = target.partition(":")
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{target}.{attr}")
    return missing


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert unresolved(workloads.LAYERS + workloads.ALLOC_LAYERS) == []


@pytest.mark.parametrize(
    "layers, expected",
    [
        ([("diarkit.models", "conv2d", "nn.conv2d", {})], []),
        ([("diarkit.models:TsvadNet", "detect", "d", {})], []),
        ([("diarkit.models", "no_such_layer", "x", {})], ["diarkit.models.no_such_layer"]),
        ([("diarkit.models:NoSuchNet", "forward", "x", {})], ["diarkit.models:NoSuchNet.forward"]),
        ([("diarkit.no_such_module", "f", "x", {})], ["diarkit.no_such_module.f"]),
    ],
    ids=["module", "class", "attribute", "class-missing", "module-missing"],
)
def test_the_check_itself(layers, expected):
    assert unresolved(layers) == expected
