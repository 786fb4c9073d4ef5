"""Every `(owner, attribute)` pair that the benchmark's tracer wraps, in
`perfbench/workloads.py:LAYERS` and `ALLOC_LAYERS`, resolves in the program,
and the program's calls reach a wrapper set on the owning module.

A pair that no longer resolves would otherwise end the benchmark in an
`AttributeError` inside `Tracer.install`; here the failure names the pair.
A caller that imported a wrapped function by name would keep calling the
original, and its spans would silently drop out of a traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from diarkit import audio, weights
from diarkit.audio import AudioBuffer
from diarkit.config import PipelineConfig
from diarkit.models import V2sScorer, init_embed_weights, init_tsvad_weights, init_vad_weights
from diarkit.pipeline import build_net_components
from diarkit.segments import Segment

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


def test_calls_reach_the_module_attribute(tmp_path, monkeypatch):
    calls = []
    for module, name in ((weights, "load_weights"), (audio, "log_mel")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    stores = {
        "embed": init_embed_weights(0),
        "tsvad": init_tsvad_weights(0),
        "vad": init_vad_weights(0),
        "v2s": V2sScorer.init(0).to_store(),
    }
    for net, store in stores.items():
        weights.save_weights(store, tmp_path / f"{net}.bin")
    cfg = PipelineConfig(**{f"{net}_weights": str(tmp_path / f"{net}.bin") for net in stores})
    components = build_net_components(cfg)
    assert calls == ["load_weights"] * 4

    calls.clear()
    buf = AudioBuffer(np.random.default_rng(0).normal(scale=0.1, size=8000), 8000)
    components.embedder(buf, [Segment(0.0, 0.5), Segment(0.25, 0.75)])
    assert calls == ["log_mel"] * 2
    components.tsvad_net.bind(buf)
    assert calls == ["log_mel"] * 3
