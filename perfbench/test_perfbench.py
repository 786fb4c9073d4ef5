"""Tests of the benchmark itself: seeded inputs, span arithmetic, the check
that published self times cover each recording, and wrapper removal.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_totals, nesting_problems, self_times, subtrees  # noqa: E402


def _same_tree(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(tmp_path, workload):
    inputs.generate(workload, 7, tmp_path / "a")
    inputs.generate(workload, 7, tmp_path / "b")
    inputs.generate(workload, 8, tmp_path / "c")
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "c")


def _tree():
    # root [0,10] -> a [1,4] -> a1 [2,3];  root -> b [5,9] -> b1 [6,7], b2 [7,8.5]
    return [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("leaf", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("leaf", 6.0, 7.0, 3, "r"),
        Span("leaf", 7.0, 8.5, 3, "r"),
    ]


def test_self_times_on_a_hand_built_tree():
    spans = _tree()
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]
    seconds, counts = layer_totals(spans)
    assert seconds == {"root": 3.0, "a": 2.0, "leaf": 3.5, "b": 1.5}
    assert counts["leaf.calls"] == 3
    assert nesting_problems(spans) == []


def test_subtrees_reindex_parents():
    spans = _tree() + [Span("root", 11.0, 12.0, None, "s"), Span("leaf", 11.5, 12.0, 6, "s")]
    first, second = subtrees(spans)
    assert [s.name for s in first] == [s.name for s in spans[:6]]
    assert [s.parent for s in first] == [None, 0, 1, 0, 3, 3]
    assert [(s.name, s.parent) for s in second] == [("root", None), ("leaf", 0)]
    assert self_times(second) == [0.5, 0.5]


def _recording(child: str):
    return [
        Span("pipeline.process_recording", 0.0, 10.0, None, "r"),
        Span("clustering.spectral_cluster", 1.0, 6.0, 0, "r"),
        Span("clustering.kmeans", 2.0, 3.0, 1, "r"),
        Span(child, 7.0, 9.0, 0, "r"),
    ]


def test_published_self_times_cover_each_recording():
    figures = run.layer_metrics(_recording("audio.read_wav"), {}, [])
    assert figures["pipeline.process_recording.s"] == 10.0
    assert figures["pipeline.other.s"] == 3.0
    assert figures["clustering.spectral_cluster.s"] == 5.0
    assert figures["clustering.eigensolve.s"] == 4.0
    assert figures["audio.read_wav.s"] == 2.0
    assert run.unpublished_time(_recording("audio.read_wav")) == []
    (problem,) = run.unpublished_time(_recording("audio.unlisted_layer"))
    assert "sum to 8.0" in problem


def test_every_wrapped_span_is_published():
    # load_weights runs only in set-up, and a count-only wrapper makes no span.
    spans = [Span("pipeline.process_recording", 0.0, 100.0, None, "r")]
    layers = workloads.LAYERS + [(None, None, workloads.EMBED_SPAN, {})]
    for n, (_, _, name, opts) in enumerate(layers):
        if name not in ("pipeline.process_recording", "weights.load_weights") and not opts.get(
            "count_only"
        ):
            spans.append(Span(name, n, n + 0.5, 0, "r"))
    assert run.unpublished_time(spans) == []


def test_nesting_problems_flags_overlap_and_overhang():
    overlapping = _tree()
    overlapping[5] = Span("leaf", 5.5, 9.0, 3, "r")  # overlaps its sibling
    assert any("negative self time" in p for p in nesting_problems(overlapping))
    overhanging = _tree()
    overhanging[2] = Span("leaf", 2.0, 4.5, 1, "r")  # ends after its parent
    assert any("outside its parent" in p for p in nesting_problems(overhanging))


def _originals():
    found = []
    for target, attr, _, _ in workloads.LAYERS:
        module, _, cls = target.partition(":")
        owner = sys.modules.get(module) or __import__(module, fromlist=["_"])
        if cls:
            owner = getattr(owner, cls)
        found.append((owner, attr, vars(owner)[attr]))
    return found


def test_traced_pass_records_spans_and_removes_wrappers(tmp_path):
    rng = np.random.default_rng(0)
    turns = inputs._turns(rng, 2, 20.0, (1.5, 3.0), (0.1, 0.3), 0.3)
    item = inputs._recording(tmp_path, "rec", rng, turns, 20.0, inputs.CTS_NOISE)
    manifest = {"workload": "net-random", "recordings": [dict(item, mode="task2")]}
    out = tmp_path / "out"
    out.mkdir()
    wl = workloads.DiarizationWorkload(manifest, tmp_path, out)
    state = wl.setup()
    (op,) = wl.ops()
    components = wl.components(state)[0]
    embedder = components.embedder
    before = _originals()
    tracer = Tracer()

    plain = wl.run(state, op)
    plain_rttm = (out / "rec.rttm").read_bytes()
    tracer.install(workloads.LAYERS)
    tracer.wrap(components, "embedder", workloads.EMBED_SPAN)
    tracer.rec = op.id
    try:
        traced = wl.run(state, op)
    finally:
        tracer.restore()

    assert plain[0].status == traced[0].status == "ok"
    assert (out / "rec.rttm").read_bytes() == plain_rttm
    spans, counts = tracer.take()
    names = {s.name for s in spans}
    assert {"pipeline.process_recording", "clustering.ahc", "embed", "tsvad.run_rounds"} <= names
    assert counts[("rec", "clustering.cosine_similarity")] > 0
    assert nesting_problems(spans) == []
    assert run.unpublished_time(spans) == []
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"
    assert components.embedder is embedder

