"""The workloads: set-up, the timed operation, and the output checks.

A workload is a list of operations. A diarization recording is one
operation (`process_recording`, read to RTTM write); in net mode the
operation also runs the task-2 VAD path on the recording. A scoring pair
gives one operation per scoring condition, a `compute_der` call.
`net-random` is diarization alone; `stub-score` runs stub diarization and
scoring as one `CombinedWorkload`. Checks and scoring run outside the timed
region.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
from pathlib import Path

from diarkit import metrics, pipeline
from diarkit.config import PipelineConfig
from diarkit.segments import Diarization, Segment
from diarkit.stubs import SpectralEmbedder

ORACLE_PREFIX_S = 30.0
ORACLE_TOL = 1e-9

# (owner, attribute, span name, wrapper options). Owners are the modules or
# classes whose attribute the pipeline looks up at call time, so a function
# imported by name into `diarkit.pipeline` is wrapped there.
LAYERS = [
    ("diarkit.pipeline", "process_recording", "pipeline.process_recording", {}),
    ("diarkit.pipeline", "read_wav", "audio.read_wav", {}),
    ("diarkit.pipeline", "resample_to_8k", "audio.resample_to_8k", {}),
    ("diarkit.audio", "stft_magnitude", "audio.stft_magnitude", {}),
    ("diarkit.stubs", "stft_magnitude", "audio.stft_magnitude", {}),
    ("diarkit.partition", "stft_magnitude", "audio.stft_magnitude", {}),
    ("diarkit.audio", "log_mel", "audio.log_mel", {}),
    ("diarkit.vad", "log_mel", "audio.log_mel", {}),
    ("diarkit.pipeline", "classify_bandwidth", "partition.classify_bandwidth", {}),
    ("diarkit.pipeline", "speech_regions_for", "vad.speech_regions", {}),
    ("diarkit.pipeline", "predict_speech", "vad.predict_speech", {}),
    ("diarkit.models:VadNet", "forward", "models.VadNet.forward", {}),
    ("diarkit.pipeline", "uniform_segments", "segmenter.uniform_segments",
     {"counters": lambda a, k, r: {"out": len(r)}}),
    ("diarkit.pipeline", "recursive_merge", "segmenter.recursive_merge",
     {"counters": lambda a, k, r: {"in": len(a[0]), "out": len(r)}}),
    ("diarkit.models:EmbedNet", "forward", "models.EmbedNet.forward", {}),
    ("diarkit.pipeline", "ahc", "clustering.ahc",
     {"counters": lambda a, k, r: {"in": len(a[0]), "clusters": r.n_clusters}}),
    ("diarkit.clustering", "cosine_similarity", "clustering.cosine_similarity", {"count_only": True}),
    ("diarkit.pipeline", "assign_with_overlap", "clustering.assign_with_overlap", {}),
    ("diarkit.pipeline", "cosine_similarity_matrix", "clustering.similarity_matrix", {}),
    ("diarkit.pipeline", "v2s_similarity_matrix", "clustering.similarity_matrix", {}),
    ("diarkit.pipeline", "spectral_cluster", "clustering.spectral_cluster", {}),
    ("diarkit.clustering", "kmeans", "clustering.kmeans", {}),
    ("diarkit.pipeline", "run_rounds", "tsvad.run_rounds",
     {"counters": lambda a, k, r: {"rounds": r.rounds}}),
    ("diarkit.tsvad", "extract_target_embeddings", "tsvad.extract_target_embeddings", {}),
    ("diarkit.tsvad", "run_tsvad", "tsvad.run_tsvad", {}),
    ("diarkit.tsvad", "postprocess", "tsvad.postprocess", {}),
    ("diarkit.models:TsvadNet", "identity_frames", "models.TsvadNet.identity_frames", {}),
    ("diarkit.models:TsvadNet", "detect", "models.TsvadNet.detect", {}),
    ("diarkit.models:V2sScorer", "forward", "models.V2sScorer.forward", {}),
    ("diarkit.models", "conv2d", "nn.conv2d",
     # Computed, not counted: 2 * kernel size * output positions.
     {"counters": lambda a, k, r: {"gflop": 2.0 * a[1].size * r.shape[1] * r.shape[2] / 1e9}}),
    ("diarkit.models", "batch_norm_infer", "nn.batch_norm_infer", {}),
    ("diarkit.models", "bilstm_forward", "nn.bilstm_forward", {}),
    ("diarkit.pipeline", "emit_rttm", "metrics.emit_rttm", {}),
    ("diarkit.metrics", "compute_der", "metrics.compute_der", {}),
    ("diarkit.weights", "load_weights", "weights.load_weights", {}),
]
EMBED_SPAN = "embed"  # the Components.embedder callable, wrapped per instance
# Peak allocation of each call, measured in a pass of its own.
ALLOC_LAYERS = [("diarkit.metrics", "compute_der", "metrics.compute_der", {"alloc": True})]


@dataclasses.dataclass
class Op:
    """One timed operation and what its check needs."""

    id: str
    audio_s: float
    item: dict


class CheckError(Exception):
    """An operation's output failed a check."""


def load_oracle(root: Path):
    """The repository's brute-force DER reference, `tests/der_oracle.py`."""
    path = root / "tests" / "der_oracle.py"
    spec = importlib.util.spec_from_file_location("der_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.der_oracle


def read_rttm(path: Path, file_id: str) -> Diarization:
    turns = metrics.parse_rttm(path.read_text(encoding="utf-8"))
    return metrics.turns_to_diarization(turns, file_id)


class DiarizationWorkload:
    """`process_recording` per recording, with stub components, or in net
    mode when the manifest names weight files."""

    alloc_pass = False  # the operation makes no `compute_der` call

    def __init__(self, manifest: dict, inputs: Path, out: Path):
        self.manifest = manifest
        self.inputs = inputs
        self.out = out
        self.net = "weights" in manifest
        self.first: dict[str, bytes] = {}
        self.scores: dict[str, tuple[float, float, int, int]] = {}

    def ops(self) -> list[Op]:
        return [Op(r["id"], r["audio_s"], r) for r in self.manifest["recordings"]]

    def setup(self):
        """Build the components from config, as `diarize` does."""
        if not self.net:
            cfg = PipelineConfig().override(workers=1)
            components = pipeline.build_stub_components()
            return {r["id"]: (components, cfg) for r in self.manifest["recordings"]}
        w = {k: str(self.inputs / v) for k, v in self.manifest["weights"].items()}
        cfg = PipelineConfig().override(
            workers=1,
            vad_weights=w["vad"],
            embed_weights=w["embed"],
            tsvad_weights=w["tsvad"],
            v2s_weights=w["v2s"],
        )
        components = pipeline.build_net_components(cfg)
        # Random EmbedNet embeddings put narrowband audio in one cluster, and
        # their scale saturates the random scorer; the spectral stub embedder
        # keeps clustering meaningful where the detector or scorer is timed.
        stub_embedder = dataclasses.replace(components, embedder=SpectralEmbedder())
        state = {}
        for r in self.manifest["recordings"]:
            comp = components if r["embedder"] == "net" else stub_embedder
            state[r["id"]] = (comp, cfg.override(similarity=r["similarity"]))
        return state

    def components(self, state):
        """Each distinct Components object, for wrapping its embedder."""
        return list({id(comp): comp for comp, _ in state.values()}.values())

    def run(self, state, op: Op):
        components, cfg = state[op.id]
        item = op.item
        wav = self.inputs / item["wav"]
        vad = None
        if self.net:
            buf = pipeline.read_wav(wav)
            vad = pipeline.speech_regions_for(buf, pipeline.TASK2, None, components, cfg)
        vad_path = self.inputs / item["vad"] if item["mode"] == pipeline.TASK1 else None
        result = pipeline.process_recording(wav, self.out, item["mode"], components, cfg, vad_path)
        return result, vad

    def check(self, op: Op, output) -> None:
        result, vad = output
        if result.status != "ok":
            raise CheckError(f"{op.id}: {result.error}")
        if vad is not None:
            ends = [(s.start_s, s.end_s) for s in vad]
            if ends != sorted(ends) or any(e > op.audio_s + 0.011 for _, e in ends):
                raise CheckError(f"{op.id}: VAD regions out of order or past the end")
        data = (self.out / f"{op.id}.rttm").read_bytes()
        if op.id in self.first:
            if data != self.first[op.id]:
                raise CheckError(f"{op.id}: RTTM differs from the first pass")
            return
        hyp = metrics.turns_to_diarization(metrics.parse_rttm(data.decode("utf-8")), op.id)
        if len(hyp.turns) != data.count(b"\n"):
            raise CheckError(f"{op.id}: RTTM names another file id")
        if any(seg.end_s > op.audio_s + 0.011 for seg, _ in hyp.turns):
            raise CheckError(f"{op.id}: RTTM turn past the end of the audio")
        ref = read_rttm(self.inputs / op.item["ref"], op.id)
        report = metrics.compute_der(ref, hyp)
        if not math.isfinite(report.der):
            raise CheckError(f"{op.id}: DER is not finite")
        self.first[op.id] = data
        self.scores[op.id] = (
            report.der * report.total_ref_s,
            report.total_ref_s,
            len(hyp.speakers()),
            len(ref.speakers()),
        )

    def final_checks(self, state) -> list[tuple[str, str]]:
        return []

    def quality(self) -> dict:
        """DER over all recordings and the mean speaker-count error."""
        errors = sum(s[0] for s in self.scores.values())
        total = sum(s[1] for s in self.scores.values())
        count_err = [abs(s[2] - s[3]) for s in self.scores.values()]
        return {
            "der": errors / total if total else float("nan"),
            "speaker_count_err": sum(count_err) / len(count_err) if count_err else float("nan"),
        }


def _clip(diar: Diarization, end_s: float) -> Diarization:
    turns = [
        (Segment(seg.start_s, min(seg.end_s, end_s)), spk)
        for seg, spk in diar.turns
        if seg.start_s < end_s
    ]
    return Diarization(diar.recording_id, turns)


class ScoringWorkload:
    """`compute_der` on hour-long RTTM pairs, plain and with collar and UEM."""

    alloc_pass = True

    def __init__(self, manifest: dict, inputs: Path, root: Path):
        self.manifest = manifest
        self.inputs = inputs
        self.root = root
        self.first: dict[str, metrics.DerReport] = {}

    def ops(self) -> list[Op]:
        return [
            Op(f"{p['id']}/{cond}", p["audio_s"], dict(p, cond=cond))
            for p in self.manifest["pairs"]
            for cond in ("plain", "collar-uem")
        ]

    def setup(self):
        """Parse the reference, hypothesis and UEM files of every pair."""
        state = {}
        for p in self.manifest["pairs"]:
            uem = metrics.parse_uem((self.inputs / p["uem"]).read_text(encoding="utf-8"))
            state[p["id"]] = (
                read_rttm(self.inputs / p["ref"], p["id"]),
                read_rttm(self.inputs / p["hyp"], p["id"]),
                uem[p["id"]],
            )
        return state

    def components(self, state):
        return []

    def run(self, state, op: Op):
        ref, hyp, uem = state[op.item["id"]]
        if op.item["cond"] == "plain":
            return metrics.compute_der(ref, hyp)
        return metrics.compute_der(ref, hyp, collar_s=self.manifest["collar_s"], uem=uem)

    def check(self, op: Op, report) -> None:
        parts = (report.miss, report.false_alarm, report.confusion)
        if not all(math.isfinite(x) and x >= 0.0 for x in parts + (report.der,)):
            raise CheckError(f"{op.id}: negative or non-finite DER component")
        if abs(sum(parts) - report.der) > 1e-12:
            raise CheckError(f"{op.id}: DER is not miss + false alarm + confusion")
        if op.id in self.first:
            if report != self.first[op.id]:
                raise CheckError(f"{op.id}: report differs from the first pass")
            return
        self.first[op.id] = report

    def final_checks(self, state) -> list[tuple[str, str]]:
        """Relabelled references score 0; a short prefix agrees with the
        brute-force oracle in `tests/der_oracle.py`. Returns (pair id,
        problem) tuples."""
        problems = []
        try:
            oracle = load_oracle(self.root)
        except (OSError, ImportError) as exc:
            return [(pair_id, f"DER oracle unavailable: {exc}") for pair_id in state]
        for pair_id, (ref, hyp, _) in state.items():
            relabelled = Diarization(pair_id, [(seg, f"x-{spk}") for seg, spk in ref.turns])
            if metrics.compute_der(ref, relabelled).der != 0.0:
                problems.append((pair_id, "relabelled reference does not score 0"))
            pref, phyp = _clip(ref, ORACLE_PREFIX_S), _clip(hyp, ORACLE_PREFIX_S)
            got = metrics.compute_der(pref, phyp)
            want = oracle(
                [(s.start_s, s.end_s, k) for s, k in pref.turns],
                [(s.start_s, s.end_s, k) for s, k in phyp.turns],
            )
            have = (got.der, got.miss, got.false_alarm, got.confusion)
            if any(abs(a - b) > ORACLE_TOL for a, b in zip(have, want)):
                problems.append((pair_id, f"prefix DER {have} vs oracle {want}"))
        return problems


class CombinedWorkload:
    """Diarization and scoring run as one workload: a pass runs every
    part's operations, and each output is checked by the part it came
    from. The state is one set-up per part."""

    alloc_pass = True  # the scoring part calls `compute_der`

    def __init__(self, diarization: DiarizationWorkload, scoring: ScoringWorkload):
        self.parts = (diarization, scoring)
        self.part_of = {op.id: i for i, p in enumerate(self.parts) for op in p.ops()}

    def ops(self) -> list[Op]:
        return [op for p in self.parts for op in p.ops()]

    def setup(self):
        return tuple(p.setup() for p in self.parts)

    def components(self, state):
        return [c for p, s in zip(self.parts, state) for c in p.components(s)]

    def run(self, state, op: Op):
        i = self.part_of[op.id]
        return self.parts[i].run(state[i], op)

    def check(self, op: Op, output) -> None:
        self.parts[self.part_of[op.id]].check(op, output)

    def final_checks(self, state) -> list[tuple[str, str]]:
        return [x for p, s in zip(self.parts, state) for x in p.final_checks(s)]

    def quality(self) -> dict:
        """The diarization outputs' quality. The scoring pairs are inputs
        made by the benchmark, so their DER says nothing about the program."""
        return self.parts[0].quality()
