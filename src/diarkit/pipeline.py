"""Full-pipeline orchestration: bandwidth partition, then the narrowband
(AHC + overlap + TSVAD rounds) or wideband (spectral clustering) path, with
per-recording isolation and a JSON-lines run report.

The narrowband path runs at 8 kHz and holds one copy of the recording:
`classify_bandwidth` reads 8 kHz input as CTS and `resample_to_8k` passes it
through, while a 16 kHz call is downsampled right after VAD and its 16 kHz
buffer is released before clustering and detection. `_timed` stores each
stage's wall time in the report's `timing`."""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import weights
from .audio import AudioBuffer, read_wav, resample_to_8k
from .clustering import (
    ahc,
    assign_with_overlap,
    cosine_similarity_matrix,
    select_two_speakers,
    spectral_cluster,
    v2s_similarity_matrix,
)
from .config import PipelineConfig
from .errors import ConfigError, DiarkitError
from .metrics import check_rttm_field, emit_rttm
from .models import EmbedNet, TsvadNet, V2sScorer, VadNet
from .partition import CTS, classify_bandwidth
from .segmenter import EmbeddedSegment, recursive_merge, uniform_segments
from .segments import Diarization, Segment
from .stubs import EnergyVad, SpectralEmbedder, SpectralTsvad
from .tsvad import RoundResult, run_rounds
from .vad import binarize, predict_speech, read_vad_file

TASK1 = "task1"  # external speech regions supplied
TASK2 = "task2"  # internal VAD


@dataclass
class Components:
    """Resolved model set, each kind called on an `AudioBuffer`.

    `embedder(buf, segments)` gives one vector per segment of `buf`, or None
    for a segment it cannot embed (silent, or too few frames); the pipeline
    makes one call for a recording's segments, and each detection round one
    call per speaker, on that speaker's target speech alone. It is a plain
    callable, so a wrapper such as `lambda *a: embedder(*a)` stands in for
    it. `vad(buf)` gives a `SpeechMask`, and `tsvad_net.bind(buf)` a
    `tracks(targets)` callable that gives one track per target. `scorer`
    rates pairs for `similarity=v2s`."""

    embedder: object
    tsvad_net: object
    vad: object | None = None
    scorer: object | None = None


@dataclass
class FileResult:
    file_id: str
    status: str
    bandwidth: str = ""
    peak_above_4k: float = 0.0
    n_segments: int = 0
    n_speakers: int = 0
    rounds: int = 0
    warning: str = ""
    error: str = ""
    timing: dict[str, float] = field(default_factory=dict)
    rttm_path: str = ""

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def build_stub_components(cfg: PipelineConfig | None = None) -> Components:
    """Weight-free spectral stand-ins for every component but the scorer,
    which comes from `cfg.v2s_weights` when `cfg` names one."""
    scorer = _load_scorer(cfg) if cfg else None
    return Components(SpectralEmbedder(), SpectralTsvad(), EnergyVad(), scorer)


def _load_scorer(cfg: PipelineConfig):
    """The pair scorer from `cfg.v2s_weights`, or None when it names none."""
    return V2sScorer.from_store(weights.load_weights(cfg.v2s_weights)) if cfg.v2s_weights else None


def build_net_vad(cfg: PipelineConfig):
    """The VAD network from `cfg.vad_weights`, as a `vad(buf) -> SpeechMask`
    callable that averages it over `cfg`'s sliding windows."""
    net = VadNet(weights.load_weights(cfg.vad_weights))

    def vad(buf: AudioBuffer):
        # Read from this module's globals at each call, so it can be wrapped by name.
        return predict_speech(net, buf, cfg.vad_window_s, cfg.vad_shift_s)

    return vad


def build_net_components(cfg: PipelineConfig) -> Components:
    if not cfg.embed_weights or not cfg.tsvad_weights:
        raise ConfigError(
            "embed_weights and tsvad_weights are required without --stub-embeddings"
        )
    embedder = EmbedNet(weights.load_weights(cfg.embed_weights))
    tsvad_net = TsvadNet(weights.load_weights(cfg.tsvad_weights))
    vad = build_net_vad(cfg) if cfg.vad_weights else None
    return Components(embedder, tsvad_net, vad, _load_scorer(cfg))


def speech_regions_for(
    buf: AudioBuffer, mode: str, vad_path, components: Components, cfg: PipelineConfig
) -> list[Segment]:
    if mode == TASK1:
        if vad_path is None:
            raise ConfigError("task1 needs an external VAD file per recording")
        return read_vad_file(vad_path)
    if components.vad is None:
        raise ConfigError("task2 needs vad_weights (or stub components)")
    return binarize(
        components.vad(buf), cfg.vad_threshold, cfg.vad_min_dur_s, cfg.vad_min_gap_s
    )


def _embed_segments(
    buf: AudioBuffer, segs: list[Segment], embedder, min_segment_s: float
) -> list[EmbeddedSegment]:
    """Embed each segment of at least `min_segment_s` in one embedder call; a
    segment the embedder cannot embed (silent, or too few frames) is skipped."""
    kept = [seg for seg in segs if seg.duration >= min_segment_s - 1e-9]
    return [
        EmbeddedSegment(seg, embedding)
        for seg, embedding in zip(kept, embedder(buf, kept))
        if embedding is not None
    ]


def cluster_two_speakers(
    buf: AudioBuffer, speech: list[Segment], components: Components, cfg: PipelineConfig
) -> dict[str, list[Segment]] | None:
    """Merge-driven segmentation plus two-anchor clustering with overlap
    assignment; returns per-speaker regions, possibly overlapping (target
    extraction unions them), or None when the audio does not split into two
    clusters.

    The two clusters with the most speech are `spk0` and `spk1`, each with
    its merged segments in time order. Each segment of another cluster then
    goes to one or both of them by `assign_with_overlap` against the two
    cluster centres."""
    segs = uniform_segments(speech, cfg.cts_win_s, cfg.cts_shift_s)
    embedded = _embed_segments(buf, segs, components.embedder, cfg.min_segment_s)
    if not embedded:
        return None
    merged = recursive_merge(embedded, cfg.merge_threshold)
    clustering = ahc(merged, cfg.ahc_stop_threshold)
    labels = clustering.labels
    pick = select_two_speakers(labels, np.array([e.segment.duration for e in merged]))
    if pick is None:
        return None
    a, b = pick
    regions = {
        "spk0": [e.segment for e, label in zip(merged, labels) if label == a],
        "spk1": [e.segment for e, label in zip(merged, labels) if label == b],
    }
    rest = [e for e, label in zip(merged, labels) if label not in pick]
    center_a, center_b = clustering.centers[[a, b]]
    extra_a, extra_b = assign_with_overlap(rest, center_a, center_b, cfg.overlap_threshold)
    regions["spk0"] += [e.segment for e in extra_a]
    regions["spk1"] += [e.segment for e in extra_b]
    return regions


def diarize_cts(
    buf: AudioBuffer,
    speech: list[Segment],
    components: Components,
    cfg: PipelineConfig,
    recording_id: str,
) -> RoundResult:
    """Narrowband path on 8 kHz `buf`: cluster into two speakers, then
    iterate target-speaker detection rounds."""
    regions = cluster_two_speakers(buf, speech, components, cfg)
    if regions is None:
        single = Diarization.from_regions(recording_id, {"spk0": speech})
        return RoundResult(single, 0, False, "single cluster")
    return run_rounds(
        buf, regions, components.tsvad_net, components.embedder, speech, cfg, recording_id
    )


def diarize_ncts(
    buf: AudioBuffer,
    speech: list[Segment],
    components: Components,
    cfg: PipelineConfig,
    recording_id: str,
) -> Diarization:
    """Wideband path: uniform segmentation, pair similarity, spectral
    clustering with eigengap speaker-count selection."""
    if cfg.similarity == "v2s" and components.scorer is None:
        raise ConfigError("similarity=v2s needs v2s_weights")
    segs = uniform_segments(speech, cfg.ncts_win_s, cfg.ncts_shift_s)
    embedded = _embed_segments(buf, segs, components.embedder, cfg.min_segment_s)
    if len(embedded) < 2:  # nothing to cluster: one speaker
        regions = {"spk0": [e.segment for e in embedded] or speech}
        return Diarization.from_regions(recording_id, regions)
    xs = np.stack([e.embedding for e in embedded])
    if cfg.similarity == "v2s":
        sim = v2s_similarity_matrix(xs, components.scorer)
    else:
        sim = np.clip(cosine_similarity_matrix(xs), 0.0, None)
    clustering = spectral_cluster(sim, cfg.max_speakers, seed=cfg.seed)
    per_speaker: dict[str, list[Segment]] = {}
    for e, label in zip(embedded, clustering.labels):
        per_speaker.setdefault(f"spk{label}", []).append(e.segment)
    return Diarization.from_regions(recording_id, per_speaker)


def _timed(result: FileResult, stage: str, fn, *args):
    """`fn(*args)`, with its wall time in seconds stored as
    `result.timing[stage]`; a call that raises stores nothing."""
    t0 = time.perf_counter()
    out = fn(*args)
    result.timing[stage] = round(time.perf_counter() - t0, 4)
    return out


def process_recording(
    wav_path,
    out_dir,
    mode: str,
    components: Components,
    cfg: PipelineConfig,
    vad_path=None,
) -> FileResult:
    """Diarize one recording and write `<file-id>.rttm` atomically."""
    file_id = Path(wav_path).stem
    result = FileResult(file_id=file_id, status="ok")
    try:
        check_rttm_field(file_id)  # before any work: the id names the RTTM's lines
        buf = _timed(result, "read", read_wav, wav_path)
        bandwidth = _timed(
            result, "partition", classify_bandwidth,
            buf, cfg.bandwidth_threshold, cfg.bandwidth_horizon_s,
        )
        result.bandwidth = bandwidth.value
        result.peak_above_4k = round(bandwidth.peak_above_4k, 6)
        speech = _timed(result, "vad", speech_regions_for, buf, mode, vad_path, components, cfg)
        if not speech:
            raise DiarkitError("no speech detected")

        if result.bandwidth == CTS:
            buf = _timed(result, "resample", resample_to_8k, buf)  # rebound: frees the 16 kHz buffer
            outcome = _timed(result, "diarize", diarize_cts, buf, speech, components, cfg, file_id)
            diar, result.rounds = outcome.diarization, outcome.rounds
            result.warning = outcome.warning or ""
        else:
            diar = _timed(result, "diarize", diarize_ncts, buf, speech, components, cfg, file_id)

        result.n_segments = len(diar.turns)
        result.n_speakers = len(diar.speakers())
        out_path = Path(out_dir) / f"{file_id}.rttm"
        atomic_write(out_path, emit_rttm(diar))
        result.rttm_path = str(out_path)
    except Exception as exc:  # per-recording isolation: record, keep going
        result.status = "error"
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def atomic_write(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it into
    place, so a run that stops mid-write leaves no partial `path`."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run_pipeline(
    inputs: list,
    out_dir,
    mode: str,
    components: Components,
    cfg: PipelineConfig,
    vad_paths: dict[str, object] | None = None,
    report_path=None,
) -> list[FileResult]:
    """Process a batch of recordings; failures are recorded, not fatal.

    `vad_paths` maps file ids to external speech-region files (task-1 mode).
    The file id is the input's stem, and it names the output RTTM, so only
    the first input of each file id is processed: a later one gets an error
    entry and writes nothing.
    Returns per-file results in input order; the JSON-lines report mirrors it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
    vad_paths = vad_paths or {}
    first: dict[str, int] = {}
    for i, wav_path in enumerate(inputs):
        first.setdefault(Path(wav_path).stem, i)

    def work(i):
        wav_path, file_id = inputs[i], Path(inputs[i]).stem
        if first[file_id] != i:
            error = f"InputError: {wav_path} has the file id of {inputs[first[file_id]]}"
            return FileResult(file_id, "error", error=error)
        return process_recording(wav_path, out, mode, components, cfg, vad_paths.get(file_id))

    if cfg.workers > 1 and len(inputs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(work, range(len(inputs))))
    else:
        results = [work(i) for i in range(len(inputs))]

    if report_path is not None:
        atomic_write(Path(report_path), "".join(r.to_json() + "\n" for r in results))
    return results
