"""Target-speaker detection inference: target extraction, per-speaker frame
tracks, median-filter post-processing, and fixed-point round iteration.

A detector has one method, `bind(buf)`. It does the per-recording work that
does not depend on the targets (features, and for `TsvadNet` the ResNet
trunk) and returns a `tracks(targets)` callable, which gives one frame track
per target embedding on the 10 ms grid. `run_rounds` binds once per
recording and calls the result in every round."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer
from .config import PipelineConfig
from .errors import InsufficientSpeechError, ParameterError
from .segments import Diarization, Segment, mask_to_segments, merge_segments, segments_to_mask

MIN_TARGET_SPEECH_S = 0.25


@dataclass
class RoundResult:
    diarization: Diarization
    rounds: int
    converged: bool
    warning: str | None = None
    history: list[Diarization] = field(default_factory=list)


def extract_target_embeddings(
    buf: AudioBuffer,
    speaker_regions: dict[str, list[Segment]],
    embedder,
    max_s: float = PipelineConfig.target_max_s,
) -> dict[str, np.ndarray]:
    """Embed up to the first `max_s` seconds of each speaker's speech.

    Regions are unioned, concatenated in time order, and truncated at the
    budget; the result is deterministic for identical regions. Each
    speaker's samples go to the embedder as a buffer of their own, one
    segment long, in speaker order. The first speaker with too little
    speech, or with speech the embedder cannot embed, raises
    `InsufficientSpeechError`.
    """
    budget = int(round(max_s * buf.sample_rate))
    vectors: dict[str, np.ndarray] = {}
    for speaker, regions in speaker_regions.items():
        merged = merge_segments(regions)
        available = sum(seg.duration for seg in merged)
        if available < MIN_TARGET_SPEECH_S:
            raise InsufficientSpeechError(
                f"speaker {speaker}: {available:.3f}s of speech, "
                f"need >= {MIN_TARGET_SPEECH_S}s"
            )
        cut, taken = [], 0
        for seg in merged:
            if taken >= budget:
                break
            cut.append(buf.slice_seconds(seg.start_s, seg.end_s).samples)
            taken += cut[-1].size
        samples = np.concatenate(cut)[:budget]
        vector = None
        if samples.size:  # no samples: nothing to embed
            whole = Segment(0.0, samples.size / buf.sample_rate)
            vector = embedder(AudioBuffer(samples, buf.sample_rate), [whole])[0]
        if vector is None:
            raise InsufficientSpeechError(
                f"speaker {speaker}: speech cannot be embedded (silent, or too few frames)"
            )
        vectors[speaker] = vector
    return vectors


def run_tsvad(tracks, targets: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One detection track per target, in target order, over the recording
    that `tracks`, a detector's `bind(buf)`, was bound to."""
    if not targets:
        raise ParameterError("run_tsvad needs at least one target")
    rows = np.asarray(tracks(list(targets.values())), dtype=np.float64)
    return dict(zip(targets, rows))


def median_filter(track: np.ndarray, taps: int = PipelineConfig.median_taps) -> np.ndarray:
    """Sliding-window median with reflection padding at the edges.

    Each window's median is its middle value, picked by one `np.partition`:
    the same values as `np.median` for a finite track (a partition places
    NaN last, where `np.median` gives NaN)."""
    if taps % 2 == 0 or taps < 1:
        raise ParameterError(f"median taps must be odd and positive, got {taps}")
    n = track.size
    if n == 0:
        return track.copy()
    # Reflection padding needs pad <= n-1; clamp taps for very short tracks.
    eff = min(taps, 2 * n - 1)
    half = eff // 2
    padded = np.pad(track, half, mode="reflect") if half else track
    windows = np.lib.stride_tricks.sliding_window_view(padded, eff)
    return np.partition(windows, half, axis=1)[:, half]


def postprocess(
    tracks: dict[str, np.ndarray],
    speech: list[Segment],
    threshold: float = PipelineConfig.tsvad_threshold,
    median_taps: int = PipelineConfig.median_taps,
    recording_id: str = "rec",
) -> Diarization:
    """Median-filter each speaker's track, threshold inside speech regions,
    and fall back to the per-frame argmax speaker when no track reaches
    threshold. The tracks are all of one length, on the 10 ms grid.

    Frames outside the speech regions stay unassigned. Consecutive frames
    assigned to the same speaker merge into segments.
    """
    filtered = np.stack([median_filter(t, median_taps) for t in tracks.values()])
    speech_mask = segments_to_mask(speech, filtered.shape[1])
    assigned = filtered >= threshold
    none_hit = ~assigned.any(axis=0)
    argmax = filtered.argmax(axis=0)  # ties resolve to the lower speaker index
    assigned[argmax[none_hit], np.nonzero(none_hit)[0]] = True
    assigned &= speech_mask[None, :]
    regions = {spk: mask_to_segments(row) for spk, row in zip(tracks, assigned)}
    return Diarization.from_regions(recording_id, regions)


def run_rounds(
    buf: AudioBuffer,
    initial_regions: dict[str, list[Segment]],
    net,
    embedder,
    speech: list[Segment],
    cfg: PipelineConfig | None = None,
    recording_id: str = "rec",
) -> RoundResult:
    """Iterate target extraction and detection, at the operating points of
    `cfg` (`PipelineConfig()` when None), until the diarization stops
    changing, or the round budget runs out. For a fixed speaker order the
    turns are a one-to-one function of the frame assignment, so equal turns
    mean the frame-for-frame fixed point. `net.bind(buf)` runs once, after
    round 1's targets are extracted; every round scores through it.

    A round that leaves any speaker without speech falls back to the previous
    round's result, or round 1 to the initial regions, with a warning
    instead of failing.
    """
    cfg = cfg or PipelineConfig()
    if cfg.max_rounds < 1:
        raise ParameterError("max_rounds must be >= 1")
    speakers = list(initial_regions)
    regions = initial_regions
    history: list[Diarization] = []
    tracks_for = None
    for rounds in range(1, cfg.max_rounds + 1):
        try:
            targets = extract_target_embeddings(buf, regions, embedder, cfg.target_max_s)
        except InsufficientSpeechError as exc:
            if not history:
                raise
            return RoundResult(history[-1], rounds - 1, False, warning=str(exc), history=history)
        if tracks_for is None:
            tracks_for = net.bind(buf)
        tracks = run_tsvad(tracks_for, targets)
        diar = postprocess(tracks, speech, cfg.tsvad_threshold, cfg.median_taps, recording_id)
        history.append(diar)
        per = diar.per_speaker()
        empty = [s for s in speakers if not per.get(s)]
        if empty:
            if rounds > 1:
                kept, source = history[-2], f"round {rounds - 1}"
            else:
                kept = Diarization.from_regions(recording_id, initial_regions)
                source = "the initial regions"
            return RoundResult(
                kept, rounds - 1, False,
                warning=f"round {rounds} emptied speakers {empty}; kept {source}",
                history=history,
            )
        if rounds > 1 and diar.turns == history[-2].turns:
            return RoundResult(diar, rounds, True, history=history)
        regions = {s: per[s] for s in speakers}
    return RoundResult(history[-1], cfg.max_rounds, False, history=history)
