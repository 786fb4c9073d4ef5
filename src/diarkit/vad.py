"""Windowed VAD inference with overlap averaging, and mask binarization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import FRAME_SHIFT_S, AudioBuffer, FeatureMatrix, log_mel
from .config import PipelineConfig, read_text, records
from .errors import LineError, ParameterError
from .models import VAD_BINS
from .segments import Segment, mask_to_segments


@dataclass
class SpeechMask:
    """Per-frame speech probability on the 10 ms grid."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.size and (self.probs.min() < 0.0 or self.probs.max() > 1.0):
            raise ParameterError("speech probabilities must lie in [0, 1]")


def window_starts(n_frames: int, win_frames: int, shift_frames: int) -> list[int]:
    """Start frames of the sliding windows; the last window is anchored to
    the end of the recording so every frame is covered."""
    if n_frames <= win_frames:
        return [0]
    starts = list(range(0, n_frames - win_frames + 1, shift_frames))
    tail = n_frames - win_frames
    if starts[-1] != tail:
        starts.append(tail)
    return starts


def predict_speech(
    net,
    buf: AudioBuffer,
    window_s: float = PipelineConfig.vad_window_s,
    shift_s: float = PipelineConfig.vad_shift_s,
) -> SpeechMask:
    """Average the model's frame predictions over 4 s windows shifted by 2 s."""
    features = log_mel(buf, VAD_BINS)
    n = features.n_frames
    win = int(round(window_s / FRAME_SHIFT_S))
    shift = int(round(shift_s / FRAME_SHIFT_S))
    acc = np.zeros(n)
    count = np.zeros(n)
    for start in window_starts(n, win, shift):
        stop = min(start + win, n)
        probs = net.forward(FeatureMatrix(features.data[start:stop]))
        acc[start:stop] += probs
        count[start:stop] += 1.0
    return SpeechMask(acc / count)


def binarize(
    mask: SpeechMask,
    threshold: float = PipelineConfig.vad_threshold,
    min_dur_s: float = PipelineConfig.vad_min_dur_s,
    min_gap_s: float = PipelineConfig.vad_min_gap_s,
) -> list[Segment]:
    """Threshold the mask, close short gaps, then drop short runs."""
    segs = mask_to_segments(mask.probs >= threshold)
    merged: list[Segment] = []
    for seg in segs:
        if merged and seg.start_s - merged[-1].end_s < min_gap_s - 1e-9:
            merged[-1] = Segment(merged[-1].start_s, seg.end_s)
        else:
            merged.append(seg)
    return [s for s in merged if s.duration >= min_dur_s - 1e-9]


def read_vad_file(path) -> list[Segment]:
    """Parse `<start> <end>` lines (seconds) into sorted segments."""
    segs = []
    for lineno, line in records(read_text(path), "#"):
        parts = line.split()
        if len(parts) != 2:
            raise LineError(lineno, f"expected '<start> <end>', got {line!r}", path)
        try:
            segs.append(Segment(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise LineError(lineno, "non-numeric time", path) from exc
        except ParameterError as exc:
            raise LineError(lineno, str(exc), path) from exc
    return sorted(segs, key=lambda s: s.start_s)


def write_vad_file(path, segs: list[Segment]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seg in segs:
            fh.write(f"{seg.start_s:.3f} {seg.end_s:.3f}\n")
