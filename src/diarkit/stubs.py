"""Weight-free stand-ins for the neural components, keyed to spectral shape.

These let the full pipeline run on tone-coded synthetic audio without any
trained checkpoint: the embedder maps each segment of a buffer to its
128-band magnitude profile, the detector scores each frame's profile
against a target profile, and the VAD thresholds short-time energy.
"""

from __future__ import annotations

import numpy as np

from .audio import (
    BLOCK_FRAMES,
    NFFT,
    AudioBuffer,
    frame_blocks,
    frame_geometry,
    frame_signal,
    stft_magnitude,
)
from .models import EMBED_DIM
from .segments import Segment, merge_segments
from .vad import SpeechMask

ENERGY_REL_THRESHOLD = 0.1


def _band_profile(magnitudes: np.ndarray) -> np.ndarray:
    """Fold an nfft/2+1 magnitude row (or rows) into 128 bands, minus the
    per-profile median (a flat-noise-floor estimate: tone lines survive,
    broadband noise mostly cancels).

    Each band is the mean of two bins. The median is the mean of the two
    middle values of each sorted profile, the same bytes as `np.median` for
    finite magnitudes; a sort places NaN last, where `np.median` gives NaN."""
    profile = (magnitudes[..., 1:257:2] + magnitudes[..., 2:257:2]) / 2.0
    middle = np.sort(profile, axis=-1)[..., EMBED_DIM // 2 - 1 : EMBED_DIM // 2 + 1]
    return np.maximum(profile - (middle[..., :1] + middle[..., 1:]) / 2.0, 0.0)


class SpectralEmbedder:
    """128-dim unit vector of average band magnitudes; a drop-in for the
    embedding network on tone-coded audio.

    Overlapping segments whose starts lie on one frame grid share one STFT:
    a segment's frames are rows of its run's spectrum, exactly as its own
    STFT would give them."""

    def __call__(self, buf: AudioBuffer, segments: list[Segment]) -> list[np.ndarray | None]:
        """One vector per segment, or None for a segment that is silent or
        shorter than a frame."""
        frame_len, hop = frame_geometry(buf.sample_rate)
        spans = [buf.sample_span(seg.start_s, seg.end_s) for seg in segments]
        means = np.zeros((len(segments), NFFT // 2 + 1))
        for run_lo, run_hi, members in _runs(spans, frame_len, hop):
            mags = stft_magnitude(AudioBuffer(buf.samples[run_lo:run_hi], buf.sample_rate))
            for i in members:
                lo, hi = spans[i]
                first = (lo - run_lo) // hop
                rows = mags[first : first + _n_frames(hi - lo, frame_len, hop)]
                means[i] = rows.sum(axis=0) / rows.shape[0]  # what `mean` computes
        profiles = _band_profile(means)
        # A segment without frames kept its zero row, so its profile is zero
        # too. One dot product per row, as the 1-D `np.linalg.norm` takes it:
        # `axis=1` would round differently.
        norms = np.sqrt(np.matmul(profiles[:, None, :], profiles[:, :, None])[:, 0, 0])
        return [profile / norm if norm else None for profile, norm in zip(profiles, norms)]


def _n_frames(n_samples: int, frame_len: int, hop: int) -> int:
    return 1 + (n_samples - frame_len) // hop


def _runs(spans: list[tuple[int, int]], frame_len: int, hop: int):
    """`(lo, hi, members)` per run of the sample spans of at least one frame.
    In start order, a span joins the current run when it overlaps it, starts
    on its frame grid and keeps it within one block of frames; otherwise it
    starts a run of its own."""
    runs: list[tuple[int, int, list[int]]] = []
    for i in sorted(range(len(spans)), key=lambda i: spans[i][0]):
        lo, hi = spans[i]
        if hi - lo < frame_len:
            continue
        if runs:
            run_lo, run_hi, members = runs[-1]
            top = max(run_hi, hi)
            if (
                lo < run_hi
                and (lo - run_lo) % hop == 0
                and _n_frames(top - run_lo, frame_len, hop) <= BLOCK_FRAMES
            ):
                members.append(i)
                runs[-1] = (run_lo, top, members)
                continue
        runs.append((lo, hi, [i]))
    return runs


class SpectralTsvad:
    """Per-frame cosine between the frame's band profile and the target."""

    def bind(self, buf: AudioBuffer):
        """The recording's unit frame profiles, computed once, one block of
        frames at a time; the returned `tracks(targets)` scores one track per
        target against them."""
        unit = np.empty((frame_signal(buf).shape[0], EMBED_DIM))
        lo = 0
        for block in frame_blocks(buf):
            frames = _band_profile(stft_magnitude(block))
            # Not the clustering cosine: silent frames have a zero profile and
            # must score 0, so the norm is clamped instead of raising.
            norms = np.maximum(np.linalg.norm(frames, axis=1), 1e-12)
            unit[lo : lo + frames.shape[0]] = frames / norms[:, None]
            lo += frames.shape[0]

        def tracks(targets: list[np.ndarray]) -> np.ndarray:
            out = np.empty((len(targets), unit.shape[0]))
            for row, target in enumerate(targets):
                t = np.asarray(target, dtype=np.float64)
                t = t / max(np.linalg.norm(t), 1e-12)
                out[row] = np.clip(unit @ t, 0.0, 1.0)
            return out

        return tracks


class EnergyVad:
    """Frame RMS threshold relative to the loudest frame."""

    def __call__(self, buf: AudioBuffer) -> SpeechMask:
        rms = np.concatenate(
            [np.sqrt(np.mean(frame_signal(block) ** 2, axis=1)) for block in frame_blocks(buf)]
        )
        peak = rms.max()
        # Every frame of a silent buffer reaches 0.1 x 0, yet none is speech.
        return SpeechMask((rms >= ENERGY_REL_THRESHOLD * peak) & (peak > 0))


def reference_speech(turns: list[tuple[Segment, str]]) -> list[Segment]:
    """Union of reference turns: the oracle speech regions for task-1 runs."""
    return merge_segments([seg for seg, _ in turns])
