"""Weight-free stand-ins for the neural components, keyed to spectral shape.

These let the full pipeline run on tone-coded synthetic audio without any
trained checkpoint: the embedder maps a buffer to its 128-band magnitude
profile, the detector scores each frame's profile against a target profile,
and the VAD thresholds short-time energy.
"""

from __future__ import annotations

import numpy as np

from .audio import AudioBuffer, frame_signal, stft_magnitude
from .errors import EmptyInputError
from .models import EMBED_DIM
from .segments import Segment
from .vad import SpeechMask

ENERGY_REL_THRESHOLD = 0.1


def _band_profile(magnitudes: np.ndarray) -> np.ndarray:
    """Fold an nfft/2+1 magnitude row (or rows) into 128 bands, minus the
    per-profile median (a flat-noise-floor estimate: tone lines survive,
    broadband noise mostly cancels)."""
    bands = magnitudes[..., 1:257]
    shape = bands.shape[:-1] + (EMBED_DIM, 2)
    profile = bands.reshape(shape).mean(axis=-1)
    floor = np.median(profile, axis=-1, keepdims=True)
    return np.maximum(profile - floor, 0.0)


class SpectralEmbedder:
    """128-dim unit vector of average band magnitudes; a drop-in for the
    embedding network on tone-coded audio."""

    def __call__(self, buf: AudioBuffer) -> np.ndarray:
        spec = stft_magnitude(buf)
        profile = _band_profile(spec.magnitudes.mean(axis=0)[None, :])[0]
        norm = np.linalg.norm(profile)
        if norm == 0.0:
            raise EmptyInputError("silent segment has no spectral profile")
        return profile / norm


class SpectralTsvad:
    """Per-frame cosine between the frame's band profile and the target."""

    def bind(self, buf: AudioBuffer):
        """The recording's unit frame profiles, computed once; the returned
        `tracks(targets)` scores one track per target against them."""
        frames = _band_profile(stft_magnitude(buf).magnitudes)
        # Not the clustering cosine: silent frames have a zero profile and
        # must score 0, so the norm is clamped instead of raising.
        unit = frames / np.maximum(np.linalg.norm(frames, axis=1), 1e-12)[:, None]

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
        rms = np.sqrt(np.mean(frame_signal(buf) ** 2, axis=1))
        peak = rms.max()
        # Every frame of a silent buffer reaches 0.1 x 0, yet none is speech.
        return SpeechMask((rms >= ENERGY_REL_THRESHOLD * peak) & (peak > 0))


def reference_speech(turns: list[tuple[Segment, str]]) -> list[Segment]:
    """Union of reference turns: the oracle speech regions for task-1 runs."""
    from .segments import merge_segments

    return merge_segments([seg for seg, _ in turns])
