"""Narrowband/wideband recording classification from high-frequency energy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import NFFT, AudioBuffer, frame_blocks, stft_magnitude
from .config import PipelineConfig
from .errors import ParameterError

CTS = "CTS"
NCTS = "NCTS"

SPLIT_HZ = 4000.0


@dataclass(frozen=True)
class BandwidthClass:
    value: str
    peak_above_4k: float


def classify_bandwidth(
    buf: AudioBuffer,
    threshold: float = PipelineConfig.bandwidth_threshold,
    horizon_s: float = PipelineConfig.bandwidth_horizon_s,
) -> BandwidthClass:
    """Classify an 8 or 16 kHz recording as CTS (telephone) or NCTS.

    8 kHz input is already narrowband: CTS, with no energy above 4 kHz.
    For 16 kHz input, looks at the first `horizon_s` seconds and takes the
    maximum STFT magnitude over bins whose center frequency is strictly
    above 4 kHz, one block of frames at a time.
    The recording is NCTS iff that peak exceeds `threshold`.
    """
    if buf.sample_rate == 8000:
        return BandwidthClass(CTS, 0.0)
    if buf.sample_rate != 16000:
        raise ParameterError(
            f"bandwidth classification needs 8 or 16 kHz input, got {buf.sample_rate}"
        )
    n = min(buf.samples.size, int(round(horizon_s * buf.sample_rate)))
    above = np.arange(NFFT // 2 + 1) * (buf.sample_rate / NFFT) > SPLIT_HZ
    peak = 0.0
    for block in frame_blocks(AudioBuffer(buf.samples[:n], buf.sample_rate)):
        peak = max(peak, float(stft_magnitude(block)[:, above].max()))
    return BandwidthClass(NCTS if peak > threshold else CTS, peak)
