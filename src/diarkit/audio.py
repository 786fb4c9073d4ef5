"""Audio ingestion, resampling, STFT, and log-Mel feature extraction.

Conventions fixed here and relied on everywhere else:
  - 25 ms frames, 10 ms hop, Hann window, nfft=512
  - STFT magnitudes are normalized by the window coefficient sum, so a
    full-scale bin-centered sine peaks near 0.5 and DC at 1.0
  - Mel filters use the 2595*log10(1 + f/700) scale over 0..Nyquist
  - log-Mel uses natural log with a 1e-10 power floor
  - whole-recording passes over frames work in blocks of BLOCK_FRAMES
    frames, so their temporaries do not grow with the recording; resampling
    computes only the samples it keeps, straight into its output, and
    reading makes no float64 temporary beside the result
"""

from __future__ import annotations

import os
import wave
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    FormatError,
    ParameterError,
    UnsupportedFormatError,
)

FRAME_LEN_S = 0.025
FRAME_SHIFT_S = 0.010
NFFT = 512
LOG_FLOOR = 1e-10
# Frames per block of transient work: about 20 s of audio, under 16 MB of
# windowed frames and spectra at a time.
BLOCK_FRAMES = 2048

# Anti-alias filter for 16k -> 8k decimation: windowed sinc, 3.8 kHz cutoff.
# The 101-tap Hamming window gives ~53 dB stopband attenuation.
DECIMATION_CUTOFF_HZ = 3800.0
DECIMATION_TAPS = 101

SUPPORTED_RATES = (8000, 16000)


@dataclass
class AudioBuffer:
    """Mono audio samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ParameterError("AudioBuffer requires a 1-D sample array")
        if self.sample_rate <= 0:
            raise ParameterError(f"invalid sample rate {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ParameterError("samples must be finite")

    def sample_span(self, start_s: float, end_s: float) -> tuple[int, int]:
        """The sample indices `[lo, hi)` that `slice_seconds` cuts, clamped to
        the buffer; `hi <= lo` when the span holds no sample."""
        lo = max(0, int(round(start_s * self.sample_rate)))
        hi = min(self.samples.size, int(round(end_s * self.sample_rate)))
        return lo, hi

    def slice_seconds(self, start_s: float, end_s: float) -> "AudioBuffer":
        lo, hi = self.sample_span(start_s, end_s)
        return AudioBuffer(self.samples[lo:hi].copy(), self.sample_rate)


@dataclass
class FeatureMatrix:
    """Log-Mel energies, frames x bins, on the 25 ms / 10 ms grid."""

    data: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def bins(self) -> int:
        return self.data.shape[1]


def read_wav(path, max_s: float | None = None) -> AudioBuffer:
    """Read a RIFF/WAVE PCM-16 mono file at 8 or 16 kHz.

    With `max_s`, only the first round(max_s * rate) samples are read; the
    file is checked as a whole read checks it, so a data chunk that ends
    mid-sample past them still raises FormatError.
    """
    try:
        with open(path, "rb") as f, wave.open(f, "rb") as wf:
            channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            rate = wf.getframerate()
            comptype = wf.getcomptype()
            n = wf.getnframes()
            # wave.open leaves the file at the first byte of the samples.
            stored = min(n * sampwidth * channels, os.fstat(f.fileno()).st_size - f.tell())
            if max_s is not None:
                n = min(n, max(0, int(round(max_s * rate))))
            raw = wf.readframes(n)
    except wave.Error as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise FormatError(f"{path}: truncated file") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    if comptype != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed WAV ({comptype}) not supported")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: {channels} channels, expected mono")
    if sampwidth != 2:
        raise UnsupportedFormatError(f"{path}: {8 * sampwidth}-bit PCM, expected 16-bit")
    if rate not in SUPPORTED_RATES:
        raise UnsupportedFormatError(f"{path}: sample rate {rate}, expected 8000 or 16000")
    if stored % 2:
        raise FormatError(f"{path}: truncated file: data ends mid-sample")
    # 2**-15 is exactly 1/32768: one pass, no float64 temporary beside the result.
    return AudioBuffer(np.multiply(np.frombuffer(raw, "<i2"), 2.0**-15, dtype=np.float64), rate)


def write_wav(path, buf: AudioBuffer) -> None:
    """Write an AudioBuffer as PCM-16 mono."""
    scaled = buf.samples * 32768.0  # the one full-length float temporary
    np.round(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    pcm = scaled.astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buf.sample_rate)
        wf.writeframes(pcm.tobytes())


def resample_to_8k(buf: AudioBuffer) -> AudioBuffer:
    """Decimate 16 kHz audio by 2 after an anti-alias low-pass, computing
    only the samples it keeps; 8 kHz audio is returned as it is.

    Output sample k is sample 2k + delay of the full convolution with the
    filter: the dot product of the filter, reversed, with the input span
    that ends at sample 2k + delay. Where that span holds every tap, a
    1 x TAPS by TAPS x 1 `np.matmul` gives the same BLAS dot product that
    `np.convolve` takes for that output, so the bytes are those of one
    whole-recording `np.convolve`. The few outputs at each end come from
    `np.convolve` itself, over a span of at least DECIMATION_TAPS samples
    when the recording has that many: a shorter one would swap its
    arguments and sum in another order."""
    if buf.sample_rate == 8000:
        return buf
    if buf.sample_rate != 16000:
        raise ParameterError(f"expected 8 or 16 kHz input, got {buf.sample_rate}")
    x = buf.samples
    n = np.arange(DECIMATION_TAPS) - (DECIMATION_TAPS - 1) / 2
    fc = DECIMATION_CUTOFF_HZ / 16000.0
    h = 2 * fc * np.sinc(2 * fc * n) * np.hamming(DECIMATION_TAPS)
    h = h / h.sum()
    delay = (DECIMATION_TAPS - 1) // 2
    out = np.empty((x.size + 1) // 2)
    # Outputs k0..k1-1 have all their taps inside the recording.
    k0 = min(out.size, (DECIMATION_TAPS - delay) // 2)
    k1 = max(k0, (x.size - 1 - delay) // 2 + 1)
    if k1 > k0:
        windows = np.lib.stride_tricks.sliding_window_view(x, DECIMATION_TAPS)
        first = 2 * k0 + delay - (DECIMATION_TAPS - 1)
        rows = windows[first : first + 2 * (k1 - k0) : 2]
        # Contiguous, as `np.convolve` makes it: with a negative stride numpy
        # skips BLAS and sums in another order.
        taps = np.ascontiguousarray(h[::-1])
        np.matmul(rows[:, None, :], taps[:, None], out=out[k0:k1, None, None])
    for lo_k, hi_k in ((0, k0), (k1, out.size)):
        if hi_k > lo_k:
            out[lo_k:hi_k] = _convolved(x, h, delay + 2 * lo_k, delay + 2 * (hi_k - 1))
    return AudioBuffer(out, 8000)


def _convolved(x: np.ndarray, h: np.ndarray, first: int, last: int) -> np.ndarray:
    """Every second sample, `first` to `last`, of the full convolution of
    `x` with `h`, from `np.convolve` over the input span those samples reach,
    widened to `h`'s length where `x` has it."""
    lo = max(0, min(first - (h.size - 1), x.size - h.size))
    hi = min(x.size, max(last + 1, lo + h.size))
    return np.convolve(x[lo:hi], h)[first - lo : last - lo + 1 : 2]


def frame_geometry(sample_rate: int) -> tuple[int, int]:
    """Frame length and hop, in samples."""
    return int(round(FRAME_LEN_S * sample_rate)), int(round(FRAME_SHIFT_S * sample_rate))


def frame_signal(buf: AudioBuffer) -> np.ndarray:
    """The buffer's 25 ms frames every 10 ms, as a read-only [frames, samples]
    view; a trailing part shorter than a frame is dropped."""
    frame_len, hop = frame_geometry(buf.sample_rate)
    if buf.samples.size < frame_len:
        raise EmptyInputError(
            f"buffer of {buf.samples.size} samples shorter than one frame ({frame_len})"
        )
    return np.lib.stride_tricks.sliding_window_view(buf.samples, frame_len)[::hop]


def frame_blocks(buf: AudioBuffer) -> Iterator[AudioBuffer]:
    """The buffer as views of at most BLOCK_FRAMES frames each; their frames,
    in order, are exactly the buffer's frames."""
    n = frame_signal(buf).shape[0]
    frame_len, hop = frame_geometry(buf.sample_rate)
    for first in range(0, n, BLOCK_FRAMES):
        count = min(BLOCK_FRAMES, n - first)
        lo = first * hop
        yield AudioBuffer(buf.samples[lo : lo + (count - 1) * hop + frame_len], buf.sample_rate)


def stft_magnitude(buf: AudioBuffer) -> np.ndarray:
    """Hann-windowed magnitude STFT normalized by the window sum, as
    `[frames, nfft/2 + 1]`, taken one block of frames at a time."""
    frames = frame_signal(buf)
    if frames.shape[1] > NFFT:
        raise ParameterError(f"frame length {frames.shape[1]} exceeds nfft {NFFT}")
    window = np.hanning(frames.shape[1])
    scale = window.sum()
    mags = np.empty((frames.shape[0], NFFT // 2 + 1))
    for lo in range(0, frames.shape[0], BLOCK_FRAMES):
        out = mags[lo : lo + BLOCK_FRAMES]
        np.abs(np.fft.rfft(frames[lo : lo + BLOCK_FRAMES] * window, n=NFFT, axis=1), out=out)
        out /= scale
    return mags


def mel_filterbank(n_mels: int, nfft: int, sample_rate: int) -> np.ndarray:
    """Triangular Mel filters (2595*log10(1+f/700) scale) spanning 0..Nyquist."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(nfft // 2 + 1) * sample_rate / nfft
    fb = np.zeros((n_mels, nfft // 2 + 1))
    for i in range(n_mels):
        lo, mid, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def log_mel(buf: AudioBuffer, n_mels: int) -> FeatureMatrix:
    """Log-Mel filterbank energies with 25 ms frames and 10 ms hop."""
    if n_mels < 1 or n_mels > NFFT // 2:
        raise ParameterError(f"n_mels {n_mels} outside 1..{NFFT // 2}")
    power = stft_magnitude(buf) ** 2
    fb = mel_filterbank(n_mels, NFFT, buf.sample_rate)
    energies = power @ fb.T
    return FeatureMatrix(np.log(np.maximum(energies, LOG_FLOOR)))


def mean_normalize(f: FeatureMatrix) -> FeatureMatrix:
    """Subtract the per-bin mean over frames."""
    if f.n_frames < 1:
        raise EmptyInputError("feature matrix has no frames")
    return FeatureMatrix(f.data - f.data.mean(axis=0))
