"""Bandwidth classification: narrowband tones vs broadband noise."""

import numpy as np
import pytest

from diarkit.audio import AudioBuffer, stft_magnitude
from diarkit.errors import ParameterError
from diarkit.partition import classify_bandwidth


def direct_peak_above_4k(buf, horizon_s=100.0):
    """Independent computation of the decision statistic."""
    n = min(buf.samples.size, int(horizon_s * buf.sample_rate))
    mags = stft_magnitude(AudioBuffer(buf.samples[:n], buf.sample_rate))
    freqs = np.arange(mags.shape[1]) * buf.sample_rate / 512
    return float(mags[:, freqs > 4000.0].max())


def sine(freq, duration_s=10.0, amp=1.0):
    t = np.arange(int(duration_s * 16000)) / 16000
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), 16000)


class TestClassifyBandwidth:
    def test_low_tone_is_cts(self):
        cls = classify_bandwidth(sine(1000))
        assert cls.value == "CTS"
        assert cls.peak_above_4k < 0.01

    def test_broadband_noise_is_ncts(self):
        # Gaussian sigma 0.5 puts the >4 kHz peak decisively above 0.07
        # (around 0.11 under this normalization); weaker noise sits at the
        # threshold and is calibration-dependent.
        rng = np.random.default_rng(11)
        buf = AudioBuffer(np.clip(rng.normal(0, 0.5, 160000), -1, 1), 16000)
        cls = classify_bandwidth(buf)
        assert cls.value == "NCTS"
        assert cls.peak_above_4k == pytest.approx(direct_peak_above_4k(buf))
        assert cls.peak_above_4k > 0.07

    def test_default_threshold_is_007(self):
        import inspect

        sig = inspect.signature(classify_bandwidth)
        assert sig.parameters["threshold"].default == 0.07

    def test_decision_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            sigma = rng.uniform(0.02, 0.4)
            buf = AudioBuffer(np.clip(rng.normal(0, sigma, 64000), -1, 1), 16000)
            cls = classify_bandwidth(buf)
            peak = direct_peak_above_4k(buf)
            assert cls.peak_above_4k == pytest.approx(peak)
            assert cls.value == ("NCTS" if peak > 0.07 else "CTS")

    def test_8k_input_is_narrowband(self):
        cls = classify_bandwidth(AudioBuffer(np.random.default_rng(0).normal(size=8000), 8000))
        assert (cls.value, cls.peak_above_4k) == ("CTS", 0.0)

    def test_rejects_other_rates(self):
        with pytest.raises(ParameterError):
            classify_bandwidth(AudioBuffer(np.zeros(22050), 22050))

    def test_horizon_limits_analysis(self):
        # Noise burst after the horizon must not affect the class.
        t = np.arange(16000 * 3) / 16000
        clean = 0.5 * np.sin(2 * np.pi * 500 * t)
        noisy_tail = clean.copy()
        noisy_tail[32000:] += np.random.default_rng(1).normal(0, 0.5, 16000)
        buf = AudioBuffer(np.clip(noisy_tail, -1, 1), 16000)
        full = classify_bandwidth(buf)
        limited = classify_bandwidth(buf, horizon_s=2.0)
        assert full.value == "NCTS"
        assert limited.value == "CTS"

    def test_scaling_monotonicity(self):
        rng = np.random.default_rng(9)
        base = np.clip(rng.normal(0, 0.2, 64000), -0.4, 0.4)
        small = classify_bandwidth(AudioBuffer(base, 16000))
        big = classify_bandwidth(AudioBuffer(2 * base, 16000))
        assert big.peak_above_4k >= small.peak_above_4k
        if small.value == "NCTS":
            assert big.value == "NCTS"

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        buf = AudioBuffer(np.clip(rng.normal(0, 0.3, 48000), -1, 1), 16000)
        a = classify_bandwidth(buf)
        b = classify_bandwidth(buf)
        assert a.value == b.value
        assert a.peak_above_4k == b.peak_above_4k
