"""DSP front-end: WAV ingestion, resampling, STFT, and log-Mel features."""

import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.audio import (
    DECIMATION_TAPS,
    AudioBuffer,
    log_mel,
    mean_normalize,
    read_wav,
    resample_to_8k,
    stft_magnitude,
    write_wav,
)
from diarkit.errors import (
    DiarkitError,
    EmptyInputError,
    FormatError,
    ParameterError,
    UnsupportedFormatError,
)
from oracles import resample_to_8k_oracle


def tone(freq, duration_s=1.0, rate=16000, amp=1.0):
    t = np.arange(int(duration_s * rate)) / rate
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), rate)


class TestReadWav:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(path, AudioBuffer(np.zeros(16000), 16000))
        buf = read_wav(path)
        assert buf.sample_rate == 16000
        assert buf.samples.size == 16000
        assert np.all(buf.samples == 0.0)

    def test_pcm_scaling(self, tmp_path):
        path = tmp_path / "one.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.array([32767, -32768, 0], dtype="<i2").tobytes())
        buf = read_wav(path)
        assert buf.samples[0] == pytest.approx(32767 / 32768)
        assert buf.samples[1] == -1.0
        assert buf.samples[2] == 0.0

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.zeros(400, dtype="<i2").tobytes())
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_rejects_8bit(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(bytes(100))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not RIFF data at all.....")
        with pytest.raises(DiarkitError):
            read_wav(path)

    def test_data_ending_mid_sample(self, tmp_path):
        # The header still counts the cut sample, so the reader gets an odd
        # number of bytes.
        path = tmp_path / "cut.wav"
        write_wav(path, AudioBuffer(np.full(100, 0.25), 16000))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="cut.wav"):
            read_wav(path)

    def test_prefix_is_the_whole_read_cut_short(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "long.wav"
        write_wav(path, AudioBuffer(rng.uniform(-1, 1, 3000), 8000))
        whole = read_wav(path).samples
        for max_s, n in ((0.1, 800), (0.0, 0), (-1.0, 0), (0.375, 3000), (10.0, 3000)):
            prefix = read_wav(path, max_s)
            assert prefix.sample_rate == 8000
            assert prefix.samples.tobytes() == whole[:n].tobytes()

    def test_prefix_read_still_sees_data_ending_mid_sample(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, AudioBuffer(np.full(16000, 0.25), 16000))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="ends mid-sample"):
            read_wav(path, 0.5)

    def test_write_read_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = np.round(rng.uniform(-1, 1, 8000) * 32768) / 32768
        samples = np.clip(samples, -1.0, 32767 / 32768)
        path = tmp_path / "rt.wav"
        write_wav(path, AudioBuffer(samples, 8000))
        back = read_wav(path)
        assert back.sample_rate == 8000
        np.testing.assert_allclose(back.samples, samples, atol=1e-9)


# Input lengths at the edges of the decimation. Up to three filter lengths,
# the outputs at each end come from `np.convolve`, which swaps its arguments
# for a span shorter than the filter. About 131072 = 2 * 65536, where an
# earlier chunked form began its second chunk: 131069 and 131070 input samples
# give 65535 outputs, 131071 and 131072 give 65536, and 131073 and 131074
# give 65537.
EDGE_LENGTHS = list(range(1, 3 * DECIMATION_TAPS + 1)) + list(range(131069, 131075))


class TestResample:
    @given(
        n=st.one_of(
            st.integers(1, 3 * DECIMATION_TAPS),
            st.sampled_from(EDGE_LENGTHS),
            st.integers(131072 - 2 * DECIMATION_TAPS, 131072 + 2 * DECIMATION_TAPS),
            st.integers(1, 327680),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunks_match_one_convolution(self, n, seed):
        buf = AudioBuffer(np.random.default_rng(seed).normal(scale=0.3, size=n), 16000)
        out = resample_to_8k(buf)
        assert out.sample_rate == 8000
        assert out.samples.tobytes() == resample_to_8k_oracle(buf).tobytes()

    @pytest.mark.parametrize("n", EDGE_LENGTHS + [0, 262145])
    def test_chunk_edges_match_one_convolution(self, n):
        buf = AudioBuffer(np.random.default_rng(n).normal(scale=0.3, size=n), 16000)
        assert resample_to_8k(buf).samples.tobytes() == resample_to_8k_oracle(buf).tobytes()

    def test_tone_preserved(self):
        # DFT-peak oracle: 1 kHz remains dominant and near full amplitude.
        out = resample_to_8k(tone(1000))
        assert out.sample_rate == 8000
        assert out.samples.size == 8000
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_bin = int(np.argmax(spectrum))
        assert peak_bin == 1000  # 1 Hz resolution on a 1 s signal
        amplitude = 2 * spectrum[peak_bin] / out.samples.size
        assert abs(amplitude - 1.0) < 0.01

    def test_zero_input(self):
        out = resample_to_8k(AudioBuffer(np.zeros(16001), 16000))
        assert out.samples.size == 8001  # ceil(16001 / 2)
        assert np.all(out.samples == 0.0)

    def test_aliased_band_suppressed(self):
        # Energy-ratio oracle: a 7.5 kHz tone must vanish after decimation.
        buf = tone(7500)
        out = resample_to_8k(buf)
        e_in = np.sum(buf.samples**2)
        e_out = np.sum(out.samples**2)
        assert e_out < 0.01 * e_in

    def test_8k_input_passes_through(self):
        buf = AudioBuffer(np.random.default_rng(0).normal(size=8000), 8000)
        assert resample_to_8k(buf) is buf

    def test_rejects_wrong_rate(self):
        with pytest.raises(ParameterError):
            resample_to_8k(AudioBuffer(np.zeros(22050), 22050))

    @pytest.mark.parametrize("freq", [500, 1234, 2500, 3400])
    def test_sub_nyquist_frequency_within_one_bin(self, freq):
        out = resample_to_8k(tone(freq, duration_s=2.0))
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) / 2.0  # 0.5 Hz resolution over 2 s
        bin_hz = 8000 / 512
        assert abs(peak_hz - freq) <= bin_hz


class TestStft:
    def test_dc_case(self):
        # Window-sum normalization pins the DC bin at exactly 1.0. A Hann
        # window necessarily spreads DC into its mainlobe and first
        # sidelobes, so "everything else is tiny" holds past bin 8.
        mags = stft_magnitude(AudioBuffer(np.ones(16000), 16000))
        assert np.all(np.abs(mags[:, 0] - 1.0) < 1e-6)
        assert np.all(mags[:, 8:] < 1e-3)
        assert np.all(mags[:, 1:] < mags[:, :1])

    def test_bin_centered_sine_peak(self):
        # Closed-form oracle: window-sum normalization puts a full-scale
        # bin-centered sine at magnitude 1/2.
        bin_hz = 16000 / 512
        freq = 32 * bin_hz  # exactly bin 32
        mags = stft_magnitude(tone(freq))
        assert mags.shape[1] == 257  # nfft / 2 + 1 bins, bin 32 at 1 kHz
        assert np.all(np.abs(mags[:, 32] - 0.5) < 0.01)

    def test_zero_input(self):
        assert np.all(stft_magnitude(AudioBuffer(np.zeros(1000), 16000)) == 0.0)

    def test_too_short(self):
        with pytest.raises(EmptyInputError):
            stft_magnitude(AudioBuffer(np.zeros(399), 16000))

    def test_energy_monotone_in_amplitude(self):
        rng = np.random.default_rng(3)
        base = rng.normal(0, 0.1, 8000)
        energies = [
            np.sum(stft_magnitude(AudioBuffer(np.clip(a * base, -1, 1), 16000)) ** 2)
            for a in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(e1 < e2 for e1, e2 in zip(energies, energies[1:]))


class TestLogMel:
    def test_silence_floor(self):
        feats = log_mel(AudioBuffer(np.zeros(16000), 16000), 32)
        assert np.allclose(feats.data, np.log(1e-10))

    def test_shape_one_second_80(self):
        feats = log_mel(tone(440), 80)
        assert feats.data.shape == (98, 80)  # floor((16000-400)/160)+1

    def test_log_power_scaling_law(self):
        rng = np.random.default_rng(1)
        x = np.clip(rng.normal(0, 0.2, 16000), -0.5, 0.5)
        f1 = log_mel(AudioBuffer(x, 16000), 32)
        f2 = log_mel(AudioBuffer(2 * x, 16000), 32)
        np.testing.assert_allclose(f2.data - f1.data, np.log(4.0), atol=1e-6)

    def test_bad_n_mels(self):
        buf = tone(440)
        with pytest.raises(ParameterError):
            log_mel(buf, 0)
        with pytest.raises(ParameterError):
            log_mel(buf, 257)

    def test_shift_by_one_hop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 0.2, 8000)
        delayed = np.concatenate([np.zeros(160), x])
        a = log_mel(AudioBuffer(x, 16000), 32).data
        b = log_mel(AudioBuffer(delayed, 16000), 32).data
        np.testing.assert_allclose(b[1 : 1 + a.shape[0]], a, atol=1e-5)

    @given(n=st.integers(min_value=400, max_value=50000))
    @settings(max_examples=60, deadline=None)
    def test_frame_count_formula(self, n):
        buf = AudioBuffer(np.zeros(n), 16000)
        feats = log_mel(buf, 32)
        assert feats.data.shape[0] == (n - 400) // 160 + 1


class TestMeanNormalize:
    def test_constant_matrix(self):
        from diarkit.audio import FeatureMatrix

        f = FeatureMatrix(np.full((5, 3), 7.0))
        assert np.all(mean_normalize(f).data == 0.0)

    def test_two_rows(self):
        from diarkit.audio import FeatureMatrix

        f = FeatureMatrix(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(mean_normalize(f).data, [[-1.0], [1.0]])

    def test_idempotent(self):
        from diarkit.audio import FeatureMatrix

        rng = np.random.default_rng(4)
        f = FeatureMatrix(rng.normal(size=(20, 8)))
        once = mean_normalize(f)
        twice = mean_normalize(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-6)
        assert np.all(np.abs(once.data.mean(axis=0)) < 1e-6)
