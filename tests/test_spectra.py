"""Spectra in bounded frame blocks, one STFT per run of segments, and the
narrowband path in bounded memory.

`stft_magnitude`, `SpectralTsvad.bind`, `EnergyVad` and
`classify_bandwidth` work one block of `BLOCK_FRAMES` frames at a time, and
`SpectralEmbedder` reads each segment's frames out of one STFT per run of
overlapping segments. All of it is exact: each is checked bytewise against
the whole-buffer and per-segment forms kept in `tests/oracles.py`, and the
band profile, whose median comes from a sort, against its `np.median` form
on drawn magnitudes with ties, constant rows and zeros. Reading
and resampling make no whole-length temporary, `process_recording`
holds one copy of a narrowband call, and `diarkit partition` reads only the
horizon it classifies.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit import pipeline, stubs
from diarkit.audio import (
    BLOCK_FRAMES,
    NFFT,
    AudioBuffer,
    frame_geometry,
    frame_signal,
    read_wav,
    resample_to_8k,
    stft_magnitude,
    write_wav,
)
from diarkit.cli import main
from diarkit.config import PipelineConfig
from diarkit.models import EMBED_DIM
from diarkit.partition import SPLIT_HZ, classify_bandwidth
from diarkit.pipeline import TASK2, build_stub_components, process_recording
from diarkit.segmenter import uniform_segments
from diarkit.segments import Segment
from diarkit.stubs import EnergyVad, SpectralEmbedder, SpectralTsvad
from diarkit.synth import SynthSpec, gen_audio_conversation
from oracles import (
    band_profile_oracle,
    per_segment,
    spectral_embed_oracle,
    spectral_tracks_oracle,
    stft_magnitude_oracle,
)

BLOCK_SIZES = [BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1]


def noise_with_silence(n_frames, rate, seed=0):
    """Noise of `n_frames` frames plus a trailing part shorter than a hop,
    with a silent stretch in the middle."""
    frame_len, hop = frame_geometry(rate)
    n = (n_frames - 1) * hop + frame_len + hop // 2
    samples = np.random.default_rng(seed).normal(scale=0.3, size=n)
    samples[n // 3 : n // 2] = 0.0
    return AudioBuffer(samples, rate)


@pytest.mark.parametrize("rate", [8000, 16000])
@pytest.mark.parametrize("n_frames", BLOCK_SIZES)
class TestBlocksMatchTheWholeBuffer:
    def test_stft_magnitude(self, rate, n_frames):
        buf = noise_with_silence(n_frames, rate)
        mags = stft_magnitude(buf)
        assert mags.shape[0] == n_frames
        assert mags.tobytes() == stft_magnitude_oracle(buf).tobytes()

    def test_bind(self, rate, n_frames):
        buf = noise_with_silence(n_frames, rate)
        # Unit targets read each frame's unit profile back exactly.
        targets = list(np.eye(EMBED_DIM)) + [np.random.default_rng(1).normal(size=EMBED_DIM)]
        tracks = SpectralTsvad().bind(buf)(targets)
        assert tracks.tobytes() == spectral_tracks_oracle(buf, targets).tobytes()

    def test_energy_vad(self, rate, n_frames):
        buf = noise_with_silence(n_frames, rate)
        rms = np.sqrt(np.mean(frame_signal(buf) ** 2, axis=1))
        expected = (rms >= stubs.ENERGY_REL_THRESHOLD * rms.max()) & (rms.max() > 0)
        assert EnergyVad()(buf).probs.tobytes() == expected.astype(np.float64).tobytes()


@pytest.mark.parametrize("n_frames", BLOCK_SIZES)
def test_classify_bandwidth_matches_the_whole_buffer(n_frames):
    buf = noise_with_silence(n_frames, 16000)
    mags = stft_magnitude_oracle(buf)
    freqs = np.arange(mags.shape[1]) * 16000 / 512
    assert classify_bandwidth(buf).peak_above_4k == mags[:, freqs > SPLIT_HZ].max()


BIN_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1e3))


@st.composite
def magnitude_rows(draw):
    """One row of nfft/2+1 non-negative bins from a few drawn values and a
    seed: one value throughout, or each bin one of the values, zero, or a
    fresh uniform draw, so that ties and zeros are common. A failing row
    then shrinks through these few draws, not bin by bin."""
    values = draw(st.lists(BIN_VALUES, min_size=1, max_size=4))
    if draw(st.booleans()):
        return np.full(NFFT // 2 + 1, values[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = rng.choice(values + [0.0], NFFT // 2 + 1)
    fresh = rng.random(row.size) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    row[fresh] = rng.uniform(0.0, 1e3, fresh.sum())
    return row


class TestBandProfile:
    @given(magnitude_rows())
    @settings(max_examples=200, deadline=None)
    def test_one_row_matches_the_median_oracle(self, row):
        assert stubs._band_profile(row).tobytes() == band_profile_oracle(row).tobytes()

    @given(st.lists(magnitude_rows(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_median_oracle(self, rows):
        mags = np.stack(rows)
        assert stubs._band_profile(mags).tobytes() == band_profile_oracle(mags).tobytes()


@st.composite
def segments_on_a_buffer(draw):
    """A noise buffer with a silent span, and segments of every kind the
    pipeline gives: on one frame grid, off it, in whole milliseconds, shorter
    than a frame, longer than a block, and running past the buffer's end."""
    rate = draw(st.sampled_from([8000, 16000]))
    frame_len, hop = frame_geometry(rate)
    n = draw(st.integers(frame_len, 26 * rate))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.normal(scale=draw(st.sampled_from([0.01, 0.5])), size=n)
    lo = draw(st.integers(0, n))
    samples[lo : draw(st.integers(lo, n))] = 0.0
    base = draw(st.integers(0, hop - 1))
    length = st.one_of(
        st.integers(1, frame_len + hop),
        st.integers(frame_len, 2 * rate),
        st.integers(20 * rate, 24 * rate),
    )
    start = st.one_of(
        st.integers(0, n // hop).map(lambda k: base + k * hop),
        st.integers(0, n + hop),
    )
    segs = []
    for first, size in draw(st.lists(st.tuples(start, length), max_size=12)):
        if draw(st.booleans()):
            segs.append(Segment(first / rate, (first + size) / rate))
        else:  # whole milliseconds, as in a .vad file
            ms = round(first * 1000 / rate)
            segs.append(Segment(ms / 1000, (ms + max(1, round(size * 1000 / rate))) / 1000))
    return AudioBuffer(samples, rate), segs


def assert_same_vectors(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.tobytes() == w.tobytes()


class TestSpectralEmbedder:
    @given(segments_on_a_buffer())
    @settings(max_examples=60, deadline=None)
    def test_matches_one_stft_per_segment(self, inputs):
        buf, segs = inputs
        want = per_segment(spectral_embed_oracle)(buf, segs)
        assert_same_vectors(SpectralEmbedder()(buf, segs), want)

    def test_one_stft_per_run(self, monkeypatch):
        # 50 s of uniform 0.5 s windows every 0.25 s: 199 segments, in runs of
        # at most one block of frames.
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.normal(scale=0.3, size=50 * 8000), 8000)
        segs = uniform_segments([Segment(0.0, 50.0)], 0.5, 0.25)
        calls = []
        stft = stubs.stft_magnitude
        monkeypatch.setattr(stubs, "stft_magnitude", lambda b: calls.append(b) or stft(b))
        got = SpectralEmbedder()(buf, segs)
        assert len(segs) == 199
        assert len(calls) == 3
        assert all(frame_signal(b).shape[0] <= BLOCK_FRAMES for b in calls)
        assert_same_vectors(got, per_segment(spectral_embed_oracle)(buf, segs))

    def test_no_segments(self):
        assert SpectralEmbedder()(AudioBuffer(np.zeros(10), 8000), []) == []


def _peak(fn, *args):
    """What `fn(*args)` returns, and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def ten_minute_call():
    """A generated 10-min two-speaker call at 16 kHz: a 20 s synthetic
    conversation repeated 30 times."""
    buf, _ = gen_audio_conversation(SynthSpec(duration_s=20.0, overlap_fraction=0.3, seed=3))
    return AudioBuffer(np.tile(buf.samples, 30), 16000)


@pytest.fixture(scope="module")
def ten_minute_wav(ten_minute_call, tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "call.wav"
    write_wav(path, ten_minute_call)
    return path


MB = 2**20


class TestMemoryOnTenMinutes:
    """Peaks above each call's output do not grow with the recording.

    Before the work was cut into frame blocks, the traced peaks on this call
    were 353 MB in `SpectralTsvad.bind` at 8 kHz (its output is 59 MB),
    184 MB in `EnergyVad`, 70 MB in `classify_bandwidth` over its 100 s
    horizon, and 418 MB in `stft_magnitude` (118 MB of output). Blocked,
    they are 77, 6.8, 18 and 132 MB; on half the call, 47, 6.5, 18 and
    73 MB. `read_wav` peaked at 101 MB for its 73 MB of
    output, and `resample_to_8k` at 114 MB for 37 MB, while they made
    whole-length float64 temporaries; now they peak at 92 and 41 MB, and
    at 46 and 21 MB on half the call. `diarkit partition` peaked at 92 MB
    while it read the whole call; reading its 100 s horizon, it peaks at
    31 MB.
    """

    def test_bind(self, ten_minute_call):
        buf = resample_to_8k(ten_minute_call)
        tracks, peak = _peak(SpectralTsvad().bind, buf)
        output = frame_signal(buf).shape[0] * EMBED_DIM * 8
        assert tracks([np.ones(EMBED_DIM)]).shape == (1, 59998)
        assert peak < output + 32 * MB

    def test_energy_vad(self, ten_minute_call):
        mask, peak = _peak(EnergyVad(), ten_minute_call)
        # The output, and the frame RMS of the same size that it thresholds.
        assert peak < 2 * mask.probs.nbytes + 32 * MB

    def test_classify_bandwidth(self, ten_minute_call):
        result, peak = _peak(classify_bandwidth, ten_minute_call)
        assert result.value == "CTS"
        assert peak < 32 * MB

    def test_stft_magnitude(self, ten_minute_call):
        mags, peak = _peak(stft_magnitude, ten_minute_call)
        assert peak < mags.nbytes + 32 * MB

    def test_read_wav(self, ten_minute_wav):
        buf, peak = _peak(read_wav, ten_minute_wav)
        assert buf.samples.size == 600 * 16000
        assert peak < buf.samples.nbytes + 32 * MB

    def test_resample_to_8k(self, ten_minute_call):
        out, peak = _peak(resample_to_8k, ten_minute_call)
        assert out.samples.size == 600 * 8000
        assert peak < out.samples.nbytes + 32 * MB

    def test_partition_reads_only_its_horizon(self, ten_minute_wav, capsys):
        """`diarkit partition` reads the 100 s it classifies, and prints the
        line that classifying a whole read gives."""
        code, peak = _peak(main, ["partition", str(ten_minute_wav)])
        assert code == 0
        cfg = PipelineConfig()
        buf = read_wav(ten_minute_wav)
        cls = classify_bandwidth(buf, cfg.bandwidth_threshold, cfg.bandwidth_horizon_s)
        assert capsys.readouterr().out == f"call\t{cls.value}\t{cls.peak_above_4k:.6f}\n"
        horizon = int(PipelineConfig.bandwidth_horizon_s * 16000) * 8
        assert peak < horizon + 32 * MB


def test_16k_call_is_released_before_the_detector_binds(tmp_path, monkeypatch):
    """A 16 kHz CTS call is downsampled right after VAD; by the detector's
    bind, its 16 kHz buffer and samples are gone."""
    spec = SynthSpec(n_speakers=2, duration_s=30.0, overlap_fraction=0.3, seed=21)
    write_wav(tmp_path / "call.wav", gen_audio_conversation(spec, recording_id="call")[0])
    refs = []

    def read_and_watch(path):
        buf = read_wav(path)
        refs.extend([weakref.ref(buf), weakref.ref(buf.samples)])
        return buf

    bound = []

    class WatchedDetector(SpectralTsvad):
        def bind(self, buf):
            bound.append((buf.sample_rate, [ref() is None for ref in refs]))
            return super().bind(buf)

    monkeypatch.setattr(pipeline, "read_wav", read_and_watch)
    components = build_stub_components()
    components.tsvad_net = WatchedDetector()
    result = process_recording(tmp_path / "call.wav", tmp_path, TASK2, components, PipelineConfig())
    assert (result.status, result.bandwidth) == ("ok", "CTS"), result.error
    assert bound == [(8000, [True, True])]


@pytest.mark.parametrize(
    "spec, bandwidth",
    [
        (SynthSpec(n_speakers=2, duration_s=30.0, overlap_fraction=0.3, seed=21), "CTS"),
        (SynthSpec(n_speakers=3, duration_s=20.0, noise_sigma=0.4, seed=22), "NCTS"),
    ],
    ids=["cts", "ncts"],
)
def test_wrapped_embedder_writes_the_same_rttm(tmp_path, spec, bandwidth):
    """The benchmark's tracer replaces `Components.embedder` with a plain
    function of `*args`; the pipeline must call it as nothing but that."""
    buf, _ = gen_audio_conversation(spec, recording_id="call")
    write_wav(tmp_path / "call.wav", buf)
    components = build_stub_components()
    results = []
    for out in ("plain", "wrapped"):
        (tmp_path / out).mkdir()
        results.append(
            process_recording(tmp_path / "call.wav", tmp_path / out, TASK2, components, PipelineConfig())
        )
        emb = components.embedder
        components.embedder = lambda *a: emb(*a)
    assert [r.status for r in results] == ["ok", "ok"], [r.error for r in results]
    assert results[0].bandwidth == bandwidth
    assert (tmp_path / "plain" / "call.rttm").read_bytes() == (
        tmp_path / "wrapped" / "call.rttm"
    ).read_bytes()
