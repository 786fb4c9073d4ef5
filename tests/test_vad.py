"""Windowed VAD inference, overlap averaging, and binarization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.audio import AudioBuffer
from diarkit.segments import Segment
from diarkit.vad import (
    SpeechMask,
    binarize,
    predict_speech,
    read_vad_file,
    window_starts,
    write_vad_file,
)


class ConstantNet:
    def __init__(self, p):
        self.p = p

    def forward(self, features):
        return np.full(features.n_frames, self.p)


class WindowCountingNet:
    """Returns a distinct constant per call, so averaged frames reveal
    exactly which windows covered them."""

    def __init__(self):
        self.calls = 0

    def forward(self, features):
        self.calls += 1
        return np.full(features.n_frames, 1.0 / self.calls)


def silence(duration_s, rate=16000):
    return AudioBuffer(np.zeros(int(duration_s * rate)), rate)


class TestWindowing:
    def test_ten_second_audio_has_four_windows(self):
        # 998 frames: starts 0, 200, 400, then the tail anchored at 598.
        assert window_starts(998, 400, 200) == [0, 200, 400, 598]

    def test_short_audio_single_window(self):
        assert window_starts(300, 400, 200) == [0]

    def test_exact_multiple_no_tail(self):
        assert window_starts(800, 400, 200) == [0, 200, 400]

    def test_overlap_averaging_exact(self):
        net = WindowCountingNet()
        mask = predict_speech(net, silence(10.0))
        assert net.calls == 4
        # Frame 500 (t = 5 s) is covered by windows 2 and 3 only.
        np.testing.assert_allclose(mask.probs[500], (1 / 2 + 1 / 3) / 2)
        # Frame 100 is covered only by window 1.
        np.testing.assert_allclose(mask.probs[100], 1.0)
        # Frame 450 is covered by windows 2 (200..599) and 3 (400..799).
        np.testing.assert_allclose(mask.probs[450], (1 / 2 + 1 / 3) / 2)

    def test_constant_net_constant_mask(self):
        mask = predict_speech(ConstantNet(0.7), silence(9.5))
        np.testing.assert_allclose(mask.probs, 0.7)

    def test_three_second_audio_one_window(self):
        net = WindowCountingNet()
        mask = predict_speech(net, silence(3.0))
        assert net.calls == 1
        np.testing.assert_allclose(mask.probs, 1.0)


class TestBinarize:
    def test_all_high(self):
        segs = binarize(SpeechMask(np.full(200, 0.9)))
        assert segs == [Segment(0.0, 2.0)]

    def test_all_low(self):
        assert binarize(SpeechMask(np.full(200, 0.1))) == []

    def test_gap_of_exactly_min_gap_not_merged(self):
        probs = np.zeros(110)
        probs[0:50] = 0.9
        probs[60:110] = 0.9
        segs = binarize(SpeechMask(probs))
        assert len(segs) == 2
        assert segs[0] == Segment(0.0, 0.5)
        assert segs[1] == Segment(0.6, 1.1)

    def test_small_gap_merged(self):
        probs = np.zeros(105)
        probs[0:50] = 0.9
        probs[55:105] = 0.9  # 50 ms gap < 100 ms
        segs = binarize(SpeechMask(probs))
        assert segs == [Segment(0.0, 1.05)]

    def test_short_run_dropped(self):
        probs = np.zeros(100)
        probs[40:45] = 0.9  # 50 ms run < 100 ms
        assert binarize(SpeechMask(probs)) == []

    def test_threshold_inclusive(self):
        probs = np.full(20, 0.5)
        assert binarize(SpeechMask(probs)) == [Segment(0.0, 0.2)]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_segments_sorted_disjoint_within_range(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0, 1, size=rng.integers(1, 400))
        segs = binarize(SpeechMask(probs))
        duration = probs.size * 0.010
        for a, b in zip(segs, segs[1:]):
            assert a.end_s < b.start_s + 1e-12
        for seg in segs:
            assert 0.0 <= seg.start_s < seg.end_s <= duration + 1e-9

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_raising_threshold_never_adds_speech(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0, 1, size=200)
        total = [
            sum(s.duration for s in binarize(SpeechMask(probs), threshold=t))
            for t in (0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(total, total[1:]))


class TestVadFiles:
    def test_roundtrip(self, tmp_path):
        segs = [Segment(0.5, 2.25), Segment(3.0, 4.125)]
        path = tmp_path / "r.vad"
        write_vad_file(path, segs)
        back = read_vad_file(path)
        assert len(back) == 2
        assert back[0].start_s == pytest.approx(0.5)
        assert back[1].end_s == pytest.approx(4.125)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.vad"
        path.write_text("0.0 1.0 2.0\n")
        from diarkit.errors import FormatError

        with pytest.raises(FormatError, match="bad.vad:1: "):
            read_vad_file(path)

    def test_not_utf8(self, tmp_path):
        from diarkit.errors import FormatError

        path = tmp_path / "bad.vad"
        path.write_bytes(b"0.5 2.25\n# \xff\n")
        with pytest.raises(FormatError, match="bad.vad"):
            read_vad_file(path)

    @pytest.mark.parametrize("text", ["0.5 2.25\n3.0 4.125\n", "0.5 2.25\n0.0 1.0 2.0\n"])
    def test_closes_the_file(self, tmp_path, text):
        import gc
        import warnings

        from diarkit.errors import FormatError

        path = tmp_path / "r.vad"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                read_vad_file(path)
            except FormatError:
                pass
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestNetVadThroughPipeline:
    """The benchmark traces the net VAD by wrapping the name
    `diarkit.pipeline.predict_speech`, so the task-2 path must call it there."""

    def test_calls_predict_speech_through_pipeline(self, tmp_path, monkeypatch):
        from diarkit import pipeline
        from diarkit.config import PipelineConfig
        from diarkit.models import VadNet, init_vad_weights
        from diarkit.synth import SynthSpec, gen_audio_conversation
        from diarkit.weights import load_weights, save_weights

        save_weights(init_vad_weights(0), tmp_path / "vad.bin")
        # Seed-0 random weights score frames between 0.34 and 0.51.
        cfg = PipelineConfig(
            vad_weights=str(tmp_path / "vad.bin"),
            vad_window_s=2.0,
            vad_shift_s=1.0,
            vad_threshold=0.41,
        )
        components = pipeline.Components(None, None, pipeline.build_net_vad(cfg))
        buf, _ = gen_audio_conversation(SynthSpec(n_speakers=2, duration_s=6.0, seed=3))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2:])
            return predict_speech(*args, **kwargs)

        monkeypatch.setattr(pipeline, "predict_speech", counting)
        regions = pipeline.speech_regions_for(buf, pipeline.TASK2, None, components, cfg)
        assert calls == [(cfg.vad_window_s, cfg.vad_shift_s)]
        mask = predict_speech(
            VadNet(load_weights(tmp_path / "vad.bin")), buf, cfg.vad_window_s, cfg.vad_shift_s
        )
        assert 1 < len(regions)
        assert regions == binarize(
            mask, cfg.vad_threshold, cfg.vad_min_dur_s, cfg.vad_min_gap_s
        )
