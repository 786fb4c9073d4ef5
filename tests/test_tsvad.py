"""Target extraction, detection tracks, post-processing, and round iteration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diarkit import stubs
from diarkit.audio import AudioBuffer, frame_signal, read_wav, resample_to_8k, write_wav
from diarkit.config import PipelineConfig
from diarkit.errors import EmptyInputError, InsufficientSpeechError, ParameterError
from diarkit.models import TsvadNet, init_tsvad_weights
from diarkit.pipeline import TASK2, build_stub_components, cluster_two_speakers, speech_regions_for
from diarkit.segments import Diarization, Segment, merge_segments, segments_to_mask
from diarkit.stubs import SpectralEmbedder, SpectralTsvad, reference_speech
from diarkit.synth import SynthSpec, gen_audio_conversation
from diarkit.tsvad import (
    MIN_TARGET_SPEECH_S,
    extract_target_embeddings,
    median_filter,
    postprocess,
    run_rounds,
    run_tsvad,
)
from oracles import (
    assignment_matrix_oracle,
    median_filter_oracle,
    per_segment,
    spectral_tracks_oracle,
    target_samples_oracle,
    tsvad_net_tracks_oracle,
)


class PerSegment:
    """An `embedder(buf, segments)` that embeds each segment's samples with
    `embed`."""

    def __call__(self, buf, segments):
        return per_segment(self.embed)(buf, segments)


class FirstSampleEmbedder(PerSegment):
    """Embedding = [mean, length_s, 0, ...]; enough to observe what was fed."""

    def embed(self, buf):
        out = np.zeros(128)
        out[0] = buf.samples.mean()
        out[1] = buf.samples.size / buf.sample_rate
        return out


class MatrixStubNet:
    """Detection stub: sigmoid of (fixed identity frames) . target."""

    def __init__(self, identity):
        self.identity = identity

    def bind(self, buf):
        return lambda targets: np.stack(
            [1.0 / (1.0 + np.exp(-(self.identity @ t))) for t in targets]
        )


def ramp_buffer(duration_s=12.0, rate=8000):
    n = int(duration_s * rate)
    return AudioBuffer(np.linspace(0, 0.5, n), rate)


class TestExtractTargets:
    def test_ten_second_region_capped_at_eight(self):
        buf = ramp_buffer()
        embedder = FirstSampleEmbedder()
        targets = extract_target_embeddings(buf, {"a": [Segment(0.0, 10.0)]}, embedder)
        assert targets["a"][1] == pytest.approx(8.0)

    def test_two_regions_under_cap(self):
        buf = ramp_buffer()
        targets = extract_target_embeddings(
            buf, {"a": [Segment(0.0, 3.0), Segment(5.0, 8.0)]}, FirstSampleEmbedder()
        )
        assert targets["a"][1] == pytest.approx(6.0)

    def test_deterministic(self):
        buf = ramp_buffer()
        regions = {"a": [Segment(1.0, 4.0)]}
        t1 = extract_target_embeddings(buf, regions, FirstSampleEmbedder())
        t2 = extract_target_embeddings(buf, regions, FirstSampleEmbedder())
        np.testing.assert_array_equal(t1["a"], t2["a"])

    def test_insufficient_speech(self):
        buf = ramp_buffer()
        with pytest.raises(InsufficientSpeechError):
            extract_target_embeddings(buf, {"a": [Segment(0.0, 0.2)]}, FirstSampleEmbedder())

    def test_overlapping_regions_unioned(self):
        buf = ramp_buffer()
        targets = extract_target_embeddings(
            buf, {"a": [Segment(0.0, 2.0), Segment(1.0, 3.0)]}, FirstSampleEmbedder()
        )
        assert targets["a"][1] == pytest.approx(3.0)

    def test_unembeddable_speech_is_insufficient(self):
        silent = AudioBuffer(np.zeros(4 * 8000), 8000)
        with pytest.raises(InsufficientSpeechError, match="silent"):
            extract_target_embeddings(silent, {"a": [Segment(0.0, 2.0)]}, SpectralEmbedder())

    @staticmethod
    def _fed(buf, regions, max_s=8.0):
        """The samples the embedder is given for one speaker's `regions`. It
        is given none when they hold no sample of `buf`, and the speaker then
        has too little speech."""
        fed = []

        def embed(b):
            fed.append(b.samples)
            return b.samples[:1]

        try:
            extract_target_embeddings(buf, {"a": regions}, per_segment(embed), max_s)
        except InsufficientSpeechError:
            assert not fed
            return np.zeros(0)
        return fed[0]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_running_sum(self, data):
        # Region edges in whole milliseconds: no region rounds to zero samples.
        spans = data.draw(
            st.lists(st.tuples(st.integers(0, 13000), st.integers(1, 4000)), min_size=1, max_size=6)
        )
        regions = [Segment(lo / 1000, (lo + n) / 1000) for lo, n in spans]
        assume(sum(seg.duration for seg in merge_segments(regions)) >= MIN_TARGET_SPEECH_S)
        max_s = data.draw(st.sampled_from([0.5, 2.0, 8.0]))
        buf = AudioBuffer(np.random.default_rng(0).uniform(-0.5, 0.5, 12 * 8000), 8000)
        np.testing.assert_array_equal(
            self._fed(buf, regions, max_s), target_samples_oracle(buf, regions, max_s)
        )

    def test_regions_past_the_end_are_insufficient(self):
        fed = []
        embedder = per_segment(lambda b: fed.append(b) or np.ones(128))
        with pytest.raises(InsufficientSpeechError, match="speaker b: speech cannot be embedded"):
            extract_target_embeddings(
                ramp_buffer(), {"a": [Segment(1.0, 2.0)], "b": [Segment(12.0, 13.0)]}, embedder
            )
        assert [b.samples.size for b in fed] == [8000]

    def test_each_speaker_alone_in_order(self):
        calls = []

        def embedder(buf, segments):
            calls.append((buf.samples.size, segments))
            return [np.ones(128)] * len(segments)

        regions = {"b": [Segment(4.0, 6.0)], "a": [Segment(0.0, 1.0), Segment(2.0, 2.5)]}
        targets = extract_target_embeddings(ramp_buffer(), regions, embedder)
        assert list(targets) == ["b", "a"]
        assert calls == [(16000, [Segment(0.0, 2.0)]), (12000, [Segment(0.0, 1.5)])]

    def test_first_failing_speaker_raises(self):
        # "a" is silent and "b" too short: "a" comes first, so it is named.
        buf = AudioBuffer(np.r_[np.zeros(4 * 8000), np.ones(4 * 8000)], 8000)
        regions = {"a": [Segment(0.0, 2.0)], "b": [Segment(5.0, 5.1)]}
        with pytest.raises(InsufficientSpeechError, match="speaker a: speech cannot be embedded"):
            extract_target_embeddings(buf, regions, SpectralEmbedder())
        regions = {"c": [Segment(4.0, 6.0)], "b": [Segment(5.0, 5.1)], "a": [Segment(0.0, 2.0)]}
        with pytest.raises(InsufficientSpeechError, match="speaker b: 0.100s of speech"):
            extract_target_embeddings(buf, regions, SpectralEmbedder())

    def test_region_of_no_samples_first(self):
        # 0.1 s to 0.10005 s is 0.4 samples at 8 kHz and rounds to none; the
        # speech after it still makes the target.
        buf = ramp_buffer()
        fed = self._fed(buf, [Segment(0.1, 0.10005), Segment(1.0, 3.0)])
        np.testing.assert_array_equal(fed, buf.samples[8000:24000])


class TestRunTsvad:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        identity = rng.normal(size=(50, 128))
        net = MatrixStubNet(identity)
        buf = ramp_buffer(1.0)
        t = rng.normal(size=128)
        tracks = run_tsvad(net.bind(buf), {"b": rng.normal(size=128), "a": t})
        assert list(tracks) == ["b", "a"]  # target order
        assert [track.shape for track in tracks.values()] == [(50,), (50,)]
        again = run_tsvad(net.bind(buf), {"a": t, "b": np.ones(128)})
        np.testing.assert_array_equal(tracks["a"], again["a"])

    def test_identical_targets_identical_tracks(self):
        rng = np.random.default_rng(1)
        net = MatrixStubNet(rng.normal(size=(30, 128)))
        t = rng.normal(size=128)
        tracks = run_tsvad(net.bind(ramp_buffer(1.0)), {"a": t, "b": t.copy()})
        np.testing.assert_array_equal(tracks["a"], tracks["b"])

    def test_stub_matches_hand_oracle(self):
        rng = np.random.default_rng(2)
        identity = rng.normal(size=(20, 128))
        target = rng.normal(size=128)
        tracks = run_tsvad(MatrixStubNet(identity).bind(ramp_buffer(0.5)), {"a": target})
        expected = np.array(
            [1.0 / (1.0 + math.exp(-float(identity[i] @ target))) for i in range(20)]
        )
        np.testing.assert_allclose(tracks["a"], expected, atol=1e-6)

    def test_no_targets(self):
        with pytest.raises(ParameterError):
            run_tsvad(MatrixStubNet(np.zeros((5, 128))).bind(ramp_buffer(0.5)), {})


@st.composite
def bound_inputs(draw, max_s):
    """A noise buffer, some of it silent, and a few lists of 1-4 targets."""
    rate = draw(st.sampled_from([8000, 16000]))
    n = int(draw(st.floats(0.03, max_s)) * rate)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.normal(scale=draw(st.sampled_from([0.01, 1.0])), size=n)
    samples[: draw(st.integers(0, n // 2))] = 0.0
    calls = [
        [rng.normal(size=128) for _ in range(draw(st.integers(1, 4)))]
        for _ in range(draw(st.integers(1, 3)))
    ]
    return AudioBuffer(samples, rate), calls


class TestBind:
    """A bound detector gives what `tracks(buf, targets)` gave, on every call."""

    @given(bound_inputs(max_s=3.0))
    @settings(max_examples=50, deadline=None)
    def test_spectral_matches_oracle(self, inputs):
        buf, calls = inputs
        tracks = SpectralTsvad().bind(buf)
        for targets in calls:
            assert np.array_equal(tracks(targets), spectral_tracks_oracle(buf, targets))

    @given(bound_inputs(max_s=0.6))
    @settings(max_examples=8, deadline=None)
    def test_net_matches_oracle(self, inputs):
        buf, calls = inputs
        net = TsvadNet(init_tsvad_weights(0))
        tracks = net.bind(buf)
        for targets in calls:
            assert np.array_equal(tracks(targets), tsvad_net_tracks_oracle(net, buf, targets))


def reference_rounds_inputs(spec):
    """An 8 kHz synthetic call with its reference speaker regions and speech."""
    buf, ref = gen_audio_conversation(spec, sample_rate=8000)
    return buf, ref.per_speaker(), reference_speech(ref.turns)


class TestBindOncePerRecording:
    """`run_rounds` does the per-recording detection work once, however many
    rounds run."""

    def test_identity_frames_once(self, monkeypatch):
        calls = []
        identity_frames = TsvadNet.identity_frames

        def counted(self, features):
            calls.append(features.n_frames)
            return identity_frames(self, features)

        monkeypatch.setattr(TsvadNet, "identity_frames", counted)
        buf, regions, speech = reference_rounds_inputs(
            SynthSpec(duration_s=2.0, turn_min_s=0.5, turn_max_s=1.0, seed=32)
        )
        result = run_rounds(buf, regions, TsvadNet(init_tsvad_weights(0)), SpectralEmbedder(), speech)
        assert result.rounds > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("max_rounds", [1, 2, 4])
    def test_whole_recording_stft_once(self, monkeypatch, max_rounds):
        buf, regions, speech = reference_rounds_inputs(
            SynthSpec(duration_s=12.0, overlap_fraction=0.3, noise_sigma=0.3, seed=4)
        )
        seen = []
        stft_magnitude = stubs.stft_magnitude

        def counted(b):
            seen.append(b)
            return stft_magnitude(b)

        monkeypatch.setattr(stubs, "stft_magnitude", counted)
        cfg = PipelineConfig(max_rounds=max_rounds)
        result = run_rounds(buf, regions, SpectralTsvad(), SpectralEmbedder(), speech, cfg)
        assert result.rounds == max_rounds
        # The bind's blocks are views of the recording: over all rounds they
        # hold each of its frames once.
        bound = [b for b in seen if np.shares_memory(b.samples, buf.samples)]
        assert sum(frame_signal(b).shape[0] for b in bound) == frame_signal(buf).shape[0]
        # Each round embeds each speaker's target alone, in one STFT.
        assert len(seen) - len(bound) == len(regions) * result.rounds

    def test_round_one_targets_come_before_the_bind(self):
        class Unbindable:
            def bind(self, buf):
                raise AssertionError("bound before round 1's targets")

        with pytest.raises(InsufficientSpeechError):
            run_rounds(
                ramp_buffer(2.0), {"a": [Segment(0.0, 0.1)]}, Unbindable(),
                FirstSampleEmbedder(), [Segment(0.0, 2.0)],
            )


class TestMedianFilter:
    def test_impulse_rejected(self):
        track = np.zeros(50)
        track[25] = 1.0
        np.testing.assert_array_equal(median_filter(track), np.zeros(50))

    def test_idempotent_on_long_binary_runs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            runs = []
            val = 0.0
            while sum(len(r) for r in runs) < 80:
                runs.append([val] * int(rng.integers(6, 15)))
                val = 1.0 - val
            track = np.concatenate(runs)[:80]
            once = median_filter(track)
            np.testing.assert_array_equal(median_filter(once), once)

    def test_even_taps_rejected(self):
        with pytest.raises(ParameterError):
            median_filter(np.zeros(10), taps=10)

    def test_short_track(self):
        out = median_filter(np.array([0.3, 0.9, 0.1]), taps=11)
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))

    @given(
        track=st.lists(
            st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0)),
            max_size=60,
        ),
        taps=st.integers(0, 15).map(lambda k: 2 * k + 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_median_oracle(self, track, taps):
        # array_equal, not bytes: the two may order -0.0 and 0.0 differently.
        track = np.array(track, dtype=np.float64)
        assert np.array_equal(median_filter(track, taps), median_filter_oracle(track, taps))


def two_tracks(a, b):
    return {"a": a, "b": b}


class TestPostprocess:
    def test_dominant_speaker_takes_all(self):
        n = 100
        tracks = two_tracks(np.full(n, 0.9), np.full(n, 0.1))
        diar = postprocess(tracks, [Segment(0.0, 1.0)])
        per = diar.per_speaker()
        assert per["a"] == [Segment(0.0, 1.0)]
        assert "b" not in per

    def test_argmax_fallback_below_threshold(self):
        n = 50
        tracks = two_tracks(np.full(n, 0.4), np.full(n, 0.3))
        diar = postprocess(tracks, [Segment(0.0, 0.5)])
        per = diar.per_speaker()
        assert per["a"] == [Segment(0.0, 0.5)]
        assert "b" not in per

    def test_argmax_tie_goes_to_lower_index(self):
        n = 50
        tracks = two_tracks(np.full(n, 0.4), np.full(n, 0.4))
        per = postprocess(tracks, [Segment(0.0, 0.5)]).per_speaker()
        assert "a" in per and "b" not in per

    def test_both_above_threshold_overlap(self):
        n = 50
        tracks = two_tracks(np.full(n, 0.8), np.full(n, 0.7))
        per = postprocess(tracks, [Segment(0.0, 0.5)]).per_speaker()
        assert per["a"] == [Segment(0.0, 0.5)]
        assert per["b"] == [Segment(0.0, 0.5)]

    def test_spike_removed_by_median(self):
        a = np.zeros(100)
        a[50] = 1.0
        b = np.full(100, 0.7)
        per = postprocess(two_tracks(a, b), [Segment(0.0, 1.0)]).per_speaker()
        assert "a" not in per  # spike median-filtered away, argmax prefers b
        assert per["b"] == [Segment(0.0, 1.0)]

    def test_outside_speech_unassigned(self):
        n = 100
        tracks = two_tracks(np.full(n, 0.9), np.full(n, 0.1))
        diar = postprocess(tracks, [Segment(0.2, 0.6)])
        assert diar.per_speaker()["a"] == [Segment(0.2, 0.6)]

    def test_every_speech_frame_assigned(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 200
            tracks = two_tracks(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
            speech = [Segment(0.1, 0.8), Segment(1.2, 1.9)]
            diar = postprocess(tracks, speech)
            assigned = np.zeros(n, dtype=bool)
            for segs in diar.per_speaker().values():
                assigned |= segments_to_mask(segs, n)
            np.testing.assert_array_equal(assigned, segments_to_mask(speech, n))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        n = 300
        tracks = two_tracks(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        speech = [Segment(0.0, 3.0)]

        def pair_count(threshold):
            diar = postprocess(tracks, speech, threshold=threshold)
            return sum(
                segments_to_mask(segs, n).sum() for segs in diar.per_speaker().values()
            )

        counts = [pair_count(t) for t in (0.3, 0.5, 0.65, 0.8)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_even_taps_rejected(self):
        with pytest.raises(ParameterError):
            postprocess(two_tracks(np.zeros(10), np.zeros(10)), [Segment(0, 0.1)], median_taps=4)


class TestConvergenceTest:
    """`run_rounds` stops when a round's turns equal the last round's. For
    the same speakers and frame count that is exactly the old test, equal
    frame-assignment matrices."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_turns_iff_equal_assignment(self, data):
        n = data.draw(st.integers(1, 60), label="frames")
        k = data.draw(st.integers(1, 3), label="speakers")
        levels = st.sampled_from([0.0, 0.3, 0.5, 0.65, 0.8, 1.0])
        a = np.array(data.draw(st.lists(levels, min_size=k * n, max_size=k * n))).reshape(k, n)
        b = a.copy()
        for i in data.draw(st.lists(st.integers(0, k * n - 1), max_size=3), label="changed"):
            b.flat[i] = data.draw(levels)
        # Speech edges in whole milliseconds, so they fall on and off the 10 ms grid.
        spans = data.draw(
            st.lists(st.tuples(st.integers(0, 10 * n), st.integers(1, 300)), min_size=1, max_size=4),
            label="speech",
        )
        speech = [Segment(lo / 1000, (lo + length) / 1000) for lo, length in spans]
        taps = data.draw(st.sampled_from([1, 3, 11]), label="taps")
        ids = [f"s{i}" for i in range(k)]
        da = postprocess(dict(zip(ids, a)), speech, median_taps=taps)
        db = postprocess(dict(zip(ids, b)), speech, median_taps=taps)
        same_matrix = np.array_equal(
            assignment_matrix_oracle(da, ids, n), assignment_matrix_oracle(db, ids, n)
        )
        assert (da.turns == db.turns) == same_matrix


class IdentityRoundNet:
    """Reproduces whatever assignment the targets encode: target[0] > 0 means
    'speaker active on frames where flag array is 1'."""

    def __init__(self, frame_flags):
        self.frame_flags = frame_flags  # dict speaker -> [T] activity

    def bind(self, buf):
        # The embedder stores a speaker key at index 2.
        return lambda targets: np.stack([self.frame_flags[int(round(t[2]))] for t in targets])


class KeyedEmbedder(PerSegment):
    """Marks which region bucket the samples came from (first-sample code)."""

    def embed(self, buf):
        out = np.zeros(128)
        out[2] = round(float(buf.samples[0]))
        return out


class SilenceRejectingEmbedder(KeyedEmbedder):
    def embed(self, buf):
        if not buf.samples.any():
            raise EmptyInputError("silent")
        return super().embed(buf)


class TestRunRounds:
    rate = 8000

    def test_unembeddable_later_round_keeps_previous(self):
        # Round 1 moves speaker 2 onto the silent second half, where round 2
        # cannot embed it; the result is round 1's.
        buf = AudioBuffer(
            np.concatenate([np.full(self.rate, 1.0), np.full(self.rate, 2.0), np.zeros(self.rate * 2)]),
            self.rate,
        )
        flags = {
            1: np.concatenate([np.ones(100), np.zeros(298)]),
            2: np.concatenate([np.zeros(200), np.ones(198)]),
        }
        regions = {"s1": [Segment(0.0, 1.0)], "s2": [Segment(1.0, 2.0)]}
        result = run_rounds(
            buf, regions, IdentityRoundNet(flags), SilenceRejectingEmbedder(), [Segment(0.0, 4.0)]
        )
        assert result.rounds == 1
        assert not result.converged
        assert "silent" in result.warning
        assert result.diarization.per_speaker()["s2"] == [Segment(2.0, 3.98)]

    def test_round_one_that_empties_a_speaker_keeps_initial_regions(self):
        # Round 1 gives every frame to s1, so s0 has no speech and there is
        # no earlier round to fall back to.
        flags = {1: np.ones(398), 0: np.zeros(398)}
        buf = AudioBuffer(
            np.concatenate([np.ones(self.rate * 2), np.zeros(self.rate * 2)]), self.rate
        )
        regions = {"s1": [Segment(0.0, 2.0)], "s0": [Segment(2.0, 4.0)]}
        result = run_rounds(
            buf, regions, IdentityRoundNet(flags), KeyedEmbedder(), [Segment(0.0, 4.0)],
            recording_id="r",
        )
        assert (result.rounds, result.converged) == (0, False)
        assert result.warning == "round 1 emptied speakers ['s0']; kept the initial regions"
        assert result.diarization.turns == Diarization.from_regions("r", regions).turns
        assert len(result.history) == 1

    def test_round_one_emptied_speaker_on_a_synthetic_call(self, tmp_path):
        # At these operating points, round 1 leaves spk1 of this call without
        # speech; the clustering's two speakers are kept.
        cfg = PipelineConfig(tsvad_threshold=0.8, median_taps=301, max_rounds=1, target_max_s=4.0)
        spec = SynthSpec(duration_s=20.0, overlap_fraction=0.4, noise_sigma=0.05, seed=1)
        write_wav(tmp_path / "call.wav", gen_audio_conversation(spec)[0])
        buf = read_wav(tmp_path / "call.wav")
        components = build_stub_components()
        speech = speech_regions_for(buf, TASK2, None, components, cfg)
        buf = resample_to_8k(buf)
        regions = cluster_two_speakers(buf, speech, components, cfg)
        result = run_rounds(
            buf, regions, components.tsvad_net, components.embedder, speech, cfg, "call"
        )
        assert (result.rounds, result.converged) == (0, False)
        assert result.warning == "round 1 emptied speakers ['spk1']; kept the initial regions"
        assert result.diarization.turns == Diarization.from_regions("call", regions).turns

    def test_fixed_point_converges_in_two_rounds(self):
        t_frames = 398  # frames of a 4 s buffer at 8 kHz
        flags = {
            1: np.concatenate([np.ones(200), np.zeros(t_frames - 200)]),
            0: np.concatenate([np.zeros(200), np.ones(t_frames - 200)]),
        }
        buf = AudioBuffer(
            np.concatenate([np.ones(self.rate * 2), np.zeros(self.rate * 2)]), self.rate
        )
        net = IdentityRoundNet(flags)
        regions = {"s1": [Segment(0.0, 2.0)], "s0": [Segment(2.0, 4.0)]}
        result = run_rounds(
            buf, regions, net, KeyedEmbedder(), [Segment(0.0, 4.0)], PipelineConfig(max_rounds=4)
        )
        assert result.converged
        assert result.rounds == 2
        per = result.diarization.per_speaker()
        assert per["s1"] == [Segment(0.0, 2.0)]
        assert per["s0"] == [Segment(2.0, 3.98)]  # track length is the frame count

    def test_max_rounds_one(self):
        flags = {1: np.ones(398), 0: np.ones(398)}
        buf = AudioBuffer(np.ones(self.rate * 4), self.rate)
        net = IdentityRoundNet(flags)
        regions = {"s1": [Segment(0.0, 2.0)], "s0": [Segment(2.0, 4.0)]}
        result = run_rounds(
            buf, regions, net, KeyedEmbedder(), [Segment(0.0, 4.0)], PipelineConfig(max_rounds=1)
        )
        assert result.rounds == 1
        assert not result.converged

    def test_no_round_budget_is_rejected(self):
        # A PipelineConfig built directly is not validated.
        buf = AudioBuffer(np.ones(self.rate * 4), self.rate)
        regions = {"s1": [Segment(0.0, 2.0)], "s0": [Segment(2.0, 4.0)]}
        with pytest.raises(ParameterError, match="max_rounds"):
            run_rounds(
                buf, regions, IdentityRoundNet({}), KeyedEmbedder(), [Segment(0.0, 4.0)],
                PipelineConfig(max_rounds=0),
            )

    def test_deterministic(self):
        flags = {
            1: np.concatenate([np.ones(150), np.zeros(248)]),
            0: np.concatenate([np.zeros(150), np.ones(248)]),
        }
        buf = AudioBuffer(
            np.concatenate([np.ones(self.rate * 2), np.zeros(self.rate * 2)]), self.rate
        )
        regions = {"s1": [Segment(0.0, 1.5)], "s0": [Segment(1.5, 4.0)]}
        r1 = run_rounds(buf, regions, IdentityRoundNet(flags), KeyedEmbedder(), [Segment(0, 4)])
        r2 = run_rounds(buf, regions, IdentityRoundNet(flags), KeyedEmbedder(), [Segment(0, 4)])
        assert r1.rounds == r2.rounds
        assert r1.diarization.turns == r2.diarization.turns
