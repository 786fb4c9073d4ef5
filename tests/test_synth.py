"""Synthetic conversation generators and their reference consistency."""

import numpy as np
import pytest

from diarkit.clustering import cosine_similarity
from diarkit.errors import ParameterError
from diarkit.partition import classify_bandwidth
from diarkit.synth import (
    SynthSpec,
    gen_audio_conversation,
    gen_embedding_stream,
    overlap_time,
)


class TestEmbeddingStream:
    def test_zero_sigma_exact_prototypes(self):
        stream = gen_embedding_stream(SynthSpec(n_speakers=3, duration_s=30, seed=1))
        for seg, label in zip(stream.segments, stream.labels):
            np.testing.assert_array_equal(seg.embedding, stream.prototypes[label])

    def test_margin_between_classes(self):
        # Within-speaker cosine similarities all exceed cross-speaker ones.
        stream = gen_embedding_stream(
            SynthSpec(n_speakers=2, duration_s=60, noise_sigma=0.05, seed=2)
        )
        within, cross = [], []
        for i in range(len(stream.segments)):
            for j in range(i + 1, len(stream.segments)):
                sim = cosine_similarity(
                    stream.segments[i].embedding, stream.segments[j].embedding
                )
                (within if stream.labels[i] == stream.labels[j] else cross).append(sim)
        assert min(within) > max(cross)

    def test_same_seed_identical(self):
        spec = SynthSpec(n_speakers=3, duration_s=40, noise_sigma=0.05, seed=9)
        a = gen_embedding_stream(spec)
        b = gen_embedding_stream(spec)
        assert a.labels == b.labels
        for sa, sb in zip(a.segments, b.segments):
            assert sa.segment == sb.segment
            np.testing.assert_array_equal(sa.embedding, sb.embedding)

    def test_reference_valid(self):
        stream = gen_embedding_stream(
            SynthSpec(n_speakers=4, duration_s=60, overlap_fraction=0.4, seed=3)
        )
        stream.reference.validate()
        assert set(stream.reference.speakers()) == {"spk0", "spk1", "spk2", "spk3"}

    def test_too_many_speakers(self):
        with pytest.raises(ParameterError):
            gen_embedding_stream(SynthSpec(n_speakers=129, duration_s=500))

    def test_every_speaker_appears(self):
        stream = gen_embedding_stream(SynthSpec(n_speakers=4, duration_s=60, seed=4))
        assert set(stream.labels) == {0, 1, 2, 3}


class TestAudioConversation:
    def test_single_speaker_activity_matches_reference(self):
        spec = SynthSpec(n_speakers=1, duration_s=12, seed=5)
        buf, ref = gen_audio_conversation(spec)
        rate = buf.sample_rate
        active = np.zeros(buf.samples.size, dtype=bool)
        for seg, _ in ref.turns:
            active[int(seg.start_s * rate) : int(seg.end_s * rate)] = True
        # Nonzero samples live exactly inside reference turns (10 ms slack).
        nonzero = np.abs(buf.samples) > 1e-9
        slack = int(0.010 * rate)
        outside = nonzero & ~active
        assert outside.sum() <= 2 * slack * len(ref.turns)
        inside_energy = np.sum(buf.samples[active] ** 2)
        assert inside_energy > 0

    def test_tones_classify_as_cts(self):
        buf, _ = gen_audio_conversation(SynthSpec(n_speakers=4, duration_s=20, seed=6))
        assert classify_bandwidth(buf).value == "CTS"

    def test_with_broadband_noise_ncts(self):
        # sigma 0.5 is decisively broadband under this STFT normalization;
        # weaker noise hovers at the 0.07 threshold.
        buf, _ = gen_audio_conversation(
            SynthSpec(n_speakers=2, duration_s=20, noise_sigma=0.5, seed=7)
        )
        assert classify_bandwidth(buf).value == "NCTS"

    def test_same_seed_identical_audio(self):
        spec = SynthSpec(n_speakers=2, duration_s=10, overlap_fraction=0.3, seed=8)
        a, _ = gen_audio_conversation(spec)
        b, _ = gen_audio_conversation(spec)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_reference_valid_with_overlap(self):
        for seed in range(5):
            _, ref = gen_audio_conversation(
                SynthSpec(n_speakers=2, duration_s=30, overlap_fraction=0.5, seed=seed)
            )
            ref.validate()
            assert overlap_time(ref) > 0.0

    def test_overlap_fraction_zero_no_overlap(self):
        _, ref = gen_audio_conversation(SynthSpec(n_speakers=3, duration_s=30, seed=9))
        assert overlap_time(ref) == 0.0

    def test_samples_bounded(self):
        buf, _ = gen_audio_conversation(
            SynthSpec(n_speakers=8, duration_s=10, noise_sigma=0.3, seed=10)
        )
        assert np.max(np.abs(buf.samples)) <= 1.0

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            SynthSpec(n_speakers=0)
        with pytest.raises(ParameterError):
            SynthSpec(overlap_fraction=1.0)
        with pytest.raises(ParameterError):
            SynthSpec(turn_min_s=2.0, turn_max_s=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_s", float("inf")),
            ("duration_s", float("nan")),
            ("turn_max_s", float("inf")),
            ("noise_sigma", -0.3),
            ("noise_sigma", float("inf")),
            ("noise_sigma", float("nan")),
        ],
    )
    def test_values_that_never_end_or_do_nothing(self, field, value):
        # An infinite duration never ends the turn loop; a negative noise would be ignored.
        with pytest.raises(ParameterError):
            SynthSpec(**{field: value})
