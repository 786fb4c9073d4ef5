"""Similarity scoring, spectral clustering, AHC, overlap assignment, and
the trainable pair scorer."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.clustering import (
    _canonical_labels,
    _unit_rows,
    ahc,
    assign_with_overlap,
    build_v2s_input,
    cosine_similarity,
    cosine_similarity_matrix,
    kmeans,
    select_two_speakers,
    spectral_cluster,
    train_v2s_toy,
    v2s_pair_accuracy,
    v2s_similarity_matrix,
)
from diarkit.audio import AudioBuffer, write_wav
from diarkit.config import PipelineConfig
from diarkit.errors import DegenerateGraphError, NumericError, ParameterError
from diarkit.models import V2sScorer
from diarkit.pipeline import TASK1, Components, cluster_two_speakers, diarize_cts, process_recording
from diarkit.segmenter import EmbeddedSegment
from diarkit.segments import Diarization, Segment
from diarkit.synth import orthonormal_prototypes
from diarkit.tsvad import RoundResult
from diarkit.vad import write_vad_file
from oracles import (
    ahc_oracle,
    assign_with_overlap_oracle,
    canonical_labels_oracle,
    select_two_speakers_oracle,
)


def emb_seg(start, end, vec):
    return EmbeddedSegment(Segment(start, end), np.asarray(vec, dtype=float))


def basis(i, dim=128):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


@st.composite
def embedding_streams(draw, max_len=60):
    """1..max_len embeddings of dimension 4..128 around a few speaker
    directions; some positions repeat an earlier vector exactly, which gives
    exact similarity ties."""
    n = draw(st.integers(1, max_len))
    dim = draw(st.integers(4, 128))
    n_distinct = draw(st.integers(1, n))
    n_speakers = draw(st.integers(1, 8))
    spread = draw(st.floats(0.01, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    protos = rng.normal(size=(n_speakers, dim))
    distinct = protos[rng.integers(n_speakers, size=n_distinct)]
    distinct += spread * rng.normal(size=distinct.shape)
    picks = np.concatenate([np.arange(n_distinct), rng.integers(n_distinct, size=n - n_distinct)])
    rng.shuffle(picks)
    return [emb_seg(i, i + 1, distinct[k]) for i, k in enumerate(picks)]


@st.composite
def tied_embedding_streams(draw, max_len=30):
    """1..max_len embeddings with planted ties: each is one of a few
    small-integer directions, scaled by 0.5, 1, 2 or 3. Duplicated rows,
    scaled copies and equal similarities between different pairs are then
    common."""
    n = draw(st.integers(1, max_len))
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions = rng.integers(-2, 3, size=(draw(st.integers(1, n)), dim)).astype(float)
    directions[~directions.any(axis=1), 0] = 1.0
    scales = rng.choice([0.5, 1.0, 2.0, 3.0], size=(n, 1))
    x = directions[rng.integers(len(directions), size=n)] * scales
    return [emb_seg(i, i + 1, row) for i, row in enumerate(x)]


@st.composite
def cluster_labels(draw, max_clusters=8):
    """Labels of 1..max_clusters clusters, each with at least one member,
    and a duration per item; durations of a few exact binary values make
    tied cluster totals common."""
    k = draw(st.integers(1, max_clusters))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=24))
    labels = draw(st.permutations(list(range(k)) + extra))
    duration = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.floats(0.01, 30.0))
    durations = draw(st.lists(duration, min_size=len(labels), max_size=len(labels)))
    return np.array(labels), np.array(durations)


def label_accuracy(pred, truth):
    """Best-permutation agreement between two labelings."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    k = max(pred.max(), truth.max()) + 1
    best = 0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, int(np.sum(mapped == truth)))
    return best / len(truth)


class TestCosine:
    def test_parallel(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector(self):
        with pytest.raises(NumericError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        dim=st.integers(1, 130),
        exponent=st.integers(-150, 150),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_rows_are_the_linalg_norm_form(self, seed, rows, dim, exponent):
        x = np.random.default_rng(seed).normal(size=(rows, dim)) * 10.0**exponent
        want = x / np.linalg.norm(x, axis=1)[:, None]
        assert _unit_rows(x).tobytes() == want.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        dim=st.integers(1, 130),
        exponent=st.integers(-150, 150),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_unit_rows_reject_a_zero_row(self, seed, rows, dim, exponent, data):
        x = np.random.default_rng(seed).normal(size=(rows, dim)) * 10.0**exponent
        x[data.draw(st.integers(0, rows - 1), label="zero row")] = 0.0
        with pytest.raises(NumericError):
            _unit_rows(x)

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 5))
        mat = cosine_similarity_matrix(x)
        for i in range(6):
            for j in range(6):
                assert mat[i, j] == pytest.approx(cosine_similarity(x[i], x[j]))


class TestBuildV2sInput:
    def test_three_embeddings_anchor_two(self):
        xs = [basis(0), basis(1), basis(2)]
        m = build_v2s_input(xs, 1)
        assert m.shape == (3, 256)
        np.testing.assert_array_equal(m[0], np.concatenate([basis(1), basis(0)]))
        np.testing.assert_array_equal(m[1], np.concatenate([basis(1), basis(1)]))
        np.testing.assert_array_equal(m[2], np.concatenate([basis(1), basis(2)]))

    def test_single(self):
        m = build_v2s_input([basis(3)], 0)
        np.testing.assert_array_equal(m, np.concatenate([basis(3), basis(3)])[None, :])

    def test_first_half_always_anchor(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            xs = rng.normal(size=(n, 128))
            i = int(rng.integers(n))
            m = build_v2s_input(xs, i)
            np.testing.assert_array_equal(m[:, :128], np.tile(xs[i], (n, 1)))
            np.testing.assert_array_equal(m[:, 128:], xs)

    def test_index_out_of_range(self):
        with pytest.raises(ParameterError):
            build_v2s_input([basis(0)], 1)


class DotStubScorer:
    """sigmoid of the dot product of the two halves; a closed-form scorer."""

    def forward(self, m):
        return 1.0 / (1.0 + np.exp(-np.sum(m[:, :128] * m[:, 128:], axis=1)))


class TestV2sMatrix:
    def test_two_by_two_range(self):
        scorer = V2sScorer.init(0)
        s = v2s_similarity_matrix(np.random.default_rng(0).normal(size=(2, 128)), scorer)
        assert s.shape == (2, 2)
        assert np.all((s > 0) & (s < 1))

    def test_symmetrized_exactly(self):
        scorer = V2sScorer.init(1)
        s = v2s_similarity_matrix(np.random.default_rng(1).normal(size=(5, 128)), scorer)
        np.testing.assert_array_equal(s, s.T)

    def test_stub_scorer_matches_hand_matrix(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(6, 128)) * 0.2
        s = v2s_similarity_matrix(xs, DotStubScorer())
        gram = xs @ xs.T
        expected = 1.0 / (1.0 + np.exp(-gram))
        expected = (expected + expected.T) / 2
        np.testing.assert_allclose(s, expected, atol=1e-6)


class TestSpectralCluster:
    def block_matrix(self, sizes, eps=1e-6):
        n = sum(sizes)
        s = np.full((n, n), eps)
        start = 0
        truth = []
        for b, size in enumerate(sizes):
            s[start : start + size, start : start + size] = 1.0
            truth.extend([b] * size)
            start += size
        return s, np.array(truth)

    def test_exact_two_block(self):
        s, truth = self.block_matrix([3, 4])
        clustering = spectral_cluster(s)
        assert clustering.n_clusters == 2
        assert label_accuracy(clustering.labels, truth) == 1.0

    def test_permutation_invariance(self):
        s, truth = self.block_matrix([3, 3, 2])
        rng = np.random.default_rng(5)
        perm = rng.permutation(8)
        base = spectral_cluster(s)
        permuted = spectral_cluster(s[np.ix_(perm, perm)])
        assert label_accuracy(permuted.labels, base.labels[perm]) == 1.0

    def test_random_block_recovery(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            k = int(rng.integers(2, 6))
            sizes = [int(rng.integers(2, 5)) for _ in range(k)]
            if sum(sizes) > 20:
                sizes = sizes[:3]
                k = len(sizes)
            s, truth = self.block_matrix(sizes)
            clustering = spectral_cluster(s)
            assert clustering.n_clusters == k
            assert label_accuracy(clustering.labels, truth) == 1.0

    def test_rejects_asymmetric(self):
        s = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ParameterError):
            spectral_cluster(s)

    def test_rejects_negative(self):
        s = np.array([[1.0, -0.1], [-0.1, 1.0]])
        with pytest.raises(ParameterError):
            spectral_cluster(s)

    def test_rejects_isolated_node(self):
        s = np.eye(3)
        s[2, 2] = 0.0
        with pytest.raises(DegenerateGraphError):
            spectral_cluster(s)

    @given(labels=st.lists(st.integers(-3, 7), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_canonical_labels_match_loop_oracle(self, labels):
        labels = np.array(labels)
        got, want = _canonical_labels(labels), canonical_labels_oracle(labels)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype

    def test_kmeans_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 3))
        a = kmeans(x, 3, seed=5)
        b = kmeans(x, 3, seed=5)
        np.testing.assert_array_equal(a, b)


class TestAhc:
    def test_two_groups(self):
        e0, e1 = basis(0), basis(1)
        segs = [
            emb_seg(0, 1, e0 + 0.01 * basis(5)),
            emb_seg(1, 2, e0 + 0.01 * basis(6)),
            emb_seg(2, 3, e1 + 0.01 * basis(7)),
            emb_seg(3, 4, e1 + 0.01 * basis(8)),
        ]
        clustering = ahc(segs)
        assert clustering.n_clusters == 2
        np.testing.assert_array_equal(clustering.labels, [0, 0, 1, 1])

    def test_identical_collapse_to_one(self):
        segs = [emb_seg(i, i + 1, basis(3)) for i in range(5)]
        assert ahc(segs).n_clusters == 1

    def test_orthogonal_stay_apart(self):
        segs = [emb_seg(i, i + 1, basis(i)) for i in range(6)]
        clustering = ahc(segs)
        assert clustering.n_clusters == 6

    def test_centers_are_member_means(self):
        rng = np.random.default_rng(8)
        protos = orthonormal_prototypes(3, 128, rng)
        segs = []
        truth = []
        for i in range(12):
            spk = i % 3
            segs.append(emb_seg(i, i + 1, protos[spk] + rng.normal(0, 0.05, 128)))
            truth.append(spk)
        clustering = ahc(segs)
        for c in range(clustering.n_clusters):
            member_mean = np.mean(
                [segs[i].embedding for i in range(12) if clustering.labels[i] == c], axis=0
            )
            np.testing.assert_allclose(clustering.centers[c], member_mean, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ahc([])

    @given(segs=embedding_streams(), stop=st.floats(-0.5, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_oracle(self, segs, stop):
        got, want = ahc(segs, stop), ahc_oracle(segs, stop)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_allclose(got.centers, want.centers, rtol=0, atol=1e-12)

    # Stop thresholds away from the cosines that small-integer directions
    # reach exactly (1/2, 3/5, 4/5, ...). A pair whose cosine is exactly the
    # threshold, such as (0, -4, -2, 4, 4, -4, -2) and (0.5, -1, 0.5, 0, 0,
    # -0.5, -0.5) at 1/2, merges under the oracle's `a @ b / (|a| |b|)` and
    # not under the dot product of unit vectors, which rounds it below.
    @given(
        segs=tied_embedding_streams(),
        stop=st.sampled_from([-0.4321, 0.3141, 0.5437, 0.6283, 0.7993, 0.9871]),
    )
    @settings(max_examples=150, deadline=None)
    def test_planted_ties_match_pairwise_oracle(self, segs, stop):
        got, want = ahc(segs, stop), ahc_oracle(segs, stop)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.centers.tobytes() == want.centers.tobytes()

    def test_zero_vector_raises(self):
        with pytest.raises(NumericError):
            ahc([emb_seg(0, 1, basis(0)), emb_seg(1, 2, np.zeros(128))])


class TestSelectTwoSpeakers:
    def test_duration_ordering(self):
        assert select_two_speakers(np.array([0, 1, 2]), np.array([10.0, 8.0, 0.5])) == (0, 1)
        assert select_two_speakers(np.array([0, 1, 2]), np.array([0.5, 8.0, 10.0])) == (2, 1)

    def test_exactly_two_identity(self):
        assert select_two_speakers(np.array([0, 1]), np.array([5.0, 4.0])) == (0, 1)

    def test_tied_totals_go_to_the_lower_label(self):
        labels = np.array([2, 0, 1, 1, 0])
        assert select_two_speakers(labels, np.array([3.0, 1.0, 2.0, 1.0, 2.0])) == (0, 1)

    def test_single_cluster_gives_none(self):
        assert select_two_speakers(np.array([0, 0]), np.array([5.0, 4.0])) is None

    @given(drawn=cluster_labels())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_oracle(self, drawn):
        labels, durations = drawn
        got = select_two_speakers(labels, durations)
        assert got == select_two_speakers_oracle(labels, durations)
        assert (got is None) == (labels.max() == 0)

    def test_cluster_two_speakers_hands_off_regions(self):
        # Four regions, each one merged segment and one cluster: a (10 s) and
        # b (8 s) are the speakers. The third region is nearer b alone; the
        # fourth is as near both, above the overlap threshold, so both get it.
        vectors = {
            0.0: basis(0),
            10.0: basis(1),
            18.0: 0.9 * basis(2) + 0.1 * basis(1),
            19.0: 0.5 * basis(0) + 0.5 * basis(1) + basis(3),
        }
        speech = [Segment(0, 10), Segment(10, 18), Segment(18, 18.5), Segment(19, 19.5)]

        def embedder(buf, segs):
            return [vectors[max(t for t in vectors if t <= seg.start_s)] for seg in segs]

        buf = AudioBuffer(np.zeros(8000 * 20), 8000)
        regions = cluster_two_speakers(buf, speech, Components(embedder, None), PipelineConfig())
        assert regions == {
            "spk0": [Segment(0, 10), Segment(19, 19.5)],
            "spk1": [Segment(10, 18), Segment(18, 18.5), Segment(19, 19.5)],
        }

    def test_cluster_two_speakers_one_cluster_gives_none(self):
        speech = [Segment(0, 5), Segment(6, 9)]
        buf = AudioBuffer(np.zeros(8000 * 10), 8000)
        components = Components(lambda buf, segs: [basis(0)] * len(segs), None)
        assert cluster_two_speakers(buf, speech, components, PipelineConfig()) is None

    def test_one_cluster_is_one_speaker_after_no_round(self, tmp_path):
        speech = [Segment(0, 5), Segment(6, 9)]
        buf = AudioBuffer(np.zeros(8000 * 10), 8000)
        components = Components(lambda buf, segs: [basis(0)] * len(segs), None)
        single = Diarization("call", [(Segment(0, 5), "spk0"), (Segment(6, 9), "spk0")])
        result = diarize_cts(buf, speech, components, PipelineConfig(), "call")
        assert result == RoundResult(single, 0, False, "single cluster")
        write_wav(tmp_path / "call.wav", buf)
        write_vad_file(tmp_path / "call.vad", speech)
        report = process_recording(
            tmp_path / "call.wav", tmp_path, TASK1, components, PipelineConfig(),
            tmp_path / "call.vad",
        )
        assert (report.status, report.n_speakers, report.rounds, report.warning) == (
            "ok", 1, 0, "single cluster",
        )


class TestAssignWithOverlap:
    def test_symmetric_overlap_goes_both(self):
        seg = emb_seg(0, 1, (basis(0) + basis(1)) / np.sqrt(2))
        list_a, list_b = assign_with_overlap([seg], basis(0), basis(1))
        assert list_a == [seg] and list_b == [seg]

    def test_pure_a_strict_inequality(self):
        seg = emb_seg(0, 1, basis(0))  # sim to b is 0.0, not > 0
        list_a, list_b = assign_with_overlap([seg], basis(0), basis(1))
        assert list_a == [seg] and list_b == []

    def test_negative_cross_similarity(self):
        vec = 0.9 * basis(0) - 0.1 * basis(1)
        seg = emb_seg(0, 1, vec)
        list_a, list_b = assign_with_overlap([seg], basis(0), basis(1))
        assert list_a == [seg] and list_b == []

    def test_every_segment_appears(self):
        rng = np.random.default_rng(9)
        segs = [emb_seg(i, i + 1, rng.normal(size=128)) for i in range(20)]
        list_a, list_b = assign_with_overlap(segs, basis(0), basis(1))
        assigned = {id(s) for s in list_a} | {id(s) for s in list_b}
        assert len(assigned) == 20

    def test_relabel_symmetry_of_overlap(self):
        rng = np.random.default_rng(10)
        segs = [emb_seg(i, i + 1, rng.normal(size=128)) for i in range(20)]
        ab_a, ab_b = assign_with_overlap(segs, basis(0), basis(1))
        ba_a, ba_b = assign_with_overlap(segs, basis(1), basis(0))
        overlap_ab = {id(s) for s in ab_a} & {id(s) for s in ab_b}
        overlap_ba = {id(s) for s in ba_a} & {id(s) for s in ba_b}
        assert overlap_ab == overlap_ba

    @given(
        segs=embedding_streams(),
        picks=st.tuples(st.integers(0, 59), st.integers(0, 59)),
        threshold=st.floats(-0.5, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, segs, picks, threshold):
        # Centers taken from the stream: some segments score 1, and equal
        # centers tie every segment.
        a, b = (segs[i % len(segs)].embedding for i in picks)
        got = assign_with_overlap(segs, a, b, threshold)
        want = assign_with_overlap_oracle(segs, a, b, threshold)
        assert [[id(s) for s in side] for side in got] == [[id(s) for s in side] for side in want]

    def test_empty_input(self):
        assert assign_with_overlap([], basis(0), basis(1)) == ([], [])

    def test_zero_center_raises(self):
        with pytest.raises(NumericError):
            assign_with_overlap([emb_seg(0, 1, basis(0))], basis(0), np.zeros(128))


def make_pair_dataset(rng, n_pairs=200, sigma=0.05):
    protos = orthonormal_prototypes(2, 128, rng)
    dataset = []
    for _ in range(n_pairs):
        sa, sb = int(rng.integers(2)), int(rng.integers(2))
        a = protos[sa] + rng.normal(0, sigma, 128)
        b = protos[sb] + rng.normal(0, sigma, 128)
        dataset.append((np.stack([a, b]), 0, np.array([1.0, 1.0 if sa == sb else 0.0])))
    return dataset


class TestTrainV2s:
    def test_lr_zero_changes_nothing(self):
        scorer = V2sScorer.init(0)
        before = {k: v.copy() for k, v in scorer.params.items()}
        dataset = make_pair_dataset(np.random.default_rng(0), n_pairs=5)
        trace = train_v2s_toy(scorer, dataset, lr=0.0, epochs=3)
        assert len(trace) == 3
        assert trace[0] == pytest.approx(trace[-1])
        for k in before:
            np.testing.assert_array_equal(scorer.params[k], before[k])

    def test_separable_pairs_learned(self):
        rng = np.random.default_rng(42)
        dataset = make_pair_dataset(rng)
        scorer = V2sScorer.init(7)
        trace = []
        for _ in range(20):  # up to 200 epochs in chunks of 10
            trace += train_v2s_toy(scorer, dataset, lr=0.01, epochs=10)
            if trace[-1] < 0.1 and v2s_pair_accuracy(scorer, dataset) > 0.95:
                break
        assert trace[-1] < 0.1
        assert trace[-1] < trace[0]  # loss trace trends down
        assert v2s_pair_accuracy(scorer, dataset) > 0.95

    def test_gradient_probe(self):
        from diarkit.nn import finite_diff_check

        rng = np.random.default_rng(1)
        dataset = make_pair_dataset(rng, n_pairs=1)
        xs, anchor, labels = dataset[0]
        m = build_v2s_input(xs, anchor)
        scorer = V2sScorer.init(3)
        _, grads = scorer.loss_and_grad(m, labels)
        err = finite_diff_check(
            lambda p: V2sScorer(p).loss(m, labels), scorer.params, grads, probes=4, rng=rng
        )
        assert err < 1e-3
