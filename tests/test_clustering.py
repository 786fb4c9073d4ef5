"""Similarity scoring, spectral clustering, AHC, overlap assignment, and
the trainable pair scorer."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.clustering import (
    Clustering,
    ahc,
    assign_with_overlap,
    build_v2s_input,
    cosine_similarity,
    cosine_similarity_matrix,
    diaconis_augment,
    kmeans,
    random_rotation,
    select_two_speakers,
    spectral_cluster,
    train_v2s_toy,
    v2s_pair_accuracy,
    v2s_similarity_matrix,
)
from diarkit.errors import (
    DegenerateGraphError,
    InsufficientSpeakersError,
    NumericError,
    ParameterError,
)
from diarkit.models import V2sScorer
from diarkit.segmenter import EmbeddedSegment
from diarkit.segments import Segment
from diarkit.synth import orthonormal_prototypes
from oracles import ahc_oracle, assign_with_overlap_oracle


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

    def test_forced_k_one(self):
        s, _ = self.block_matrix([3, 4])
        clustering = spectral_cluster(s, k=1)
        np.testing.assert_array_equal(clustering.labels, 0)

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

    def test_zero_vector_raises(self):
        with pytest.raises(NumericError):
            ahc([emb_seg(0, 1, basis(0)), emb_seg(1, 2, np.zeros(128))])


class TestSelectTwoSpeakers:
    def test_duration_ordering(self):
        clustering = Clustering(
            labels=np.array([0, 1, 2]),
            centers=np.stack([basis(0), basis(1), basis(2)]),
        )
        segs = [emb_seg(0, 10, basis(0)), emb_seg(10, 18, basis(1)), emb_seg(18, 18.5, basis(2))]
        a, b, (idx_a, idx_b), rest = select_two_speakers(clustering, segs)
        np.testing.assert_array_equal(a, basis(0))
        np.testing.assert_array_equal(b, basis(1))
        assert idx_a == [0] and idx_b == [1] and rest == [2]

    def test_exactly_two_identity(self):
        clustering = Clustering(np.array([0, 1]), np.stack([basis(0), basis(1)]))
        segs = [emb_seg(0, 5, basis(0)), emb_seg(5, 9, basis(1))]
        a, b, (idx_a, idx_b), rest = select_two_speakers(clustering, segs)
        assert idx_a == [0] and idx_b == [1] and rest == []

    def test_single_cluster_error(self):
        clustering = Clustering(np.array([0, 0]), basis(0)[None, :])
        segs = [emb_seg(0, 5, basis(0)), emb_seg(5, 9, basis(0))]
        with pytest.raises(InsufficientSpeakersError):
            select_two_speakers(clustering, segs)


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


class TestDiaconis:
    def test_pairwise_cosines_preserved(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(8, 128))
        rotated = diaconis_augment(xs, seed=1, prob=1.0)
        assert not np.allclose(rotated, xs)
        np.testing.assert_allclose(
            cosine_similarity_matrix(rotated), cosine_similarity_matrix(xs), atol=1e-10
        )

    def test_prob_zero_identity(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(4, 128))
        np.testing.assert_array_equal(diaconis_augment(xs, seed=0, prob=0.0), xs)

    def test_rotation_orthogonality_residual(self):
        r = random_rotation(128, np.random.default_rng(13))
        assert np.max(np.abs(r.T @ r - np.eye(128))) < 1e-10

    def test_downstream_similarity_invariance(self):
        rng = np.random.default_rng(14)
        protos = orthonormal_prototypes(3, 128, rng)
        xs = np.stack([protos[i % 3] + rng.normal(0, 0.05, 128) for i in range(12)])
        rotated = diaconis_augment(xs, seed=2, prob=1.0)
        s_orig = np.clip(cosine_similarity_matrix(xs), 0.0, None)
        s_rot = np.clip(cosine_similarity_matrix(rotated), 0.0, None)
        np.testing.assert_allclose(s_rot, s_orig, atol=1e-10)


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
