"""Uniform segmentation and recursive similarity merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.errors import NumericError, ParameterError
from diarkit.segmenter import EmbeddedSegment, recursive_merge, uniform_segments
from diarkit.segments import Segment


def emb_seg(start, end, vec):
    return EmbeddedSegment(Segment(start, end), np.asarray(vec, dtype=float))


def basis(i, dim=8):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestUniformSegments:
    def test_two_second_region(self):
        segs = uniform_segments([Segment(0.0, 2.0)], 0.5, 0.25)
        assert len(segs) == 7
        starts = [s.start_s for s in segs]
        np.testing.assert_allclose(starts, np.arange(7) * 0.25)
        assert all(s.duration == pytest.approx(0.5) for s in segs)

    def test_short_region_kept_whole(self):
        segs = uniform_segments([Segment(0.0, 1.0)], 1.5, 0.25)
        assert segs == [Segment(0.0, 1.0)]

    def test_multiple_regions_sorted(self):
        segs = uniform_segments([Segment(5.0, 6.0), Segment(0.0, 1.0)], 1.5, 0.25)
        assert segs == [Segment(0.0, 1.0), Segment(5.0, 6.0)]

    def test_exact_fit(self):
        segs = uniform_segments([Segment(0.0, 1.5)], 1.5, 0.25)
        assert segs == [Segment(0.0, 1.5)]

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            uniform_segments([Segment(0.0, 1.0)], 0.0, 0.25)
        with pytest.raises(ParameterError):
            uniform_segments([Segment(0.0, 1.0)], 0.5, 0.75)

    def test_all_windows_inside_region(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            start = float(rng.uniform(0, 10))
            end = start + float(rng.uniform(0.1, 8))
            win = float(rng.uniform(0.2, 2.0))
            shift = float(rng.uniform(0.05, win))
            for seg in uniform_segments([Segment(start, end)], win, shift):
                assert seg.start_s >= start - 1e-9
                assert seg.end_s <= end + 1e-9

    @given(
        start_ms=st.integers(0, 600_000),
        length_ms=st.integers(1, 20_000),
        win_ms=st.integers(100, 3000),
        shift_frac=st.floats(0.02, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_windows_cover_the_region_to_its_end(self, start_ms, length_ms, win_ms, shift_frac):
        region = Segment(start_ms / 1000, (start_ms + length_ms) / 1000)
        win = win_ms / 1000
        shift = max(shift_frac * win, 0.001)
        segs = uniform_segments([region], win, shift)
        if region.duration < win:
            assert segs == [region]
            return
        assert segs[0].start_s == region.start_s
        assert segs[-1].end_s == region.end_s
        for prev, seg in zip(segs, segs[1:]):
            assert seg.start_s - prev.start_s == pytest.approx(shift, abs=1e-9)
            assert seg.start_s <= prev.end_s + 1e-9  # no gap between windows
        for seg in segs[:-1]:
            assert seg.duration == pytest.approx(win, abs=1e-9)
        # The last window takes the tail that a whole shift would not reach.
        assert win - 1e-9 <= segs[-1].duration < win + shift


class TestRecursiveMerge:
    def test_hand_trace_two_then_one(self):
        e = basis(0)
        f = basis(1)
        merged = recursive_merge([emb_seg(0, 1, e), emb_seg(1, 2, e), emb_seg(2, 3, f)])
        assert len(merged) == 2
        assert merged[0].segment == Segment(0.0, 2.0)
        np.testing.assert_allclose(merged[0].embedding, e)
        assert merged[1].segment == Segment(2.0, 3.0)

    def test_all_identical_collapse(self):
        e = basis(2)
        merged = recursive_merge([emb_seg(i, i + 1, e) for i in range(5)])
        assert len(merged) == 1
        assert merged[0].segment == Segment(0.0, 5.0)
        np.testing.assert_allclose(merged[0].embedding, e)

    def test_all_orthogonal_unchanged(self):
        segs = [emb_seg(i, i + 1, basis(i)) for i in range(5)]
        merged = recursive_merge(segs)
        assert len(merged) == 5

    def test_merged_embedding_is_unweighted_mean(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.9, 0.1, 0.0])
        merged = recursive_merge([emb_seg(0, 5, a), emb_seg(5, 6, b)], threshold=0.6)
        assert len(merged) == 1
        np.testing.assert_allclose(merged[0].embedding, (a + b) / 2)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(1)
        segs = [
            emb_seg(i * 1.0, i * 1.0 + 1.0, rng.normal(size=6)) for i in range(10)
        ]
        merged = recursive_merge(segs)
        assert merged[0].segment.start_s == 0.0
        assert merged[-1].segment.end_s == 10.0

    def test_output_consecutive_similarities_below_threshold(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            segs = [
                emb_seg(i, i + 1, rng.normal(size=4)) for i in range(int(rng.integers(2, 12)))
            ]
            merged = recursive_merge(segs, threshold=0.6)
            for a, b in zip(merged, merged[1:]):
                cos = a.embedding @ b.embedding / (
                    np.linalg.norm(a.embedding) * np.linalg.norm(b.embedding)
                )
                assert cos <= 0.6 + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        segs = [emb_seg(i, i + 1, rng.normal(size=4)) for i in range(12)]
        once = recursive_merge(segs)
        twice = recursive_merge(once)
        assert len(once) == len(twice)
        for a, b in zip(once, twice):
            assert a.segment == b.segment
            np.testing.assert_array_equal(a.embedding, b.embedding)

    def test_empty_and_single(self):
        assert recursive_merge([]) == []
        single = [emb_seg(0, 1, basis(0))]
        assert recursive_merge(single) == single

    def test_zero_embedding_raises(self):
        # The shared cosine gives a zero vector no score rather than 0, so the
        # recording fails here instead of one stage later in AHC.
        with pytest.raises(NumericError):
            recursive_merge([emb_seg(0, 1, basis(0)), emb_seg(1, 2, np.zeros(8))])
