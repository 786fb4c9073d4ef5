"""RTTM/UEM I/O and DER scoring against hand computations, the
brute-force oracle and the 1 ms grid scorer the interval sweep replaced."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from der_oracle import der_oracle, random_diarization
from diarkit.errors import FormatError, InputError, LineError, ParameterError
from diarkit.metrics import (
    _assign,
    compute_der,
    emit_rttm,
    parse_rttm,
    parse_uem,
    turns_to_diarization,
)
from diarkit.segments import Diarization, Segment
from oracles import compute_der_grid_oracle, parse_rttm_oracle, scored_overlap_oracle


def diar(recording_id, *turns):
    return Diarization(recording_id, [(Segment(a, b), s) for a, b, s in turns])


# Lines that `parse_rttm` skips, and malformed SPEAKER lines; `{}` is a file id.
OTHER_LINES = [
    "NON-LEX {} 1 5.000 1.000 <NA> <NA> laugh <NA> <NA>",
    "SPKR-INFO {} 1 <NA> <NA> <NA> unknown a <NA> <NA>",
    ";; comment",
    ";;SPEAKER {} 1 oops",
    "",
    " \t ",
]
MALFORMED_LINES = [
    "SPEAKER {} 1 oops",
    "SPEAKER",
    "SPEAKER {} 1 zero 1.000 <NA> <NA> a <NA> <NA>",
    "SPEAKER {} 1 1.000 -2.000 <NA> <NA> a <NA> <NA>",
    "SPEAKER {} 1 1.000 0.000 <NA> <NA> a <NA> <NA>",
    "SPEAKER {} 1 nan 1.000 <NA> <NA> a <NA> <NA>",
    "SPEAKER {} 1 1.000 inf <NA> <NA> a <NA> <NA>",
]


@st.composite
def rttm_texts(draw):
    """1-3 file ids, and RTTM text of 0-30 SPEAKER lines that interleave
    them, with times to the millisecond, among other record types, comments
    and blank lines; in half the draws, one malformed SPEAKER line too."""
    ids = draw(st.lists(st.sampled_from(["rec", "call-2", "x_y"]), min_size=1, max_size=3,
                        unique=True))
    file_id = st.sampled_from(ids)
    millis = st.integers(0, 600_000).map(lambda ms: ms / 1000)
    speaker_line = st.builds(
        "SPEAKER {} 1 {:.3f} {:.3f} <NA> <NA> {} <NA> <NA>".format,
        file_id, millis, millis.filter(lambda s: s > 0), st.sampled_from(["a", "b", "spk0"]),
    )
    lines = draw(st.lists(speaker_line, max_size=30))
    extra = draw(st.lists(st.sampled_from(OTHER_LINES), max_size=8))
    if draw(st.booleans()):
        extra.append(draw(st.sampled_from(MALFORMED_LINES)))
    for template in extra:
        lines.insert(draw(st.integers(0, len(lines))), template.format(draw(file_id)))
    return ids, "\n".join(lines) + "\n"


class TestRttm:
    def test_emit_template(self):
        line = emit_rttm(diar("rec1", (1.25, 4.75, "spk01")))
        assert line == "SPEAKER rec1 1 1.250 3.500 <NA> <NA> spk01 <NA> <NA>\n"

    def test_empty(self):
        assert parse_rttm("") == {}
        assert emit_rttm(Diarization("rec1")) == ""

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for rec in ("rec0", "rec1", "rec2"):
            turns = []
            for _ in range(10):
                onset = round(float(rng.uniform(0, 100)), 3)
                duration = round(float(rng.uniform(0.01, 20)), 3)
                turns.append((Segment(onset, onset + duration), f"spk{rng.integers(5)}"))
            assert parse_rttm(emit_rttm(Diarization(rec, turns))) == {rec: turns}

    def test_ignores_other_record_types(self):
        text = (
            "NON-LEX rec1 1 5.0 1.0 <NA> <NA> laugh <NA> <NA>\n"
            "SPEAKER rec1 1 0.000 2.000 <NA> <NA> a <NA> <NA>\n"
            ";; comment\n"
        )
        assert parse_rttm(text) == {"rec1": [(Segment(0.0, 2.0), "a")]}

    def test_turns_grouped_by_file_id_in_file_order(self):
        text = (
            "SPEAKER b 1 4.000 1.000 <NA> <NA> s1 <NA> <NA>\n"
            "SPEAKER a 1 2.000 1.000 <NA> <NA> s2 <NA> <NA>\n"
            "SPEAKER b 1 0.000 1.000 <NA> <NA> s3 <NA> <NA>\n"
        )
        assert parse_rttm(text) == {
            "b": [(Segment(4.0, 5.0), "s1"), (Segment(0.0, 1.0), "s3")],
            "a": [(Segment(2.0, 3.0), "s2")],
        }

    def test_malformed_line_reports_number(self):
        text = "SPEAKER rec1 1 0.0 1.0 <NA> <NA> a <NA> <NA>\nSPEAKER rec1 1 oops\n"
        with pytest.raises(FormatError, match="line 2"):
            parse_rttm(text)

    def test_non_numeric_time(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_rttm("SPEAKER rec1 1 zero 1.0 <NA> <NA> a <NA> <NA>\n")

    def test_negative_duration_rejected(self):
        with pytest.raises(FormatError):
            parse_rttm("SPEAKER rec1 1 1.0 -2.0 <NA> <NA> a <NA> <NA>\n")

    def test_end_that_rounds_to_the_onset_names_its_line(self):
        text = "SPEAKER rec1 1 0.0 1.0 <NA> <NA> a <NA> <NA>\nSPEAKER rec1 1 1e16 0.5 <NA> <NA> a\n"
        with pytest.raises(LineError, match=r"^line 2: invalid segment \[1e\+16, 1e\+16\]"):
            parse_rttm(text)

    @given(rttm_texts())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_old_parser(self, case):
        ids, text = case
        try:
            want = {file_id: parse_rttm_oracle(text, file_id) for file_id in ids}
        except LineError as exc:
            with pytest.raises(LineError) as got:
                parse_rttm(text)
            assert str(got.value) == str(exc)
            return
        got = parse_rttm(text)
        assert {file_id: got.get(file_id, []) for file_id in ids} == want
        assert set(got) == {file_id for file_id in ids if want[file_id]}

    @pytest.mark.parametrize("field", ["my call", "", "a\tb", " a", "spk\n"])
    def test_emit_rejects_what_is_not_one_field(self, field):
        with pytest.raises(FormatError, match=re.escape(repr(field))):
            emit_rttm(diar(field, (0, 1, "a")))
        with pytest.raises(FormatError, match=re.escape(repr(field))):
            emit_rttm(diar("rec", (0, 1, "a"), (1, 2, field)))

    def test_uem_parsing(self):
        regions = parse_uem("rec1 1 0.0 10.0\nrec2 1 5.0 6.0\nrec1 1 20.0 30.0\n")
        assert len(regions["rec1"]) == 2
        assert regions["rec2"] == [Segment(5.0, 6.0)]


class TestDerHandExamples:
    def test_identical_is_zero(self):
        d = diar("r", (0, 10, "a"), (12, 15, "b"))
        report = compute_der(d, d)
        assert report.der == 0.0
        assert report.miss == report.false_alarm == report.confusion == 0.0

    def test_miss_twenty_percent(self):
        ref = diar("r", (0, 10, "A"))
        hyp = diar("r", (0, 8, "A"))
        report = compute_der(ref, hyp)
        assert report.miss == pytest.approx(0.2, abs=1e-9)
        assert report.der == pytest.approx(0.2, abs=1e-9)
        assert report.total_ref_s == pytest.approx(10.0)

    def test_confusion_fifty_percent(self):
        ref = diar("r", (0, 5, "A"), (5, 10, "B"))
        hyp = diar("r", (0, 10, "X"))
        report = compute_der(ref, hyp)
        assert report.confusion == pytest.approx(0.5, abs=1e-9)
        assert report.der == pytest.approx(0.5, abs=1e-9)
        assert report.mapping["X"] in ("A", "B")

    def test_overlap_miss_fifty_percent(self):
        ref = diar("r", (0, 10, "A"), (0, 10, "B"))
        hyp = diar("r", (0, 10, "A"))
        report = compute_der(ref, hyp)
        assert report.total_ref_s == pytest.approx(20.0)
        assert report.miss == pytest.approx(0.5, abs=1e-9)
        assert report.der == pytest.approx(0.5, abs=1e-9)

    def test_recording_mismatch(self):
        with pytest.raises(InputError):
            compute_der(diar("a", (0, 1, "x")), diar("b", (0, 1, "x")))

    def test_empty_reference_rejected(self):
        with pytest.raises(InputError):
            compute_der(Diarization("r", []), diar("r", (0, 1, "x")))


class TestDerProperties:
    def test_relabel_invariance(self):
        rng = np.random.default_rng(1)
        ref_t = random_diarization(rng, 3, 30)
        hyp_t = random_diarization(rng, 3, 30)
        ref = diar("r", *ref_t)
        hyp = diar("r", *hyp_t)
        relabeled = diar("r", *[(a, b, s + "_renamed") for a, b, s in hyp_t])
        assert compute_der(ref, hyp).der == pytest.approx(
            compute_der(ref, relabeled).der, abs=1e-12
        )

    def test_self_score_zero_with_overlap(self):
        for seed in range(5):
            turns = random_diarization(np.random.default_rng(seed), 4, 40)
            d = diar("r", *turns)
            assert compute_der(d, d).der == 0.0

    def test_components_sum_to_der(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ref = diar("r", *random_diarization(rng, 3, 25))
            hyp = diar("r", *random_diarization(rng, 3, 25))
            r = compute_der(ref, hyp)
            assert r.der == pytest.approx(r.miss + r.false_alarm + r.confusion, abs=1e-9)
            assert min(r.miss, r.false_alarm, r.confusion) >= 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ref_turns = random_diarization(rng, int(rng.integers(1, 5)), 20)
        hyp_turns = random_diarization(rng, int(rng.integers(1, 5)), 20)
        report = compute_der(diar("r", *ref_turns), diar("r", *hyp_turns))
        der, miss, fa, conf = der_oracle(ref_turns, hyp_turns)
        assert report.der == pytest.approx(der, abs=1e-9)
        assert report.miss == pytest.approx(miss, abs=1e-9)
        assert report.false_alarm == pytest.approx(fa, abs=1e-9)
        assert report.confusion == pytest.approx(conf, abs=1e-9)


class TestUemAndCollar:
    def test_uem_restricts_scoring(self):
        ref = diar("r", (0, 10, "A"))
        hyp = diar("r", (0, 5, "A"))  # misses 5..10
        full = compute_der(ref, hyp)
        limited = compute_der(ref, hyp, uem=[Segment(0.0, 5.0)])
        assert full.miss == pytest.approx(0.5, abs=1e-9)
        assert limited.der == 0.0
        assert limited.total_ref_s == pytest.approx(5.0)

    def test_collar_forgives_boundaries(self):
        ref = diar("r", (0, 10, "A"))
        hyp = diar("r", (0.2, 10, "A"))  # 200 ms late entry
        strict = compute_der(ref, hyp)
        forgiving = compute_der(ref, hyp, collar_s=0.25)
        assert strict.miss > 0.0
        assert forgiving.der == 0.0


class TestDiarizationConversion:
    def test_round_trip(self):
        d = diar("rec", (0, 1.5, "a"), (1.0, 2.0, "b"))
        back = turns_to_diarization(parse_rttm(emit_rttm(d)), "rec")
        assert back.turns == d.turns

    def test_file_filter(self):
        turns = parse_rttm(emit_rttm(diar("x", (0, 1, "a"))))
        assert turns_to_diarization(turns, "other").turns == []


def _pairs(n_rows, n_cols):
    """Every one-to-one assignment of min(n_rows, n_cols) (row, col) pairs."""
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            yield list(zip(range(n_rows), cols))
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            yield list(zip(rows, range(n_cols)))


class TestAssign:
    """`_assign` (Kuhn–Munkres) against exhaustive search."""

    @staticmethod
    def _check(weight):
        pairs = _assign(weight)
        n_rows, n_cols = weight.shape
        assert len(pairs) == min(n_rows, n_cols)
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
        assert all(0 <= r < n_rows and 0 <= c < n_cols for r, c in pairs)
        best = max(sum(int(weight[r, c]) for r, c in p) for p in _pairs(n_rows, n_cols))
        assert sum(int(weight[r, c]) for r, c in pairs) == best

    @given(
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from([1, 2, 3, 50, 10**9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_search(self, n_rows, n_cols, high, seed):
        # high = 1 gives all-zero matrices, 2 and 3 give many ties
        self._check(np.random.default_rng(seed).integers(0, high, size=(n_rows, n_cols)))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3), (7, 7)])
    def test_all_zero(self, shape):
        self._check(np.zeros(shape, dtype=np.int64))

    def test_greedy_is_not_optimal(self):
        # the largest entry (10) is not in the optimum (9 + 8)
        assert sorted(_assign(np.array([[10, 9], [8, 0]]))) == [(0, 1), (1, 0)]


# Boundaries on the ms grid, on the half-ms (x.0005, where rounding ties),
# and anywhere; durations down to a fraction of a frame, so that a turn can
# vanish when quantised.
instants = st.one_of(
    st.integers(0, 20_000).map(lambda ms: ms / 1000),
    st.integers(0, 40_000).map(lambda half_ms: half_ms * 0.0005),
    st.floats(0.0, 20.0, allow_nan=False),
)
durations = st.one_of(
    st.integers(1, 8_000).map(lambda ms: ms / 1000),
    st.sampled_from([0.0003, 0.0005, 0.0015, 0.1005]),
    st.floats(1e-4, 8.0),
)


@st.composite
def diarizations(draw, min_speakers, max_speakers):
    """Up to 4 turns per speaker; a speaker's own turns may overlap."""
    turns = []
    for spk in range(draw(st.integers(min_speakers, max_speakers))):
        for _ in range(draw(st.integers(1, 4))):
            start = draw(instants)
            turns.append((Segment(start, start + draw(durations)), f"s{spk}"))
    return Diarization("r", draw(st.permutations(turns)))


@st.composite
def uems(draw):
    """None, or scored regions (possibly none) with gaps between them; the
    last may end well past the last turn (turns end before 28 s)."""
    if draw(st.booleans()):
        return None
    cuts = sorted(draw(st.lists(st.floats(0.0, 35.0), max_size=8, unique=True)))
    return [Segment(a, b) for a, b in zip(cuts[::2], cuts[1::2])]


class TestMatchesGridScorer:
    """The interval sweep gives the same integer frame counts as the 1 ms
    grid it replaced, so every float of the report is identical."""

    @given(
        diarizations(1, 6),
        diarizations(0, 6),
        st.sampled_from([0.0, 0.1, 0.25, 0.5]),
        uems(),
    )
    @settings(max_examples=150, deadline=None)
    def test_identical_to_grid(self, ref, hyp, collar_s, uem):
        kwargs = dict(collar_s=collar_s, uem=uem)
        try:
            want = compute_der_grid_oracle(ref, hyp, **kwargs)
        except InputError:
            with pytest.raises(InputError):
                compute_der(ref, hyp, **kwargs)
            return
        got = compute_der(ref, hyp, **kwargs)
        fields = ("der", "miss", "false_alarm", "confusion", "total_ref_s")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]

        # The mapping may differ only where optimal mappings tie.
        overlap = scored_overlap_oracle(ref, hyp, **kwargs)
        ref_names = list(dict.fromkeys(spk for _, spk in ref.turns))
        hyp_names = list(dict.fromkeys(spk for _, spk in hyp.turns))
        totals = [
            sum(overlap.get((ref_names[r], hyp_names[h]), 0) for r, h in p)
            for p in _pairs(len(ref_names), len(hyp_names))
        ]
        best = max(totals)

        def matched(report):
            assert len(report.mapping) == min(len(ref_names), len(hyp_names))
            return sum(overlap.get((r, h), 0) for h, r in report.mapping.items())

        assert matched(got) == matched(want) == best
        if totals.count(best) == 1:
            assert got.mapping == want.mapping

    def test_empty_hypothesis(self):
        ref = Diarization("r", [(Segment(0.0, 4.0), "a"), (Segment(2.0, 6.0005), "b")])
        hyp = Diarization("r", [])
        for kwargs in ({}, {"collar_s": 0.25}):
            got = compute_der(ref, hyp, **kwargs)
            assert got == compute_der_grid_oracle(ref, hyp, **kwargs)
            assert got.miss == got.der == 1.0 and got.mapping == {}


def _chain(n_speakers, prefix, relabel=lambda k: k):
    """One 1 s turn per speaker, back to back."""
    return [(Segment(float(k), k + 1.0), f"{prefix}{relabel(k)}") for k in range(n_speakers)]


class TestManySpeakers:
    """No cap on the number of speakers per side."""

    @pytest.mark.parametrize("n", [12, 20])
    def test_relabelled_reference_scores_zero(self, n):
        perm = np.random.default_rng(n).permutation(n)
        ref = Diarization("r", _chain(n, "s"))
        hyp = Diarization("r", _chain(n, "h", lambda k: perm[k]))
        report = compute_der(ref, hyp, collar_s=0.25)
        assert report.der == 0.0
        assert report.mapping == {f"h{perm[k]}": f"s{k}" for k in range(n)}

    def test_twelve_with_two_speakers_merged(self):
        # s0 and s1 both labelled h0: one of their two seconds is confused
        ref = Diarization("r", _chain(12, "s"))
        hyp = Diarization("r", _chain(12, "h", lambda k: max(k - 1, 0)))
        report = compute_der(ref, hyp)
        assert report.confusion == report.der == 1000 / 12000
        assert report.miss == report.false_alarm == 0.0
        assert report.mapping["h0"] in ("s0", "s1") and len(report.mapping) == 11

    def test_twenty_where_greedy_fails(self):
        # A = [0, 10) and B = [10, 18) against X = [0, 18) and Y = [0, 9):
        # A-X 10 s, A-Y 9 s, B-X 8 s. The optimum is A-Y + B-X = 17 s of the
        # 18 s both sides share, so 1 s is confused; [0, 9) has two
        # hypothesis speakers over one reference speaker, 9 s false alarm.
        # The other 18 speakers speak 1 s each, labelled alike on both sides.
        rest = [(Segment(seg.start_s + 20, seg.end_s + 20), spk) for seg, spk in _chain(18, "s")]
        ref = Diarization("r", [(Segment(0.0, 10.0), "A"), (Segment(10.0, 18.0), "B")] + rest)
        hyp = Diarization("r", [(Segment(0.0, 18.0), "X"), (Segment(0.0, 9.0), "Y")] + rest)
        report = compute_der(ref, hyp)
        assert report.total_ref_s == 36.0
        assert report.confusion == 1000 / 36000
        assert report.false_alarm == 9000 / 36000
        assert report.miss == 0.0
        assert report.mapping["X"] == "B" and report.mapping["Y"] == "A"


class TestCollarValidation:
    @pytest.mark.parametrize("collar", [-1.0, -1e-9, math.nan, math.inf])
    def test_rejects_bad_collar(self, collar):
        d = diar("r", (0, 10, "a"))
        with pytest.raises(ParameterError, match="collar"):
            compute_der(d, d, collar_s=collar)


def _long_pair(hours, n_speakers, seed):
    """A conversation of 1-6 s turns with 15 % overlap, and a hypothesis
    with jittered boundaries and relabelled speakers."""
    rng = np.random.default_rng(seed)
    end_s = hours * 3600.0
    ref, hyp, t = [], [], 0.0
    while True:
        if rng.random() < 0.15:
            start = max(0.0, t - rng.uniform(0.2, 1.0))
        else:
            start = t + rng.uniform(0.0, 0.8)
        stop = start + rng.uniform(1.0, 6.0)
        if stop > end_s - 1.0:
            break
        spk = int(rng.integers(n_speakers))
        ref.append((Segment(round(start, 3), round(stop, 3)), f"s{spk}"))
        a, b = start + rng.normal(0, 0.15), stop + rng.normal(0, 0.15)
        if a >= 0.0 and b - a > 0.05:
            hyp.append((Segment(round(a, 3), round(b, 3)), f"h{(spk * 5 + 3) % n_speakers}"))
        t = stop
    return Diarization("long", ref), Diarization("long", hyp)


def test_memory_stays_small_on_ten_hours():
    """A dense 1 ms grid of this pair needs several GB; the sweep's memory
    grows with the number of turns."""
    ref, hyp = _long_pair(10, 8, seed=4)
    uem = [Segment(30.0, 15_000.0), Segment(15_060.0, 35_970.0)]
    tracemalloc.start()
    try:
        report = compute_der(ref, hyp, collar_s=0.25, uem=uem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < report.der < 0.5
    assert peak < 20 * 2**20
