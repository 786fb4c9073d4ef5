"""`Diarization.from_regions`, the one assembly of hypothesis turns from
per-speaker regions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.segments import Diarization, Segment, mask_to_segments
from oracles import cluster_turns_oracle, mask_turns_oracle, single_speaker_oracle

# Region edges in whole milliseconds, so regions overlap, touch and nest.
spans = st.lists(
    st.tuples(st.integers(0, 3000), st.integers(1, 800)).map(
        lambda t: Segment(t[0] / 1000, (t[0] + t[1]) / 1000)
    ),
    max_size=8,
)


class TestFromRegions:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_detection_assembly(self, data):
        n = data.draw(st.integers(1, 80), label="frames")
        names = st.sampled_from(["a", "b", "spk0", "spk1", "spk2", "spk10"])
        ids = data.draw(st.lists(names, min_size=1, max_size=4, unique=True), label="speakers")
        assigned = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(ids) * n, max_size=len(ids) * n))
        ).reshape(len(ids), n)
        regions = {spk: mask_to_segments(row) for spk, row in zip(ids, assigned)}
        assert Diarization.from_regions("rec", regions) == mask_turns_oracle("rec", ids, assigned)

    @given(per_speaker=st.dictionaries(st.integers(0, 11).map("spk{}".format), spans, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_clustering_assembly(self, per_speaker):
        expected = cluster_turns_oracle("rec", per_speaker)
        assert Diarization.from_regions("rec", per_speaker) == expected

    @given(speech=spans)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_single_speaker_fallback(self, speech):
        expected = single_speaker_oracle("rec", speech)
        assert Diarization.from_regions("rec", {"spk0": speech}) == expected

    def test_order_is_start_then_name(self):
        regions = {"spk2": [Segment(1.0, 2.0)], "spk10": [Segment(1.0, 1.5), Segment(0.0, 0.5)]}
        diar = Diarization.from_regions("rec", regions)
        assert [(seg.start_s, spk) for seg, spk in diar.turns] == [
            (0.0, "spk10"), (1.0, "spk10"), (1.0, "spk2"),
        ]
