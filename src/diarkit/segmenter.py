"""Uniform segmentation of speech regions and similarity-driven merging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering
from .config import PipelineConfig
from .errors import ParameterError
from .segments import Segment


@dataclass
class EmbeddedSegment:
    segment: Segment
    embedding: np.ndarray

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if not np.all(np.isfinite(self.embedding)):
            raise ParameterError("embedding must be finite")


def uniform_segments(speech: list[Segment], win_s: float, shift_s: float) -> list[Segment]:
    """Slide a fixed window over each speech region; a region shorter than
    the window is kept whole."""
    if win_s <= 0 or shift_s <= 0 or shift_s > win_s:
        raise ParameterError(f"invalid window params win={win_s} shift={shift_s}")
    out: list[Segment] = []
    for region in speech:
        if region.duration < win_s:
            out.append(region)
            continue
        k = 0
        while region.start_s + k * shift_s + win_s <= region.end_s + 1e-9:
            start = region.start_s + k * shift_s
            out.append(Segment(start, start + win_s))
            k += 1
    return sorted(out, key=lambda s: (s.start_s, s.end_s))


def recursive_merge(
    segs: list[EmbeddedSegment], threshold: float = PipelineConfig.merge_threshold
) -> list[EmbeddedSegment]:
    """Repeatedly merge the most-similar consecutive pair above threshold.

    The merged segment spans both parents and carries the unweighted mean of
    their embeddings. Ties break to the leftmost pair; the recursion stops
    when every consecutive similarity is <= threshold.
    """
    items = list(segs)
    if len(items) < 2:
        return items
    sims = [
        clustering.cosine_similarity(a.embedding, b.embedding) for a, b in zip(items, items[1:])
    ]
    while sims:
        best = int(np.argmax(sims))
        if sims[best] <= threshold:
            break
        left, right = items[best], items[best + 1]
        merged = EmbeddedSegment(
            Segment(left.segment.start_s, right.segment.end_s),
            (left.embedding + right.embedding) / 2.0,
        )
        items[best : best + 2] = [merged]
        del sims[best]
        if best > 0:
            sims[best - 1] = clustering.cosine_similarity(
                items[best - 1].embedding, merged.embedding
            )
        if best < len(sims):
            sims[best] = clustering.cosine_similarity(merged.embedding, items[best + 1].embedding)
    return items
