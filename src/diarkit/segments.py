"""Timestamped segments, speaker-labeled diarizations, and frame/interval helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import FRAME_SHIFT_S
from .errors import ParameterError


@dataclass(frozen=True)
class Segment:
    """Half-open time interval [start_s, end_s) in seconds."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if not (0.0 <= self.start_s < self.end_s < np.inf):
            raise ParameterError(
                f"invalid segment [{self.start_s}, {self.end_s}]: need 0 <= start < end < inf"
            )

    @property
    def duration(self) -> float:
        return self.end_s - self.start_s


@dataclass
class Diarization:
    """Speaker-attributed segments for one recording.

    Cross-speaker overlap is allowed; segments of the same speaker are kept
    disjoint by the operations that produce them.
    """

    recording_id: str
    turns: list[tuple[Segment, str]] = field(default_factory=list)

    @classmethod
    def from_regions(cls, recording_id: str, regions: dict[str, list[Segment]]) -> "Diarization":
        """Each speaker's regions merged into turns, ordered by start time,
        then speaker name: the one turn order of every hypothesis."""
        turns = [(seg, spk) for spk, segs in regions.items() for seg in merge_segments(segs)]
        turns.sort(key=lambda t: (t[0].start_s, t[1]))
        return cls(recording_id, turns)

    def speakers(self) -> list[str]:
        seen: dict[str, None] = {}
        for _, spk in self.turns:
            seen.setdefault(spk, None)
        return list(seen)

    def per_speaker(self) -> dict[str, list[Segment]]:
        out: dict[str, list[Segment]] = {}
        for seg, spk in self.turns:
            out.setdefault(spk, []).append(seg)
        for spk in out:
            out[spk] = sorted(out[spk], key=lambda s: (s.start_s, s.end_s))
        return out

    def total_speaker_time(self) -> float:
        return sum(seg.duration for seg, _ in self.turns)

    def validate(self) -> None:
        """Check the same-speaker non-overlap invariant."""
        for spk, segs in self.per_speaker().items():
            for a, b in zip(segs, segs[1:]):
                if b.start_s < a.end_s - 1e-9:
                    raise ParameterError(
                        f"speaker {spk} has overlapping segments {a} and {b}"
                    )


def merge_segments(segs: list[Segment]) -> list[Segment]:
    """Union overlapping or touching segments."""
    if not segs:
        return []
    ordered = sorted(segs, key=lambda s: (s.start_s, s.end_s))
    out = [ordered[0]]
    for seg in ordered[1:]:
        last = out[-1]
        if seg.start_s <= last.end_s:
            if seg.end_s > last.end_s:
                out[-1] = Segment(last.start_s, seg.end_s)
        else:
            out.append(seg)
    return out


def segments_to_mask(segs: list[Segment], n_frames: int) -> np.ndarray:
    """Boolean mask on the 10 ms grid; frame i is on iff its start time lies
    in a segment."""
    mask = np.zeros(n_frames, dtype=bool)
    for seg in segs:
        lo = int(np.ceil(seg.start_s / FRAME_SHIFT_S - 1e-9))
        hi = int(np.ceil(seg.end_s / FRAME_SHIFT_S - 1e-9))
        lo = max(lo, 0)
        hi = min(hi, n_frames)
        if hi > lo:
            mask[lo:hi] = True
    return mask


def mask_to_segments(mask: np.ndarray) -> list[Segment]:
    """Convert a boolean mask on the 10 ms grid into sorted disjoint segments."""
    mask = np.asarray(mask, dtype=bool)
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(np.int8), [0]])))
    return [
        Segment(lo * FRAME_SHIFT_S, hi * FRAME_SHIFT_S)
        for lo, hi in zip(edges[::2], edges[1::2])
    ]
