"""RTTM/UEM parsing and emission, and DER with an optimal speaker mapping.

`parse_rttm` and `parse_uem` map each file id to what the file holds for it:
its `(Segment, speaker)` turns in file order, or its scored regions.

DER follows the standard accounting: with a one-to-one hypothesis-to-
reference speaker mapping chosen to maximize matched speaker time, each
instant contributes
    miss      = max(0, n_ref - n_hyp)
    false al. = max(0, n_hyp - n_ref)
    confusion = min(n_ref, n_hyp) - n_matched
and every component is normalized by total reference speaker time (overlap
counted multiply). Every boundary (turns, UEM regions, collar windows) is
quantised to 1 ms, the precision RTTM carries. The score is then a sweep
over the elementary intervals between those boundaries, with each
interval's counts weighted by its length in frames, so time and memory grow
with the number of turns, not with the recording's length. The mapping is
the Kuhn–Munkres optimum, with no cap on the number of speakers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import records
from .errors import FormatError, InputError, LineError, ParameterError
from .segments import Diarization, Segment

FRAME_S = 0.001


@dataclass
class DerReport:
    der: float
    miss: float
    false_alarm: float
    confusion: float
    total_ref_s: float
    mapping: dict[str, str] = field(default_factory=dict)


def parse_rttm(text: str) -> dict[str, list[tuple[Segment, str]]]:
    """Each file id's `(Segment, speaker)` turns, in file order, from the
    SPEAKER lines; other record types are ignored."""
    turns: dict[str, list[tuple[Segment, str]]] = {}
    for lineno, line in records(text, ";;"):
        parts = line.split()
        if parts[0] != "SPEAKER":
            continue
        if len(parts) < 8:
            raise LineError(lineno, f"SPEAKER line has {len(parts)} fields, need >= 8")
        try:
            onset, dur = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise LineError(lineno, "non-numeric onset/duration") from exc
        if not (0 <= onset < math.inf and 0 < dur < math.inf):
            raise LineError(lineno, f"invalid turn: onset {onset}, duration {dur}")
        try:
            seg = Segment(onset, onset + dur)
        except ParameterError as exc:  # the end rounds to the onset, or overflows
            raise LineError(lineno, str(exc)) from exc
        turns.setdefault(parts[1], []).append((seg, parts[7]))
    return turns


def check_rttm_field(name: str) -> None:
    """Raise FormatError unless `name` is one RTTM field: not empty, and with
    no whitespace."""
    if name.split() != [name]:
        raise FormatError(f"not an RTTM field (empty or holds whitespace): {name!r}")


def emit_rttm(diar: Diarization) -> str:
    """RTTM text of `diar`: one SPEAKER line per turn, in turn order, with
    onset and duration in seconds to 1 ms. The recording id and each speaker
    label must each pass `check_rttm_field`."""
    for name in (diar.recording_id, *diar.speakers()):
        check_rttm_field(name)
    return "".join(
        f"SPEAKER {diar.recording_id} 1 {seg.start_s:.3f} {seg.duration:.3f} "
        f"<NA> <NA> {spk} <NA> <NA>\n"
        for seg, spk in diar.turns
    )


def turns_to_diarization(turns: dict[str, list[tuple[Segment, str]]], file_id: str) -> Diarization:
    """The `parse_rttm` turns of `file_id`; none when it has no SPEAKER line."""
    return Diarization(file_id, turns.get(file_id, []))


def parse_uem(text: str) -> dict[str, list[Segment]]:
    """Parse `<file-id> 1 <start> <end>` scored-region lines."""
    regions: dict[str, list[Segment]] = {}
    for lineno, line in records(text, ";;"):
        parts = line.split()
        if len(parts) != 4:
            raise LineError(lineno, f"UEM line needs 4 fields, got {len(parts)}")
        try:
            region = Segment(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise LineError(lineno, "non-numeric UEM times") from exc
        except ParameterError as exc:
            raise LineError(lineno, str(exc)) from exc
        regions.setdefault(parts[0], []).append(region)
    return regions


def _frame_index(t) -> np.ndarray:
    """Nearest frame boundary of each time in `t`, rounding halves up."""
    return np.floor(np.asarray(t, dtype=np.float64) / FRAME_S + 0.5).astype(np.int64)


def _spans(segs: list[Segment]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end frame indices of `segs`."""
    bounds = _frame_index([(seg.start_s, seg.end_s) for seg in segs]).reshape(-1, 2)
    return bounds[:, 0], bounds[:, 1]


def _speakers(diar: Diarization) -> tuple[list[str], np.ndarray]:
    """Speaker names in order of first turn, and each turn's speaker index."""
    index: dict[str, int] = {}
    owner = [index.setdefault(spk, len(index)) for _, spk in diar.turns]
    return list(index), np.array(owner, dtype=np.int64)


def _cover(points: np.ndarray, lo, hi, owner=None, n_owners: int = 1) -> np.ndarray:
    """[n_owners, m] bool: whether any span [lo, hi) of an owner covers each
    elementary interval [points[i], points[i + 1]). Every bound is a point,
    so a span covers whole intervals; overlapping spans count once."""
    owner = np.zeros(len(lo), dtype=np.int64) if owner is None else owner
    keep = hi > lo
    delta = np.zeros((n_owners, len(points)), dtype=np.int32)
    np.add.at(delta, (owner[keep], np.searchsorted(points, lo[keep])), 1)
    np.add.at(delta, (owner[keep], np.searchsorted(points, hi[keep])), -1)
    return np.cumsum(delta[:, :-1], axis=1, dtype=np.int32) > 0


def _assign(weight: np.ndarray) -> list[tuple[int, int]]:
    """Kuhn–Munkres: the one-to-one (row, column) pairs, min(rows, cols) of
    them, that maximize the total of an integer `weight` matrix.

    Shortest augmenting paths with row and column potentials, one row at a
    time, O(n² m); the inner loop over columns is vectorised.
    """
    flip = weight.shape[0] > weight.shape[1]
    cost = -(weight.T if flip else weight).astype(np.int64)
    n, m = cost.shape
    if n == 0:
        return []
    inf = np.iinfo(np.int64).max
    u = np.zeros(n + 1, dtype=np.int64)  # row potentials
    v = np.zeros(m + 1, dtype=np.int64)  # column potentials; column 0 is the root
    row_of = np.zeros(m + 1, dtype=np.int64)  # 1-based row matched to column, 0 = free
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        row_of[0] = i
        col = 0
        slack = np.full(m + 1, inf, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[col] != 0:
            used[col] = True
            row = row_of[col]
            free = ~used
            reduced = cost[row - 1] - u[row] - v[1:]
            better = free[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            way[1:][better] = col
            nxt = int(np.argmin(np.where(free, slack, inf)))
            delta = slack[nxt]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            col = nxt
        while col:
            prev = way[col]
            row_of[col] = row_of[prev]
            col = prev
    pairs = [(int(row_of[j]) - 1, j - 1) for j in range(1, m + 1) if row_of[j]]
    return [(c, r) for r, c in pairs] if flip else pairs


def check_collar(collar_s: float) -> None:
    """Raise ParameterError unless the collar is finite and >= 0."""
    if not (math.isfinite(collar_s) and collar_s >= 0.0):
        raise ParameterError(f"collar must be finite and >= 0, got {collar_s}")


def compute_der(
    ref: Diarization,
    hyp: Diarization,
    collar_s: float = 0.0,
    uem: list[Segment] | None = None,
) -> DerReport:
    """Diarization error rate of `hyp` against `ref`, by a sweep over the
    elementary intervals between quantised boundaries. Overlapped speech is
    scored, as DIHARD scores it."""
    if ref.recording_id != hyp.recording_id:
        raise InputError(
            f"recording mismatch: ref {ref.recording_id!r} vs hyp {hyp.recording_id!r}"
        )
    check_collar(collar_s)
    ref_lo, ref_hi = _spans([seg for seg, _ in ref.turns])
    hyp_lo, hyp_hi = _spans([seg for seg, _ in hyp.turns])
    uem_lo, uem_hi = _spans(uem or [])
    n = int(np.max(np.concatenate([ref_hi, hyp_hi, uem_hi]), initial=0))
    if n == 0:
        raise InputError("nothing to score: reference and hypothesis are empty")
    half = int(_frame_index(collar_s))
    centres = np.concatenate([ref_lo, ref_hi])
    collar_lo = np.maximum(centres - half, 0)
    collar_hi = np.minimum(centres + half, n)

    points = np.sort(np.concatenate(
        [[0, n], ref_lo, ref_hi, hyp_lo, hyp_hi, uem_lo, uem_hi, collar_lo, collar_hi]
    ))
    # Drop repeats by sort and compare; with numpy 2.4 the first call of
    # np.unique alone grows the process by about 1.5 MB.
    points = points[np.diff(points, prepend=-1) > 0]
    ref_names, ref_owner = _speakers(ref)
    hyp_names, hyp_owner = _speakers(hyp)
    ref_on = _cover(points, ref_lo, ref_hi, ref_owner, len(ref_names))
    hyp_on = _cover(points, hyp_lo, hyp_hi, hyp_owner, len(hyp_names))

    scored = ~_cover(points, collar_lo, collar_hi)[0]
    if uem is not None:
        scored &= _cover(points, uem_lo, uem_hi)[0]
    keep = np.flatnonzero(scored)
    ref_on, hyp_on = ref_on[:, keep], hyp_on[:, keep]
    length = np.diff(points)[keep]

    n_ref = ref_on.sum(axis=0)
    n_hyp = hyp_on.sum(axis=0)
    total_ref = int(n_ref @ length)
    if total_ref == 0:
        raise InputError("reference has no scored speaker time")
    overlap = (ref_on * length) @ hyp_on.T.astype(np.int64)
    pairs = _assign(overlap)
    matched = sum(int(overlap[r, h]) for r, h in pairs)
    miss = int(np.maximum(n_ref - n_hyp, 0) @ length)
    false_alarm = int(np.maximum(n_hyp - n_ref, 0) @ length)
    confusion = int(np.minimum(n_ref, n_hyp) @ length) - matched

    return DerReport(
        der=(miss + false_alarm + confusion) / total_ref,
        miss=miss / total_ref,
        false_alarm=false_alarm / total_ref,
        confusion=confusion / total_ref,
        total_ref_s=total_ref * FRAME_S,
        mapping={hyp_names[h]: ref_names[r] for r, h in pairs},
    )
