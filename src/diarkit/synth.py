"""Synthetic conversations with exact references: embedding streams for
clustering tests and tone-coded audio for end-to-end runs.

Each synthetic speaker is a fixed pair of partial tones (all below 4 kHz, so
the audio classifies as narrowband), which lets a spectral stub stand in for
the embedding network without any trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer
from .errors import ParameterError
from .models import EMBED_DIM
from .segments import Diarization, Segment
from .segmenter import EmbeddedSegment

# Per-speaker partial frequencies in Hz; disjoint across speakers and all
# below 4 kHz so the bandwidth classifier reads the audio as telephone-band.
SPEAKER_PARTIALS = [(300.0 + 400.0 * k, 500.0 + 400.0 * k) for k in range(8)]
TONE_AMPLITUDE = 0.3
EDGE_RAMP_S = 0.005


@dataclass
class SynthSpec:
    """Parameters of a generated conversation."""

    n_speakers: int = 2
    duration_s: float = 60.0
    overlap_fraction: float = 0.0  # probability a turn overlaps its predecessor
    turn_min_s: float = 1.5
    turn_max_s: float = 4.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 1:
            raise ParameterError("need at least one speaker")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ParameterError("overlap_fraction must lie in [0, 1)")
        # Comparisons with NaN are false, so NaN fails each of these too.
        if not (0 < self.duration_s < np.inf and 0 < self.turn_min_s <= self.turn_max_s < np.inf):
            raise ParameterError("invalid duration/turn-length parameters")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ParameterError("noise_sigma must be finite and non-negative")


@dataclass
class EmbeddingStream:
    segments: list[EmbeddedSegment]
    labels: list[int]
    reference: Diarization
    prototypes: np.ndarray = field(repr=False, default=None)


def _gen_turns(spec: SynthSpec, rng: np.random.Generator) -> list[tuple[Segment, int]]:
    """Alternating-speaker turns; overlapped turns start inside the previous
    one, never far enough back to overlap the same speaker's earlier turn."""
    turns: list[tuple[Segment, int]] = []
    cursor = 0.0
    prev_speaker = -1
    last_end = [0.0] * spec.n_speakers
    while True:
        if len(turns) < spec.n_speakers:
            speaker = len(turns)  # make sure every speaker appears early
        else:
            choices = [s for s in range(spec.n_speakers) if s != prev_speaker]
            speaker = int(rng.choice(choices)) if choices else 0
        length = float(rng.uniform(spec.turn_min_s, spec.turn_max_s))
        start = cursor + float(rng.uniform(0.1, 0.4))
        if turns and spec.overlap_fraction > 0 and rng.random() < spec.overlap_fraction:
            prev_seg, _ = turns[-1]
            max_back = min(1.2, 0.6 * prev_seg.duration, 0.6 * length)
            start = max(prev_seg.start_s + 0.1, cursor - float(rng.uniform(0.4, max(0.41, max_back))))
        start = max(start, last_end[speaker] + 0.01)  # same-speaker turns stay disjoint
        end = start + length
        if end > spec.duration_s:
            break
        turns.append((Segment(start, end), speaker))
        cursor = max(cursor, end)
        last_end[speaker] = end
        prev_speaker = speaker
    if not turns:
        # Degenerate spec (duration shorter than one turn): one truncated turn.
        end = min(spec.duration_s, spec.turn_min_s)
        turns.append((Segment(0.0, end), 0))
    return turns


def _reference(turns: list[tuple[Segment, int]], recording_id: str) -> Diarization:
    return Diarization(recording_id, [(seg, f"spk{s}") for seg, s in turns])


def orthonormal_prototypes(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, n)))
    return (q * np.sign(np.diagonal(r))).T


def gen_embedding_stream(spec: SynthSpec, recording_id: str = "synth") -> EmbeddingStream:
    """Embedding segments around orthonormal speaker prototypes plus noise."""
    if spec.n_speakers > EMBED_DIM:
        raise ParameterError(f"at most {EMBED_DIM} orthonormal speakers")
    rng = np.random.default_rng(spec.seed)
    turns = _gen_turns(spec, rng)
    prototypes = orthonormal_prototypes(spec.n_speakers, EMBED_DIM, rng)
    segments: list[EmbeddedSegment] = []
    labels: list[int] = []
    chunk = 1.5
    for seg, speaker in turns:
        starts = [seg.start_s + i * chunk for i in range(max(1, int(seg.duration // chunk)))]
        for i, start in enumerate(starts):
            end = seg.end_s if i == len(starts) - 1 else start + chunk
            emb = prototypes[speaker] + rng.normal(0.0, spec.noise_sigma, EMBED_DIM)
            segments.append(EmbeddedSegment(Segment(start, end), emb))
            labels.append(speaker)
    return EmbeddingStream(segments, labels, _reference(turns, recording_id), prototypes)


def speaker_tone(speaker: int, t: np.ndarray) -> np.ndarray:
    """The speaker's two-partial waveform at unit activity."""
    f1, f2 = SPEAKER_PARTIALS[speaker]
    return 0.6 * np.sin(2 * np.pi * f1 * t) + 0.4 * np.sin(2 * np.pi * f2 * t)


def gen_audio_conversation(
    spec: SynthSpec, sample_rate: int = 16000, recording_id: str = "synth"
) -> tuple[AudioBuffer, Diarization]:
    """Tone-coded conversation audio plus its exact reference diarization."""
    if spec.n_speakers > len(SPEAKER_PARTIALS):
        raise ParameterError(f"at most {len(SPEAKER_PARTIALS)} tone-coded speakers")
    rng = np.random.default_rng(spec.seed)
    turns = _gen_turns(spec, rng)
    n = int(round(spec.duration_s * sample_rate))
    ramp_n = max(1, int(EDGE_RAMP_S * sample_rate))
    audio = np.zeros(n)
    for seg, speaker in turns:
        lo = int(round(seg.start_s * sample_rate))
        hi = min(int(round(seg.end_s * sample_rate)), n)
        envelope = np.ones(hi - lo)
        edge = min(ramp_n, (hi - lo) // 2)
        if edge > 0:
            fade = np.linspace(0.0, 1.0, edge)
            envelope[:edge] = fade
            envelope[-edge:] = fade[::-1]
        t = np.arange(lo, hi) / sample_rate
        audio[lo:hi] += TONE_AMPLITUDE * envelope * speaker_tone(speaker, t)
    if spec.noise_sigma > 0:
        audio += rng.normal(0.0, spec.noise_sigma, n)
    np.clip(audio, -1.0, 1.0, out=audio)
    return AudioBuffer(audio, sample_rate), _reference(turns, recording_id)


def overlap_time(diar: Diarization, grid_s: float = 0.001) -> float:
    """Seconds during which two or more speakers are active."""
    end = max((seg.end_s for seg, _ in diar.turns), default=0.0)
    n = int(round(end / grid_s))
    count = np.zeros(n, dtype=np.int32)
    for seg, _ in diar.turns:
        count[int(round(seg.start_s / grid_s)) : int(round(seg.end_s / grid_s))] += 1
    return float(np.sum(count >= 2) * grid_s)
