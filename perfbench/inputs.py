"""Seeded input generation for the benchmark workloads.

Everything a workload feeds the program is made here and written to files:
16-bit WAVs, speech-region (`.vad`) files, reference and hypothesis RTTMs,
UEMs and weight files. The audio and RTTM generators are the benchmark's
own, so a change to `diarkit.synth` cannot change the inputs; only the
weight files come from `diarkit.models.init_*`, because their names and
shapes are the program's.

Run as a script it writes one workload's inputs and a `manifest.json`:

    python3 perfbench/inputs.py --workload stub-score --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
# Per-speaker partial pairs in Hz, disjoint across speakers and all below
# 4 kHz, so a recording reads as narrowband unless broadband noise is added.
PARTIALS = [(300.0 + 400.0 * k, 500.0 + 400.0 * k) for k in range(8)]
TONE_AMPLITUDE = 0.3
RAMP_S = 0.005

# Workload shapes. The seed picks turn layouts, noise and jitter; the sizes
# below stay fixed so the work per run barely depends on the seed. They are
# small enough that one pass over a workload takes a few seconds, so a run
# times each operation many times.
CTS_LENGTHS_S = (60.0, 120.0, 180.0)
CTS_NOISE = 0.01  # keeps the energy VAD's quiet frames below its threshold
NCTS_SPEAKERS = (3, 5, 8)
NCTS_LENGTH_S = 60.0  # turns of 2-3 s keep the segment count, and the
# eigensolve's cubic cost, nearly the same on every seed
NCTS_NOISE = 0.4  # lifts the above-4 kHz STFT peak over the 0.07 threshold
SCORE_SPEAKERS = (2, 8)
SCORE_LENGTH_S = 3600.0
SCORE_COLLAR_S = 0.25
NET_WEIGHTS_SEED = 0


def _turns(rng, n_speakers, duration_s, turn_s, gap_s, overlap_p):
    """Conversation turns as (start, end, speaker); consecutive turns change
    speaker, and an overlapped turn starts inside its predecessor but never
    inside the same speaker's previous turn."""
    turns = []
    last_end = [0.0] * n_speakers
    cursor = 0.0
    prev = -1
    while True:
        if len(turns) < n_speakers:
            spk = len(turns)
        else:
            spk = int(rng.choice([s for s in range(n_speakers) if s != prev]))
        length = float(rng.uniform(*turn_s))
        start = cursor + float(rng.uniform(*gap_s))
        if turns and rng.random() < overlap_p:
            p_start, p_end, _ = turns[-1]
            back = float(rng.uniform(0.2, 0.5)) * min(p_end - p_start, length)
            start = max(p_start + 0.1, cursor - back)
        start = max(start, last_end[spk] + 0.05)
        end = start + length
        if end > duration_s:
            return turns
        turns.append((round(start, 3), round(end, 3), spk))
        last_end[spk] = end
        cursor = max(cursor, end)
        prev = spk


def _audio(rng, turns, duration_s, noise):
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    out = np.zeros(n)
    ramp = int(RAMP_S * SAMPLE_RATE)
    for start, end, spk in turns:
        lo, hi = int(round(start * SAMPLE_RATE)), min(int(round(end * SAMPLE_RATE)), n)
        env = np.ones(hi - lo)
        fade = np.linspace(0.0, 1.0, ramp)
        env[:ramp], env[-ramp:] = fade, fade[::-1]
        f1, f2 = PARTIALS[spk]
        tone = 0.6 * np.sin(2 * np.pi * f1 * t[lo:hi]) + 0.4 * np.sin(2 * np.pi * f2 * t[lo:hi])
        out[lo:hi] += TONE_AMPLITUDE * env * tone
    out += rng.normal(0.0, noise, n)
    return np.clip(out, -1.0, 1.0)


def write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def rttm_text(file_id: str, turns, prefix: str = "spk") -> str:
    return "".join(
        f"SPEAKER {file_id} 1 {s:.3f} {e - s:.3f} <NA> <NA> {prefix}{k} <NA> <NA>\n"
        for s, e, k in sorted(turns)
    )


def speech_regions(turns):
    """Union of the turns: the oracle speech regions for task-1 runs."""
    out = []
    for s, e, _ in sorted(turns):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out


def _recording(out: Path, rec_id: str, rng, turns, duration_s, noise):
    write_wav(out / f"{rec_id}.wav", _audio(rng, turns, duration_s, noise))
    (out / f"{rec_id}.rttm").write_text(rttm_text(rec_id, turns), encoding="utf-8")
    (out / f"{rec_id}.vad").write_text(
        "".join(f"{s:.3f} {e:.3f}\n" for s, e in speech_regions(turns)), encoding="utf-8"
    )
    return {
        "id": rec_id,
        "wav": f"{rec_id}.wav",
        "vad": f"{rec_id}.vad",
        "ref": f"{rec_id}.rttm",
        "audio_s": duration_s,
        "n_speakers": len({k for _, _, k in turns}),
    }


def gen_stub(out: Path, rng):
    """Narrowband 2-speaker calls in task 2, then wideband talks with more
    speakers in task 1 with the reference speech regions."""
    calls = [
        dict(
            _recording(out, f"cts{i}", rng, _turns(rng, 2, length, (1.5, 4.0), (0.1, 0.4), 0.3),
                       length, CTS_NOISE),
            mode="task2",
        )
        for i, length in enumerate(CTS_LENGTHS_S)
    ]
    talks = [
        dict(
            _recording(out, f"ncts{n}", rng, _turns(rng, n, NCTS_LENGTH_S, (2.0, 3.0), (0.1, 0.3), 0.0),
                       NCTS_LENGTH_S, NCTS_NOISE),
            mode="task1",
        )
        for n in NCTS_SPEAKERS
    ]
    return {"recordings": calls + talks}


def gen_net(out: Path, rng):
    """Three short recordings in fixed turn layouts, plus weight files.

    The seed draws the noise, so every audio sample changes with it. The
    weights and layouts stay fixed: with weights drawn per seed, the random
    detector ran anywhere from 1 to 4 rounds, and the run time with it.
    """
    from diarkit.models import (
        V2sScorer,
        init_embed_weights,
        init_tsvad_weights,
        init_vad_weights,
    )
    from diarkit.weights import save_weights

    stores = {
        "vad": init_vad_weights(NET_WEIGHTS_SEED),
        "embed": init_embed_weights(NET_WEIGHTS_SEED),
        "tsvad": init_tsvad_weights(NET_WEIGHTS_SEED),
        "v2s": V2sScorer.init(NET_WEIGHTS_SEED).to_store(),
    }
    weights = {}
    for name, store in stores.items():
        save_weights(store, out / f"{name}.nnw")
        weights[name] = f"{name}.nnw"
    # Alternating turns without overlap, so the spectral stub finds two
    # clusters and the detector runs.
    nb_turns = [(0.10, 0.65, 0), (0.80, 1.35, 1), (1.50, 1.95, 0), (2.05, 2.35, 1)]
    wb_turns = [(0.10, 2.00, 0), (2.15, 2.95, 1), (3.05, 3.55, 2)]
    v2s_turns = _turns(np.random.default_rng(NET_WEIGHTS_SEED), 4, 12.0, (1.5, 3.0), (0.1, 0.3), 0.0)
    nb = _recording(out, "net-nb", rng, nb_turns, 2.4, CTS_NOISE)
    wb = _recording(out, "net-wb", rng, wb_turns, 3.6, NCTS_NOISE)
    v2s = _recording(out, "net-v2s", rng, v2s_turns, 12.0, NCTS_NOISE)
    return {
        "weights": weights,
        "recordings": [
            dict(nb, mode="task1", embedder="stub", similarity="cosine"),
            dict(wb, mode="task1", embedder="net", similarity="cosine"),
            dict(v2s, mode="task1", embedder="stub", similarity="v2s"),
        ],
    }


def hypothesis_turns(rng, turns, n_speakers, duration_s):
    """A system-like hypothesis: jittered boundaries, relabelled speakers,
    4 % of the turns dropped and 3 % as many false turns added."""
    relabel = rng.permutation(n_speakers)
    dropped = set(rng.choice(len(turns), size=round(0.04 * len(turns)), replace=False).tolist())
    hyp = []
    for i, (s, e, k) in enumerate(turns):
        if i in dropped:
            continue
        s2 = max(0.0, s + float(rng.normal(0.0, 0.15)))
        e2 = min(duration_s, e + float(rng.normal(0.0, 0.15)))
        if e2 - s2 >= 0.05:
            hyp.append((round(s2, 3), round(e2, 3), int(relabel[k])))
    for _ in range(round(0.03 * len(turns))):
        s = float(rng.uniform(0.0, duration_s - 3.0))
        hyp.append((round(s, 3), round(s + float(rng.uniform(0.3, 2.0)), 3), int(rng.integers(n_speakers))))
    return hyp


def gen_score(out: Path, rng):
    pairs = []
    for n in SCORE_SPEAKERS:
        rec_id = f"long{n}"
        turns = _turns(rng, n, SCORE_LENGTH_S, (1.0, 6.0), (0.0, 0.8), 0.15)
        hyp = hypothesis_turns(rng, turns, n, SCORE_LENGTH_S)
        (out / f"{rec_id}.ref.rttm").write_text(rttm_text(rec_id, turns), encoding="utf-8")
        (out / f"{rec_id}.hyp.rttm").write_text(rttm_text(rec_id, hyp, prefix="h"), encoding="utf-8")
        cut = float(rng.uniform(1200.0, 2400.0))
        uem = [(30.0, cut), (cut + 60.0, SCORE_LENGTH_S - 30.0)]
        (out / f"{rec_id}.uem").write_text(
            "".join(f"{rec_id} 1 {s:.3f} {e:.3f}\n" for s, e in uem), encoding="utf-8"
        )
        pairs.append(
            {
                "id": rec_id,
                "ref": f"{rec_id}.ref.rttm",
                "hyp": f"{rec_id}.hyp.rttm",
                "uem": f"{rec_id}.uem",
                "audio_s": SCORE_LENGTH_S,
                "n_speakers": n,
            }
        )
    return {"pairs": pairs, "collar_s": SCORE_COLLAR_S}


WORKLOADS = ("stub-score", "net-random")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into `out`; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    # One stream per workload: the same seed gives the same bytes.
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "stub-score":
        manifest = dict(gen_stub(out, rng), **gen_score(out, rng))
    else:
        manifest = gen_net(out, rng)
    manifest.update(workload=workload, seed=seed)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
