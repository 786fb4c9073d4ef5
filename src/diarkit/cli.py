"""Command-line entry points.

Subcommands:
  partition  classify recordings as CTS/NCTS
  vad        emit speech regions for recordings
  diarize    run the full pipeline to RTTM (+ JSON-lines report)
  tsvad      resume detection rounds from an existing RTTM
  score      DER of hypothesis RTTM against reference (optionally UEM-limited)
  synth      generate tone-coded conversations with references

Exit codes: 0 on success, 2 when any per-file step failed or the run could
not start (a missing config, weight or score input, a wav-less directory);
the latter prints one `diarkit <command>: error: <reason>` line to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .audio import read_wav, resample_to_8k, write_wav
from .config import PipelineConfig, load_config, parse_file, save_config
from .errors import ConfigError, DiarkitError, EmptyInputError, InputError, ParameterError
from .metrics import (
    check_collar,
    check_rttm_field,
    compute_der,
    emit_rttm,
    parse_rttm,
    parse_uem,
    turns_to_diarization,
)
from .partition import classify_bandwidth
from .pipeline import (
    TASK1,
    TASK2,
    Components,
    atomic_write,
    build_net_components,
    build_net_vad,
    build_stub_components,
    run_pipeline,
    speech_regions_for,
)
from .stubs import reference_speech
from .synth import SynthSpec, gen_audio_conversation
from .tsvad import run_rounds
from .vad import read_vad_file, write_vad_file


def _wav_inputs(path_args: list[str]) -> list[Path]:
    """The files named, and each directory's `*.wav` files; a directory with none is an error."""
    paths: list[Path] = []
    for arg in path_args:
        p = Path(arg)
        if p.is_dir():
            wavs = sorted(p.glob("*.wav"))
            if not wavs:
                raise EmptyInputError(f"{p}: no .wav files")
            paths.extend(wavs)
        else:
            paths.append(p)
    return paths


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    keys = ("seed", "workers", "max_rounds", "similarity")
    return cfg.override(**{key: getattr(args, key, None) for key in keys})


def _components(args, cfg: PipelineConfig):
    if getattr(args, "stub_embeddings", False):
        return build_stub_components(cfg)
    return build_net_components(cfg)


def cmd_partition(args) -> int:
    cfg = _load_cfg(args)
    failed = False
    for path in _wav_inputs(args.inputs):
        try:
            # The class is decided from the first horizon seconds alone.
            buf = read_wav(path, cfg.bandwidth_horizon_s)
            cls = classify_bandwidth(buf, cfg.bandwidth_threshold, cfg.bandwidth_horizon_s)
            print(f"{path.stem}\t{cls.value}\t{cls.peak_above_4k:.6f}")
        except DiarkitError as exc:
            print(f"{path.stem}\tERROR\t{exc}", file=sys.stderr)
            failed = True
    return 2 if failed else 0


def cmd_vad(args) -> int:
    cfg = _load_cfg(args)
    if args.stub_embeddings:
        components = build_stub_components()
    elif cfg.vad_weights:
        # VAD reads only the VAD net; the other weight files are not needed.
        components = Components(None, None, build_net_vad(cfg))
    else:
        raise ConfigError("vad needs vad_weights without --stub-embeddings")
    failed = False
    for path in _wav_inputs(args.inputs):
        try:
            check_rttm_field(path.stem)  # the id starts each printed line
            segs = speech_regions_for(read_wav(path), TASK2, None, components, cfg)
            for seg in segs:
                print(f"{path.stem} {seg.start_s:.3f} {seg.end_s:.3f}")
        except DiarkitError as exc:
            print(f"{path.stem} ERROR {exc}", file=sys.stderr)
            failed = True
    return 2 if failed else 0


def cmd_diarize(args) -> int:
    cfg = _load_cfg(args)
    components = _components(args, cfg)
    inputs = _wav_inputs(args.inputs)
    vad_paths = {}
    if args.vad_dir:
        for wav in inputs:
            candidate = Path(args.vad_dir) / f"{wav.stem}.vad"
            if candidate.exists():
                vad_paths[wav.stem] = candidate
    report = args.report or str(Path(args.out_dir) / "report.jsonl")
    results = run_pipeline(inputs, args.out_dir, args.mode, components, cfg, vad_paths, report)
    for r in results:
        line = f"{r.file_id}\t{r.status}\t{r.bandwidth}"
        if r.status == "ok":
            line += f"\tspeakers={r.n_speakers}\trounds={r.rounds}"
        else:
            line += f"\t{r.error}"
        print(line)
    return 2 if any(r.status != "ok" for r in results) else 0


def cmd_tsvad(args) -> int:
    cfg = _load_cfg(args)
    components = _components(args, cfg)
    file_id = Path(args.audio).stem
    try:
        check_rttm_field(file_id)  # before the read: the id names the RTTM's lines
        buf = resample_to_8k(read_wav(args.audio))
        diar = turns_to_diarization(parse_file(args.rttm, parse_rttm), file_id)
        if not diar.turns:
            raise DiarkitError(f"no turns for {file_id} in {args.rttm}")
        speech = read_vad_file(args.vad) if args.vad else [seg for seg, _ in diar.turns]
        result = run_rounds(
            buf, diar.per_speaker(), components.tsvad_net, components.embedder, speech, cfg, file_id
        )
        out_path = Path(args.out) if args.out else Path(f"{file_id}.tsvad.rttm")
        atomic_write(out_path, emit_rttm(result.diarization))
    except (DiarkitError, OSError) as exc:
        print(f"{file_id}\tERROR\t{exc}", file=sys.stderr)
        return 2
    status = "stopped" if result.warning else "converged" if result.converged else "round-limit"
    print(f"{file_id}\trounds={result.rounds}\t{status}\t{out_path}")
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    check_collar(args.collar)
    ref_turns = parse_file(args.ref, parse_rttm)
    hyp_turns = parse_file(args.hyp, parse_rttm)
    uem = parse_file(args.uem, parse_uem) if args.uem else {}
    if not ref_turns and not hyp_turns:
        raise EmptyInputError(f"no SPEAKER lines in {args.ref} or {args.hyp}")
    totals = {"err": 0.0, "ref": 0.0}
    failed = False
    for file_id in dict.fromkeys([*ref_turns, *hyp_turns]):
        ref = turns_to_diarization(ref_turns, file_id)
        hyp = turns_to_diarization(hyp_turns, file_id)
        try:
            if args.uem and file_id not in uem:
                raise InputError(f"UEM has no entry for {file_id}")
            report = compute_der(ref, hyp, collar_s=args.collar, uem=uem.get(file_id))
        except DiarkitError as exc:
            print(f"{file_id}: ERROR {exc}", file=sys.stderr)
            failed = True
            continue
        totals["err"] += report.der * report.total_ref_s
        totals["ref"] += report.total_ref_s
        print(
            f"{file_id}: DER {100 * report.der:.2f}% "
            f"(miss {100 * report.miss:.2f}%, fa {100 * report.false_alarm:.2f}%, "
            f"conf {100 * report.confusion:.2f}%)"
        )
    if totals["ref"] > 0:
        print(f"OVERALL: DER {100 * totals['err'] / totals['ref']:.2f}%")
    return 2 if failed else 0


def cmd_synth(args) -> int:
    if args.count < 1:
        raise ParameterError(f"--count must be >= 1, got {args.count}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        spec = SynthSpec(
            n_speakers=args.speakers,
            duration_s=args.duration,
            overlap_fraction=args.overlap,
            noise_sigma=args.noise,
            seed=args.seed + i,
        )
        file_id = f"synth{args.seed + i:04d}"
        buf, ref = gen_audio_conversation(spec, recording_id=file_id)
        write_wav(out / f"{file_id}.wav", buf)
        (out / f"{file_id}.rttm").write_text(emit_rttm(ref), encoding="utf-8")
        write_vad_file(out / f"{file_id}.vad", reference_speech(ref.turns))
        print(f"{file_id}: {len(ref.turns)} turns, {args.speakers} speakers")
    return 0


def cmd_config(args) -> int:
    save_config(PipelineConfig(), args.out)
    print(f"wrote defaults to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diarkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, models=True):
        p.add_argument("--config", help="key=value config file")
        if models:
            p.add_argument(
                "--stub-embeddings", action="store_true",
                help="use spectral stubs instead of trained weights",
            )

    p = sub.add_parser("partition", help="classify recordings as CTS/NCTS")
    p.add_argument("inputs", nargs="+", help="wav files or directories")
    common(p, models=False)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("vad", help="emit speech regions")
    p.add_argument("inputs", nargs="+")
    common(p)
    p.set_defaults(func=cmd_vad)

    p = sub.add_parser("diarize", help="run the full pipeline")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=[TASK1, TASK2], default=TASK2)
    p.add_argument("--vad-dir", help="directory of <file-id>.vad files (task1)")
    p.add_argument("--report", help="JSON-lines report path (default: out-dir/report.jsonl)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
    p.add_argument("--similarity", choices=["cosine", "v2s"], default=None)
    p.add_argument("--seed", type=int, default=None, help="spectral clustering seed")
    common(p)
    p.set_defaults(func=cmd_diarize)

    p = sub.add_parser("tsvad", help="resume detection rounds from an RTTM")
    p.add_argument("--audio", required=True)
    p.add_argument("--rttm", required=True, help="initial per-speaker regions")
    p.add_argument("--vad", help="speech-region file; defaults to the RTTM union")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_tsvad)

    p = sub.add_parser("score", help="DER against a reference RTTM")
    p.add_argument("ref")
    p.add_argument("hyp")
    p.add_argument("--uem")
    p.add_argument("--collar", type=float, default=0.0)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate tone-coded conversations")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--speakers", type=int, default=2)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("config", help="write a defaults config file")
    p.add_argument("--out", default="diarkit.cfg")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DiarkitError, OSError) as exc:
        print(f"diarkit {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
