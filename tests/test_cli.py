"""CLI subcommands, pipeline orchestration, and batch behavior."""

import json

import numpy as np
import pytest

from diarkit.cli import build_parser, main
from diarkit.config import PipelineConfig
from diarkit.metrics import compute_der, emit_rttm, parse_rttm, turns_to_diarization
from diarkit.models import (
    EmbedNet,
    V2sScorer,
    init_embed_weights,
    init_tsvad_weights,
    init_vad_weights,
)
from diarkit.pipeline import TASK1, Components, build_stub_components, run_pipeline
from diarkit.audio import AudioBuffer, write_wav
from diarkit.segments import Diarization, Segment
from diarkit.stubs import SpectralTsvad, reference_speech
from diarkit.synth import SynthSpec, gen_audio_conversation
from diarkit.vad import write_vad_file
from diarkit.weights import WeightStore, load_weights, save_weights


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "synth", "--out-dir", str(out), "--count", "2", "--duration", "25",
            "--overlap", "0.3", "--seed", "3",
        ]
    )
    assert code == 0
    return out


@pytest.mark.parametrize(
    "argv",
    [["partition", "a.wav"], ["vad", "a.wav"], ["tsvad", "--audio", "a.wav", "--rttm", "a.rttm"]],
)
def test_seed_is_only_a_diarize_option(argv):
    _, unknown = build_parser().parse_known_args([*argv, "--seed", "1"])
    assert unknown == ["--seed", "1"]
    assert build_parser().parse_args(["diarize", "a.wav", "--out-dir", "o", "--seed", "1"]).seed == 1


class TestSynthCommand:
    def test_writes_triplets(self, synth_dir):
        for seed in (3, 4):
            assert (synth_dir / f"synth{seed:04d}.wav").exists()
            assert (synth_dir / f"synth{seed:04d}.rttm").exists()
            assert (synth_dir / f"synth{seed:04d}.vad").exists()

    def test_reference_parses(self, synth_dir):
        turns = parse_rttm((synth_dir / "synth0003.rttm").read_text())
        assert list(turns) == ["synth0003"]
        assert len(turns["synth0003"]) > 0
        assert {spk for _, spk in turns["synth0003"]} == {"spk0", "spk1"}


class TestPartitionCommand:
    def test_tsv_output(self, synth_dir, capsys):
        assert main(["partition", str(synth_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            file_id, cls, peak = line.split("\t")
            assert cls == "CTS"
            float(peak)

    def test_8k_wav_is_narrowband(self, tmp_path, capsys):
        # As in `diarize`: 8 kHz input is CTS, with no energy above 4 kHz.
        rng = np.random.default_rng(0)
        write_wav(tmp_path / "call8k.wav", AudioBuffer(rng.normal(scale=0.3, size=8000), 8000))
        assert main(["partition", str(tmp_path / "call8k.wav")]) == 0
        captured = capsys.readouterr()
        assert captured.out == "call8k\tCTS\t0.000000\n"
        assert captured.err == ""


class TestDiarizeCommand:
    def test_task1_stub_end_to_end(self, synth_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            [
                "diarize", str(synth_dir), "--out-dir", str(out_dir),
                "--mode", "task1", "--vad-dir", str(synth_dir), "--stub-embeddings",
            ]
        )
        assert code == 0
        report_lines = (out_dir / "report.jsonl").read_text().strip().splitlines()
        assert len(report_lines) == 2
        for line in report_lines:
            entry = json.loads(line)
            assert entry["status"] == "ok"
            assert entry["bandwidth"] == "CTS"
            assert set(entry["timing"]) == {"read", "partition", "vad", "resample", "diarize"}
            assert entry["n_speakers"] == 2
            assert entry["rounds"] >= 1
            hyp = turns_to_diarization(
                parse_rttm((out_dir / f"{entry['file_id']}.rttm").read_text()),
                entry["file_id"],
            )
            ref = turns_to_diarization(
                parse_rttm((synth_dir / f"{entry['file_id']}.rttm").read_text()),
                entry["file_id"],
            )
            assert compute_der(ref, hyp).der < 0.05

    def test_byte_identical_reruns(self, synth_dir, tmp_path):
        outs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            assert main(
                [
                    "diarize", str(synth_dir), "--out-dir", str(out_dir),
                    "--mode", "task1", "--vad-dir", str(synth_dir), "--stub-embeddings",
                ]
            ) == 0
            outs.append(
                b"".join(
                    (out_dir / f"synth{s:04d}.rttm").read_bytes() for s in (3, 4)
                )
            )
        assert outs[0] == outs[1]

    def test_task_modes_agree_given_same_masks(self, synth_dir, tmp_path):
        # task2 (stub energy VAD) vs task1 fed that same VAD's output.
        from diarkit.stubs import EnergyVad
        from diarkit.vad import binarize, write_vad_file
        from diarkit.audio import read_wav

        vad_dir = tmp_path / "vad"
        vad_dir.mkdir()
        for wav in sorted(synth_dir.glob("*.wav")):
            mask = EnergyVad()(read_wav(wav))
            write_vad_file(vad_dir / f"{wav.stem}.vad", binarize(mask))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["diarize", str(synth_dir), "--out-dir", str(out1), "--mode", "task2",
              "--stub-embeddings"])
        main(["diarize", str(synth_dir), "--out-dir", str(out2), "--mode", "task1",
              "--vad-dir", str(vad_dir), "--stub-embeddings"])
        for s in (3, 4):
            name = f"synth{s:04d}.rttm"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_empty_input_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out_dir = tmp_path / "out"
        code = main(
            ["diarize", str(empty), "--out-dir", str(out_dir), "--stub-embeddings"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"diarkit diarize: error: {empty}: no .wav files\n"
        assert not out_dir.exists()

    def test_file_id_with_whitespace_is_an_error(self, synth_dir, tmp_path, capsys):
        # "my call" would be written as two RTTM fields, and read back as
        # file id "my" with every turn wrong.
        data, out = tmp_path / "sp", tmp_path / "outsp"
        data.mkdir()
        (data / "my call.wav").write_bytes((synth_dir / "synth0003.wav").read_bytes())
        (data / "my call.vad").write_bytes((synth_dir / "synth0003.vad").read_bytes())
        code = main(
            [
                "diarize", str(data / "my call.wav"), "--out-dir", str(out),
                "--mode", "task1", "--vad-dir", str(data), "--stub-embeddings",
            ]
        )
        assert code == 2
        # The id is checked before the recording is read, so no bandwidth.
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("my call\terror\t\tFormatError: ") and "'my call'" in line
        assert sorted(p.name for p in out.iterdir()) == ["report.jsonl"]
        [entry] = [json.loads(x) for x in (out / "report.jsonl").read_text().splitlines()]
        assert (entry["status"], entry["rttm_path"]) == ("error", "")
        assert "read" not in entry["timing"]

        code = main(
            [
                "tsvad", "--audio", str(data / "my call.wav"),
                "--rttm", str(synth_dir / "synth0003.rttm"), "--stub-embeddings",
                "--out", str(tmp_path / "resumed.rttm"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("my call\tERROR\t")

    def test_failed_stage_has_no_timing(self, synth_dir, tmp_path):
        # Task 1 without a VAD file fails in the VAD stage; the stages before it keep their times.
        [result] = run_pipeline(
            [synth_dir / "synth0003.wav"], tmp_path / "out", TASK1,
            build_stub_components(), PipelineConfig(),
        )
        assert result.status == "error" and "external VAD file" in result.error
        assert sorted(result.timing) == ["partition", "read"]

    def test_report_into_a_new_directory(self, synth_dir, tmp_path, capsys):
        report = tmp_path / "nodir" / "sub" / "report.jsonl"
        code = main(
            [
                "diarize", str(synth_dir), "--out-dir", str(tmp_path / "out"),
                "--mode", "task1", "--vad-dir", str(synth_dir), "--stub-embeddings",
                "--report", str(report),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:2] for line in lines] == [["synth0003", "ok"], ["synth0004", "ok"]]
        entries = [json.loads(line) for line in report.read_text().splitlines()]
        assert [(e["file_id"], e["status"]) for e in entries] == [
            ("synth0003", "ok"), ("synth0004", "ok"),
        ]

    def test_per_file_failure_isolation(self, synth_dir, tmp_path):
        bad = synth_dir / "broken.wav"
        bad.write_bytes(b"RIFFgarbage")
        out_dir = tmp_path / "out"
        code = main(
            [
                "diarize", str(synth_dir), "--out-dir", str(out_dir),
                "--mode", "task1", "--vad-dir", str(synth_dir), "--stub-embeddings",
            ]
        )
        assert code == 2
        entries = [
            json.loads(line)
            for line in (out_dir / "report.jsonl").read_text().strip().splitlines()
        ]
        by_status = {e["file_id"]: e["status"] for e in entries}
        assert by_status["broken"] == "error"
        assert by_status["synth0003"] == "ok"
        assert (out_dir / "synth0003.rttm").exists()
        assert not (out_dir / "broken.rttm").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_duplicate_file_id_keeps_the_first(self, synth_dir, tmp_path, capsys, workers):
        # Two different calls, both named a.wav, would write one a.rttm.
        first, second = tmp_path / "d1" / "a.wav", tmp_path / "d2" / "a.wav"
        for wav, seed in ((first, 3), (second, 4)):
            wav.parent.mkdir()
            wav.write_bytes((synth_dir / f"synth{seed:04d}.wav").read_bytes())
        alone, dup = tmp_path / "alone", tmp_path / "dup"
        assert main(["diarize", str(first), "--out-dir", str(alone), "--stub-embeddings"]) == 0
        code = main(
            [
                "diarize", str(first), str(second), "--out-dir", str(dup),
                "--stub-embeddings", "--workers", workers,
            ]
        )
        assert code == 2
        entries = [json.loads(line) for line in (dup / "report.jsonl").read_text().splitlines()]
        assert [(e["file_id"], e["status"]) for e in entries] == [("a", "ok"), ("a", "error")]
        assert str(first) in entries[1]["error"] and str(second) in entries[1]["error"]
        assert entries[1]["rttm_path"] == ""
        assert sorted(p.name for p in dup.iterdir()) == ["a.rttm", "report.jsonl"]
        assert (dup / "a.rttm").read_bytes() == (alone / "a.rttm").read_bytes()
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines[-2:]] == ["ok", "error"]

    def test_missing_weights_without_stub_is_config_error(self, synth_dir, tmp_path, capsys):
        assert main(["diarize", str(synth_dir), "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == (
            "diarkit diarize: error: "
            "embed_weights and tsvad_weights are required without --stub-embeddings\n"
        )


class TestWorkerPool:
    def test_parallel_matches_serial(self, synth_dir, tmp_path):
        components = build_stub_components()
        wavs = sorted(synth_dir.glob("*.wav"))
        vad_paths = {p.stem: synth_dir / f"{p.stem}.vad" for p in wavs}
        serial_dir, parallel_dir = tmp_path / "s", tmp_path / "p"
        run_pipeline(wavs, serial_dir, TASK1, components, PipelineConfig(), vad_paths)
        run_pipeline(
            wavs, parallel_dir, TASK1, components, PipelineConfig(workers=4), vad_paths
        )
        for wav in wavs:
            assert (serial_dir / f"{wav.stem}.rttm").read_bytes() == (
                parallel_dir / f"{wav.stem}.rttm"
            ).read_bytes()


class TestScoreCommand:
    def test_score_output(self, synth_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(
            [
                "diarize", str(synth_dir), "--out-dir", str(out_dir),
                "--mode", "task1", "--vad-dir", str(synth_dir), "--stub-embeddings",
            ]
        )
        capsys.readouterr()
        ref = tmp_path / "ref.rttm"
        hyp = tmp_path / "hyp.rttm"
        ref.write_text(
            (synth_dir / "synth0003.rttm").read_text()
            + (synth_dir / "synth0004.rttm").read_text()
        )
        hyp.write_text(
            (out_dir / "synth0003.rttm").read_text()
            + (out_dir / "synth0004.rttm").read_text()
        )
        assert main(["score", str(ref), str(hyp)]) == 0
        out = capsys.readouterr().out
        assert "synth0003: DER" in out
        assert "OVERALL: DER" in out
        assert "%" in out

    @staticmethod
    def _rttm_pair(tmp_path, n_speakers):
        """A reference with one 1 s turn per speaker, and the same turns
        under other labels as the hypothesis."""
        ref, hyp = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
        for path, label in ((ref, lambda k: f"s{k}"), (hyp, lambda k: f"h{n_speakers - k}")):
            turns = [(Segment(k, k + 1.0), label(k)) for k in range(n_speakers)]
            path.write_text(emit_rttm(Diarization("rec", turns)))
        return str(ref), str(hyp)

    def test_twelve_speakers(self, tmp_path, capsys):
        assert main(["score", *self._rttm_pair(tmp_path, 12)]) == 0
        captured = capsys.readouterr()
        assert "rec: DER 0.00%" in captured.out
        assert captured.err == ""

    @staticmethod
    def _write(path, *turns):
        """`path` with one SPEAKER line per `(file id, onset, end, speaker)`."""
        path.write_text("".join(
            emit_rttm(Diarization(file_id, [(Segment(a, b), spk)])) for file_id, a, b, spk in turns
        ))
        return str(path)

    def test_hypothesis_file_id_missing_from_reference(self, tmp_path, capsys):
        ref = self._write(tmp_path / "ref.rttm", ("a", 0, 10, "s"))
        hyp = self._write(tmp_path / "hyp.rttm", ("a", 0, 10, "h"), ("b", 0, 5, "h"))
        assert main(["score", ref, hyp]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "a: DER 0.00% (miss 0.00%, fa 0.00%, conf 0.00%)", "OVERALL: DER 0.00%",
        ]
        assert captured.err == "b: ERROR reference has no scored speaker time\n"

    def test_uem_names_one_of_two_file_ids(self, tmp_path, capsys):
        ref = self._write(tmp_path / "ref.rttm", ("a", 0, 10, "s"), ("b", 0, 10, "s"))
        hyp = self._write(tmp_path / "hyp.rttm", ("a", 0, 5, "h"), ("b", 0, 5, "h"))
        uem = tmp_path / "a.uem"
        uem.write_text("a 1 0.000 5.000\n")
        assert main(["score", ref, hyp, "--uem", str(uem)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "a: DER 0.00% (miss 0.00%, fa 0.00%, conf 0.00%)", "OVERALL: DER 0.00%",
        ]
        assert captured.err == "b: ERROR UEM has no entry for b\n"

    def test_uem_names_neither_file_id(self, tmp_path, capsys):
        ref = self._write(tmp_path / "ref.rttm", ("a", 0, 10, "s"), ("b", 0, 10, "s"))
        hyp = self._write(tmp_path / "hyp.rttm", ("a", 0, 5, "h"), ("b", 0, 5, "h"))
        uem = tmp_path / "c.uem"
        uem.write_text("c 1 0.000 5.000\n")
        assert main(["score", ref, hyp, "--uem", str(uem)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "a: ERROR UEM has no entry for a", "b: ERROR UEM has no entry for b",
        ]

    def test_empty_reference(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text(";; no turns\n")
        hyp = self._write(tmp_path / "hyp.rttm", ("a", 0, 10, "h"), ("b", 0, 5, "h"))
        assert main(["score", str(ref), hyp]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "a: ERROR reference has no scored speaker time",
            "b: ERROR reference has no scored speaker time",
        ]

    def test_no_speaker_lines_in_either_file(self, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
        ref.write_text("")
        hyp.write_text("NON-LEX a 1 0.000 1.000 <NA> <NA> laugh <NA> <NA>\n")
        assert main(["score", str(ref), str(hyp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"diarkit score: error: no SPEAKER lines in {ref} or {hyp}\n"

    @pytest.mark.parametrize("collar", ["-1", "nan"])
    def test_bad_collar_is_an_error(self, tmp_path, capsys, collar):
        assert main(["score", *self._rttm_pair(tmp_path, 2), "--collar", collar]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"diarkit score: error: collar must be finite and >= 0, got {float(collar)}\n"
        )

    @pytest.mark.parametrize("collar", ["-1", "nan"])
    def test_bad_collar_stops_before_any_file_id(self, tmp_path, capsys, collar):
        ref = self._write(tmp_path / "ref.rttm", ("a", 0, 10, "s"), ("b", 0, 10, "s"))
        hyp = self._write(tmp_path / "hyp.rttm", ("a", 0, 5, "h"), ("b", 0, 5, "h"))
        assert main(["score", ref, hyp, "--collar", collar]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"diarkit score: error: collar must be finite and >= 0, got {float(collar)}\n"
        )


class TestTsvadCommand:
    def test_resume_from_rttm(self, synth_dir, tmp_path, capsys):
        wav = synth_dir / "synth0003.wav"
        rttm = synth_dir / "synth0003.rttm"
        out = tmp_path / "resumed.rttm"
        code = main(
            [
                "tsvad", "--audio", str(wav), "--rttm", str(rttm),
                "--vad", str(synth_dir / "synth0003.vad"),
                "--out", str(out), "--stub-embeddings",
            ]
        )
        assert code == 0
        hyp = turns_to_diarization(parse_rttm(out.read_text()), "synth0003")
        ref = turns_to_diarization(parse_rttm(rttm.read_text()), "synth0003")
        assert compute_der(ref, hyp).der < 0.05

    def test_turn_shorter_than_half_a_sample(self, synth_dir, tmp_path, capsys):
        # spk0's first region, 0.05 ms long, rounds to no samples at 8 kHz;
        # the target is cut from the regions after it, as without that turn.
        plain = synth_dir / "synth0003.rttm"
        tiny = tmp_path / "tiny.rttm"
        tiny.write_text(
            "SPEAKER synth0003 1 0.1000 0.00005 <NA> <NA> spk0 <NA> <NA>\n" + plain.read_text()
        )
        outputs = []
        for rttm in (tiny, plain):
            out = tmp_path / f"{rttm.stem}.out.rttm"
            code = main(
                [
                    "tsvad", "--audio", str(synth_dir / "synth0003.wav"), "--rttm", str(rttm),
                    "--vad", str(synth_dir / "synth0003.vad"), "--out", str(out),
                    "--stub-embeddings",
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert capsys.readouterr().err == ""
        assert outputs[0] == outputs[1]

    def test_runs_at_8k_like_diarize(self, tmp_path):
        # On this noisy call, detection at 16 kHz gives another RTTM.
        from diarkit.audio import read_wav, resample_to_8k
        from diarkit.segments import merge_segments
        from diarkit.stubs import SpectralEmbedder
        from diarkit.tsvad import run_rounds
        from diarkit.vad import read_vad_file

        assert main(
            [
                "synth", "--out-dir", str(tmp_path), "--duration", "15",
                "--overlap", "0.3", "--noise", "0.3", "--seed", "5",
            ]
        ) == 0
        wav, rttm, vad = (tmp_path / f"synth0005.{ext}" for ext in ("wav", "rttm", "vad"))
        out = tmp_path / "resumed.rttm"
        assert main(
            [
                "tsvad", "--audio", str(wav), "--rttm", str(rttm), "--vad", str(vad),
                "--out", str(out), "--stub-embeddings",
            ]
        ) == 0
        diar = turns_to_diarization(parse_rttm(rttm.read_text()), "synth0005")
        regions = {s: merge_segments(segs) for s, segs in diar.per_speaker().items()}
        result = run_rounds(
            resample_to_8k(read_wav(wav)), regions, SpectralTsvad(), SpectralEmbedder(),
            read_vad_file(vad), recording_id="synth0005",
        )
        assert out.read_text() == emit_rttm(result.diarization)
        assert list(tmp_path.glob("*.tmp")) == []  # written through a temporary file

    def test_file_id_is_checked_before_the_read(self, synth_dir, tmp_path, capsys):
        # Not a WAV file: only a check made before the read names the id.
        wav = tmp_path / "my call.wav"
        wav.write_bytes(b"RIFFgarbage")
        code = main(
            [
                "tsvad", "--audio", str(wav), "--rttm", str(synth_dir / "synth0003.rttm"),
                "--stub-embeddings", "--out", str(tmp_path / "resumed.rttm"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("my call\tERROR\tnot an RTTM field")

    def test_round_one_emptied_speaker_keeps_the_call(self, tmp_path, capsys):
        # At these operating points, round 1 leaves spk1 without speech; the
        # call keeps the clustering's two speakers instead of failing.
        assert main(
            [
                "synth", "--out-dir", str(tmp_path), "--speakers", "2", "--duration", "20",
                "--overlap", "0.4", "--noise", "0.05", "--seed", "1",
            ]
        ) == 0
        cfg = tmp_path / "detection.cfg"
        cfg.write_text("tsvad_threshold=0.8\nmedian_taps=301\nmax_rounds=1\ntarget_max_s=4.0\n")
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert main(
            [
                "diarize", str(tmp_path / "synth0001.wav"), "--out-dir", str(out_dir),
                "--mode", "task2", "--stub-embeddings", "--config", str(cfg),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "synth0001\tok\tCTS\tspeakers=2\trounds=0"
        entry = json.loads((out_dir / "report.jsonl").read_text())
        assert entry["warning"] == "round 1 emptied speakers ['spk1']; kept the initial regions"
        rttm = parse_rttm((out_dir / "synth0001.rttm").read_text())
        assert turns_to_diarization(rttm, "synth0001").speakers() == ["spk0", "spk1"]
        # Resumed from that RTTM, round 1 empties spk1 again: `tsvad` keeps
        # the regions it read and says it stopped.
        resumed = tmp_path / "resumed.rttm"
        assert main(
            [
                "tsvad", "--audio", str(tmp_path / "synth0001.wav"),
                "--rttm", str(out_dir / "synth0001.rttm"), "--vad", str(tmp_path / "synth0001.vad"),
                "--out", str(resumed), "--stub-embeddings", "--config", str(cfg),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == f"synth0001\trounds=0\tstopped\t{resumed}\n"
        assert captured.err == (
            "warning: round 1 emptied speakers ['spk1']; kept the initial regions\n"
        )
        assert resumed.read_bytes() == (out_dir / "synth0001.rttm").read_bytes()

    def test_early_stop_is_reported_as_stopped(self, tmp_path, capsys):
        # spk1's 0.3 s region yields 0.01 s of round-1 speech, too little for
        # a round-2 target, so the rounds stop after round 1 of 4.
        assert main(
            [
                "synth", "--out-dir", str(tmp_path), "--speakers", "2", "--duration", "20",
                "--overlap", "0.4", "--noise", "0.05", "--seed", "1",
            ]
        ) == 0
        ref_turns = parse_rttm((tmp_path / "synth0001.rttm").read_text())
        ref = turns_to_diarization(ref_turns, "synth0001")
        turns = [(seg, "spk0") for seg, _ in ref.turns] + [(Segment(0.0, 0.3), "spk1")]
        rttm = tmp_path / "one-speaker.rttm"
        rttm.write_text(emit_rttm(Diarization("synth0001", turns)))
        out = tmp_path / "resumed.rttm"
        capsys.readouterr()
        assert main(
            [
                "tsvad", "--audio", str(tmp_path / "synth0001.wav"), "--rttm", str(rttm),
                "--vad", str(tmp_path / "synth0001.vad"), "--out", str(out), "--stub-embeddings",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == f"synth0001\trounds=1\tstopped\t{out}\n"
        assert captured.err == "warning: speaker spk1: 0.010s of speech, need >= 0.25s\n"


class TestVadCommand:
    def test_stub_vad_regions(self, synth_dir, capsys):
        assert main(["vad", str(synth_dir), "--stub-embeddings"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            file_id, start, end = line.split()
            assert float(end) > float(start)

    def test_file_id_with_whitespace_is_an_error(self, synth_dir, tmp_path, capsys):
        # "my call 0.000 19.980" would read back as four fields.
        wav = tmp_path / "my call.wav"
        wav.write_bytes((synth_dir / "synth0003.wav").read_bytes())
        assert main(["vad", str(wav), "--stub-embeddings"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("my call ERROR not an RTTM field")


class TestNctsPath:
    def test_noisy_wideband_spectral_clustering(self, tmp_path):
        # Broadband noise flips classification to NCTS; the spectral path
        # must still recover the speaker count from the tone structure.
        from diarkit.stubs import reference_speech
        from diarkit.vad import write_vad_file

        wav_dir = tmp_path / "in"
        wav_dir.mkdir()
        spec = SynthSpec(n_speakers=3, duration_s=35, noise_sigma=0.4, seed=13)
        buf, ref = gen_audio_conversation(spec, recording_id="wideband")
        write_wav(wav_dir / "wideband.wav", buf)
        write_vad_file(wav_dir / "wideband.vad", reference_speech(ref.turns))
        (wav_dir / "wideband.rttm").write_text(emit_rttm(ref))
        out_dir = tmp_path / "out"
        code = main(
            [
                "diarize", str(wav_dir), "--out-dir", str(out_dir),
                "--mode", "task1", "--vad-dir", str(wav_dir), "--stub-embeddings",
            ]
        )
        assert code == 0
        entry = json.loads((out_dir / "report.jsonl").read_text().strip())
        assert entry["bandwidth"] == "NCTS"
        assert set(entry["timing"]) == {"read", "partition", "vad", "diarize"}
        assert entry["n_speakers"] == 3
        hyp = turns_to_diarization(
            parse_rttm((out_dir / "wideband.rttm").read_text()), "wideband"
        )
        assert compute_der(ref, hyp).der < 0.15

    def test_v2s_without_scorer_is_an_error(self, tmp_path):
        from diarkit.stubs import reference_speech

        spec = SynthSpec(n_speakers=4, duration_s=20, noise_sigma=0.4, seed=22)
        buf, ref = gen_audio_conversation(spec, recording_id="talk")
        write_wav(tmp_path / "talk.wav", buf)
        write_vad_file(tmp_path / "talk.vad", reference_speech(ref.turns))
        out_dir = tmp_path / "out"
        code = main(
            [
                "diarize", str(tmp_path / "talk.wav"), "--out-dir", str(out_dir),
                "--mode", "task1", "--vad-dir", str(tmp_path), "--stub-embeddings",
                "--similarity", "v2s",
            ]
        )
        assert code == 2
        entry = json.loads((out_dir / "report.jsonl").read_text())
        assert entry["bandwidth"] == "NCTS"
        assert entry["status"] == "error" and "v2s_weights" in entry["error"]
        assert not (out_dir / "talk.rttm").exists()

    def test_v2s_with_stubs_reads_v2s_weights(self, tmp_path):
        data = tmp_path / "data"
        args = ["--speakers", "3", "--duration", "20", "--noise", "0.4", "--seed", "22"]
        assert main(["synth", "--out-dir", str(data), *args]) == 0
        save_weights(V2sScorer.init(0).to_store(), tmp_path / "v2s.bin")
        cfg = tmp_path / "v2s.cfg"
        cfg.write_text(f"v2s_weights={tmp_path / 'v2s.bin'}\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            [
                "diarize", str(data), "--out-dir", str(out_dir), "--mode", "task1",
                "--vad-dir", str(data), "--stub-embeddings", "--similarity", "v2s",
                "--config", str(cfg),
            ]
        )
        assert code == 0
        entry = json.loads((out_dir / "report.jsonl").read_text())
        assert (entry["bandwidth"], entry["status"]) == ("NCTS", "ok"), entry
        assert (out_dir / "synth0022.rttm").exists()


class TestEightKInput:
    def test_8k_wav_takes_cts_path(self, tmp_path):
        spec = SynthSpec(n_speakers=2, duration_s=20, overlap_fraction=0.2, seed=11)
        buf16, ref = gen_audio_conversation(spec, recording_id="down8k")
        from diarkit.audio import resample_to_8k
        from diarkit.stubs import reference_speech
        from diarkit.vad import write_vad_file

        wav_dir = tmp_path / "in"
        wav_dir.mkdir()
        write_wav(wav_dir / "down8k.wav", resample_to_8k(buf16))
        write_vad_file(wav_dir / "down8k.vad", reference_speech(ref.turns))
        (wav_dir / "down8k.rttm").write_text(emit_rttm(ref))
        out_dir = tmp_path / "out"
        code = main(
            [
                "diarize", str(wav_dir), "--out-dir", str(out_dir),
                "--mode", "task1", "--vad-dir", str(wav_dir), "--stub-embeddings",
            ]
        )
        assert code == 0
        entry = json.loads((out_dir / "report.jsonl").read_text().strip())
        assert entry["bandwidth"] == "CTS"
        hyp = turns_to_diarization(
            parse_rttm((out_dir / "down8k.rttm").read_text()), "down8k"
        )
        assert compute_der(ref, hyp).der < 0.05


class TestMissingInput:
    @pytest.mark.parametrize("command", ["partition", "vad"])
    def test_missing_file_between_good_files(self, synth_dir, command, capsys):
        inputs = [
            str(synth_dir / "synth0003.wav"),
            str(synth_dir / "missing.wav"),
            str(synth_dir / "synth0004.wav"),
        ]
        stub = ["--stub-embeddings"] if command == "vad" else []
        assert main([command, *inputs, *stub]) == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        file_ids = {line.split()[0] for line in lines}
        assert file_ids == {"synth0003", "synth0004"}
        if command == "partition":
            assert len(lines) == 2
        errors = captured.err.strip().splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("missing") and "No such file" in errors[0]

    def test_tsvad_missing_audio(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "resumed.rttm"
        code = main(
            [
                "tsvad", "--audio", str(tmp_path / "missing.wav"),
                "--rttm", str(synth_dir / "synth0003.rttm"),
                "--out", str(out), "--stub-embeddings",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("missing\tERROR\t")
        assert not out.exists()


class TestWavEndingMidSample:
    """A WAV whose data ends mid-sample gives one error line naming the
    file, and exit 2."""

    @pytest.fixture()
    def cut_wav(self, synth_dir, tmp_path):
        path = tmp_path / "in" / "cut.wav"
        path.parent.mkdir()
        path.write_bytes((synth_dir / "synth0003.wav").read_bytes()[:-1])
        return path

    @staticmethod
    def _one_line(text: str) -> str:
        lines = text.splitlines()
        assert len(lines) == 1
        assert "cut.wav" in lines[0] and "ends mid-sample" in lines[0]
        return lines[0]

    @pytest.mark.parametrize("command", ["partition", "vad"])
    def test_per_file_commands(self, cut_wav, command, capsys):
        stub = ["--stub-embeddings"] if command == "vad" else []
        assert main([command, str(cut_wav), *stub]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert self._one_line(captured.err).startswith("cut")

    def test_tsvad(self, cut_wav, synth_dir, tmp_path, capsys):
        out = tmp_path / "resumed.rttm"
        code = main(
            [
                "tsvad", "--audio", str(cut_wav), "--rttm", str(synth_dir / "synth0003.rttm"),
                "--out", str(out), "--stub-embeddings",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert self._one_line(captured.err).startswith("cut\tERROR\t")
        assert not out.exists()

    def test_diarize(self, cut_wav, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["diarize", str(cut_wav), "--out-dir", str(out_dir), "--stub-embeddings"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert self._one_line(captured.out).startswith("cut\terror\t")
        entry = json.loads((out_dir / "report.jsonl").read_text())
        assert entry["status"] == "error" and entry["error"].startswith("FormatError: ")


class TestSetupErrors:
    """An error before any per-file step gives one stderr line and exit 2."""

    def _single_error_line(self, capsys, command):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        assert lines[0].startswith(f"diarkit {command}: error: ")
        return lines[0]

    @pytest.mark.parametrize(
        "command",
        [["partition"], ["vad", "--stub-embeddings"], ["diarize", "--stub-embeddings"]],
        ids=["partition", "vad", "diarize"],
    )
    def test_directory_without_wav(self, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("no audio here\n")
        out = ["--out-dir", str(tmp_path / "out")] if command[0] == "diarize" else []
        assert main([command[0], str(empty), *command[1:], *out]) == 2
        line = self._single_error_line(capsys, command[0])
        assert line == f"diarkit {command[0]}: error: {empty}: no .wav files"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["bandwidth_horizon_s=inf", "tsvad_threshold=nan", "seed=-1"])
    def test_bad_config_value_stops_partition(self, synth_dir, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["partition", str(synth_dir), "--config", str(cfg)]) == 2
        key = line.partition("=")[0]
        assert key in self._single_error_line(capsys, "partition")

    def test_negative_seed_stops_diarize_before_any_read(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["diarize", str(synth_dir), "--out-dir", str(out), "--stub-embeddings"]
        assert main([*argv, "--seed", "-1"]) == 2
        assert "seed must be >= 0" in self._single_error_line(capsys, "diarize")
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_synth_count_below_one(self, tmp_path, capsys, count):
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--count", count]) == 2
        line = self._single_error_line(capsys, "synth")
        assert line == f"diarkit synth: error: --count must be >= 1, got {count}"
        assert not out.exists()

    def test_score_missing_reference(self, synth_dir, tmp_path, capsys):
        missing = tmp_path / "missing.rttm"
        assert main(["score", str(missing), str(synth_dir / "synth0003.rttm")]) == 2
        line = self._single_error_line(capsys, "score")
        assert "No such file" in line and "missing.rttm" in line

    def test_diarize_missing_config(self, synth_dir, tmp_path, capsys):
        code = main(
            [
                "diarize", str(synth_dir), "--out-dir", str(tmp_path / "out"),
                "--config", str(tmp_path / "missing.cfg"), "--stub-embeddings",
            ]
        )
        assert code == 2
        line = self._single_error_line(capsys, "diarize")
        assert "No such file" in line and "missing.cfg" in line

    def test_vad_needs_only_vad_weights(self, tmp_path, capsys):
        buf, _ = gen_audio_conversation(SynthSpec(n_speakers=2, duration_s=4.0, seed=7))
        write_wav(tmp_path / "short.wav", buf)
        store = init_vad_weights(0)
        store.put("vad.fc2.b", [20.0])  # every frame scores as speech
        save_weights(store, tmp_path / "vad.bin")
        cfg = tmp_path / "vad.cfg"
        cfg.write_text(f"vad_weights={tmp_path / 'vad.bin'}\n", encoding="utf-8")
        assert main(["vad", str(tmp_path / "short.wav"), "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines
        for line in lines:
            file_id, start, end = line.split()
            assert file_id == "short" and 0.0 <= float(start) < float(end) <= 4.0

    def test_vad_without_weights(self, synth_dir, capsys):
        assert main(["vad", str(synth_dir)]) == 2
        assert "vad_weights" in self._single_error_line(capsys, "vad")

    def _vad_run(self, tmp_path, config: str) -> int:
        buf, _ = gen_audio_conversation(SynthSpec(n_speakers=2, duration_s=6.0, seed=7))
        write_wav(tmp_path / "call.wav", buf)
        cfg = tmp_path / "vad.cfg"
        cfg.write_text(config, encoding="utf-8")
        return main(["vad", str(tmp_path / "call.wav"), "--config", str(cfg)])

    def test_vad_shift_zero(self, tmp_path, capsys):
        save_weights(init_vad_weights(0), tmp_path / "vad.bin")
        config = f"vad_weights={tmp_path / 'vad.bin'}\nvad_shift_s=0\n"
        assert self._vad_run(tmp_path, config) == 2
        assert "vad_shift_s" in self._single_error_line(capsys, "vad")

    @pytest.mark.parametrize("key", ["target_max_s", "bandwidth_horizon_s"])
    def test_zero_target_or_horizon(self, synth_dir, tmp_path, capsys, key):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"{key}=0\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            [
                "diarize", str(synth_dir), "--out-dir", str(out_dir), "--config", str(cfg),
                "--stub-embeddings",
            ]
        )
        assert code == 2
        assert key in self._single_error_line(capsys, "diarize")
        assert not out_dir.exists()

    def test_weight_name_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "vad.bin"
        save_weights(WeightStore({"w": np.ones(1)}), path)
        data = path.read_bytes()
        path.write_bytes(data[:12] + b"\xff" + data[13:])  # the one-byte name "w"
        assert self._vad_run(tmp_path, f"vad_weights={path}\n") == 2
        line = self._single_error_line(capsys, "vad")
        assert "vad.bin" in line and "byte 12" in line

    def _diarize_with_v2s(self, synth_dir, tmp_path, name, value=None) -> int:
        """`diarize` in net mode with seeded weights, but the scorer's entry
        `name` left out or replaced by `value`."""
        save_weights(init_embed_weights(0), tmp_path / "embed.bin")
        save_weights(init_tsvad_weights(0), tmp_path / "tsvad.bin")
        self._save_without(V2sScorer.init(0).to_store(), tmp_path / "v2s.bin", name, value)
        cfg = tmp_path / "net.cfg"
        cfg.write_text(
            f"embed_weights={tmp_path / 'embed.bin'}\ntsvad_weights={tmp_path / 'tsvad.bin'}\n"
            f"v2s_weights={tmp_path / 'v2s.bin'}\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        return main(["diarize", str(synth_dir), "--out-dir", str(out_dir), "--config", str(cfg)])

    def test_v2s_weights_missing_a_parameter(self, synth_dir, tmp_path, capsys):
        assert self._diarize_with_v2s(synth_dir, tmp_path, "v2s.fc3.b") == 2
        assert "fc3.b" in self._single_error_line(capsys, "diarize")

    def test_v2s_weights_misshapen(self, synth_dir, tmp_path, capsys):
        assert self._diarize_with_v2s(synth_dir, tmp_path, "v2s.fc2.w", np.ones((256, 10))) == 2
        line = self._single_error_line(capsys, "diarize")
        assert "'v2s.fc2.w': shape (256, 10), expected (256, 1024)" in line

    @staticmethod
    def _save_without(store, path, name, value=None):
        """`store` saved with entry `name` left out, or replaced by `value`."""
        entries = {n: store.get(n) for n in store.names() if n != name}
        if value is not None:
            entries[name] = value
        save_weights(WeightStore(entries), path)

    def test_vad_weights_missing_batch_norm(self, tmp_path, capsys):
        name = "vad.resnet.stage1.block0.bn1.var"
        self._save_without(init_vad_weights(0), tmp_path / "vad.bin", name)
        assert self._vad_run(tmp_path, f"vad_weights={tmp_path / 'vad.bin'}\n") == 2
        assert f"missing weight '{name}'" in self._single_error_line(capsys, "vad")

    def _diarize_task1(self, tmp_path, capsys, embed, tsvad) -> int:
        """`diarize --mode task1` on one 20 s two-speaker call with these
        embed and tsvad weight stores."""
        data = tmp_path / "data"
        args = ["--count", "1", "--speakers", "2", "--duration", "20", "--seed", "3"]
        assert main(["synth", "--out-dir", str(data), *args]) == 0
        capsys.readouterr()
        save_weights(embed, tmp_path / "embed.bin")
        save_weights(tsvad, tmp_path / "tsvad.bin")
        cfg = tmp_path / "net.cfg"
        cfg.write_text(
            f"embed_weights={tmp_path / 'embed.bin'}\ntsvad_weights={tmp_path / 'tsvad.bin'}\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        return main(
            [
                "diarize", str(data), "--out-dir", str(out_dir), "--mode", "task1",
                "--vad-dir", str(data), "--config", str(cfg),
            ]
        )

    def test_embed_weights_batch_norm_length(self, tmp_path, capsys):
        name = "embed.resnet.stage2.block3.bn2.mean"
        self._save_without(init_embed_weights(0), tmp_path / "bad.bin", name, np.zeros(127))
        assert self._diarize_task1(tmp_path, capsys, load_weights(tmp_path / "bad.bin"), init_tsvad_weights(0)) == 2
        line = self._single_error_line(capsys, "diarize")
        assert f"'{name}': shape (127,), expected (128,)" in line

    def test_tsvad_weights_missing_batch_norm(self, tmp_path, capsys):
        # No recording reaches the detector here: random embeddings cluster
        # as one speaker. The missing entry must still fail at build.
        name = "tsvad.resnet.stage1.block0.bn1.var"
        self._save_without(init_tsvad_weights(0), tmp_path / "bad.bin", name)
        assert self._diarize_task1(tmp_path, capsys, init_embed_weights(0), load_weights(tmp_path / "bad.bin")) == 2
        assert f"missing weight '{name}'" in self._single_error_line(capsys, "diarize")

    def test_tsvad_weights_missing_head_bias(self, tmp_path, capsys):
        # As above, no recording reaches the detector, whose head reads this entry.
        name = "tsvad.fc.b"
        self._save_without(init_tsvad_weights(0), tmp_path / "bad.bin", name)
        assert self._diarize_task1(tmp_path, capsys, init_embed_weights(0), load_weights(tmp_path / "bad.bin")) == 2
        assert f"missing weight '{name}'" in self._single_error_line(capsys, "diarize")

    def test_segment_shift_longer_than_window(self, tmp_path, capsys):
        buf, _ = gen_audio_conversation(SynthSpec(n_speakers=2, duration_s=6.0, seed=1))
        write_wav(tmp_path / "synth0001.wav", buf)
        cfg = tmp_path / "seg.cfg"
        cfg.write_text("cts_win_s=0.5\ncts_shift_s=0.75\n", encoding="utf-8")
        code = main(
            [
                "diarize", str(tmp_path / "synth0001.wav"), "--out-dir", str(tmp_path / "out"),
                "--config", str(cfg), "--stub-embeddings",
            ]
        )
        assert code == 2
        assert "cts_shift_s" in self._single_error_line(capsys, "diarize")


class TestNotUtf8:
    """A text input holding a byte that is not UTF-8 gives one stderr line
    naming the file, and exit 2."""

    @staticmethod
    def _with_ff(src, dst, extra: bytes = b"") -> str:
        dst.write_bytes(src.read_bytes() + extra)
        return str(dst)

    def _one_line(self, capsys, name: str) -> str:
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        assert name in lines[0] and "not UTF-8" in lines[0]
        return lines[0]

    def test_config(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n# \xff\n")
        assert main(["partition", str(synth_dir), "--config", str(cfg)]) == 2
        assert self._one_line(capsys, "bad.cfg").startswith("diarkit partition: error: ")

    def test_score_rttm(self, synth_dir, tmp_path, capsys):
        ref = synth_dir / "synth0003.rttm"
        bad = b"SPEAKER synth0003 1 0.000 1.000 <NA> <NA> \xff <NA> <NA>\n"
        hyp = self._with_ff(ref, tmp_path / "bad.rttm", bad)
        assert main(["score", str(ref), hyp]) == 2
        assert self._one_line(capsys, "bad.rttm").startswith("diarkit score: error: ")

    def test_score_uem(self, synth_dir, tmp_path, capsys):
        uem = tmp_path / "bad.uem"
        uem.write_bytes(b"synth0003 1 0.000 \xff\n")
        ref = str(synth_dir / "synth0003.rttm")
        assert main(["score", ref, ref, "--uem", str(uem)]) == 2
        assert self._one_line(capsys, "bad.uem").startswith("diarkit score: error: ")

    def _tsvad(self, synth_dir, rttm, vad) -> int:
        return main(
            [
                "tsvad", "--audio", str(synth_dir / "synth0003.wav"), "--rttm", str(rttm),
                "--vad", str(vad), "--out", str(synth_dir / "out.rttm"), "--stub-embeddings",
            ]
        )

    def test_tsvad_rttm(self, synth_dir, tmp_path, capsys):
        rttm = self._with_ff(synth_dir / "synth0003.rttm", tmp_path / "bad.rttm", b"\xff\n")
        assert self._tsvad(synth_dir, rttm, synth_dir / "synth0003.vad") == 2
        assert self._one_line(capsys, "bad.rttm").startswith("synth0003\tERROR\t")

    def test_tsvad_vad(self, synth_dir, tmp_path, capsys):
        vad = self._with_ff(synth_dir / "synth0003.vad", tmp_path / "bad.vad", b"\xff\n")
        assert self._tsvad(synth_dir, synth_dir / "synth0003.rttm", vad) == 2
        assert self._one_line(capsys, "bad.vad").startswith("synth0003\tERROR\t")


class TestBadLines:
    """A malformed line in an RTTM, UEM or `.vad` input gives one stderr line
    naming `<file>:<line>`, and exit 2."""

    @staticmethod
    def _one_line(capsys) -> str:
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        return lines[0]

    def test_score_hypothesis_onset(self, synth_dir, tmp_path, capsys):
        ref = synth_dir / "synth0003.rttm"
        lines = ref.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace(" 1 ", " 1 x", 1)
        hyp = tmp_path / "bad.rttm"
        hyp.write_text("".join(lines))
        assert main(["score", str(ref), str(hyp)]) == 2
        line = self._one_line(capsys)
        assert line == f"diarkit score: error: {hyp}:2: non-numeric onset/duration"

    def _score_uem(self, synth_dir, tmp_path, capsys, text: str) -> str:
        uem = tmp_path / "bad.uem"
        uem.write_text(text)
        ref = str(synth_dir / "synth0003.rttm")
        assert main(["score", ref, ref, "--uem", str(uem)]) == 2
        return self._one_line(capsys).replace(str(uem), "bad.uem")

    def test_score_uem_fields(self, synth_dir, tmp_path, capsys):
        line = self._score_uem(synth_dir, tmp_path, capsys, "synth0003 1 0 10\nsynth0003 1 20\n")
        assert line == "diarkit score: error: bad.uem:2: UEM line needs 4 fields, got 3"

    @pytest.mark.parametrize("times", ["5.0 3.0", "0.0 inf", "nan 3.0"])
    def test_score_uem_interval(self, synth_dir, tmp_path, capsys, times):
        line = self._score_uem(synth_dir, tmp_path, capsys, f"synth0003 1 {times}\n")
        interval = ", ".join(times.split())
        assert line == (
            f"diarkit score: error: bad.uem:1: invalid segment [{interval}]: "
            "need 0 <= start < end < inf"
        )

    @pytest.mark.parametrize("field, value", [(3, "nan"), (3, "inf"), (4, "inf")])
    def test_tsvad_rttm_time_not_finite(self, synth_dir, tmp_path, capsys, field, value):
        lines = (synth_dir / "synth0003.rttm").read_text().splitlines(keepends=True)
        parts = lines[1].split(" ")
        parts[field] = value
        lines[1] = " ".join(parts)
        rttm = tmp_path / "bad.rttm"
        rttm.write_text("".join(lines))
        code = main(
            [
                "tsvad", "--audio", str(synth_dir / "synth0003.wav"), "--rttm", str(rttm),
                "--out", str(tmp_path / "out.rttm"), "--stub-embeddings",
            ]
        )
        assert code == 2
        assert self._one_line(capsys).startswith(f"synth0003\tERROR\t{rttm}:2: invalid turn: ")

    def test_tsvad_vad_interval(self, synth_dir, tmp_path, capsys):
        vad = tmp_path / "bad.vad"
        vad.write_text("0.5 1.0\n3.0 2.0\n")
        code = main(
            [
                "tsvad", "--audio", str(synth_dir / "synth0003.wav"),
                "--rttm", str(synth_dir / "synth0003.rttm"), "--vad", str(vad),
                "--out", str(tmp_path / "out.rttm"), "--stub-embeddings",
            ]
        )
        assert code == 2
        assert self._one_line(capsys) == (
            f"synth0003\tERROR\t{vad}:2: invalid segment [3.0, 2.0]: need 0 <= start < end < inf"
        )


class TestUnembeddableSegments:
    def test_silent_region_in_task1_vad(self, tmp_path):
        # The .vad file also lists 1.5 s of silence, which the stub embedder
        # cannot embed; the recording still diarizes.
        spec = SynthSpec(n_speakers=2, duration_s=30, seed=5)
        buf, ref = gen_audio_conversation(spec, recording_id="call")
        padded = AudioBuffer(np.concatenate([buf.samples, np.zeros(2 * 16000)]), 16000)
        write_wav(tmp_path / "call.wav", padded)
        write_vad_file(
            tmp_path / "call.vad", reference_speech(ref.turns) + [Segment(30.2, 31.7)]
        )
        (result,) = run_pipeline(
            [tmp_path / "call.wav"], tmp_path / "out", TASK1, build_stub_components(),
            PipelineConfig(), {"call": tmp_path / "call.vad"},
        )
        assert result.status == "ok", result.error
        assert result.n_speakers == 2

    def test_region_too_short_for_embed_net(self, tmp_path):
        # 0.25 s passes min_segment_s but gives 23 frames, fewer than the 25
        # EmbedNet needs; the other region still embeds.
        noise = np.random.default_rng(0).normal(0.0, 0.4, 3 * 16000)
        write_wav(tmp_path / "talk.wav", AudioBuffer(np.clip(noise, -1.0, 1.0), 16000))
        write_vad_file(tmp_path / "talk.vad", [Segment(0.5, 0.75), Segment(1.0, 2.4)])
        components = Components(EmbedNet(init_embed_weights(0)), SpectralTsvad())
        (result,) = run_pipeline(
            [tmp_path / "talk.wav"], tmp_path / "out", TASK1, components,
            PipelineConfig(), {"talk": tmp_path / "talk.vad"},
        )
        assert result.status == "ok", result.error
        assert result.bandwidth == "NCTS"
        assert (tmp_path / "out" / "talk.rttm").read_text().count("\n") == 1
