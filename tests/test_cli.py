"""CLI subcommands, pipeline orchestration, and batch behavior."""

import json

import numpy as np
import pytest

from diarkit.cli import main
from diarkit.config import PipelineConfig
from diarkit.metrics import compute_der, parse_rttm, turns_to_diarization
from diarkit.models import EmbedNet, NetEmbedder, init_embed_weights, init_vad_weights
from diarkit.pipeline import TASK1, Components, build_stub_components, run_pipeline
from diarkit.audio import AudioBuffer, write_wav
from diarkit.segments import Segment
from diarkit.stubs import SpectralTsvad, reference_speech
from diarkit.synth import SynthSpec, gen_audio_conversation
from diarkit.vad import write_vad_file
from diarkit.weights import save_weights


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


class TestSynthCommand:
    def test_writes_triplets(self, synth_dir):
        for seed in (3, 4):
            assert (synth_dir / f"synth{seed:04d}.wav").exists()
            assert (synth_dir / f"synth{seed:04d}.rttm").exists()
            assert (synth_dir / f"synth{seed:04d}.vad").exists()

    def test_reference_parses(self, synth_dir):
        turns = parse_rttm((synth_dir / "synth0003.rttm").read_text())
        assert len(turns) > 0
        assert {t.speaker for t in turns} == {"spk0", "spk1"}


class TestPartitionCommand:
    def test_tsv_output(self, synth_dir, capsys):
        assert main(["partition", str(synth_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            file_id, cls, peak = line.split("\t")
            assert cls == "CTS"
            float(peak)


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
            mask = EnergyVad().predict(read_wav(wav))
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
        assert code == 0
        assert (out_dir / "report.jsonl").read_text() == ""

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


class TestVadCommand:
    def test_stub_vad_regions(self, synth_dir, capsys):
        assert main(["vad", str(synth_dir), "--stub-embeddings"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            file_id, start, end = line.split()
            assert float(end) > float(start)


class TestNctsPath:
    def test_noisy_wideband_spectral_clustering(self, tmp_path):
        # Broadband noise flips classification to NCTS; the spectral path
        # must still recover the speaker count from the tone structure.
        from diarkit.metrics import diarization_to_turns, emit_rttm
        from diarkit.stubs import reference_speech
        from diarkit.vad import write_vad_file

        wav_dir = tmp_path / "in"
        wav_dir.mkdir()
        spec = SynthSpec(n_speakers=3, duration_s=35, noise_sigma=0.4, seed=13)
        buf, ref = gen_audio_conversation(spec, recording_id="wideband")
        write_wav(wav_dir / "wideband.wav", buf)
        write_vad_file(wav_dir / "wideband.vad", reference_speech(ref.turns))
        (wav_dir / "wideband.rttm").write_text(emit_rttm(diarization_to_turns(ref)))
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
        assert entry["n_speakers"] == 3
        hyp = turns_to_diarization(
            parse_rttm((out_dir / "wideband.rttm").read_text()), "wideband"
        )
        assert compute_der(ref, hyp).der < 0.15


class TestEightKInput:
    def test_8k_wav_takes_cts_path(self, tmp_path):
        spec = SynthSpec(n_speakers=2, duration_s=20, overlap_fraction=0.2, seed=11)
        buf16, ref = gen_audio_conversation(spec, recording_id="down8k")
        from diarkit.audio import resample_to_8k
        from diarkit.metrics import diarization_to_turns, emit_rttm
        from diarkit.stubs import reference_speech
        from diarkit.vad import write_vad_file

        wav_dir = tmp_path / "in"
        wav_dir.mkdir()
        write_wav(wav_dir / "down8k.wav", resample_to_8k(buf16))
        write_vad_file(wav_dir / "down8k.vad", reference_speech(ref.turns))
        (wav_dir / "down8k.rttm").write_text(emit_rttm(diarization_to_turns(ref)))
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


class TestSetupErrors:
    """An error before any per-file step gives one stderr line and exit 2."""

    def _single_error_line(self, capsys, command):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        assert lines[0].startswith(f"diarkit {command}: error: ")
        return lines[0]

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
        components = Components(NetEmbedder(EmbedNet(init_embed_weights(0))), SpectralTsvad())
        (result,) = run_pipeline(
            [tmp_path / "talk.wav"], tmp_path / "out", TASK1, components,
            PipelineConfig(), {"talk": tmp_path / "talk.vad"},
        )
        assert result.status == "ok", result.error
        assert result.bandwidth == "NCTS"
        assert (tmp_path / "out" / "talk.rttm").read_text().count("\n") == 1
