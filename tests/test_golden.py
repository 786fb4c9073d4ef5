"""Golden outputs: SHA-256 digests of the RTTMs and report lines that fixed
synthetic recordings give with stub components, in task 1 and task 2; the
RTTMs the neural detector and the neural embedder give with fixed random
weights; the speech regions of the neural VAD; the reference RTTM and
speech-region file that `synth` writes, and the RTTM that `tsvad` writes
when it resumes from them; the RTTMs `diarize` and `tsvad` give on a call
with detection run away from its default operating points; what `score`
prints for a task-1 RTTM against its synthetic reference; and the bytes of
the seeded weight files.

A refactor or an exact speed-up leaves every digest unchanged; a change that
alters outputs on purpose updates them and says why. The report digests also
pin the report schema. `timing` is dropped, since it varies run to run, and
`rttm_path` is reduced to its file name, since the output directory does.
"""

import hashlib
import json
from pathlib import Path

import pytest

from diarkit.audio import write_wav
from diarkit.cli import main
from diarkit.config import PipelineConfig
from diarkit.metrics import emit_rttm
from diarkit.models import (
    EmbedNet,
    TsvadNet,
    V2sScorer,
    init_embed_weights,
    init_tsvad_weights,
    init_vad_weights,
)
from diarkit.pipeline import (
    TASK1,
    TASK2,
    Components,
    build_net_vad,
    build_stub_components,
    run_pipeline,
    speech_regions_for,
)
from diarkit.stubs import SpectralEmbedder, SpectralTsvad, reference_speech
from diarkit.synth import SynthSpec, gen_audio_conversation
from diarkit.vad import write_vad_file
from diarkit.weights import save_weights

RECORDINGS = {
    # a narrowband two-speaker call with overlapped turns
    "cts2": SynthSpec(n_speakers=2, duration_s=40.0, overlap_fraction=0.3, seed=21),
    # broadband noise makes this four-speaker talk classify as wideband
    "ncts4": SynthSpec(n_speakers=4, duration_s=40.0, noise_sigma=0.4, seed=22),
    # eight speakers stress the eigensolve and the eigengap count (task 1 only)
    "ncts8": SynthSpec(n_speakers=8, duration_s=60.0, noise_sigma=0.4, seed=23),
}

REPORT_KEYS = {
    "bandwidth", "error", "file_id", "n_segments", "n_speakers", "peak_above_4k",
    "rounds", "rttm_path", "status", "timing", "warning",
}

# (mode, file id) -> (RTTM digest, report-line digest)
GOLDEN = {
    (TASK1, "cts2"): (
        "e24635888b30b33ec468d08e952821e5fdfa468c8328a9b30075288e3ca87fc0",
        "01025c14d3742a405a121af4d4f31b810a880e556775ba1214b332de9c1da714",
    ),
    (TASK1, "ncts4"): (
        "d1de6eeb50b4ea1965546d8ff93c074e3fa7912305a3e558db491358e382fef7",
        "c074a85b4108b56106b5815105fb3963f4d810a3691c3acb9b33612fd6eba6af",
    ),
    (TASK1, "ncts8"): (
        "3ba37dd6e585d3cb1158f75811305a48831aba7b207b765ec32678c85d597197",
        "6c866f9b060f65771a6a1d370faab195022e4fe23a14a5453cfa2281ed23d80e",
    ),
    (TASK2, "cts2"): (
        "7796bec91cd83433a53eb6d3414411727354e837c9f48eefa6875b2ca5283697",
        "01025c14d3742a405a121af4d4f31b810a880e556775ba1214b332de9c1da714",
    ),
    (TASK2, "ncts4"): (
        "8052594140bb7477d43d7c9285652588255c9929822203afbd76fd75d030070e",
        "e1deabd200c049b9fb99e7c39c8615a6ab0ab44d91e0bf8cfc40c5a99d9b9194",
    ),
}

# A 2 s narrowband call of short turns through `TsvadNet` with the weights of
# `init_tsvad_weights(0)`; the stub embedder finds the two speakers, and the
# detector runs four rounds.
NET_RECORDING = SynthSpec(n_speakers=2, duration_s=2.0, turn_min_s=0.5, turn_max_s=1.0, seed=32)
NET_GOLDEN_RTTM = "7235ab8de3ae2f805516fb3e02e60c01053f1ed16e984b6cacbb7f35e557b5c9"

# A 4 s wideband three-speaker talk through `EmbedNet` with the weights of
# `init_embed_weights(0)`. The random embeddings cluster as one speaker.
NET_EMBED_RECORDING = SynthSpec(
    n_speakers=3, duration_s=4.0, turn_min_s=0.8, turn_max_s=1.6, noise_sigma=0.4, seed=33
)
NET_EMBED_GOLDEN_RTTM = "06800814bc794564098d3501756e06559bc16d8b5a309f208a30bda3d7a304f7"

# The speech regions `VadNet` finds with the weights of `init_vad_weights(0)`,
# which score this recording's frames between 0.34 and 0.51, at a threshold
# inside that range.
NET_VAD_RECORDING = SynthSpec(n_speakers=2, duration_s=6.0, seed=3)
NET_VAD_GOLDEN = [(0.12, 0.29), (2.75, 5.69), (5.82, 5.98)]

# `diarkit synth` with these arguments writes one two-speaker call with
# overlapped turns; `diarkit tsvad --stub-embeddings` resumes detection from
# its reference RTTM and speech regions. Together with `GOLDEN`, these pin
# every RTTM writer: `synth`'s, `tsvad`'s and `diarize`'s.
SYNTH_ARGS = ["--speakers", "2", "--duration", "40", "--overlap", "0.3", "--noise", "0.05",
              "--seed", "7"]
SYNTH_GOLDEN = {
    "rttm": "876bfe1bad481ffb9a754af17030dafbc229253345c5e07b1f6b1a1f4e07ff50",
    "vad": "081ee567072b9bce3fd45ba44fe3121fd2871172d234fd1305f664175cc0ebc6",
}
TSVAD_GOLDEN_RTTM = "a3b94df9d52a2ba5754bc1305182169dbc33a00722c80d34b30ddac732fadbf1"

# `diarize --mode task1` and `tsvad`, both with stub components, on the golden
# `cts2` call under a config that moves each detection operating point away
# from its default. Setting any one of the four back to its default changes
# at least one of the two RTTMs, so the digests pin that each value reaches
# the rounds through both commands.
DETECTION_CFG = {"tsvad_threshold": 0.8, "median_taps": 301, "max_rounds": 1, "target_max_s": 4.0}
DETECTION_GOLDEN = {
    "diarize": "ea2a6cc3e0cc0d1a7916b67940a44c207ab176dcc2999dbc78f9669ffa9c11a6",
    "tsvad": "de9eea15e563976113e524f699ca47aa4369e38e8727eda4513a036144f0e71e",
}

# What `diarkit score` prints for the task-1 RTTM of `cts2` against the
# reference that `gen_audio_conversation` gives with it.
SCORE_GOLDEN = "a69ff27c7c653dbc7c5bcc4099477e7948d42b2f84949f9f1ba522e33772638e"

# The weight files that each network's seeded init saves, for seeds 0-3. They
# pin the draw order that the net goldens above and `net-random` depend on.
WEIGHT_INITS = {
    "vad": init_vad_weights,
    "embed": init_embed_weights,
    "tsvad": init_tsvad_weights,
    "v2s": lambda seed: V2sScorer.init(seed).to_store(),
}
WEIGHT_GOLDEN = {
    "vad": [
        "8902d321ce040402ff43e5587cb94c5494aab81413317c58e198ea4805a6c750",
        "23e1f22e4a26fa9d14d6324a153c63e119be06894a1cd957eae26630a8959ad8",
        "f020a6714df07aa6b3adee598989eac2d5de3ee76a8e8044bacfb4feab51a80a",
        "64d8853035432cba0e9b17b8c96b855e4d753ebca1d5b8486144d0e5dfa157b0",
    ],
    "embed": [
        "6cab0771ce190cebe779eda0a6d0f886ed2dbe2db6605f3255f210aeae9adcfa",
        "cb24b2c2e46c2c454768e64a090e0dda0f3ec867536c63d56e0f87d39c827863",
        "f8ca66522d4b58fa1386363103bad0febc9ee33caba70595605839620ac63cc2",
        "979860f8277b884ddba2f6375efc2646a802508bd665c790aa666c4bc87b2d33",
    ],
    "tsvad": [
        "910c20eb28bc023dd0b6cac705de0abccad6df0f3788229e597b2ad22945965a",
        "04bd18538418a7c87f04cdb16ba717d948ae4518908aa4554b8c7dfa69d5b61b",
        "2da76d7aefdfbce5100d309abf12d7b6794c9ac15455703a6d496e51ac616995",
        "e7bc0d2a4fa3e4e70efb4732dab39d68473b6f85b82e2dc9214fbaf34870f3ae",
    ],
    "v2s": [
        "6ce059e859915b8175009056f0bcdc0da94f2bfce064a299303138ec39c03a77",
        "34b5ebb96fd1c4bc546f1262a2c6e79db79166a8ed33fc09ff1173470bdc9953",
        "6b9834ecf36192dc008b1a9b0861be74e0791e880e41f593f06e3ea1c0525066",
        "1d7f9f0a416afaedccfc6da1f556fa19d4c0a268c37c72bea837fb1306011517",
    ],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for file_id, spec in RECORDINGS.items():
        buf, ref = gen_audio_conversation(spec, recording_id=file_id)
        write_wav(out / f"{file_id}.wav", buf)
        write_vad_file(out / f"{file_id}.vad", reference_speech(ref.turns))
        (out / f"{file_id}.rttm").write_text(emit_rttm(ref), encoding="utf-8")
    return out


@pytest.mark.parametrize("mode", [TASK1, TASK2])
def test_golden_outputs(wav_dir, tmp_path, mode):
    wavs = [wav_dir / f"{file_id}.wav" for m, file_id in GOLDEN if m == mode]
    vad_paths = {p.stem: wav_dir / f"{p.stem}.vad" for p in wavs}
    report = tmp_path / "report.jsonl"
    run_pipeline(
        wavs, tmp_path, mode, build_stub_components(), PipelineConfig(), vad_paths, report
    )
    lines = report.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(wavs)
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == REPORT_KEYS
        file_id = entry["file_id"]
        del entry["timing"]
        entry["rttm_path"] = Path(entry["rttm_path"]).name
        got = (
            _sha((tmp_path / f"{file_id}.rttm").read_bytes()),
            _sha(json.dumps(entry, sort_keys=True).encode("utf-8")),
        )
        assert got == GOLDEN[(mode, file_id)], (mode, file_id, line)


def test_golden_score(wav_dir, tmp_path, capsys):
    run_pipeline(
        [wav_dir / "cts2.wav"], tmp_path, TASK1, build_stub_components(), PipelineConfig(),
        {"cts2": wav_dir / "cts2.vad"},
    )
    assert main(["score", str(wav_dir / "cts2.rttm"), str(tmp_path / "cts2.rttm")]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode("utf-8")) == SCORE_GOLDEN, out


def test_golden_net_detector(tmp_path):
    buf, ref = gen_audio_conversation(NET_RECORDING, recording_id="net2")
    write_wav(tmp_path / "net2.wav", buf)
    write_vad_file(tmp_path / "net2.vad", reference_speech(ref.turns))
    components = Components(SpectralEmbedder(), TsvadNet(init_tsvad_weights(0)))
    [result] = run_pipeline(
        [tmp_path / "net2.wav"], tmp_path, TASK1, components, PipelineConfig(),
        {"net2": tmp_path / "net2.vad"},
    )
    assert (result.status, result.bandwidth, result.rounds) == ("ok", "CTS", 4), result
    assert _sha((tmp_path / "net2.rttm").read_bytes()) == NET_GOLDEN_RTTM


def test_golden_net_embedder(tmp_path):
    buf, ref = gen_audio_conversation(NET_EMBED_RECORDING, recording_id="wb3")
    write_wav(tmp_path / "wb3.wav", buf)
    write_vad_file(tmp_path / "wb3.vad", reference_speech(ref.turns))
    components = Components(EmbedNet(init_embed_weights(0)), SpectralTsvad())
    [result] = run_pipeline(
        [tmp_path / "wb3.wav"], tmp_path, TASK1, components, PipelineConfig(),
        {"wb3": tmp_path / "wb3.vad"},
    )
    assert (result.status, result.bandwidth) == ("ok", "NCTS"), result
    assert _sha((tmp_path / "wb3.rttm").read_bytes()) == NET_EMBED_GOLDEN_RTTM


def test_golden_net_vad(tmp_path):
    save_weights(init_vad_weights(0), tmp_path / "vad.bin")
    cfg = PipelineConfig(
        vad_weights=str(tmp_path / "vad.bin"),
        vad_window_s=2.0,
        vad_shift_s=1.0,
        vad_threshold=0.41,
    )
    buf, _ = gen_audio_conversation(NET_VAD_RECORDING)
    components = Components(None, None, build_net_vad(cfg))
    regions = speech_regions_for(buf, TASK2, None, components, cfg)
    assert [(s.start_s, s.end_s) for s in regions] == NET_VAD_GOLDEN


@pytest.fixture(scope="module")
def synth_call(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out-dir", str(out), *SYNTH_ARGS]) == 0
    return out


def test_golden_synth_outputs(synth_call):
    got = {ext: _sha((synth_call / f"synth0007.{ext}").read_bytes()) for ext in SYNTH_GOLDEN}
    assert got == SYNTH_GOLDEN


def test_golden_tsvad_resume(synth_call, tmp_path):
    out = tmp_path / "resumed.rttm"
    assert main(
        [
            "tsvad", "--audio", str(synth_call / "synth0007.wav"),
            "--rttm", str(synth_call / "synth0007.rttm"), "--vad", str(synth_call / "synth0007.vad"),
            "--out", str(out), "--stub-embeddings",
        ]
    ) == 0
    assert _sha(out.read_bytes()) == TSVAD_GOLDEN_RTTM


def test_golden_detection_operating_points(wav_dir, tmp_path):
    cfg = tmp_path / "detection.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in DETECTION_CFG.items()), encoding="utf-8")
    wav = str(wav_dir / "cts2.wav")
    common = ["--stub-embeddings", "--config", str(cfg)]
    assert main(
        ["diarize", wav, "--out-dir", str(tmp_path), "--mode", TASK1, "--vad-dir", str(wav_dir),
         *common]
    ) == 0
    resumed = tmp_path / "resumed.rttm"
    assert main(
        ["tsvad", "--audio", wav, "--rttm", str(wav_dir / "cts2.rttm"),
         "--vad", str(wav_dir / "cts2.vad"), "--out", str(resumed), *common]
    ) == 0
    got = {"diarize": (tmp_path / "cts2.rttm").read_bytes(), "tsvad": resumed.read_bytes()}
    assert {cmd: _sha(data) for cmd, data in got.items()} == DETECTION_GOLDEN


@pytest.mark.parametrize("net", sorted(WEIGHT_GOLDEN))
def test_golden_seeded_weight_bytes(tmp_path, net):
    for seed, want in enumerate(WEIGHT_GOLDEN[net]):
        save_weights(WEIGHT_INITS[net](seed), tmp_path / "w.bin")
        assert _sha((tmp_path / "w.bin").read_bytes()) == want, (net, seed)
