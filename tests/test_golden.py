"""Golden outputs: SHA-256 digests of the RTTMs and report lines that fixed
synthetic recordings give with stub components, in task 1 and task 2.

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
from diarkit.config import PipelineConfig
from diarkit.pipeline import TASK1, TASK2, build_stub_components, run_pipeline
from diarkit.stubs import reference_speech
from diarkit.synth import SynthSpec, gen_audio_conversation
from diarkit.vad import write_vad_file

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
        "f29c390edb03b4d4968008b62824732f683dfbaf7385da8413e7ac5ca985f20e",
        "c074a85b4108b56106b5815105fb3963f4d810a3691c3acb9b33612fd6eba6af",
    ),
    (TASK1, "ncts8"): (
        "636b74a5f0bb7f32400731d1aa666f9fb9a8b933864791193ea0ad0b5342a2a7",
        "6c866f9b060f65771a6a1d370faab195022e4fe23a14a5453cfa2281ed23d80e",
    ),
    (TASK2, "cts2"): (
        "7796bec91cd83433a53eb6d3414411727354e837c9f48eefa6875b2ca5283697",
        "01025c14d3742a405a121af4d4f31b810a880e556775ba1214b332de9c1da714",
    ),
    (TASK2, "ncts4"): (
        "1b478a6c1426455685f3edd20c1fb1ea700c9f8471e4bc02fc8f9e9eb63285ef",
        "e1deabd200c049b9fb99e7c39c8615a6ab0ab44d91e0bf8cfc40c5a99d9b9194",
    ),
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
