"""Config defaults, file round-trip, and rejection of unknown keys and bad
values."""

from dataclasses import fields

import pytest

from diarkit.config import PipelineConfig, load_config, save_config
from diarkit.errors import ConfigError, FormatError


def test_defaults_are_published_operating_points():
    cfg = PipelineConfig()
    assert cfg.bandwidth_threshold == 0.07
    assert cfg.vad_threshold == 0.5
    assert cfg.vad_window_s == 4.0
    assert cfg.vad_shift_s == 2.0
    assert cfg.merge_threshold == 0.6
    assert cfg.ahc_stop_threshold == 0.6
    assert cfg.overlap_threshold == 0.0
    assert cfg.tsvad_threshold == 0.65
    assert cfg.median_taps == 11
    assert (cfg.ncts_win_s, cfg.ncts_shift_s) == (1.5, 0.25)
    assert (cfg.cts_win_s, cfg.cts_shift_s) == (0.5, 0.25)
    assert cfg.target_max_s == 8.0


def test_file_roundtrip(tmp_path):
    cfg = PipelineConfig(merge_threshold=0.7, workers=4, similarity="v2s")
    path = tmp_path / "p.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("merge_threshold=0.7\nnot_a_key=1\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("median_taps=eleven\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_comments_and_blanks_ok(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nvad_threshold=0.6\n")
    assert load_config(path).vad_threshold == 0.6


def test_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(median_taps=10).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(similarity="plda").validate()


def test_override():
    cfg = PipelineConfig()
    assert cfg.override(seed=7).seed == 7
    with pytest.raises(ConfigError):
        cfg.override(bogus=1)


WINDOWS = ["vad_window_s", "vad_shift_s", "cts_win_s", "cts_shift_s", "ncts_win_s", "ncts_shift_s"]


@pytest.mark.parametrize("key", WINDOWS)
@pytest.mark.parametrize("value", [0.0, -0.5, float("nan")])
def test_non_positive_window_or_shift_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        PipelineConfig(**{key: value}).validate()


@pytest.mark.parametrize("key", ["vad_window_s", "vad_shift_s"])
def test_vad_window_or_shift_below_one_frame_rejected(key):
    # 4 ms rounds to zero 10 ms frames.
    with pytest.raises(ConfigError, match=key):
        PipelineConfig(**{key: 0.004}).validate()
    PipelineConfig(**{key: 0.01}).validate()


@pytest.mark.parametrize("value", [0.0, -8.0, float("nan")])
def test_non_positive_target_max_rejected(value):
    # No target speech at all: every round-1 target would be empty.
    with pytest.raises(ConfigError, match="target_max_s"):
        PipelineConfig(target_max_s=value).validate()


@pytest.mark.parametrize("value", [0.0, 0.02, -1.0, float("nan")])
def test_bandwidth_horizon_below_one_frame_rejected(value):
    # The partition needs one 25 ms frame of the recording.
    with pytest.raises(ConfigError, match="bandwidth_horizon_s"):
        PipelineConfig(bandwidth_horizon_s=value).validate()
    PipelineConfig(bandwidth_horizon_s=0.025).validate()


@pytest.mark.parametrize("kind", ["cts", "ncts"])
def test_segment_shift_longer_than_window_rejected(kind):
    win = getattr(PipelineConfig, f"{kind}_win_s")
    with pytest.raises(ConfigError, match=f"{kind}_shift_s"):
        PipelineConfig(**{f"{kind}_shift_s": win + 0.25}).validate()
    PipelineConfig(**{f"{kind}_shift_s": win}).validate()


def test_not_utf8_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed=1\n# \xff\n")
    with pytest.raises(FormatError, match="bad.cfg"):
        load_config(path)


FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(tmp_path, key, raw):
    # Every comparison with NaN is false, and infinity passes every lower bound.
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        PipelineConfig().override(**{key: float(raw)})
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key}={raw}\n")
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(path)


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        PipelineConfig().override(seed=-1)
    path = tmp_path / "bad.cfg"
    path.write_text("seed=-1\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    assert PipelineConfig().override(seed=0).seed == 0
