"""Pipeline configuration: a flat key=value file whose defaults are the
published operating points of every stage."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .audio import FRAME_LEN_S, FRAME_SHIFT_S
from .errors import ConfigError, FormatError, LineError


@dataclass
class PipelineConfig:
    # bandwidth partition
    bandwidth_threshold: float = 0.07
    bandwidth_horizon_s: float = 100.0
    # VAD
    vad_window_s: float = 4.0
    vad_shift_s: float = 2.0
    vad_threshold: float = 0.5
    vad_min_dur_s: float = 0.1
    vad_min_gap_s: float = 0.1
    # segmentation
    ncts_win_s: float = 1.5
    ncts_shift_s: float = 0.25
    cts_win_s: float = 0.5
    cts_shift_s: float = 0.25
    merge_threshold: float = 0.6
    min_segment_s: float = 0.25
    # clustering
    ahc_stop_threshold: float = 0.6
    overlap_threshold: float = 0.0
    max_speakers: int = 8
    similarity: str = "cosine"  # "cosine" or "v2s"
    # TSVAD
    tsvad_threshold: float = 0.65
    median_taps: int = 11
    max_rounds: int = 4
    target_max_s: float = 8.0
    # execution
    seed: int = 0
    workers: int = 1
    vad_weights: str = ""
    embed_weights: str = ""
    tsvad_weights: str = ""
    v2s_weights: str = ""

    def validate(self) -> None:
        for f in fields(self):  # NaN fails every comparison below, and infinity passes some
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("cts_win_s", "cts_shift_s", "ncts_win_s", "ncts_shift_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for kind in ("cts", "ncts"):  # segment windows leave no gaps
            win, shift = getattr(self, f"{kind}_win_s"), getattr(self, f"{kind}_shift_s")
            if shift > win:
                raise ConfigError(f"{kind}_shift_s must be <= {kind}_win_s, got {shift} > {win}")
        for name in ("vad_window_s", "vad_shift_s"):  # slid in whole 10 ms frames
            value = getattr(self, name)
            if not value >= FRAME_SHIFT_S:
                raise ConfigError(f"{name} must be >= {FRAME_SHIFT_S} (one frame), got {value}")
        if not self.bandwidth_horizon_s >= FRAME_LEN_S:  # partition reads whole 25 ms frames
            raise ConfigError(
                f"bandwidth_horizon_s must be >= {FRAME_LEN_S} (one frame), "
                f"got {self.bandwidth_horizon_s}"
            )
        if not self.target_max_s > 0:
            raise ConfigError(f"target_max_s must be > 0, got {self.target_max_s}")
        if self.median_taps % 2 == 0 or self.median_taps < 1:
            raise ConfigError(f"median_taps must be odd, got {self.median_taps}")
        if self.similarity not in ("cosine", "v2s"):
            raise ConfigError(f"similarity must be 'cosine' or 'v2s', got {self.similarity!r}")
        if self.max_rounds < 1 or self.max_speakers < 1 or self.workers < 1:
            raise ConfigError("max_rounds, max_speakers, and workers must be >= 1")

    def override(self, **kwargs) -> "PipelineConfig":
        """A validated copy with each key that is not None set; an unknown
        key is a `ConfigError`."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        unknown = set(updates) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(self, **updates)
        cfg.validate()
        return cfg


def read_text(path) -> str:
    """A UTF-8 text input file; one that is not UTF-8 is a `FormatError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def records(text: str, comment: str) -> Iterator[tuple[int, str]]:
    """`(line number, stripped line)` for each line of `read_text` output that
    is neither blank nor a `comment`. Lines end at "\n" alone, as in file
    iteration; a form feed or vertical tab inside a line separates fields."""
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if line and not line.startswith(comment):
            yield lineno, line


def parse_file(path, parse):
    """`parse(read_text(path))`, where a `LineError` names `path`."""
    try:
        return parse(read_text(path))
    except LineError as exc:
        exc.path = path
        raise


def load_config(path) -> PipelineConfig:
    """Read `key=value` lines; blank lines and #-comments are ignored.
    Unknown keys are rejected."""
    types = {f.name: f.type for f in fields(PipelineConfig)}
    casts = {"float": float, "int": int, "str": str}
    values: dict[str, object] = {}
    for lineno, line in records(read_text(path), "#"):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = casts[types[key]](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg


def save_config(cfg: PipelineConfig, path) -> None:
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
