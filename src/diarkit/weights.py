"""Named-parameter container with a bit-exact binary file format.

File layout (little-endian throughout):
  magic "NNW1" (4 bytes)
  entry count        u32
  per entry:
    name length      u32
    name             UTF-8 bytes
    rank             u32
    dims             rank x u32
    values           float32, row-major

Entries are written in sorted name order so identical stores serialize to
identical bytes. Values are held as float32 in memory, which makes
load(save(w)) == w bit-exact.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"NNW1"


class WeightStore:
    """Mapping from dot-separated parameter names to float32 arrays."""

    def __init__(self, entries: dict[str, np.ndarray] | None = None):
        self._entries: dict[str, np.ndarray] = {}
        if entries:
            for name, value in entries.items():
                self.put(name, value)

    def put(self, name: str, value) -> None:
        arr = np.ascontiguousarray(value, dtype=np.float32)
        self._entries[name] = arr

    def get(self, name: str) -> np.ndarray:
        if name not in self._entries:
            raise KeyError(f"no weight named {name!r}")
        return self._entries[name]

    def get64(self, name: str) -> np.ndarray:
        """Fetch a parameter upcast to float64 for computation."""
        return self.get(name).astype(np.float64)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightStore):
            return NotImplemented
        if self.names() != other.names():
            return False
        return all(
            a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            for a, b in ((self._entries[n], other._entries[n]) for n in self.names())
        )


def save_weights(store: WeightStore, path) -> None:
    names = store.names()
    chunks = [MAGIC, struct.pack("<I", len(names))]
    for name in names:
        arr = store.get(name)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_weights(path) -> WeightStore:
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != MAGIC:
        raise FormatError(f"{path}: not a weight file (bad magic)")
    view = memoryview(data)  # slices share the file's bytes; each value is copied once
    pos = 4

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"{path}: truncated at byte {pos}")
        out = view[pos : pos + n]
        pos += n
        return out

    (count,) = struct.unpack("<I", take(4))
    store = WeightStore()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: entry name at byte {pos - name_len} is not valid UTF-8"
            ) from exc
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        size = math.prod(dims)
        raw = take(4 * size)
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        store.put(name, arr)
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return store
