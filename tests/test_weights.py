"""Weight store round-trips and file-format validation."""

import struct

import numpy as np
import pytest

from diarkit.errors import FormatError
from diarkit.weights import WeightStore, load_weights, save_weights


def test_empty_store_roundtrip(tmp_path):
    path = tmp_path / "empty.nnw"
    save_weights(WeightStore(), path)
    assert load_weights(path) == WeightStore()


def test_single_tensor_roundtrip_bit_exact(tmp_path):
    store = WeightStore({"layer.kernel": np.array([[1.5, -2.25], [0.1, 3.0]])})
    path = tmp_path / "one.nnw"
    save_weights(store, path)
    back = load_weights(path)
    assert back == store
    assert back.get("layer.kernel").dtype == np.float32
    assert np.array_equal(back.get("layer.kernel"), store.get("layer.kernel"))


def test_many_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    store = WeightStore(
        {
            f"m.p{i}": rng.normal(size=rng.integers(1, 5, size=rng.integers(1, 4))).astype(
                np.float32
            )
            for i in range(20)
        }
    )
    path = tmp_path / "many.nnw"
    save_weights(store, path)
    assert load_weights(path) == store


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    entries = {f"k{i}": rng.normal(size=(3, 3)) for i in range(5)}
    a, b = tmp_path / "a.nnw", tmp_path / "b.nnw"
    save_weights(WeightStore(entries), a)
    save_weights(WeightStore(dict(reversed(list(entries.items())))), b)
    assert a.read_bytes() == b.read_bytes()


def test_corrupted_magic(tmp_path):
    path = tmp_path / "bad.nnw"
    save_weights(WeightStore({"x": np.ones(2)}), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_weights(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "trunc.nnw"
    save_weights(WeightStore({"x": np.ones(100)}), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError):
        load_weights(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "extra.nnw"
    save_weights(WeightStore({"x": np.ones(2)}), path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError):
        load_weights(path)


def test_wire_format_layout(tmp_path):
    # One entry "w" with shape (2,) and values [1.0, 2.0]: check exact bytes.
    path = tmp_path / "wire.nnw"
    save_weights(WeightStore({"w": np.array([1.0, 2.0])}), path)
    expected = (
        b"NNW1"
        + struct.pack("<I", 1)
        + struct.pack("<I", 1)
        + b"w"
        + struct.pack("<I", 1)
        + struct.pack("<I", 2)
        + struct.pack("<2f", 1.0, 2.0)
    )
    assert path.read_bytes() == expected


def test_entry_name_not_utf8(tmp_path):
    # One entry whose 2-byte name is two UTF-8 continuation bytes with no lead byte.
    path = tmp_path / "badname.nnw"
    path.write_bytes(
        b"NNW1"
        + struct.pack("<I", 1)
        + struct.pack("<I", 2)
        + b"\x80\x80"
        + struct.pack("<I", 1)
        + struct.pack("<I", 1)
        + struct.pack("<f", 1.0)
    )
    with pytest.raises(FormatError, match=r"badname\.nnw: entry name at byte 12 is not valid UTF-8"):
        load_weights(path)
