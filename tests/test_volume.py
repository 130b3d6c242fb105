import numpy as np
import pytest
from conftest import make_volume

from svtf import (
    DegenerateRange,
    SizeMismatch,
    VolumeDims,
    VoxelFormat,
    load_volume,
    normalize_to_u8,
    read_raw,
    save_volume,
)

SURVEY_RANGE = (-34.50, 36.45)


def test_read_raw_all_zero_u8(tmp_path):
    path = tmp_path / "zero.raw"
    path.write_bytes(bytes(8))
    vol = read_raw(path, VolumeDims(2, 2, 2), VoxelFormat.U8)
    assert vol.value_range == (0.0, 0.0)
    assert vol.data.shape == (2, 2, 2)
    assert not vol.data.any()


def test_read_raw_big_endian_float(tmp_path):
    path = tmp_path / "one.raw"
    path.write_bytes(bytes([0x42, 0xC8, 0x00, 0x00]))
    vol = read_raw(path, VolumeDims(1, 1, 1), VoxelFormat.F32, endianness="big")
    assert vol.data[0, 0, 0] == 100.0


@pytest.mark.parametrize("fmt", [VoxelFormat.U8, VoxelFormat.F32])
def test_read_raw_big_endian_round_trip(tmp_path, rng, fmt):
    if fmt is VoxelFormat.U8:
        data = rng.integers(0, 256, size=(3, 4, 5)).astype(np.uint8)
    else:
        data = rng.standard_normal((3, 4, 5)).astype(np.float32) * 1e3
    path = tmp_path / "big.raw"
    path.write_bytes(data.astype(fmt.dtype.newbyteorder(">")).tobytes())
    vol = read_raw(path, VolumeDims(5, 4, 3), fmt, endianness="big")
    assert vol.data.dtype == fmt.dtype and vol.data.dtype.isnative
    assert vol.data.tobytes() == data.tobytes()
    assert vol.value_range == (float(data.min()), float(data.max()))


def test_read_raw_size_mismatch(tmp_path):
    path = tmp_path / "short.raw"
    path.write_bytes(bytes(7))
    with pytest.raises(SizeMismatch):
        read_raw(path, VolumeDims(2, 2, 2), VoxelFormat.U8)


@pytest.mark.parametrize(
    "value,expected",
    [
        (-34.50, 0),  # range minimum
        (36.45, 255),  # range maximum
        (0.975, 128),  # exact midpoint, round-half-up
        (-100.0, 0),  # clamped below
        (100.0, 255),  # clamped above
    ],
)
def test_normalize_examples(value, expected):
    vol = make_volume(np.full((1, 1, 1), value, dtype=np.float32), VoxelFormat.F32)
    out = normalize_to_u8(vol, SURVEY_RANGE)
    assert out.data[0, 0, 0] == expected
    assert out.format is VoxelFormat.U8
    assert out.value_range == SURVEY_RANGE


def test_normalize_degenerate_range():
    vol = make_volume(np.zeros((1, 1, 1), dtype=np.float32), VoxelFormat.F32)
    for value_range in [(3.0, 3.0), (-np.inf, np.inf), (0.0, np.inf), (-1e308, 1e308)]:
        with pytest.raises(DegenerateRange):
            normalize_to_u8(vol, value_range)
    with pytest.raises(DegenerateRange):
        normalize_to_u8(make_volume(np.array([[[0.0, np.inf]]], np.float32), VoxelFormat.F32))


def test_normalize_monotone(rng):
    values = np.sort(rng.uniform(-50, 50, size=512)).astype(np.float32)
    vol = make_volume(values.reshape(1, 1, -1), VoxelFormat.F32)
    out = normalize_to_u8(vol, SURVEY_RANGE).data.ravel().astype(np.int64)
    assert (np.diff(out) >= 0).all()


def test_volume_roundtrip_via_sidecar(tmp_path, rng):
    data = rng.standard_normal((5, 7, 3)).astype(np.float32)
    vol = make_volume(data, VoxelFormat.F32)
    path = tmp_path / "vol.raw"
    save_volume(vol, path)
    loaded = load_volume(path)
    assert loaded.format is VoxelFormat.F32
    assert loaded.dims == vol.dims
    np.testing.assert_array_equal(loaded.data, vol.data)
    assert loaded.value_range == vol.value_range


def test_sidecar_override(tmp_path):
    path = tmp_path / "vol.raw"
    path.write_bytes(bytes(range(8)))
    vol = load_volume(path, dims=VolumeDims(8, 1, 1), format=VoxelFormat.U8)
    assert vol.data.ravel().tolist() == list(range(8))


def test_dims_validation():
    with pytest.raises(ValueError):
        VolumeDims(0, 1, 1)
