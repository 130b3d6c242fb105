import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import make_volume, random_volume

from svtf import (
    CorruptStream,
    DataError,
    SvtConfig,
    VoxelFormat,
    apply_upload,
    build_svt,
    load_svtf,
    save_svtf,
    serialize_upload,
    window_table,
)
from svtf.upload import WINDOW_ELEMENTS, load_upload, save_upload


def test_empty_svt_zero_tiles_zero_windows():
    svt = build_svt(make_volume(np.zeros((16, 16, 16), np.uint8)))
    buf = serialize_upload(svt)
    assert buf.tile_count == 0
    assert buf.records.size == 0
    assert buf.windows == []
    assert buf.total_bytes == 0
    assert not buf.exceeds_uint32


def test_window_table_split_at_limit():
    assert window_table(2**27 + 1) == [(0, 2**27), (2**27, 1)]
    assert window_table(2**27) == [(0, 2**27)]
    assert window_table(0) == []
    assert window_table(10, 4) == [(0, 4), (4, 4), (8, 2)]


def test_window_table_rejects_oversize():
    with pytest.raises(ValueError):
        window_table(10, WINDOW_ELEMENTS + 1)


def test_roundtrip_identity(rng):
    for fmt in (VoxelFormat.U8, VoxelFormat.F32):
        for _ in range(8):
            vol = random_volume(rng, max_dim=64, fmt=fmt, fill=rng.uniform(0.01, 0.9))
            svt = build_svt(vol)
            buf = serialize_upload(svt)
            atlas = apply_upload(buf, svt.config, svt.mips)
            assert atlas.data.dtype == svt.atlas.data.dtype
            np.testing.assert_array_equal(atlas.data, svt.atlas.data)


def test_roundtrip_with_small_windows(rng):
    vol = random_volume(rng, max_dim=48, fill=0.4)
    svt = build_svt(vol)
    reference = apply_upload(serialize_upload(svt), svt.config, svt.mips)
    # Tiny windows force tiles to straddle window boundaries.
    for window in (7, 64, 1000):
        buf = serialize_upload(svt, window_elements=window)
        assert all(count <= window for _, count in buf.windows)
        atlas = apply_upload(buf, svt.config, svt.mips)
        np.testing.assert_array_equal(atlas.data, reference.data)


def test_single_voxel_maps_to_slot():
    data = np.zeros((16, 16, 16), np.uint8)
    data[4, 5, 6] = 200
    svt = build_svt(make_volume(data))
    buf = serialize_upload(svt)
    assert buf.tile_count == 1
    values = buf.records[svt.config.occupancy_mask_bytes :]
    assert values.tolist() == [200]
    atlas = apply_upload(buf, svt.config, svt.mips)
    nz = np.argwhere(atlas.data != 0)
    assert len(nz) == 1
    # Slot 0; pad=1: logical voxel (z=4, y=5, x=6) sits at local +1.
    assert nz[0].tolist() == [0, 5, 6, 7]


def test_offsets_strictly_increasing(rng):
    vol = random_volume(rng, max_dim=64, fill=0.3)
    svt = build_svt(vol)
    buf = serialize_upload(svt)
    offsets = buf.tile_data_offsets.astype(np.int64)
    assert (np.diff(offsets) > 0).all()
    mask_bytes = svt.config.occupancy_mask_bytes
    last_mask = buf.records[offsets[-1] : offsets[-1] + mask_bytes]
    last_values = int(
        np.unpackbits(last_mask, count=svt.config.padded_size**3, bitorder="little").sum()
    )
    last_size = mask_bytes + last_values * svt.format.bytes_per_voxel
    assert buf.total_bytes == int(offsets[-1]) + last_size


def test_truncated_stream_rejected(rng):
    vol = random_volume(rng, max_dim=32, fill=0.5)
    svt = build_svt(vol)
    buf = serialize_upload(svt)
    buf.records = buf.records[:-1]
    with pytest.raises(CorruptStream):
        apply_upload(buf, svt.config, svt.mips)


def test_bad_offsets_rejected(rng):
    vol = random_volume(rng, max_dim=32, fill=0.5)
    svt = build_svt(vol)
    buf = serialize_upload(svt)
    if buf.tile_count < 2:
        pytest.skip("need two tiles")
    buf.tile_data_offsets = buf.tile_data_offsets.copy()
    buf.tile_data_offsets[1] += 1
    with pytest.raises(CorruptStream):
        apply_upload(buf, svt.config, svt.mips)


def test_bad_window_partition_rejected(rng):
    vol = random_volume(rng, max_dim=32, fill=0.5)
    svt = build_svt(vol)
    buf = serialize_upload(svt)
    buf.windows = [(0, buf.total_elements + 5)] if buf.total_elements else [(0, 5)]
    with pytest.raises(CorruptStream):
        apply_upload(buf, svt.config, svt.mips)


def test_tile_count_mismatch_rejected(rng):
    vol = random_volume(rng, max_dim=32, fill=0.5)
    svt = build_svt(vol)
    buf = serialize_upload(svt)
    with pytest.raises(CorruptStream):
        apply_upload(buf, svt.config, svt.mips[:-1])


def test_overflow_flag_on_synthetic_totals():
    # The flag is pure arithmetic on total_bytes; fabricate a buffer whose
    # records are 2^32 bytes without materializing 4 GiB.
    svt = build_svt(make_volume(np.ones((16, 16, 16), np.uint8)))
    buf = serialize_upload(svt)
    assert not buf.exceeds_uint32
    import svtf.upload as up

    big = up.UploadBuffer(
        config=buf.config,
        format=buf.format,
        records=np.broadcast_to(np.uint8(0), 2**32),
        tile_data_offsets=buf.tile_data_offsets,
        windows=buf.windows,
    )
    assert big.total_bytes == 2**32
    assert big.exceeds_uint32


def test_overflow_warning_logged(caplog):
    import logging

    import svtf.upload as up

    svt = build_svt(make_volume(np.ones((16, 16, 16), np.uint8)))
    with caplog.at_level(logging.WARNING, logger="svtf.upload"):
        with np.errstate(all="ignore"):
            # Monkeypatch-free: shrink the limit so a small stream "overflows".
            old = up.UINT32_LIMIT
            up.UINT32_LIMIT = 1
            try:
                buf = up.serialize_upload(svt)
                assert buf.exceeds_uint32
            finally:
                up.UINT32_LIMIT = old
    assert any("uint32" in rec.message for rec in caplog.records)


def test_overflow_flag_must_match_the_record_bytes(tmp_path):
    # Bytes 52-55 of the header: 0 for a stream under 2^32 bytes, else 1.
    svt = build_svt(make_volume(np.ones((16, 16, 16), np.uint8)))
    path = tmp_path / "flag.svtu"
    save_upload(serialize_upload(svt), path)
    blob = bytearray(path.read_bytes())
    assert blob[52:56] == bytes(4)
    for flag in (1, 2, 2**31):
        blob[52:56] = flag.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptStream, match=f"{path}: uint32 overflow flag {flag}"):
            load_upload(path)


@pytest.mark.parametrize(
    "field, value",
    [("tile_size", 8), ("pad", 2), ("empty_value", 7.0), ("empty_value", -0.0),
     ("float_empty_threshold", 0.5)],
)
def test_stream_applied_under_another_config_rejected(rng, field, value):
    svt = build_svt(random_volume(rng, max_dim=32, fill=0.5))
    buf = serialize_upload(svt)
    other = dataclasses.replace(svt.config, **{field: value})
    with pytest.raises(CorruptStream, match="the config's are"):
        apply_upload(buf, other, svt.mips)
    # The extent is the caller's: the stream does not hold one.
    wider = dataclasses.replace(svt.config, max_atlas_extent=4096)
    atlas = apply_upload(buf, wider, svt.mips)
    assert atlas.data.shape == svt.atlas.data.shape


def test_stream_file_roundtrip(tmp_path, rng):
    for fmt in (VoxelFormat.U8, VoxelFormat.F32):
        vol = random_volume(rng, max_dim=40, fmt=fmt, fill=0.2)
        svt = build_svt(vol)
        buf = serialize_upload(svt, window_elements=500)
        path = tmp_path / f"stream_{fmt.value}.svtu"
        save_upload(buf, path)
        loaded = load_upload(path, max_atlas_extent=svt.config.max_atlas_extent)
        assert loaded.total_bytes == buf.total_bytes
        assert loaded.windows == buf.windows
        assert loaded.exceeds_uint32 == buf.exceeds_uint32
        np.testing.assert_array_equal(loaded.tile_data_offsets, buf.tile_data_offsets)
        atlas = apply_upload(loaded, svt.config, svt.mips)
        np.testing.assert_array_equal(atlas.data, svt.atlas.data)


def test_loaded_stream_keeps_its_records_when_the_file_is_replaced(tmp_path, rng):
    path = tmp_path / "a.svtu"
    first = build_svt(random_volume(rng, max_dim=40, fmt=VoxelFormat.F32, fill=0.3))
    save_upload(serialize_upload(first), path)
    tracemalloc.start()
    try:
        loaded = load_upload(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size // 4  # the record bytes are mapped, not copied
    second = build_svt(random_volume(rng, max_dim=30, fill=0.1))
    save_upload(serialize_upload(second), path)
    atlas = apply_upload(loaded, first.config, first.mips)
    assert atlas.data.tobytes() == first.atlas.data.tobytes()
    atlas = apply_upload(load_upload(path), second.config, second.mips)
    assert atlas.data.tobytes() == second.atlas.data.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["a.svtu"]


def test_empty_stream_file_rejected(tmp_path):
    path = tmp_path / "empty.svtu"
    path.write_bytes(b"")
    with pytest.raises(DataError, match="not an SVTU upload stream"):
        load_upload(path)


def test_truncated_stream_file_rejected(tmp_path, rng):
    vol = random_volume(rng, max_dim=32, fill=0.5)
    svt = build_svt(vol)
    path = tmp_path / "t.svtu"
    save_upload(serialize_upload(svt), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CorruptStream):
        load_upload(path)


def test_offset_arithmetic_against_extended_precision_oracle(rng):
    # Synthetic records totalling ~1e10 payload voxels at 4 B/voxel: the
    # uint64 cumulative offsets the file stores must equal the values from
    # arbitrary-precision integer accumulation. Arithmetic only.
    cfg = SvtConfig()
    mask = cfg.occupancy_mask_bytes
    counts = rng.integers(1, 5832, size=100_000, dtype=np.int64)
    scale = max(1, int(10**10 // int(counts.sum())))
    record_sizes = (counts * scale * 4 + mask).astype(np.uint64)
    offsets64 = np.zeros(len(counts), dtype=np.uint64)
    np.cumsum(record_sizes[:-1], out=offsets64[1:])
    oracle = []
    running = 0
    for size in record_sizes.tolist():
        oracle.append(running)
        running += size
    assert offsets64.tolist() == oracle
    assert running > 2**32  # well past the uint32 guard
    assert running < 2**64


def test_upload_of_a_loaded_container_builds_no_atlas(tmp_path):
    # One voxel in each of 4^3 tiles: the atlas is mostly empty padding
    # and unused slots, so it is many times the record bytes.
    data = np.zeros((64, 64, 64), np.float32)
    data[3::16, 5::16, 7::16] = np.arange(1, 65, dtype=np.float32).reshape(4, 4, 4)
    svt = build_svt(make_volume(data, VoxelFormat.F32))
    path = tmp_path / "sparse.svtf"
    save_svtf(svt, path)
    assert svt.atlas.data.nbytes >= 8 * serialize_upload(svt).records.size

    tracemalloc.start()
    try:
        buf = serialize_upload(load_svtf(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < svt.atlas.data.nbytes
    atlas = apply_upload(buf, svt.config, svt.mips)
    np.testing.assert_array_equal(atlas.data, svt.atlas.data)
