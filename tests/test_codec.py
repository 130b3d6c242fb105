"""The array tile-record codec against the per-tile codec it replaced.

Both file formats must stay byte-identical to what the per-tile writers in
conftest produce, atlases must match, and every corrupt record section must
end in CorruptStream (exit code 2 from the CLI).
"""

import struct

import numpy as np
import pytest
from conftest import (
    _REF_SVTF_HEADER,
    make_volume,
    random_volume,
    reference_apply_upload,
    reference_load_svtf,
    reference_load_upload,
    reference_save_svtf,
    reference_save_upload,
    reference_serialize_upload,
)

from svtf import (
    CorruptStream,
    SvtConfig,
    VoxelFormat,
    apply_upload,
    build_svt,
    load_svtf,
    save_svtf,
    serialize_upload,
)
from svtf.cli import main
from svtf.upload import WINDOW_ELEMENTS, load_upload, save_upload

CASES = {
    "u8": (VoxelFormat.U8, SvtConfig()),
    "f32": (VoxelFormat.F32, SvtConfig()),
    # span^3 = 125: the last mask byte has three spare bits.
    "u8_tile3_pad1": (VoxelFormat.U8, SvtConfig(tile_size=3, pad=1)),
    "f32_tile3_pad1": (VoxelFormat.F32, SvtConfig(tile_size=3, pad=1)),
    "u8_pad2": (VoxelFormat.U8, SvtConfig(pad=2)),
    "f32_threshold": (VoxelFormat.F32, SvtConfig(float_empty_threshold=5.0)),
}


def assert_codecs_agree(tmp_path, svt, windows=(WINDOW_ELEMENTS, 7, 1000)):
    new, ref = tmp_path / "new.svtf", tmp_path / "ref.svtf"
    save_svtf(svt, new)
    reference_save_svtf(svt, ref)
    container = new.read_bytes()
    assert container == ref.read_bytes()
    loaded = load_svtf(new)
    assert loaded.atlas.dims == svt.atlas.dims
    assert loaded.atlas.data.dtype == svt.atlas.data.dtype
    np.testing.assert_array_equal(loaded.atlas.data, reference_load_svtf(ref).atlas.data)
    np.testing.assert_array_equal(loaded.atlas.data, svt.atlas.data)

    extent = svt.config.max_atlas_extent
    for window in windows:
        buf = serialize_upload(svt, window_elements=window)
        ref_buf = reference_serialize_upload(svt, window_elements=window)
        assert buf.windows == ref_buf.windows
        assert buf.total_elements == ref_buf.total_elements
        assert buf.total_bytes == ref_buf.total_bytes
        np.testing.assert_array_equal(buf.tile_data_offsets, ref_buf.tile_data_offsets)

        # The container's record section, right after its offset table, is
        # the upload stream's record bytes.
        records = buf.records.tobytes()
        start = len(container) - len(records)
        assert container[start:] == records
        table = buf.tile_data_offsets.astype("<u8").tobytes()
        assert container[start - len(table) : start] == table

        stream, ref_stream = tmp_path / "new.svtu", tmp_path / "ref.svtu"
        save_upload(buf, stream)
        reference_save_upload(ref_buf, ref_stream)
        assert stream.read_bytes() == ref_stream.read_bytes()
        atlas = apply_upload(load_upload(stream, max_atlas_extent=extent), svt.config, svt.mips)
        ref_atlas = reference_apply_upload(
            reference_load_upload(ref_stream, max_atlas_extent=extent), svt.config, svt.mips
        )
        assert atlas.dims == ref_atlas.dims
        assert atlas.data.dtype == ref_atlas.data.dtype
        np.testing.assert_array_equal(atlas.data, ref_atlas.data)


@pytest.mark.parametrize("case", CASES)
def test_files_byte_identical_to_per_tile_codec(tmp_path, rng, case):
    fmt, config = CASES[case]
    for fill in (0.02, 0.3, 0.9):
        svt = build_svt(random_volume(rng, max_dim=40, fmt=fmt, fill=fill), config)
        assert_codecs_agree(tmp_path, svt)


@pytest.mark.parametrize("fmt", [VoxelFormat.U8, VoxelFormat.F32])
def test_empty_svt_byte_identical_to_per_tile_codec(tmp_path, fmt):
    svt = build_svt(make_volume(np.zeros((20, 16, 9), fmt.dtype), fmt))
    assert svt.slot_count == 0
    assert_codecs_agree(tmp_path, svt)


def test_spare_mask_bits_are_ignored(tmp_path, rng):
    # span^3 = 125 leaves three unused bits in each mask's last byte; like
    # the per-tile reader, the codec ignores them.
    svt = build_svt(random_volume(rng, max_dim=12, fill=0.5), CASES["u8_tile3_pad1"][1])
    path = tmp_path / "spare.svtf"
    save_svtf(svt, path)
    blob = bytearray(path.read_bytes())
    records_start = len(blob) - serialize_upload(svt).records.size
    blob[records_start + svt.config.occupancy_mask_bytes - 1] |= 0xE0
    path.write_bytes(bytes(blob))
    np.testing.assert_array_equal(load_svtf(path).atlas.data, svt.atlas.data)
    np.testing.assert_array_equal(reference_load_svtf(path).atlas.data, svt.atlas.data)


# --- corrupt record sections ---


@pytest.fixture
def written(tmp_path, rng):
    """A dense u8 SVT with its .svtf and .svtu files."""
    svt = build_svt(random_volume(rng, max_dim=40, fill=0.5))
    svt_path, stream_path = tmp_path / "good.svtf", tmp_path / "good.svtu"
    save_svtf(svt, svt_path)
    buf = serialize_upload(svt)
    save_upload(buf, stream_path)
    assert buf.tile_count >= 2
    return svt, buf, svt_path, stream_path


def _put_u64(blob, pos, value):
    struct.pack_into("<Q", blob, pos, value)


def corrupt(blob: bytes, buf, kind: str, tile_count_fields) -> bytes:
    """Apply one corruption to a file whose tail is offset table + records."""
    mask_bytes = buf.config.occupancy_mask_bytes
    records_start = len(blob) - buf.records.size
    table_start = records_start - 8 * buf.tile_count
    last = records_start + int(buf.tile_data_offsets[-1])
    out = bytearray(blob)
    if kind == "cut_at_record_boundary":
        return bytes(out[:last])
    if kind == "cut_mid_mask":
        return bytes(out[: last + mask_bytes // 2])
    if kind == "cut_mid_payload":
        assert len(blob) - (last + mask_bytes) >= 2
        return bytes(out[: last + mask_bytes + 1])
    if kind == "cut_in_offset_table":
        return bytes(out[: table_start + 12])
    if kind == "offset_past_end":
        _put_u64(out, table_start + 8 * (buf.tile_count - 1), 2**64 - 1)
    elif kind == "offset_breaks_contiguity":
        _put_u64(out, table_start + 8, int(buf.tile_data_offsets[1]) + 1)
    elif kind == "offsets_swapped":
        # Every offset still starts a record and the sizes still sum up.
        _put_u64(out, table_start, int(buf.tile_data_offsets[1]))
        _put_u64(out, table_start + 8, int(buf.tile_data_offsets[0]))
    elif kind == "offset_table_short":
        # Claim one tile more than the offset table holds.
        for pos in tile_count_fields(table_start):
            (count,) = struct.unpack_from("<Q", out, pos)
            _put_u64(out, pos, count + 1)
    else:
        raise AssertionError(kind)
    return bytes(out)


KINDS = [
    "cut_at_record_boundary",
    "cut_mid_mask",
    "cut_mid_payload",
    "cut_in_offset_table",
    "offset_past_end",
    "offset_breaks_contiguity",
    "offsets_swapped",
    "offset_table_short",
]


def _svtf_tile_count_fields(table_start):
    # The total tile count just before the table, and mip 0's count, so the
    # per-mip sum still agrees and the short table itself is what is read.
    return (table_start - 8, _REF_SVTF_HEADER.size + 24)


def _svtu_tile_count_fields(table_start):
    return (36,)  # tile count field of the SVTU header


def one_error_line(capsys, argv, error="CorruptStream"):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {error}:")


@pytest.mark.parametrize("kind", KINDS)
def test_corrupt_svtf_fails_closed(tmp_path, capsys, written, kind):
    svt, buf, svt_path, _ = written
    bad = tmp_path / "bad.svtf"
    bad.write_bytes(corrupt(svt_path.read_bytes(), buf, kind, _svtf_tile_count_fields))
    with pytest.raises(CorruptStream):
        load_svtf(bad)
    one_error_line(capsys, ["inspect", str(bad)])


@pytest.mark.parametrize("kind", KINDS)
def test_corrupt_svtu_fails_closed(tmp_path, capsys, written, kind):
    svt, buf, svt_path, stream_path = written
    bad = tmp_path / "bad.svtu"
    bad.write_bytes(corrupt(stream_path.read_bytes(), buf, kind, _svtu_tile_count_fields))
    with pytest.raises(CorruptStream):
        apply_upload(load_upload(bad), svt.config, svt.mips)
    one_error_line(capsys, ["apply-upload", str(svt_path), str(bad)])


def test_trailing_bytes_rejected(tmp_path, written):
    svt, _, svt_path, stream_path = written
    for path in (svt_path, stream_path):
        path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CorruptStream):
        load_svtf(svt_path)
    with pytest.raises(CorruptStream):
        apply_upload(load_upload(stream_path), svt.config, svt.mips)
