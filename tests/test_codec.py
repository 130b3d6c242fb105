"""The array tile-record codec against the per-tile codec it replaced.

Both file formats must stay byte-identical to what the per-tile writers in
conftest produce, atlases must match, and every corrupt record section must
end in CorruptStream (exit code 2 from the CLI).
"""

import struct
import tracemalloc

import numpy as np
import pytest
from conftest import (
    _REF_SVTF_HEADER,
    assert_stats_match,
    make_volume,
    random_volume,
    reference_apply_upload,
    reference_load_svtf,
    reference_load_upload,
    reference_save_svtf,
    reference_save_upload,
    reference_serialize_upload,
    reference_slot_order,
)

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
)
from svtf import svt as svt_module
from svtf.cli import main
from svtf.svt import EMPTY_ENTRY, atlas_dims, pack_entry, slot_grid_for
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
    assert loaded.atlas.data.dtype == svt.atlas.data.dtype
    span, n = svt.config.padded_size, svt.slot_count
    ref_loaded = reference_load_svtf(ref)
    assert_stats_match(svt.stats, ref_loaded.reference_stats)
    assert_stats_match(loaded.stats, ref_loaded.reference_stats)
    ref_atlas = ref_loaded.atlas
    assert ref_atlas.dims == atlas_dims(n, svt.config)
    ref_loaded = reference_slot_order(ref_atlas.data, span, n)
    np.testing.assert_array_equal(loaded.atlas.data, ref_loaded)
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
        assert ref_atlas.dims == atlas_dims(len(atlas.data), svt.config)
        assert atlas.data.dtype == ref_atlas.data.dtype
        np.testing.assert_array_equal(atlas.data, reference_slot_order(ref_atlas.data, span, n))


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


def assert_loaded_streams_and_saves_same_bytes(tmp_path, svt):
    """A loaded texture streams the built one's records and re-saves its
    container's bytes, before and after its atlas has been read."""
    path, again = tmp_path / "built.svtf", tmp_path / "again.svtf"
    save_svtf(svt, path)
    for expand in (False, True):
        loaded = load_svtf(path)
        if expand:
            np.testing.assert_array_equal(loaded.atlas.data, svt.atlas.data)
        for window in (WINDOW_ELEMENTS, 7):
            got, want = serialize_upload(loaded, window), serialize_upload(svt, window)
            assert got.windows == want.windows
            assert got.tile_data_offsets.dtype == want.tile_data_offsets.dtype == np.uint64
            np.testing.assert_array_equal(got.tile_data_offsets, want.tile_data_offsets)
            assert got.records.tobytes() == want.records.tobytes()
        save_svtf(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        # Only a read of .data expands the records.
        assert (loaded.atlas._records is None) == expand


@pytest.mark.parametrize("case", CASES)
def test_loaded_texture_streams_and_saves_the_same_bytes(tmp_path, rng, case):
    fmt, config = CASES[case]
    for fill in (0.02, 0.3):
        svt = build_svt(random_volume(rng, max_dim=40, fmt=fmt, fill=fill), config)
        assert_loaded_streams_and_saves_same_bytes(tmp_path, svt)


@pytest.mark.parametrize("fmt", [VoxelFormat.U8, VoxelFormat.F32])
def test_loaded_empty_texture_streams_and_saves_the_same_bytes(tmp_path, fmt):
    svt = build_svt(make_volume(np.zeros((20, 16, 9), fmt.dtype), fmt))
    assert svt.slot_count == 0
    assert_loaded_streams_and_saves_same_bytes(tmp_path, svt)


def test_encode_records_peak_memory_is_bounded(tmp_path, rng, monkeypatch):
    # One f32 voxel in each 4^3 tile of a 64^3 volume: 4681 small records,
    # as in a sparse survey. With chunks of 2^14 voxels the encoder must
    # hold at most the records, a second copy's worth of room, the per-slot
    # arrays and one chunk's temporaries; per-record views kept until a
    # final concatenate took about 7x the record bytes here.
    data = np.zeros((64, 64, 64), np.float32)
    tz, ty, tx = np.meshgrid(*(np.arange(0, 64, 4),) * 3, indexing="ij")
    at = tuple(t + rng.integers(0, 4, size=t.shape) for t in (tz, ty, tx))
    data[at] = rng.uniform(1.0, 2.0, size=tz.shape)
    svt = build_svt(make_volume(data, VoxelFormat.F32), SvtConfig(tile_size=4))
    ref = tmp_path / "ref.svtf"
    reference_save_svtf(svt, ref)
    chunk_voxels = 2**14
    monkeypatch.setattr(svt_module, "_CHUNK_VOXELS", chunk_voxels)
    n = svt.slot_count
    tracemalloc.start()
    try:
        offsets, records = svt_module.encode_records(svt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 4681
    assert peak <= 2 * records.nbytes + 32 * n + 16 * chunk_voxels
    # Chunk boundaries every 75 records leave the container bytes as they are.
    new = tmp_path / "new.svtf"
    save_svtf(svt, new)
    assert new.read_bytes() == ref.read_bytes()


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
    ref_atlas = reference_load_svtf(path).atlas.data
    span = svt.config.padded_size
    ref_slots = reference_slot_order(ref_atlas, span, svt.slot_count)
    np.testing.assert_array_equal(ref_slots, svt.atlas.data)


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


# --- page tables and header fields checked against the header on load ---

_SVTF_FIELDS = {  # byte offset and struct code of .svtf header fields
    "tile_size": (12, "<I"),
    "pad": (16, "<I"),
    "max_atlas_extent": (20, "<I"),
    "empty_value": (24, "<d"),
    "float_empty_threshold": (32, "<d"),
    "virtual_x": (40, "<Q"),
    "virtual_y": (48, "<Q"),
    "virtual_z": (56, "<Q"),
    "mip_count": (64, "<I"),
    "atlas_x": (68, "<Q"),
    "atlas_y": (76, "<Q"),
    "atlas_z": (84, "<Q"),
    "nonempty_voxel_count": (92, "<Q"),
    "padded_nonempty_voxel_count": (100, "<Q"),
    "mean_tile_occupancy": (108, "<d"),
}
_SVTU_FIELDS = {
    "tile_size": (12, "<I"),
    "pad": (16, "<I"),
    "empty_value": (20, "<d"),
    "float_empty_threshold": (28, "<d"),
}


def _put(out: bytearray, fields, **values) -> None:
    for name, value in values.items():
        pos, code = fields[name]
        struct.pack_into(code, out, pos, value)


def _resident_indices(svt) -> list[int]:
    """Flat indices of mip 0's resident page-table entries."""
    return np.flatnonzero(svt.mips[0].entries.ravel() != EMPTY_ENTRY).tolist()


def _first_resident_entry_pos(svt) -> int:
    """Byte position of mip 0's first resident page-table entry in a .svtf."""
    return _REF_SVTF_HEADER.size + 32 + 4 * _resident_indices(svt)[0]


def corrupt_tables(blob: bytes, svt, kind: str) -> bytes:
    entry = _first_resident_entry_pos(svt)
    n = svt.slot_count
    sx, sy, sz = slot_grid_for(n, svt.config)
    dims = svt.virtual_dims
    out = bytearray(blob)
    if kind == "entry_past_slots":
        struct.pack_into("<I", out, entry, int(pack_entry(5, 0, 1023)))
    elif kind in ("entry_x_past_atlas", "entry_y_past_atlas"):
        # A slot index below the tile count, but outside the atlas row or layer.
        assert sx * sy < n
        packed = pack_entry(sx, 0, 0) if kind == "entry_x_past_atlas" else pack_entry(0, sy, 0)
        struct.pack_into("<I", out, entry, int(packed))
    elif kind == "entry_slot_past_count":
        # Inside the atlas's slot layers, but the first slot past the tiles.
        assert n < sx * sy * sz
        struct.pack_into("<I", out, entry, int(pack_entry(n % sx, n // sx % sy, n // (sx * sy))))
    elif kind == "entries_swapped":
        # Two valid slots, each named by the other's tile.
        second = _REF_SVTF_HEADER.size + 32 + 4 * _resident_indices(svt)[1]
        a, b = out[entry : entry + 4], out[second : second + 4]
        out[entry : entry + 4], out[second : second + 4] = b, a
    elif kind == "entry_duplicated":
        # The first resident tile also names the second one's slot.
        second = _REF_SVTF_HEADER.size + 32 + 4 * _resident_indices(svt)[1]
        out[entry : entry + 4] = out[second : second + 4]
    elif kind == "entry_cleared":
        struct.pack_into("<I", out, entry, int(EMPTY_ENTRY))
    elif kind == "virtual_dims_doubled":
        _put(out, _SVTF_FIELDS, virtual_x=2 * dims.x, virtual_y=2 * dims.y, virtual_z=2 * dims.z)
    elif kind == "virtual_x_plus_tile":
        _put(out, _SVTF_FIELDS, virtual_x=dims.x + svt.config.tile_size)
    elif kind == "mip_count_plus_one":
        _put(out, _SVTF_FIELDS, mip_count=len(svt.mips) + 1)
    elif kind == "grid_x_plus_one":
        struct.pack_into("<Q", out, _REF_SVTF_HEADER.size, svt.mips[0].grid_dims.x + 1)
    elif kind == "mip_tile_counts_moved":
        # One tile moves from mip 1's count to mip 0's, so the total holds.
        first = _REF_SVTF_HEADER.size + 24
        second = first + 32 + 4 * svt.mips[0].entries.size
        for pos, step in ((first, 1), (second, -1)):
            struct.pack_into("<Q", out, pos, struct.unpack_from("<Q", out, pos)[0] + step)
    elif kind == "atlas_x_plus_padded_tile":
        _put(out, _SVTF_FIELDS, atlas_x=sx * svt.config.padded_size + svt.config.padded_size)
    elif kind == "atlas_dims_zeroed":
        _put(out, _SVTF_FIELDS, atlas_x=0, atlas_y=0, atlas_z=0)
    else:
        raise AssertionError(kind)
    return bytes(out)


TABLE_KINDS = [
    "entry_past_slots",
    "entry_x_past_atlas",
    "entry_y_past_atlas",
    "entry_slot_past_count",
    "entries_swapped",
    "entry_duplicated",
    "entry_cleared",
    "virtual_dims_doubled",
    "virtual_x_plus_tile",
    "mip_count_plus_one",
    "grid_x_plus_one",
    "mip_tile_counts_moved",
    "atlas_x_plus_padded_tile",
    "atlas_dims_zeroed",
]


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_corrupt_page_tables_fail_closed(tmp_path, capsys, rng, kind):
    # 36 resident tiles: a 4x4 slot layer, so the atlas has three layers.
    svt = build_svt(make_volume(rng.integers(1, 256, size=(48, 48, 48)).astype(np.uint8)))
    good, bad = tmp_path / "good.svtf", tmp_path / "bad.svtf"
    save_svtf(svt, good)
    bad.write_bytes(corrupt_tables(good.read_bytes(), svt, kind))
    with pytest.raises(CorruptStream):
        load_svtf(bad)
    one_error_line(capsys, ["inspect", str(bad)])
    one_error_line(capsys, ["probe", str(bad), "--pos", "1,1,1"])


def test_page_tables_of_a_valid_file_load(tmp_path, rng):
    # A volume of at most one tile has one mip; one voxel more needs two.
    for shape in [(1, 1, 1), (16, 16, 16), (17, 5, 33), (40, 3, 3)]:
        svt = build_svt(make_volume(rng.integers(0, 2, size=shape).astype(np.uint8)))
        path = tmp_path / "ok.svtf"
        save_svtf(svt, path)
        loaded = load_svtf(path)
        assert [t.grid_dims for t in loaded.mips] == [t.grid_dims for t in svt.mips]


_CONFIG_ERRORS = {
    "tile_size_1": ({"tile_size": 1}, "tile_size must be >= 2"),
    "pad_0": ({"pad": 0}, "pad must be >= 1"),
    "negative_threshold": ({"float_empty_threshold": -1.0}, "float_empty_threshold"),
    "nan_threshold": ({"float_empty_threshold": float("nan")}, "float_empty_threshold"),
    # The files hold u8 voxels.
    "empty_value_300": ({"empty_value": 300.0}, "empty_value 300.0 is not a u8 voxel value"),
    "empty_value_fraction": ({"empty_value": 3.5}, "empty_value 3.5 is not a u8"),
    "empty_value_nan": ({"empty_value": float("nan")}, "empty_value nan is not a u8"),
}
SVTF_CONFIG_ERRORS = {
    **_CONFIG_ERRORS,
    "extent_below_padded_tile": ({"max_atlas_extent": 17}, "smaller than one padded tile"),
    "zero_virtual_dim": ({"virtual_y": 0}, "dims must be positive"),
}
SVTU_CONFIG_ERRORS = {
    **_CONFIG_ERRORS,
    # The extent is the caller's (2048 here); the header's tile size is too big.
    "extent_below_padded_tile": ({"tile_size": 2047}, "smaller than one padded tile"),
}


@pytest.mark.parametrize("case", SVTF_CONFIG_ERRORS)
def test_svtf_header_config_errors_are_data_errors(tmp_path, capsys, written, case):
    _, _, svt_path, _ = written
    values, message = SVTF_CONFIG_ERRORS[case]
    out = bytearray(svt_path.read_bytes())
    _put(out, _SVTF_FIELDS, **values)
    bad = tmp_path / "bad.svtf"
    bad.write_bytes(out)
    with pytest.raises(DataError, match=message) as exc:
        load_svtf(bad)
    assert str(exc.value).startswith(f"{bad}: ")
    one_error_line(capsys, ["inspect", str(bad)], error="DataError")
    one_error_line(capsys, ["probe", str(bad), "--pos", "1,1,1"], error="DataError")


@pytest.mark.parametrize("case", SVTU_CONFIG_ERRORS)
def test_svtu_header_config_errors_are_data_errors(tmp_path, capsys, written, case):
    _, _, svt_path, stream_path = written
    values, message = SVTU_CONFIG_ERRORS[case]
    out = bytearray(stream_path.read_bytes())
    _put(out, _SVTU_FIELDS, **values)
    bad = tmp_path / "bad.svtu"
    bad.write_bytes(out)
    with pytest.raises(DataError, match=message) as exc:
        load_upload(bad)
    assert str(exc.value).startswith(f"{bad}: ")
    one_error_line(capsys, ["apply-upload", str(svt_path), str(bad)], error="DataError")


def _stats_patch(stats, ts, kind) -> tuple[dict, str]:
    """Header stats values for one corruption, and the field it names."""
    tiles0 = stats.nonempty_tile_count[0]
    if kind == "padded_nonempty_plus_one":
        padded = stats.padded_nonempty_voxel_count + 1
        return {"padded_nonempty_voxel_count": padded}, "padded_nonempty_voxel_count"
    if kind == "occupancy_halved":
        return {"mean_tile_occupancy": stats.mean_tile_occupancy * 0.5}, "mean_tile_occupancy"
    if kind == "occupancy_nan":
        return {"mean_tile_occupancy": float("nan")}, "mean_tile_occupancy"
    if kind == "nonempty_minus_one":  # in range, but the occupancy no longer agrees
        return {"nonempty_voxel_count": stats.nonempty_voxel_count - 1}, "mean_tile_occupancy"
    # Counts out of range, each with the occupancy they give, so that the
    # range check is what fails.
    nonempty = {"nonempty_1e12": 10**12, "nonempty_below_tiles": tiles0 - 1}[kind]
    values = {"nonempty_voxel_count": nonempty, "mean_tile_occupancy": nonempty / (tiles0 * ts**3)}
    return values, "nonempty_voxel_count"


STATS_KINDS = [
    "padded_nonempty_plus_one",
    "occupancy_halved",
    "occupancy_nan",
    "nonempty_minus_one",
    "nonempty_1e12",
    "nonempty_below_tiles",
]


@pytest.mark.parametrize("kind", STATS_KINDS)
def test_svtf_header_stats_are_checked(tmp_path, capsys, written, kind):
    svt, _, svt_path, _ = written
    values, field_name = _stats_patch(svt.stats, svt.config.tile_size, kind)
    out = bytearray(svt_path.read_bytes())
    _put(out, _SVTF_FIELDS, **values)
    bad = tmp_path / "bad.svtf"
    bad.write_bytes(out)
    with pytest.raises(CorruptStream, match=field_name):
        load_svtf(bad)
    one_error_line(capsys, ["inspect", str(bad)])


def test_resaved_container_counts_the_values_it_writes(tmp_path, rng):
    # A payload value equal to empty_value at an occupied mask bit loads: the
    # records' value count is unchanged. Expanding the atlas drops that value,
    # so a re-saved container holds one value fewer, and its header says so.
    svt = build_svt(make_volume(rng.integers(0, 256, size=(20, 24, 28)).astype(np.uint8)))
    path, again = tmp_path / "built.svtf", tmp_path / "again.svtf"
    save_svtf(svt, path)
    blob = bytearray(path.read_bytes())
    records_start = len(blob) - serialize_upload(svt).records.size
    first_value = records_start + svt.config.occupancy_mask_bytes
    assert blob[first_value] != 0
    blob[first_value] = 0
    path.write_bytes(bytes(blob))
    loaded = load_svtf(path)
    assert loaded.stats.padded_nonempty_voxel_count == svt.stats.padded_nonempty_voxel_count
    changed = loaded.atlas.data != svt.atlas.data
    assert np.count_nonzero(changed) == 1 and loaded.atlas.data[changed] == 0
    save_svtf(loaded, again)
    reloaded = load_svtf(again)
    assert reloaded.stats.padded_nonempty_voxel_count == svt.stats.padded_nonempty_voxel_count - 1
    np.testing.assert_array_equal(reloaded.atlas.data, loaded.atlas.data)


@pytest.mark.parametrize("value", [0.1, 0.0])
def test_a_loaded_atlas_saves_and_streams_back_exactly(tmp_path, value):
    # One voxel of 1.0 inside an 8^3 f32 volume, tile 4, threshold 0.25:
    # one record of one value, the file's last four bytes. Patched to 0.1,
    # inside the threshold, the value loads as it is; patched to
    # empty_value, it loads empty. The build applied the threshold once, so
    # after the atlas expands a re-save and a stream record every voxel that
    # is not empty_value, and the atlas comes back as it was read.
    data = np.zeros((8, 8, 8), np.float32)
    data[1, 2, 1] = 1.0
    cfg = SvtConfig(tile_size=4, float_empty_threshold=0.25)
    svt = build_svt(make_volume(data, VoxelFormat.F32), cfg)
    assert (svt.slot_count, svt.padded_nonempty_voxel_count) == (1, 1)
    path, again = tmp_path / "built.svtf", tmp_path / "again.svtf"
    save_svtf(svt, path)
    blob = path.read_bytes()
    assert blob[-4:] == struct.pack("<f", 1.0)
    path.write_bytes(blob[:-4] + struct.pack("<f", value))
    loaded = load_svtf(path)
    atlas = loaded.atlas.data
    assert atlas[atlas != 0].tolist() == ([np.float32(value)] if value else [])
    save_svtf(loaded, again)
    reloaded = load_svtf(again)
    assert reloaded.padded_nonempty_voxel_count == (1 if value else 0)
    assert reloaded.atlas.data.tobytes() == atlas.tobytes()
    streamed = apply_upload(serialize_upload(loaded), cfg, loaded.mips)
    assert streamed.data.tobytes() == atlas.tobytes()
