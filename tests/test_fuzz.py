"""Truncated and byte-flipped .svtf, .svtu and IBM SEG-Y files.

Each mutated file must either load or raise a DataError: no other exception
may escape, and nothing may be allocated from an unchecked header field. A
container that loads must also answer a sample without error and have the
original page tables. The unmutated files must give back exactly what was
written, and every single-byte flip of the .svtu header must raise or change
nothing. The .svtf header has no checksum yet, so the flips of it that load
with changed content are pinned as a list: a new silent field fails the test.
"""

import numpy as np
import pytest
from conftest import make_volume
from hypothesis import given, settings
from hypothesis import strategies as st

from svtf import (
    CapacityError,
    DataError,
    SvtConfig,
    VoxelFormat,
    apply_upload,
    build_svt,
    load_svtf,
    parse_segy,
    sample_trilinear,
    save_svtf,
    serialize_upload,
    write_segy,
)
from svtf.segy import OFF_CROSSLINE, OFF_INLINE, OFF_TRACE_SAMPLES, TRACE_HEADER_BYTES
from svtf.svt import SVTF, atlas_dims
from svtf.upload import SVTU, load_upload, save_upload

SEGY_SAMPLES = 4

KINDS = ("segy", "svtf", "svtu")


def _hot_bytes(kind: str, size: int) -> list[int]:
    """Byte positions where a flip changes structure rather than one voxel.

    The container and stream keep their headers, page tables and offset
    tables up front; a SEG-Y file keeps them in the binary header and in
    each trace's sample count, inline and crossline words.
    """
    if kind != "segy":
        return list(range(min(size, 1024)))
    traces = range(3600, size, TRACE_HEADER_BYTES + 4 * SEGY_SAMPLES)
    fields = (OFF_TRACE_SAMPLES, OFF_TRACE_SAMPLES + 1, *range(OFF_INLINE, OFF_CROSSLINE + 4))
    return list(range(3200, 3600)) + [t + off for t in traces for off in fields]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The three files as written, plus what each must load back as."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(11)
    data = np.where(rng.random((12, 10, 14)) < 0.2, rng.integers(1, 256, (12, 10, 14)), 0)
    svt = build_svt(make_volume(data.astype(np.uint8)), SvtConfig(tile_size=4))
    save_svtf(svt, root / "orig.svtf")
    save_upload(serialize_upload(svt), root / "orig.svtu")
    # Quarter steps are exact IBM floats, so the cube round-trips bit for bit.
    cube = make_volume(rng.integers(-64, 64, (SEGY_SAMPLES, 3, 2)) / 4.0, VoxelFormat.F32)
    write_segy(root / "orig.sgy", cube, format_code=1)
    blobs = {
        "svtf": (root / "orig.svtf").read_bytes(),
        "svtu": (root / "orig.svtu").read_bytes(),
        "segy": (root / "orig.sgy").read_bytes(),
    }
    return root, blobs, svt, cube


def _load(kind, path, svt):
    """What a file of this kind loads as: an atlas, or a volume's voxels,
    and a container's page tables (None for the other kinds)."""
    if kind == "svtf":
        loaded = load_svtf(path)
        dims = loaded.virtual_dims
        sample_trilinear(loaded, (dims.x / 2, dims.y / 2, dims.z / 2), mip=loaded.mip_count - 1)
        return loaded.atlas.data, [table.entries for table in loaded.mips]
    if kind == "svtu":
        return apply_upload(load_upload(path), svt.config, svt.mips).data, None
    with np.errstate(all="ignore"):
        return parse_segy(path)[1].data, None


@pytest.mark.parametrize("kind", KINDS)
def test_unmutated_files_round_trip(originals, kind):
    root, blobs, svt, cube = originals
    path = root / f"same.{kind}"
    path.write_bytes(blobs[kind])
    want = cube.data if kind == "segy" else svt.atlas.data
    got, _ = _load(kind, path, svt)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def mutations(draw, size, hot):
    """A truncation, or one to four bytes XORed with a non-zero byte."""
    if draw(st.booleans()):
        return ("cut", draw(st.integers(0, size - 1)))
    position = st.one_of(st.sampled_from(hot), st.integers(0, size - 1))
    flips = st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=4)
    return ("flip", draw(flips))


def _mutated(blob, mutation):
    how, arg = mutation
    if how == "cut":
        return blob[:arg]
    out = bytearray(blob)
    for pos, xor in arg:
        out[pos] ^= xor
    return bytes(out)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300)
@given(data=st.data())
def test_mutated_files_load_or_raise_data_error(originals, kind, data):
    root, blobs, svt, _ = originals
    blob = blobs[kind]
    mutation = data.draw(mutations(len(blob), _hot_bytes(kind, len(blob))))
    path = root / f"mutated.{kind}"
    path.write_bytes(_mutated(blob, mutation))
    try:
        _, tables = _load(kind, path, svt)
    except DataError:
        return
    if tables is not None:
        # Residency fixes every entry, so a container that loads has the
        # original page tables, whatever else a flip changed.
        assert len(tables) == len(svt.mips)
        for got, want in zip(tables, svt.mips):
            assert np.array_equal(got, want.entries)


def _stream_state(buf, atlas) -> tuple:
    """All a stream gives back; repr tells -0.0 from 0.0 in the config."""
    return (
        repr(buf.config),
        buf.format,
        buf.windows,
        buf.tile_data_offsets.dtype,
        buf.tile_data_offsets.tolist(),
        buf.records.tobytes(),
        buf.total_bytes,
        buf.exceeds_uint32,
        atlas_dims(len(atlas.data), buf.config),
        atlas.data.dtype,
        atlas.data.tobytes(),
    )


@pytest.mark.parametrize("xor", [0x01, 0x80, 0xFF])
def test_every_svtu_header_flip_raises_or_changes_nothing(originals, tmp_path, xor):
    _, blobs, svt, _ = originals
    assert SVTU.header.size == 64
    buf = serialize_upload(svt)
    want = _stream_state(buf, apply_upload(buf, svt.config, svt.mips))
    path = tmp_path / "flipped.svtu"
    silent = []
    for pos in range(SVTU.header.size):
        path.write_bytes(_mutated(blobs["svtu"], ("flip", [(pos, xor)])))
        try:
            loaded = load_upload(path)
            got = _stream_state(loaded, apply_upload(loaded, svt.config, svt.mips))
        except (DataError, CapacityError):
            continue
        if got != want:
            silent.append(pos)
    assert silent == []


def _container_state(loaded) -> tuple:
    """All a loaded container gives back, its atlas expanded; repr tells
    -0.0 from 0.0 in the config."""
    return (
        repr(loaded.config),
        loaded.format,
        loaded.virtual_dims,
        [(table.grid_dims, table.entries.tobytes()) for table in loaded.mips],
        repr(loaded.stats),
        atlas_dims(loaded.slot_count, loaded.config),
        loaded.atlas.data.dtype,
        loaded.atlas.data.shape,
        loaded.atlas.data.tobytes(),
    )


# (byte, xor) flips of the .svtf header that load with changed content.
# Config fields a checksum would catch: max_atlas_extent (bytes 20-23) and
# float_empty_threshold (32-39) wherever the new value is valid and keeps
# the slot layout, and empty_value 0.0 -> -0.0 (31, 0x80). Virtual dims
# that move within their last partial tile (40: x 14 -> 15, 48: y 10 -> 11)
# keep the tile grid and the mip count.
SILENT_SVTF_FLIPS = sorted(
    [(pos, xor) for pos in range(20, 24) for xor in (0x01, 0x80, 0xFF)]
    + [(pos, xor) for pos in range(32, 40) for xor in (0x01, 0x80, 0xFF)]
    + [(31, 0x80), (40, 0x01), (48, 0x01)]
)
SILENT_SVTF_FLIPS.remove((39, 0xFF))  # a negative threshold: rejected


def test_every_svtf_header_flip_raises_or_is_a_pinned_silent_one(originals, tmp_path):
    _, blobs, svt, _ = originals
    assert SVTF.header.size == 116
    path = tmp_path / "same.svtf"
    path.write_bytes(blobs["svtf"])
    want = _container_state(load_svtf(path))
    silent = []
    for pos in range(SVTF.header.size):
        for xor in (0x01, 0x80, 0xFF):
            path.write_bytes(_mutated(blobs["svtf"], ("flip", [(pos, xor)])))
            try:
                got = _container_state(load_svtf(path))
            except (DataError, CapacityError):
                continue
            if got != want:
                silent.append((pos, xor))
    assert len(SILENT_SVTF_FLIPS) == 38
    assert silent == SILENT_SVTF_FLIPS
