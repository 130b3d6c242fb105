import itertools
import os
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    _REF_SVTF_HEADER,
    assert_stats_match,
    brute_force_mip,
    brute_force_residency,
    extract_padded_tile,
    is_tile_empty,
    make_volume,
    random_build_case,
    random_volume,
    reference_atlas_zyx,
    reference_build_mip_level,
    reference_build_svt,
    reference_slot_order,
    unpack_entry,
)

from svtf import (
    AtlasCapacityExceeded,
    Camera,
    CapacityExceeded,
    DataError,
    DirectionalLight,
    OutOfGrid,
    PageTable,
    RenderParams,
    SparseVolumeTexture,
    SvtConfig,
    TileAtlas,
    TransferFunction,
    VolumeDims,
    VoxelFormat,
    apply_upload,
    build_illumination_cache,
    build_mip_level,
    build_svt,
    load_svtf,
    raymarch,
    sample_nearest,
    sample_trilinear,
    save_svtf,
    serialize_upload,
    tile_grid_dims,
)
from svtf import svt as svt_module
from svtf.planner import atlas_extent_estimate
from svtf.sample import sample_nearest_many, sample_trilinear_many
from svtf.svt import EMPTY_ENTRY, atlas_dims, mip_chain, pack_entry, slot_grid_for


@pytest.mark.parametrize(
    "dims,expected",
    [
        ((16, 16, 16), (1, 1, 1)),
        ((17, 16, 1), (2, 1, 1)),
        ((4211, 935, 1501), (264, 59, 94)),  # survey-scale dims
    ],
)
def test_tile_grid_dims(dims, expected):
    assert tile_grid_dims(VolumeDims(*dims), 16) == VolumeDims(*expected)


def test_extract_constant_volume():
    vol = make_volume(np.full((20, 20, 20), 7, np.uint8))
    tile = extract_padded_tile(vol, (0, 0, 0), SvtConfig())
    assert tile.values.shape == (18, 18, 18)
    assert (tile.values == 7).all()
    assert tile.occupancy.all()
    assert tile.popcount == 18**3


def test_extract_all_zero():
    vol = make_volume(np.zeros((16, 16, 16), np.uint8))
    tile = extract_padded_tile(vol, (0, 0, 0), SvtConfig())
    assert not tile.occupancy.any()


def test_extract_pad_sees_neighbor():
    data = np.zeros((32, 32, 32), np.uint8)
    data[8, 8, 16] = 9  # +x neighbor tile, away from the volume border
    vol = make_volume(data)
    tile = extract_padded_tile(vol, (0, 0, 0), SvtConfig())
    # Pad layer x=17 (local) mirrors source x=16; exactly one pad bit set.
    assert tile.values[9, 9, 17] == 9
    assert tile.popcount == 1
    assert is_tile_empty(tile, SvtConfig())  # pad never creates residency


def test_extract_pad_clamp_duplicates_at_corner():
    # A non-empty voxel on the volume's corner edge is mirrored into every
    # out-of-volume pad position that clamps onto it (y=-1 and z=-1 here).
    data = np.zeros((32, 32, 32), np.uint8)
    data[0, 0, 16] = 9
    tile = extract_padded_tile(make_volume(data), (0, 0, 0), SvtConfig())
    assert tile.values[1, 1, 17] == 9
    assert tile.popcount == 4
    assert is_tile_empty(tile, SvtConfig())


def test_extract_clamps_at_volume_border():
    data = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    vol = make_volume(data)
    cfg = SvtConfig(tile_size=2, pad=1, max_atlas_extent=64)
    tile = extract_padded_tile(vol, (0, 0, 0), cfg)
    assert tile.values.shape == (4, 4, 4)
    assert tile.values[0, 0, 0] == data[0, 0, 0]  # clamped corner
    assert tile.values[3, 3, 3] == data[1, 1, 1]
    np.testing.assert_array_equal(tile.values[1:3, 1:3, 1:3], data)


def test_extract_out_of_grid():
    vol = make_volume(np.zeros((16, 16, 16), np.uint8))
    with pytest.raises(OutOfGrid):
        extract_padded_tile(vol, (1, 0, 0), SvtConfig())


def test_is_tile_empty_cases():
    cfg = SvtConfig()
    vol = make_volume(np.zeros((16, 16, 16), np.uint8))
    assert is_tile_empty(extract_padded_tile(vol, (0, 0, 0), cfg), cfg)
    data = np.zeros((16, 16, 16), np.uint8)
    data[3, 4, 5] = 1
    assert not is_tile_empty(extract_padded_tile(make_volume(data), (0, 0, 0), cfg), cfg)


@pytest.mark.parametrize(
    "shape,values,expected",
    [
        ((2, 2, 2), [3] * 8, [[[3]]]),
        ((2, 2, 2), [0, 0, 0, 0, 0, 0, 0, 8], [[[1]]]),
        ((1, 1, 3), [2, 4, 6], [[[3, 6]]]),  # pairs (2,4) and lone (6)
    ],
)
def test_build_mip_level_examples(shape, values, expected):
    vol = make_volume(np.asarray(values, np.uint8).reshape(shape))
    out = build_mip_level(vol)
    np.testing.assert_array_equal(out.data, np.asarray(expected, np.uint8))


def test_build_mip_level_against_brute_force(rng):
    for _ in range(10):
        vol = random_volume(rng, max_dim=9, fmt=VoxelFormat.F32, fill=0.8)
        got = build_mip_level(vol)
        want = brute_force_mip(vol.data).astype(np.float32)
        np.testing.assert_array_equal(got.data, want)


def test_mip_mean_preserved_exactly():
    # Power-of-two cube of integer-valued float32: every level's mean is an
    # exact dyadic rational, so extended-precision means must match exactly.
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=(64, 64, 64)).astype(np.float32)
    vol = make_volume(data, VoxelFormat.F32)
    levels = mip_chain(vol, SvtConfig())
    base = levels[0].data.astype(np.float64).mean()
    for level in levels[1:]:
        assert level.data.astype(np.float64).mean() == base


def test_mip_chain_stops_at_tile_size():
    vol = make_volume(np.ones((32, 32, 32), np.uint8))
    levels = mip_chain(vol, SvtConfig())
    assert [lv.dims.x for lv in levels] == [32, 16]
    vol16 = make_volume(np.ones((16, 16, 16), np.uint8))
    assert len(mip_chain(vol16, SvtConfig())) == 1


def test_build_all_zero():
    svt = build_svt(make_volume(np.zeros((16, 16, 16), np.uint8)))
    assert svt.stats.nonempty_tile_count == (0,)
    assert (svt.mips[0].entries == EMPTY_ENTRY).all()
    assert atlas_dims(svt.slot_count, svt.config) == (0, 0, 0)
    assert svt.atlas.data.size == 0


def test_build_single_voxel_32():
    data = np.zeros((32, 32, 32), np.uint8)
    data[0, 0, 0] = 8
    svt = build_svt(make_volume(data))
    assert svt.mip_count == 2
    assert svt.stats.nonempty_tile_count == (1, 1)
    assert svt.stats.nonempty_voxel_count == 1
    # Mip 1 voxel (0,0,0) holds mean 8/8 = 1.
    entry = svt.mips[1].entries[0, 0, 0]
    assert entry != EMPTY_ENTRY


def test_build_capacity_exceeded():
    # 3 tiles along x but room for only a 2^3 slot cube: extent 8, tiles 2^3
    # padded to 4^3 -> cap 2 slots per axis.
    cfg = SvtConfig(tile_size=2, pad=1, max_atlas_extent=8)
    data = np.ones((2, 2, 18), np.uint8)  # 9 tiles > 8 slots
    with pytest.raises(AtlasCapacityExceeded):
        build_svt(make_volume(data), cfg)


@pytest.mark.parametrize(
    "shape, cfg",
    [
        # 9 tiles against a 2^3 slot cube.
        ((2, 2, 18), SvtConfig(tile_size=2, pad=1, max_atlas_extent=8)),
        # One tile whose padded slot alone is too big to allocate.
        ((24, 20, 16), SvtConfig(tile_size=600_000, pad=1, max_atlas_extent=1_200_002)),
    ],
    ids=["slot_cube", "allocation"],
)
def test_an_over_cap_build_is_a_capacity_exceeded(shape, cfg):
    with pytest.raises(CapacityExceeded):
        build_svt(make_volume(np.ones(shape, np.uint8)), cfg)


@pytest.mark.parametrize("counts", [[-1], [5, -1]])
def test_atlas_extent_estimate_rejects_a_negative_count(counts):
    with pytest.raises(ValueError):
        atlas_extent_estimate(counts, SvtConfig())


def test_residency_matches_brute_force(rng):
    for _ in range(20):
        vol = random_volume(rng, max_dim=48, fill=rng.uniform(0.001, 0.2))
        svt = build_svt(vol)
        want = brute_force_residency(vol, 16)
        got = svt.mips[0].entries != EMPTY_ENTRY
        np.testing.assert_array_equal(got, want)


def test_slots_distinct_across_mips(rng):
    vol = random_volume(rng, max_dim=64, fill=0.05)
    svt = build_svt(vol)
    seen = set()
    for table in svt.mips:
        packed = table.entries[table.entries != EMPTY_ENTRY]
        for e in packed:
            assert int(e) not in seen
            seen.add(int(e))
    assert len(seen) == svt.slot_count


def test_occupancy_accounting(rng):
    vol = random_volume(rng, max_dim=40, fill=0.3)
    cfg = SvtConfig()
    svt = build_svt(vol, cfg)
    assert svt.stats.nonempty_voxel_count == int((vol.data != 0).sum())
    # Independent popcount: every resident tile of every mip level,
    # extracted straight from the mip volumes.
    total = 0
    for level, volume_level in zip(svt.mips, mip_chain(vol, cfg)):
        resident = np.argwhere(level.entries != EMPTY_ENTRY)
        for tz, ty, tx in resident:
            tile = extract_padded_tile(volume_level, (tx, ty, tz), cfg)
            total += tile.popcount
    assert svt.stats.padded_nonempty_voxel_count == total


def test_mean_tile_occupancy_definition():
    data = np.zeros((16, 16, 16), np.uint8)
    data[:8] = 5  # half the only tile
    svt = build_svt(make_volume(data))
    assert svt.stats.mean_tile_occupancy == pytest.approx(0.5)


def test_build_deterministic(rng):
    vol = random_volume(rng, max_dim=32, fill=0.1)
    a = build_svt(vol)
    b = build_svt(vol)
    np.testing.assert_array_equal(a.atlas.data, b.atlas.data)
    for ta, tb in zip(a.mips, b.mips):
        np.testing.assert_array_equal(ta.entries, tb.entries)


def test_atlas_stores_source_values(tmp_path):
    # Five mip-0 tiles and one each in mips 1 and 2: a 2x2x2 slot grid, in
    # which the 77's tile (tx 1, ty 0, tz 1) takes slot 4, block (0, 0, 1).
    data = np.zeros((40, 20, 36), np.uint8)
    data[1, [1, 1, 17, 17], [1, 20, 1, 20]] = 9
    data[30, 13, 25] = 77
    svt = build_svt(make_volume(data))
    path = tmp_path / "a.svtf"
    save_svtf(svt, path)
    grid = svt.mips[0].grid_dims
    pos = _REF_SVTF_HEADER.size + 32 + 4 * ((1 * grid.y + 0) * grid.x + 1)
    (entry,) = struct.unpack_from("<I", path.read_bytes(), pos)
    ax, ay, az = (int(v) for v in unpack_entry(entry))
    assert (ax, ay, az) == (0, 0, 1)
    span, pad = 18, 1
    # The voxel's place in the atlas as a (z, y, x) texture, marked and then
    # reordered into the store's slot order.
    marker = np.zeros(reference_atlas_zyx(svt.slot_count, svt.config), bool)
    marker[az * span + pad + 14, ay * span + pad + 13, ax * span + pad + 9] = True
    slots = reference_slot_order(marker, span, svt.slot_count)
    assert svt.atlas.data[slots].tolist() == [77]


def test_container_roundtrip(tmp_path, rng):
    for fmt in (VoxelFormat.U8, VoxelFormat.F32):
        vol = random_volume(rng, max_dim=40, fmt=fmt, fill=0.15)
        svt = build_svt(vol)
        path = tmp_path / f"vol_{fmt.value}.svtf"
        save_svtf(svt, path)
        loaded = load_svtf(path)
        assert loaded.format is fmt
        assert loaded.virtual_dims == svt.virtual_dims
        assert loaded.mip_count == svt.mip_count
        assert loaded.stats.nonempty_voxel_count == svt.stats.nonempty_voxel_count
        np.testing.assert_array_equal(loaded.atlas.data, svt.atlas.data)
        for ta, tb in zip(loaded.mips, svt.mips):
            np.testing.assert_array_equal(ta.entries, tb.entries)


def test_entry_packing_roundtrip():
    for coords in ((0, 0, 0), (113, 112, 7), (1023, 1023, 1023)):
        got = tuple(int(v) for v in unpack_entry(pack_entry(*coords)))
        assert got == coords
    # Valid coordinates never set bits 30-31, so no entry collides with
    # the all-ones empty marker.
    assert int(pack_entry(1023, 1023, 1023)) < int(EMPTY_ENTRY)
    assert int(EMPTY_ENTRY) == 0xFFFFFFFF


def test_container_roundtrip_empty_svt(tmp_path):
    svt = build_svt(make_volume(np.zeros((16, 16, 16), np.uint8)))
    path = tmp_path / "empty.svtf"
    save_svtf(svt, path)
    loaded = load_svtf(path)
    assert atlas_dims(loaded.slot_count, loaded.config) == (0, 0, 0)
    assert loaded.atlas.data.size == 0
    assert loaded.stats.nonempty_tile_count == (0,)
    assert (loaded.mips[0].entries == EMPTY_ENTRY).all()


def test_float_threshold_drops_tiles():
    data = np.full((16, 16, 16), 1e-6, np.float32)
    cfg = SvtConfig(float_empty_threshold=1e-3)
    svt = build_svt(make_volume(data, VoxelFormat.F32), cfg)
    assert svt.stats.nonempty_tile_count == (0,)


def assert_build_matches_reference(vol, cfg):
    got, want = build_svt(vol, cfg), reference_build_svt(vol, cfg)
    assert atlas_dims(got.slot_count, got.config) == want.atlas.dims
    assert got.atlas.data.dtype == want.atlas.data.dtype
    want_slots = reference_slot_order(want.atlas.data, got.config.padded_size, want.slot_count)
    assert got.atlas.data.shape == want_slots.shape
    assert got.atlas.data.tobytes() == want_slots.tobytes()
    assert len(got.mips) == len(want.mips)
    for a, b in zip(got.mips, want.mips):
        assert a.grid_dims == b.grid_dims
        assert a.entries.dtype == b.entries.dtype
        np.testing.assert_array_equal(a.entries, b.entries)
    assert_stats_match(got.stats, want.reference_stats)


def test_build_matches_reference_on_random_configs():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        assert_build_matches_reference(*random_build_case(rng))


@pytest.mark.parametrize("fmt", [VoxelFormat.U8, VoxelFormat.F32])
@pytest.mark.parametrize("shape", [(16, 16, 16), (17, 5, 33), (1, 1, 1), (40, 3, 2)])
@pytest.mark.parametrize("fill", ["empty", "full", "one"])
def test_build_matches_reference_on_edge_volumes(fmt, shape, fill):
    data = np.zeros(shape, fmt.dtype)
    if fill == "full":
        data[:] = 7
    elif fill == "one":
        data[tuple(n - 1 for n in shape)] = 7
    for cfg in (SvtConfig(), SvtConfig(tile_size=2, pad=2), SvtConfig(tile_size=4, empty_value=7)):
        assert_build_matches_reference(make_volume(data, fmt), cfg)


def _u8_rounding_volumes(rng, shapes=()):
    """u8 rounding on one-voxel, odd and even axes in every combination, and
    on the given shapes: eight children where a voxel has them, fewer on an
    odd axis's last layer. Sums of 4 mod 8 round up; x pairs of 0 and 1 sum
    to 1 on every layer."""
    for shape in [*itertools.product([1, 2, 5, 6], [1, 3, 4], [1, 7, 8]), *shapes]:
        ties = rng.choice(np.array([0, 1, 2, 3, 4, 5, 252, 253, 254, 255], np.uint8), size=shape)
        pairs = np.resize(np.array([0, 1], np.uint8), shape[2])
        yield make_volume(ties)
        yield make_volume(np.broadcast_to(pairs, shape).copy())


def test_mip_level_matches_reference_on_extreme_values():
    rng = np.random.default_rng(99)
    u8_values = np.array([0, 1, 127, 128, 254, 255], np.uint8)
    f32_values = np.array(
        [3.4e38, -3.4e38, 1e38, 1e-38, -1e-38, 1e-45, 1.0, 1e7, 0.0, -0.0, np.inf, np.nan],
        np.float32,
    )
    volumes = []
    for i in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 12, size=3))
        if i % 2:
            volumes.append(make_volume(rng.choice(f32_values, size=shape), VoxelFormat.F32))
        else:
            volumes.append(make_volume(rng.choice(u8_values, size=shape), VoxelFormat.U8))
    # Larger shapes, odd and even per axis, and all-255 u8 blocks: eight
    # children sum to 2040, the top of what a u8 level sums to in uint16.
    for i in range(24):
        shape = tuple(int(n) for n in rng.integers(12, 41, size=3))
        shape = (shape[0] | 1, shape[1] & ~1, shape[2]) if i % 3 == 0 else shape
        if i % 4 == 0:
            volumes.append(make_volume(rng.choice(f32_values, size=shape), VoxelFormat.F32))
        else:
            volumes.append(make_volume(rng.choice(u8_values, size=shape), VoxelFormat.U8))
        volumes.append(make_volume(np.full(shape, 255, np.uint8)))
    for shape in [(2, 2, 2), (1, 1, 1), (3, 5, 7), (40, 40, 40), (39, 41, 40), (17, 2, 33)]:
        volumes.append(make_volume(np.full(shape, 255, np.uint8)))
    volumes.extend(_u8_rounding_volumes(rng))
    for vol in volumes:
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = build_mip_level(vol), reference_build_mip_level(vol)
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes()


F32_NANS = np.array([0x7FC00000, 0x7FC00001, 0xFFC00007, 0x7F800003], np.uint32).view(np.float32)


def test_f32_mip_level_matches_the_numpy_reduce_on_nan_payloads_and_signed_zeros():
    # NaN payloads: numpy's default NaN, a quiet one with a payload, a
    # negative one and a signalling one (0x7f800003); inf - inf gives the
    # negative default NaN. The sums keep the order of numpy's float64
    # reduce over a zero-padded copy (reference_build_mip_level), so which
    # NaN survives, the sign of a zero sum and every rounding are its own.
    rng = np.random.default_rng(2026)
    finite = np.array(
        [3.4e38, -3.4e38, 1e-38, -1e-38, 1e-45, 1e7, 0.0, -0.0, np.inf, -np.inf], np.float32
    )
    for i in range(2400):
        shape = [int(n) for n in rng.integers(1, 20, size=3)]
        if i % 4 == 0:
            shape[2] = 1 + i % 8 // 4  # levels one or two voxels wide in x
        values = np.concatenate([finite, F32_NANS[: i % 5]])
        data = rng.choice(values, size=shape)
        if i % 6 == 0:  # an all-NaN output layer, or its lone last input layer
            z = 2 * int(rng.integers(0, -(-shape[0] // 2)))
            data[z : z + 2] = rng.choice(F32_NANS, size=data[z : z + 2].shape)
        if i % 9 == 0:  # only signed zeros: a zero sum is +0.0
            data = rng.choice(np.array([0.0, -0.0, -0.0], np.float32), size=shape)
        with np.errstate(invalid="ignore", over="ignore"):
            vol = make_volume(data, VoxelFormat.F32)
            got, want = build_mip_level(vol).data, reference_build_mip_level(vol).data
        assert got.tobytes() == want.tobytes(), (i, shape)


def test_f32_mip_level_matches_the_numpy_reduce_across_many_slabs(monkeypatch):
    # Levels cut into several slabs of output layers, and into one layer a
    # slab; NaN layers fall in some slabs and not others.
    rng = np.random.default_rng(7)
    for slab_voxels in (1, 50, svt_module._MIP_SLAB_VOXELS):
        monkeypatch.setattr(svt_module, "_MIP_SLAB_VOXELS", slab_voxels)
        for shape in [(33, 18, 21), (40, 7, 2), (9, 31, 1), (64, 64, 64)]:
            data = rng.standard_normal(shape).astype(np.float32)
            data[rng.random(shape) < 0.6] = 0.0
            data[5, 3, :] = F32_NANS[2]
            data[-1, 0, 0] = -np.inf
            data[-1, 0, -1] = np.inf
            vol = make_volume(data, VoxelFormat.F32)
            with np.errstate(invalid="ignore"):
                got, want = build_mip_level(vol).data, reference_build_mip_level(vol).data
            assert got.tobytes() == want.tobytes()


def test_u8_mip_level_matches_the_reference_across_many_slabs(monkeypatch):
    # The rounding volumes cut into one output layer a slab, into slabs of
    # several layers (the last one short) and into one slab.
    shapes = [(30, 6, 9), (31, 5, 6), (40, 7, 2), (9, 31, 1), (64, 64, 64)]
    for slab_voxels in (1, 50, svt_module._MIP_SLAB_VOXELS):
        monkeypatch.setattr(svt_module, "_MIP_SLAB_VOXELS", slab_voxels)
        for vol in _u8_rounding_volumes(np.random.default_rng(13), shapes):
            got, want = build_mip_level(vol).data, reference_build_mip_level(vol).data
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (slab_voxels, vol.data.shape)


def test_u8_mip_level_peak_is_its_output_and_a_few_slabs():
    # A 128^3 u8 level (2 MiB) halves to 256 KiB. Its children are summed a
    # slab at a time in uint16, so the level holds its output and a few
    # slabs, not sums the size of the input.
    vol = make_volume(np.random.default_rng(5).integers(0, 256, (128,) * 3, dtype=np.uint8))
    tracemalloc.start()
    try:
        out = build_mip_level(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.data.nbytes == 64**3
    assert peak <= out.data.nbytes + 8 * 2 * svt_module._MIP_SLAB_VOXELS, peak


@pytest.mark.parametrize(
    "fmt,empty,threshold", [(VoxelFormat.U8, 7, 0.0), (VoxelFormat.F32, -2.5, 0.25)]
)
def test_every_atlas_holds_exactly_its_resident_tiles(tmp_path, fmt, empty, threshold):
    # Two non-empty voxels in two mip-0 tiles: 2 + 2 + 1 tiles over three
    # mips, in a 2x2x2 slot grid. The atlas is allocated without a fill and
    # has one slot per tile, none for the grid's 3 spare cells.
    cfg = SvtConfig(tile_size=4, empty_value=empty, float_empty_threshold=threshold)
    data = np.full((12, 8, 9), empty, fmt.dtype)
    if threshold:
        data += np.float32(0.125)  # empty within the threshold: stored as empty_value
    data[1, 1, 1] = 200
    data[9, 6, 8] = 200
    vol = make_volume(data, fmt)
    svt = build_svt(vol, cfg)
    assert svt.slot_count == 5 and slot_grid_for(5, cfg) == (2, 2, 2)
    assert_build_matches_reference(vol, cfg)
    # A sparse volume of many tiles, whose slot grid has several layers.
    many = np.where(np.random.default_rng(5).random((40, 37, 33)) < 0.01, 200, empty)
    sparse = build_svt(make_volume(many.astype(fmt.dtype), fmt), cfg)
    sx, sy, _ = slot_grid_for(sparse.slot_count, cfg)
    assert sparse.slot_count > 2 * sx * sy
    none = build_svt(make_volume(np.full((9, 5, 6), empty, fmt.dtype), fmt), cfg)
    assert none.slot_count == 0

    span, ts, pad = cfg.padded_size, cfg.tile_size, cfg.pad
    for name, tex in (("five", svt), ("sparse", sparse), ("none", none)):
        path = tmp_path / f"{name}.svtf"
        save_svtf(tex, path)
        loaded = load_svtf(path)
        np.testing.assert_array_equal(loaded.atlas.data, tex.atlas.data)
        applied = apply_upload(serialize_upload(tex), cfg, tex.mips)
        for atlas in (tex.atlas, loaded.atlas, applied):
            assert atlas.data.shape == (tex.slot_count, span, span, span), name
        # Each resident tile's footprint base is its entry, its slot, times
        # span^3, plus the in-block offset of level voxel (0, 0, 0); cell 2T
        # is tile T's own.
        for got in (tex, loaded):
            for mip, table in enumerate(got.mips):
                base = got.footprint_table(mip).base
                for tz, ty, tx in np.argwhere(table.entries != EMPTY_ENTRY).tolist():
                    slot = table.entries[tz, ty, tx]
                    inner = ((pad - tz * ts) * span + pad - ty * ts) * span + pad - tx * ts
                    assert base[2 * tz, 2 * ty, 2 * tx] == int(slot) * span**3 + inner


def assert_border_copies_the_edge(svt, data) -> int:
    """Every voxel of every resident padded block that lies past a face of
    its mip level equals, bit for bit, the block's voxel at the position
    clamped to the level: the edge voxel it copies. Returns how many
    voxels past a face were compared."""
    ts, pad, span = svt.config.tile_size, svt.config.pad, svt.config.padded_size
    bits = data.view(np.uint32 if data.dtype == np.float32 else np.uint8)
    compared = 0
    for mip, table in enumerate(svt.mips):
        dims = svt.mip_dims(mip)
        for tz, ty, tx in np.argwhere(table.entries != EMPTY_ENTRY).tolist():
            block = bits[int(table.entries[tz, ty, tx])]
            # Per axis (z, y, x): the in-block index of each voxel's clamped position.
            clamped = [
                np.clip(np.arange(span) + t * ts - pad, 0, n - 1) - (t * ts - pad)
                for t, n in ((tz, dims.z), (ty, dims.y), (tx, dims.x))
            ]
            past = [c != np.arange(span) for c in clamped]
            outside = past[0][:, None, None] | past[1][None, :, None] | past[2]
            if outside.any():
                edge = block[np.ix_(*clamped)]
                np.testing.assert_array_equal(block[outside], edge[outside])
                compared += int(outside.sum())
    return compared


def test_a_padded_tile_border_past_a_face_holds_the_edge_voxel(tmp_path):
    """The invariant the sampler's corner rule reads (sample.corner_axis):
    corners -1 and n of a footprint at a face lie in its tile's border and
    read the edge voxel. Random u8 and f32 builds, tiles 2-8, pad 1 and 2,
    dims that are not multiples of the tile, a non-zero empty_value, a
    float threshold, and NaN, +-inf and -0.0 voxels on the faces; checked
    after build_svt, after load_svtf expands its records and after
    apply_upload."""
    rng = np.random.default_rng(2718)
    compared = 0
    for trial in range(24):
        f32 = trial % 2 == 1
        ts = int(rng.integers(2, 9))
        shape = tuple(int(ts * rng.integers(0, 4) + rng.integers(1, ts)) for _ in range(3))
        empty = 3.0 if f32 else 200.0
        threshold = 0.25 if f32 and trial % 4 == 1 else 0.0
        occupied = rng.random(shape) < rng.uniform(0.02, 0.3)
        if f32:
            background = empty + rng.uniform(-threshold, threshold, shape)
            data = np.where(occupied, rng.standard_normal(shape) * 10, background)
            data = data.astype(np.float32)
            faces = [data[0], data[-1], data[:, 0], data[:, -1], data[..., 0], data[..., -1]]
            for face, value in zip(faces, [np.nan, np.inf, -np.inf, -0.0, np.nan, np.inf]):
                face[rng.random(face.shape) < 0.3] = value
        else:
            data = np.where(occupied, rng.integers(0, 256, shape), int(empty)).astype(np.uint8)
        fmt = VoxelFormat.F32 if f32 else VoxelFormat.U8
        cfg = SvtConfig(
            tile_size=ts, pad=1 + trial // 2 % 2, empty_value=empty,
            float_empty_threshold=threshold,
        )
        with np.errstate(invalid="ignore"):  # the mip of +inf and -inf is NaN
            svt = build_svt(make_volume(data, fmt), cfg)
        path = tmp_path / f"t{trial}.svtf"
        save_svtf(svt, path)
        loaded = load_svtf(path)
        applied = apply_upload(serialize_upload(svt), cfg, svt.mips)
        for atlas in (svt.atlas, loaded.atlas, applied):
            compared += assert_border_copies_the_edge(svt, atlas.data)
    assert compared > 100_000


def reference_footprint_bits(svt, data) -> np.ndarray:
    """Per slot, in Python: whether the 2x2x2 block at each base corner
    (i, j, k) < span - 1 of the slot holds a voxel other than empty_value,
    as (slots, span - 1, span - 1, span - 1)."""
    empty = np.asarray(svt.config.empty_value, dtype=data.dtype)
    out = []
    for block in data:
        read = block != empty
        corners = itertools.product((slice(None, -1), slice(1, None)), repeat=3)
        out.append(np.logical_or.reduce([read[c] for c in corners]))
    return np.asarray(out, dtype=bool).reshape(len(data), *[svt.config.padded_size - 1] * 3)


def footprint_bits_of_base_corners(svt, bits) -> np.ndarray:
    """footprint_bits unpacked to the base corners that reference_footprint_bits covers."""
    span = svt.config.padded_size
    unpacked = np.unpackbits(bits, count=svt.slot_count * span**3, bitorder="little")
    return unpacked.reshape(-1, span, span, span)[:, :-1, :-1, :-1].astype(bool)


def test_footprint_bits_match_a_per_slot_oracle(tmp_path, monkeypatch):
    """Each footprint bit says whether some corner of the 2x2x2 block at
    its base corner differs from empty_value, and footprint_bits is None
    exactly when no atlas voxel equals it. Random u8 and f32 builds, tiles
    2-8, pad 1 and 2, dims that are not multiples of the tile, a non-zero
    empty_value, a float threshold, NaN and +-inf voxels and sparse fills
    of about 3%; the same bits after build_svt, load_svtf and apply_upload.
    The scan takes 8 slots at a time in half the trials, so that many
    chunks meet. slot_ranges equals each slot's min and max bit for bit."""
    rng = np.random.default_rng(1618)
    bits_checked = 0
    for trial in range(24):
        f32 = trial % 2 == 1
        ts = int(rng.integers(2, 9))
        shape = tuple(int(ts * rng.integers(0, 4) + rng.integers(1, ts)) for _ in range(3))
        empty = float(rng.choice([0.0, 3.0 if f32 else 200.0]))
        threshold = 0.25 if f32 and trial % 4 == 1 else 0.0
        fill = 0.03 if trial % 3 else rng.uniform(0.1, 0.5)
        occupied = rng.random(shape) < fill
        if f32:
            background = empty + rng.uniform(-threshold, threshold, shape)
            data = np.where(occupied, rng.standard_normal(shape) * 10, background)
            data = data.astype(np.float32)
            for value in (np.nan, np.inf, -np.inf):
                data[tuple(rng.integers(0, shape))] = value
        else:
            data = np.where(occupied, rng.integers(0, 256, shape), int(empty)).astype(np.uint8)
        fmt = VoxelFormat.F32 if f32 else VoxelFormat.U8
        cfg = SvtConfig(
            tile_size=ts, pad=1 + trial // 2 % 2, empty_value=empty,
            float_empty_threshold=threshold,
        )
        svt = build_svt(make_volume(data, fmt), cfg)
        path = tmp_path / f"t{trial}.svtf"
        save_svtf(svt, path)
        uploaded = apply_upload(serialize_upload(svt), cfg, svt.mips)
        applied = SparseVolumeTexture(
            cfg, fmt, svt.virtual_dims, svt.mips, uploaded,
            svt.nonempty_voxel_count, svt.padded_nonempty_voxel_count,
        )
        with monkeypatch.context() as m:
            if trial % 2:
                m.setattr(svt_module, "_SCAN_VOXELS", 1)
            got = [(tex, tex.footprint_bits()) for tex in (svt, load_svtf(path), applied)]
        atlas = svt.atlas.data
        want = reference_footprint_bits(svt, atlas)
        every = atlas.reshape(len(atlas), cfg.padded_size**3)
        for tex, bits in got:
            assert tex.atlas.data.tobytes() == atlas.tobytes()
            if bits is None:
                assert not (atlas == np.asarray(empty, atlas.dtype)).any()
                continue
            assert bits.shape == (-(-atlas.size // 8),)
            assert np.array_equal(footprint_bits_of_base_corners(tex, bits), want), trial
            assert np.array_equal(bits, got[0][1]), trial
            lo, hi = tex.slot_ranges()
            assert np.array_equal(lo.view(np.int64), every.min(axis=1).astype(float).view(np.int64))
            assert np.array_equal(hi.view(np.int64), every.max(axis=1).astype(float).view(np.int64))
            bits_checked += want.size
    assert bits_checked > 100_000


def test_footprint_bits_are_none_when_every_atlas_voxel_is_set():
    """A volume with no voxel equal to empty_value, whose padded tiles are
    all non-empty, skips the bitmap; a 2x2x2 block of empty_value brings it
    back, with its base corner's bit clear in each slot that holds it."""
    data = np.full((9, 7, 10), 5, np.uint8)
    cfg = SvtConfig(tile_size=4)
    svt = build_svt(make_volume(data), cfg)
    assert svt.padded_nonempty_voxel_count == svt.atlas.data.size
    assert svt.footprint_bits() is None
    data[4:6, 2:4, 5:7] = 0
    svt = build_svt(make_volume(data), cfg)
    bits = svt.footprint_bits()
    assert bits is not None
    assert np.array_equal(
        footprint_bits_of_base_corners(svt, bits), reference_footprint_bits(svt, svt.atlas.data)
    )
    assert not footprint_bits_of_base_corners(svt, bits).all()


def test_a_mip_block_of_plus_and_minus_infinity_is_nan_without_a_warning():
    """+inf and -inf children sum to NaN: the mip voxel is NaN, and neither
    the pair sums nor numpy's reduce of a NaN layer warn."""
    data = np.ones((8, 8, 8), np.float32)
    data[0, 0, 0], data[0, 0, 1] = np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svt = build_svt(make_volume(data, VoxelFormat.F32), SvtConfig(tile_size=4))
        level = build_mip_level(make_volume(data, VoxelFormat.F32))
    assert np.isnan(level.data[0, 0, 0]) and (level.data.ravel()[1:] == 1.0).all()
    assert np.isnan(sample_nearest(svt, (1.0, 1.0, 1.0), mip=1))


@pytest.mark.parametrize("cap", range(1, 7))
def test_slot_grid_is_the_smallest_slot_cube_side_by_its_z_layers(cap):
    # Tile 2, pad 1: a padded tile is 4 voxels, so an extent of 4*cap to
    # 4*cap + 3 allows cap slots per axis.
    for extent in (4 * cap, 4 * cap + 3):
        cfg = SvtConfig(tile_size=2, pad=1, max_atlas_extent=extent)
        for n in range(cap**3 + 2 * cap**2 + 1):
            side = next(s for s in itertools.count() if s**3 >= n)
            if n > cap**3:
                with pytest.raises(AtlasCapacityExceeded):
                    slot_grid_for(n, cfg)
                with pytest.raises(CapacityExceeded):
                    atlas_extent_estimate([n], cfg)
                continue
            sx, sy, sz = slot_grid_for(n, cfg)
            assert (sx, sy, sz) == ((side, side, -(-n // side**2)) if n else (0, 0, 0))
            assert sz <= side
            assert atlas_extent_estimate([n], cfg) == atlas_dims(n, cfg)[0] == 4 * side


def test_the_slot_grid_stops_where_a_packed_entry_field_does():
    # The extent holds 1111 padded tiles per axis, a packed .svtf entry
    # addresses 1024. Nothing is allocated.
    cfg = SvtConfig(max_atlas_extent=20000)
    assert cfg.max_atlas_extent // cfg.padded_size == 1111
    assert slot_grid_for(1024**3, cfg) == (1024, 1024, 1024)
    assert atlas_extent_estimate([1024**3], cfg) == 1024 * cfg.padded_size
    with pytest.raises(AtlasCapacityExceeded, match="10-bit page-table entry"):
        slot_grid_for(1024**3 + 1, cfg)
    with pytest.raises(AtlasCapacityExceeded, match="10-bit page-table entry"):
        atlas_extent_estimate([1024**3 + 1], cfg)
    # So every slot is below 2^30, and no slot entry is EMPTY_ENTRY.
    assert SvtConfig(max_atlas_extent=2**31).max_slots_per_axis ** 3 == 2**30


def _resident_entries(svt) -> np.ndarray:
    """The resident page-table entries in (mip, tz, ty, tx) order."""
    return np.concatenate([t.entries[t.entries != EMPTY_ENTRY] for t in svt.mips])


@pytest.mark.parametrize("fmt", [VoxelFormat.U8, VoxelFormat.F32])
def test_page_tables_hold_the_slots_in_rank_order(tmp_path, fmt):
    cfg = SvtConfig(tile_size=4)
    data = np.where(np.random.default_rng(5).random((40, 37, 33)) < 0.01, 200, 0)
    svt = build_svt(make_volume(data.astype(fmt.dtype), fmt), cfg)
    n = svt.slot_count
    assert n > slot_grid_for(n, cfg)[0] ** 2  # the file's grid has several layers
    assert [t.entries.dtype for t in svt.mips] == [np.uint32] * svt.mip_count
    assert np.array_equal(_resident_entries(svt), np.arange(n))
    before = [t.entries.copy() for t in svt.mips]
    save_svtf(svt, tmp_path / "a.svtf")
    for table, entries in zip(svt.mips, before):
        assert table.entries.dtype == np.uint32 and np.array_equal(table.entries, entries)
    loaded = load_svtf(tmp_path / "a.svtf")
    assert [t.entries.dtype for t in loaded.mips] == [np.uint32] * svt.mip_count
    assert np.array_equal(_resident_entries(loaded), np.arange(n))
    save_svtf(loaded, tmp_path / "b.svtf")
    assert np.array_equal(_resident_entries(loaded), np.arange(n))
    assert (tmp_path / "b.svtf").read_bytes() == (tmp_path / "a.svtf").read_bytes()


def test_the_footprint_base_of_the_last_slot_is_exact():
    # The largest slot a config allows, in a page table that no atlas backs:
    # the footprint table reads only the entries, and its int64 bases must
    # not wrap as a uint32 product would past slot 2^32 / span^3.
    cfg = SvtConfig(max_atlas_extent=2**20)
    span, ts, pad = cfg.padded_size, cfg.tile_size, cfg.pad
    last = cfg.max_slots_per_axis**3 - 1
    entries = np.full((2, 3, 4), EMPTY_ENTRY, np.uint32)
    entries[1, 2, 3] = last
    svt = SparseVolumeTexture(
        cfg, VoxelFormat.U8, VolumeDims(64, 48, 32), [PageTable(entries)],
        TileAtlas(np.empty((0, span, span, span), np.uint8)), 1, 1,
    )
    inner = ((pad - 1 * ts) * span + pad - 2 * ts) * span + pad - 3 * ts
    assert int(svt.footprint_table(0).base[2, 4, 6]) == last * span**3 + inner


@pytest.mark.parametrize("fmt", [VoxelFormat.U8, VoxelFormat.F32])
def test_a_texture_with_its_slots_permuted_samples_and_renders_alike(fmt):
    # Every tile moves to another slot, and its page-table entry follows it.
    rng = np.random.default_rng(7)
    shape = (30, 27, 35)
    data = np.where(rng.random(shape) < 0.03, rng.uniform(1, 255, shape), 0)
    cfg = SvtConfig(tile_size=4)
    svt = build_svt(make_volume(data.astype(fmt.dtype), fmt), cfg)
    n = svt.slot_count
    perm = np.roll(np.arange(n), 1 + n // 3)  # slot s moves to perm[s]
    moved_data = np.empty_like(svt.atlas.data)
    moved_data[perm] = svt.atlas.data
    tables = []
    for table in svt.mips:
        entries = table.entries.copy()
        resident = entries != EMPTY_ENTRY
        entries[resident] = perm[entries[resident]]
        tables.append(PageTable(entries))
    moved = SparseVolumeTexture(
        cfg, fmt, svt.virtual_dims, tables, TileAtlas(moved_data),
        svt.nonempty_voxel_count, svt.padded_nonempty_voxel_count,
    )
    dims = svt.virtual_dims
    px, py, pz = (rng.uniform(-2.0, d + 2.0, 5000) for d in (dims.x, dims.y, dims.z))
    for mip in range(svt.mip_count):
        for sample in (sample_trilinear_many, sample_nearest_many):
            want = sample(svt, px, py, pz, mip)
            assert want.any()
            assert sample(moved, px, py, pz, mip).tobytes() == want.tobytes()
    tf = TransferFunction.grayscale(density_scale=0.5, emission_scale=0.8)
    lights = [DirectionalLight(direction=(0.3, -0.5, 0.8))]
    params = RenderParams(
        camera=Camera(eye=(-20.0, 40.0, -35.0), look_at=(17.0, 13.0, 15.0),
                      vfov_deg=50.0, width=15, height=11),
        max_step_count=48,
    )
    want, got = (
        raymarch(t, build_illumination_cache(t, tf, lights, 4, 8), tf, params)
        for t in (svt, moved)
    )
    assert len(np.unique(want)) > 10
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "fmt,fill", [(VoxelFormat.U8, 0.1), (VoxelFormat.F32, 0.02), (VoxelFormat.U8, 0.0)]
)
def test_a_texture_of_its_required_fields_saves_as_built(tmp_path, fmt, fill):
    # The two counts a texture stores come from the reference builder; the
    # tile counts and the occupancy must follow from the page tables.
    rng = np.random.default_rng(11)
    data = np.where(rng.random((33, 20, 40)) < fill, rng.uniform(1, 200, (33, 20, 40)), 0)
    vol = make_volume(data.astype(fmt.dtype), fmt)
    built = build_svt(vol, SvtConfig(tile_size=8))
    want = reference_build_svt(vol, SvtConfig(tile_size=8)).reference_stats
    bare = SparseVolumeTexture(
        config=SvtConfig(tile_size=8),
        format=fmt,
        virtual_dims=vol.dims,
        mips=[PageTable(table.entries) for table in built.mips],
        atlas=TileAtlas(built.atlas.data),
        nonempty_voxel_count=want.nonempty_voxel_count,
        padded_nonempty_voxel_count=want.padded_nonempty_voxel_count,
    )
    assert_stats_match(bare.stats, want)
    assert_stats_match(built.stats, want)
    assert bare.slot_count == sum(want.nonempty_tile_count)
    assert [t.grid_dims for t in bare.mips] == [
        tile_grid_dims(bare.mip_dims(level), 8) for level in range(bare.mip_count)
    ]
    save_svtf(built, tmp_path / "built.svtf")
    save_svtf(bare, tmp_path / "bare.svtf")
    assert (tmp_path / "bare.svtf").read_bytes() == (tmp_path / "built.svtf").read_bytes()


def test_load_maps_the_records_and_keeps_them_when_the_file_is_replaced(tmp_path, rng):
    path = tmp_path / "a.svtf"
    data = rng.standard_normal((40, 33, 35)).astype(np.float32)
    first = build_svt(make_volume(data, VoxelFormat.F32))
    save_svtf(first, path)
    tracemalloc.start()
    try:
        loaded = load_svtf(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The record bytes are not copied; the checks' temporaries stay small.
    assert peak < path.stat().st_size // 4
    # Saving another texture to the same name replaces the file; the loaded
    # texture still reads its own records, expanded after the replace.
    second = build_svt(random_volume(rng, max_dim=30, fill=0.1))
    save_svtf(second, path)
    assert loaded.atlas.data.tobytes() == first.atlas.data.tobytes()
    assert load_svtf(path).atlas.data.tobytes() == second.atlas.data.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["a.svtf"]


def test_a_failed_save_leaves_no_file_behind(tmp_path, rng):
    svt = build_svt(random_volume(rng, max_dim=20, fill=0.2))
    target = tmp_path / "taken.svtf"
    target.mkdir()  # a directory is neither unlinked nor replaced by a file
    with pytest.raises(IsADirectoryError):
        save_svtf(svt, target)
    assert [p.name for p in tmp_path.iterdir()] == ["taken.svtf"] and target.is_dir()


def test_an_empty_or_unmappable_container_is_a_data_error(tmp_path, rng):
    empty = tmp_path / "empty.svtf"
    empty.write_bytes(b"")
    with pytest.raises(DataError, match="not an SVTF container"):
        load_svtf(empty)
    # A pipe cannot be mapped; it is read instead, as a file would be.
    svt = build_svt(random_volume(rng, max_dim=20, fill=0.2))
    save_svtf(svt, tmp_path / "v.svtf")
    for blob in [(tmp_path / "v.svtf").read_bytes(), b"SVT"]:
        fifo = tmp_path / "pipe.svtf"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        try:
            if blob == b"SVT":
                with pytest.raises(DataError, match="not an SVTF container"):
                    load_svtf(fifo)
            else:
                assert load_svtf(fifo).atlas.data.tobytes() == svt.atlas.data.tobytes()
        finally:
            writer.join(timeout=10)
            fifo.unlink()
        assert not writer.is_alive()


def test_build_peak_memory_is_bounded():
    # A sparse 128^3 u8 survey: 40 of 512 tiles hold a voxel. The peak
    # traced allocation must stay below 5x the volume plus the atlas; the
    # float64 mip sums and per-level tile stacks of the old builder took
    # about 9x the volume.
    rng = np.random.default_rng(3)
    data = np.zeros((128, 128, 128), np.uint8)
    tiles = rng.choice(512, size=40, replace=False)
    tz, ty, tx = np.unravel_index(tiles, (8, 8, 8))
    data[tz * 16 + 5, ty * 16 + 9, tx * 16 + 3] = rng.integers(1, 256, size=40)
    vol = make_volume(data)
    tracemalloc.start()
    try:
        svt = build_svt(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svt.stats.nonempty_tile_count[0] == 40
    assert peak < 5 * data.nbytes + svt.atlas.data.nbytes


@pytest.mark.parametrize("spread,bound", [("scattered", 3.0), ("few_tiles", 2.0)])
def test_threshold_mask_peak_memory_is_bounded(spread, bound):
    # A 128^3 f32 volume: 1% of its voxels set at random, so every tile is
    # resident and the atlas is 1.8x the volume, or one voxel in each of 40
    # of 512 tiles. With a float threshold the mask compares in float64;
    # over the whole level at once that took a traced build peak of 4.4x
    # the volume in both cases (2.5x and 1.7x without a threshold).
    rng = np.random.default_rng(5)
    data = np.zeros((128, 128, 128), np.float32)
    if spread == "scattered":
        occupied = rng.random(data.shape) < 0.01
    else:
        occupied = np.zeros(data.shape, dtype=bool)
        tz, ty, tx = np.unravel_index(rng.choice(512, size=40, replace=False), (8, 8, 8))
        occupied[tz * 16 + 5, ty * 16 + 9, tx * 16 + 3] = True
    data[occupied] = rng.uniform(1.0, 10.0, int(occupied.sum()))
    vol = make_volume(data, VoxelFormat.F32)
    tracemalloc.start()
    try:
        svt = build_svt(vol, SvtConfig(float_empty_threshold=0.25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svt.stats.nonempty_voxel_count == int(occupied.sum())
    assert peak <= bound * data.nbytes


@pytest.mark.parametrize(
    "fmt,value",
    [
        (VoxelFormat.U8, 300.0),
        (VoxelFormat.U8, 256.0),
        (VoxelFormat.U8, -1.0),
        (VoxelFormat.U8, 3.5),
        (VoxelFormat.U8, float("inf")),
        (VoxelFormat.U8, float("nan")),
        (VoxelFormat.F32, 0.1),
        (VoxelFormat.F32, 1e300),
        (VoxelFormat.F32, float("nan")),
    ],
)
def test_build_rejects_an_empty_value_the_format_cannot_hold(fmt, value):
    vol = make_volume(np.ones((4, 4, 4), fmt.dtype), fmt)
    message = re.escape(f"empty_value {value!r} is not a {fmt.value} voxel value")
    with pytest.raises(DataError, match=message):
        build_svt(vol, SvtConfig(empty_value=value))


@pytest.mark.parametrize(
    "fmt,value",
    [
        (VoxelFormat.U8, 0.0),
        (VoxelFormat.U8, 255.0),
        (VoxelFormat.F32, -1.5),
        (VoxelFormat.F32, float(np.float32(0.1))),
    ],
)
def test_empty_value_the_format_holds_samples_alike_everywhere(fmt, value):
    # Empty voxels read through a resident neighbour's padding and inside an
    # empty tile both give empty_value exactly. Tiles 0 and 2 of 3 along x
    # are resident.
    data = np.full((4, 4, 12), value, fmt.dtype)
    data[:, :, 3] = data[:, :, 8] = 7
    svt = build_svt(make_volume(data, fmt), SvtConfig(tile_size=4, empty_value=value))
    assert svt.stats.nonempty_tile_count[0] == 2
    assert sample_nearest(svt, (7.5, 1.5, 1.5)) == value  # through tile 2's padding
    assert sample_nearest(svt, (5.5, 1.5, 1.5)) == value  # inside empty tile 1
    # Base corner in tile 0, its +1 corner in tile 1, read through tile 0.
    assert sample_trilinear(svt, (4.0, 1.5, 1.5)) == 7 * 0.5 + value * 0.5
