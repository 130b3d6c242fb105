"""Shared fixtures, volume factories, and independent oracles.

Oracle functions here deliberately re-derive results from the dense source
arrays without touching page tables or atlases, so they stay independent
of the code paths they check.
"""

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.stride_tricks import sliding_window_view

from svtf import (
    BuildStats,
    CorruptStream,
    DataError,
    DenseVolume,
    DirectionalLight,
    IlluminationCache,
    InconsistentTraceLength,
    OutOfGrid,
    PageTable,
    PointLight,
    SegYHeaderInfo,
    SparseVolumeTexture,
    SvtConfig,
    TransferFunction,
    TruncatedTrace,
    UnsupportedFormatCode,
    VolumeDims,
    VoxelFormat,
    ieee_to_ibm,
    window_table,
)
from svtf.render import MIN_TRANSMITTANCE
from svtf.segy import (
    BINARY_HEADER_BYTES,
    DEFAULT_AXIS_MAP,
    FORMAT_IBM_FLOAT,
    FORMAT_IEEE_FLOAT,
    OFF_CROSSLINE,
    OFF_FORMAT_CODE,
    OFF_INLINE,
    OFF_SAMPLE_INTERVAL,
    OFF_SAMPLES_PER_TRACE,
    OFF_TRACE_SAMPLES,
    TEXTUAL_HEADER_BYTES,
    TRACE_HEADER_BYTES,
)
from svtf.svt import (
    EMPTY_ENTRY,
    mip_level_count,
    nonempty_mask,
    slot_grid_for,
    tile_grid_dims,
)
from svtf.upload import UINT32_LIMIT, WINDOW_ELEMENTS

# Property tests draw the same cases on every run and keep no example
# database, so no run depends on what an earlier run found.
settings.register_profile("svtf", derandomize=True, database=None, deadline=None)
settings.load_profile("svtf")

_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS):
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}  {name}")


def make_volume(data, fmt=VoxelFormat.U8) -> DenseVolume:
    return DenseVolume.from_array(np.asarray(data), fmt)


def random_volume(rng, max_dim=64, fmt=VoxelFormat.U8, fill=0.5) -> DenseVolume:
    """Random dims (not tile-aligned on purpose) with a controllable fill rate."""
    dims = rng.integers(1, max_dim + 1, size=3)
    occupied = rng.random(size=dims[::-1]) < fill
    if fmt is VoxelFormat.U8:
        values = rng.integers(1, 256, size=dims[::-1]).astype(np.uint8)
        data = np.where(occupied, values, 0).astype(np.uint8)
    else:
        values = rng.standard_normal(size=dims[::-1]).astype(np.float32) * 10
        values[values == 0] = 1.0
        data = np.where(occupied, values, np.float32(0)).astype(np.float32)
    return make_volume(data, fmt)


def random_build_case(rng, max_fill=0.2):
    """A u8 or f32 volume of unaligned dims with a random config.

    Tiles of 2 to 16 voxels, pad 1 or 2, a non-zero empty value in half the
    cases, up to max_fill of the voxels occupied, and for f32 a threshold
    that near-empty background falls within.
    """
    f32 = bool(rng.integers(2))
    shape = tuple(int(n) for n in rng.integers(1, 41, size=3))
    empty = float(rng.choice([0.0, 3.0, -1.5 if f32 else 200.0]))
    threshold = float(rng.choice([0.0, 0.25])) if f32 else 0.0
    occupied = rng.random(shape) < rng.uniform(0, max_fill)
    if f32:
        background = np.float32(empty) + rng.uniform(-threshold, threshold, shape)
        values = rng.standard_normal(shape) * 10
        data = np.where(occupied, values, background).astype(np.float32)
    else:
        data = np.where(occupied, rng.integers(0, 256, shape), int(empty)).astype(np.uint8)
    cfg = SvtConfig(
        tile_size=int(rng.integers(2, 17)),
        pad=int(rng.integers(1, 3)),
        empty_value=empty,
        float_empty_threshold=threshold,
    )
    return make_volume(data, VoxelFormat.F32 if f32 else VoxelFormat.U8), cfg


def brute_force_residency(volume: DenseVolume, tile_size: int, empty=0.0) -> np.ndarray:
    """Tile-grid boolean array: True where the tile's in-volume region has
    any value != empty."""
    d = volume.dims
    gx, gy, gz = (-(-d.x // tile_size), -(-d.y // tile_size), -(-d.z // tile_size))
    out = np.zeros((gz, gy, gx), dtype=bool)
    for tz in range(gz):
        for ty in range(gy):
            for tx in range(gx):
                region = volume.data[
                    tz * tile_size : (tz + 1) * tile_size,
                    ty * tile_size : (ty + 1) * tile_size,
                    tx * tile_size : (tx + 1) * tile_size,
                ]
                out[tz, ty, tx] = bool((region != empty).any())
    return out


def brute_force_mip(data_zyx: np.ndarray) -> np.ndarray:
    """Ceil-halved volume, each voxel the mean of its existing children."""
    nz, ny, nx = data_zyx.shape
    oz, oy, ox = -(-nz // 2), -(-ny // 2), -(-nx // 2)
    out = np.zeros((oz, oy, ox), dtype=np.float64)
    for z in range(oz):
        for y in range(oy):
            for x in range(ox):
                block = data_zyx[
                    2 * z : min(2 * z + 2, nz),
                    2 * y : min(2 * y + 2, ny),
                    2 * x : min(2 * x + 2, nx),
                ].astype(np.float64)
                out[z, y, x] = block.mean()
    return out


@dataclass
class PaddedTile:
    tile_coord: tuple[int, int, int]
    mip_level: int
    values: np.ndarray  # (padded, padded, padded) in [z, y, x]
    occupancy: np.ndarray  # bool, same shape, set where value is non-empty

    def packed_occupancy(self) -> bytes:
        return np.packbits(self.occupancy.ravel(), bitorder="little").tobytes()

    @property
    def popcount(self) -> int:
        return int(self.occupancy.sum(dtype=np.int64))


def extract_padded_tile(
    volume: DenseVolume, tile_coord, config: SvtConfig, mip_level: int = 0
) -> PaddedTile:
    """Copy one tile plus its one-voxel border, clamping reads at the volume edge."""
    tx, ty, tz = tile_coord
    grid = tile_grid_dims(volume.dims, config.tile_size)
    if not (0 <= tx < grid.x and 0 <= ty < grid.y and 0 <= tz < grid.z):
        raise OutOfGrid(f"tile {tile_coord} outside grid {grid.x}x{grid.y}x{grid.z}")
    ts, p = config.tile_size, config.pad
    span = config.padded_size
    ix = np.clip(np.arange(tx * ts - p, tx * ts - p + span), 0, volume.dims.x - 1)
    iy = np.clip(np.arange(ty * ts - p, ty * ts - p + span), 0, volume.dims.y - 1)
    iz = np.clip(np.arange(tz * ts - p, tz * ts - p + span), 0, volume.dims.z - 1)
    values = volume.data[np.ix_(iz, iy, ix)]
    return PaddedTile(
        tile_coord=(tx, ty, tz),
        mip_level=mip_level,
        values=values,
        occupancy=nonempty_mask(values, config),
    )


def is_tile_empty(tile: PaddedTile, config: SvtConfig) -> bool:
    """A tile is empty iff its logical region is; pad content never counts."""
    p, ts = config.pad, config.tile_size
    logical = tile.values[p : p + ts, p : p + ts, p : p + ts]
    return not nonempty_mask(logical, config).any()


def upload_buffer_bytes_exact(padded_nonempty_voxels: int, bytes_per_voxel: int) -> int:
    return padded_nonempty_voxels * bytes_per_voxel


# The marchers as they were before empty-space skipping, kept verbatim as
# the bit-identity oracle for the skipping marchers, except that they clip
# rays, sample, classify and look up the cache through the reference_ copies
# of the code they called then, so that they stay independent of today's
# kernels.


def reference_ray_aabb(origins, dirs, lo, hi):
    """Slab intersection; returns (t_near, t_far) with t_near clamped to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (lo[None, :] - origins) * inv
        t1 = (hi[None, :] - origins) * inv
        near_ax = np.minimum(t0, t1)
        far_ax = np.maximum(t0, t1)
    # A parallel axis constrains nothing when the origin lies inside its
    # slab (faces inclusive) and everything when it does not.
    parallel = dirs == 0.0
    inside = (origins >= lo[None, :]) & (origins <= hi[None, :])
    near_ax = np.where(parallel, np.where(inside, -np.inf, np.inf), near_ax)
    far_ax = np.where(parallel, np.where(inside, np.inf, -np.inf), far_ax)
    return np.maximum(near_ax.max(axis=1), 0.0), far_ax.min(axis=1)


def reference_illumination_cache(
    svt: SparseVolumeTexture,
    tf: TransferFunction,
    lights,
    downsample_factor: int = 4,
    shadow_steps: int = 64,
) -> IlluminationCache:
    """Beer-Lambert transmittance from every cache voxel toward every light.

    Light contributions add linearly, so the cache of a union of light sets
    is the sum of the individual caches.
    """
    if downsample_factor < 1:
        raise ValueError("downsample_factor must be >= 1")
    vd = svt.virtual_dims
    dims = VolumeDims(
        -(-vd.x // downsample_factor),
        -(-vd.y // downsample_factor),
        -(-vd.z // downsample_factor),
    )
    f = float(downsample_factor)
    zc, yc, xc = np.meshgrid(
        (np.arange(dims.z) + 0.5) * f,
        (np.arange(dims.y) + 0.5) * f,
        (np.arange(dims.x) + 0.5) * f,
        indexing="ij",
    )
    centers = np.stack([xc.ravel(), yc.ravel(), zc.ravel()], axis=1)
    lo = np.zeros(3)
    hi = np.asarray([vd.x, vd.y, vd.z], dtype=np.float64)

    flat = np.zeros((centers.shape[0], 3), dtype=np.float64)
    for light in lights:
        if isinstance(light, DirectionalLight):
            d = -np.asarray(light.direction, dtype=np.float64)
            dirs = np.broadcast_to(d, centers.shape)
            t_stop = np.full(centers.shape[0], np.inf)
            atten = 1.0
        elif isinstance(light, PointLight):
            to_light = np.asarray(light.position, dtype=np.float64)[None, :] - centers
            dist = np.linalg.norm(to_light, axis=1)
            dist = np.maximum(dist, 1e-12)
            dirs = to_light / dist[:, None]
            t_stop = dist
            atten = 1.0 / (1.0 + (dist / light.radius) ** 2)
        else:
            raise TypeError(f"unknown light type {type(light).__name__}")

        t0, t1 = reference_ray_aabb(centers, dirs, lo, hi)
        t1 = np.minimum(t1, t_stop)
        length = np.maximum(t1 - t0, 0.0)
        dt = length / shadow_steps
        tau = np.zeros(centers.shape[0], dtype=np.float64)
        for j in range(shadow_steps):
            t = t0 + (j + 0.5) * dt
            p = centers + t[:, None] * dirs
            scalars = reference_sample_trilinear_many(svt, p[:, 0], p[:, 1], p[:, 2])
            sigma, _ = reference_classify(tf, scalars, svt.format)
            tau += sigma * dt
        trans = np.exp(-tau)
        weight = (atten * trans)[:, None]
        flat += np.asarray(light.intensity, dtype=np.float64)[None, :] * weight

    values = flat.reshape(dims.z, dims.y, dims.x, 3)
    return IlluminationCache(downsample_factor=downsample_factor, values=values)


def reference_march_block(svt, cache, tf, params, origins, dirs):
    n = origins.shape[0]
    vd = svt.virtual_dims
    lo = np.zeros(3)
    hi = np.asarray([vd.x, vd.y, vd.z], dtype=np.float64)
    t0, t1 = reference_ray_aabb(origins, dirs, lo, hi)
    hit = t1 > t0
    steps = params.max_step_count
    dt = np.where(hit, (t1 - t0) / steps, 0.0)

    radiance = np.zeros((n, 3), dtype=np.float64)
    trans = np.ones(n, dtype=np.float64)
    cut = params.cut_plane
    if cut is not None:
        cut_n = np.asarray(cut[0], dtype=np.float64)
        cut_off = float(cut[1])

    alive = np.flatnonzero(hit)
    for i in range(steps):
        if not len(alive):
            break
        t = t0[alive] + (i + 0.5) * dt[alive]
        p = origins[alive] + t[:, None] * dirs[alive]
        if cut is not None:
            visible = p @ cut_n + cut_off >= 0.0
        else:
            visible = None
        scalars = reference_sample_trilinear_many(svt, p[:, 0], p[:, 1], p[:, 2], params.mip)
        sigma, rgb = reference_classify(tf, scalars, svt.format)
        if visible is not None:
            sigma = np.where(visible, sigma, 0.0)
            rgb = np.where(visible[:, None], rgb, 0.0)
        # Incident light only matters where the transfer function emits;
        # rgb == 0 kills the contribution regardless of the cache value.
        source = tf.emission_scale * rgb
        lit = np.flatnonzero(rgb.any(axis=1))
        if len(lit):
            incident = reference_incident(cache, p[lit, 0], p[lit, 1], p[lit, 2])
            source[lit] *= 1.0 + incident
        e_half = np.exp(-0.5 * dt[alive] * sigma)
        radiance[alive] += (trans[alive] * e_half * dt[alive])[:, None] * source
        trans[alive] *= e_half * e_half
        alive = alive[trans[alive] > MIN_TRANSMITTANCE]
    return radiance, trans


def reference_incident(cache, px, py, pz) -> np.ndarray:
    """(n, 3) incident light of an IlluminationCache, or of chunks.py's
    per-chunk caches (which have .caches), read by reference_trilinear_dense
    from each cache's (z, y, x, 3) values."""
    if not hasattr(cache, "caches"):
        f = float(cache.downsample_factor)
        return reference_trilinear_dense(cache.values, px / f, py / f, pz / f)
    axis = "xyz".index(cache.axis)
    interior = np.asarray(cache.edges[1:-1], dtype=np.float64)
    owner = np.searchsorted(interior, (px, py, pz)[axis], side="right")
    out = np.zeros((len(px), 3))
    for i, chunk in enumerate(cache.caches):
        sel = owner == i
        local = [px[sel], py[sel], pz[sel]]
        local[axis] = local[axis] - float(cache.edges[i])
        out[sel] = reference_incident(chunk, *local)
    return out


def reference_raymarch(svt, cache, tf, params) -> np.ndarray:
    """raymarch() through reference_march_block, as one block."""
    cam = params.camera
    origins, dirs = cam.rays()
    radiance, trans = reference_march_block(svt, cache, tf, params, origins, dirs)
    background = np.asarray(params.background, dtype=np.float64)
    img = radiance + trans[:, None] * background[None, :]
    return img.reshape(cam.height, cam.width, 3)


def footprint_touches_resident(svt, mip, px, py, pz) -> np.ndarray:
    """Brute force: does any of the eight clamped trilinear corners of each
    position lie in a resident tile of the mip level?"""
    d = svt.mip_dims(mip)
    resident = svt.mips[mip].entries != 0xFFFFFFFF
    ts = svt.config.tile_size
    scale = float(1 << mip)
    axes = []
    for p, n in ((px, d.x), (py, d.y), (pz, d.z)):
        b = np.floor(np.asarray(p, dtype=np.float64) / scale - 0.5).astype(np.int64)
        axes.append((np.clip(b, 0, n - 1) // ts, np.clip(b + 1, 0, n - 1) // ts))
    out = np.zeros(len(axes[0][0]), dtype=bool)
    for tx in axes[0]:
        for ty in axes[1]:
            for tz in axes[2]:
                out |= resident[tz, ty, tx]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


# The per-tile record codec, container and upload-stream code as they were
# before the array codec, kept verbatim (names prefixed reference_) as the
# byte-identity oracle for the array codec.

_ref_log = logging.getLogger("svtf.upload")


# Page tables in memory hold atlas slots, in these oracles as in the library;
# only a .svtf file holds them packed, and the reference container code packs
# and unpacks them with the helpers below, never with the library's.
_REF_COORD_BITS = 10  # per-axis field of a packed page-table entry


def unpack_entry(entry):
    """The block coordinates (ax, ay, az) that packed page-table entries hold."""
    mask = (1 << _REF_COORD_BITS) - 1
    e = np.asarray(entry, dtype=np.uint64)
    return (e & mask, (e >> _REF_COORD_BITS) & mask, (e >> 2 * _REF_COORD_BITS) & mask)


def reference_entry_slot(packed, n: int, config: SvtConfig) -> np.ndarray:
    """The slot of packed page entries in the near-cubic grid of n slots:
    (az * sy + ay) * sx + ax."""
    sx, sy, _ = slot_grid_for(n, config)
    ax, ay, az = (a.astype(np.int64) for a in unpack_entry(packed))
    return (az * sy + ay) * sx + ax


def reference_packed_table(entries: np.ndarray, n: int, config: SvtConfig) -> np.ndarray:
    """A slot-valued page table as a .svtf file holds it: each resident
    slot's block coordinates in the near-cubic grid of n slots, packed."""
    sx, sy, _ = slot_grid_for(n, config)
    resident = entries != EMPTY_ENTRY
    slots = entries[resident].astype(np.uint64)
    ax, ay, az = slots % sx, slots // sx % sy, slots // (sx * sy)
    out = entries.copy()
    out[resident] = ax | ay << _REF_COORD_BITS | az << 2 * _REF_COORD_BITS
    return out


def reference_slot_table(packed: np.ndarray, n: int, config: SvtConfig) -> np.ndarray:
    """The slot-valued page table of a .svtf file's packed one (n slots)."""
    resident = packed != EMPTY_ENTRY
    out = np.full(packed.shape, EMPTY_ENTRY, dtype=np.uint32)
    out[resident] = reference_entry_slot(packed[resident], n, config)
    return out


def reference_atlas_zyx(n: int, config: SvtConfig) -> tuple[int, int, int]:
    """The (z, y, x) voxel shape of the atlas texture of n tiles' slot grid."""
    sx, sy, sz = slot_grid_for(n, config)
    span = config.padded_size
    return (sz * span, sy * span, sx * span)


def reference_tile_counts(mips) -> list[int]:
    """The resident tiles of each page table, counted from its entries."""
    return [int((table.entries != EMPTY_ENTRY).sum()) for table in mips]


def assert_stats_match(got: BuildStats, want: BuildStats) -> None:
    """The four counts agree field by field, the occupancy by its bits."""
    assert got.nonempty_voxel_count == want.nonempty_voxel_count
    assert tuple(got.nonempty_tile_count) == tuple(want.nonempty_tile_count)
    assert got.padded_nonempty_voxel_count == want.padded_nonempty_voxel_count
    bits = struct.Struct("<d").pack
    assert bits(got.mean_tile_occupancy) == bits(want.mean_tile_occupancy)


@dataclass
class ReferenceTexture(SparseVolumeTexture):
    """A texture that a reference builder or loader made, with the four
    counts that it computed itself, to compare with the stats under test."""

    reference_stats: BuildStats


@dataclass
class ReferenceAtlas:
    """A reference builder's atlas: the (z, y, x) texture of the slot grid,
    its spare slots empty_value; dims is its (x, y, z) extent, zeros for none."""

    dims: tuple[int, int, int]
    data: np.ndarray


def reference_slot_order(data_zyx: np.ndarray, span: int, n: int) -> np.ndarray:
    """The first n span^3 blocks of a (z, y, x) atlas texture as the (n, span,
    span, span) store the library keeps: the block at block coords (ax, ay,
    az) is slot (az * sy + ay) * sx + ax. A copy, so it never aliases data_zyx.
    """
    _, sy, sx = (extent // span for extent in data_zyx.shape)
    out = np.empty((n, span, span, span), dtype=data_zyx.dtype)
    for slot in range(n):
        az, ay, ax = slot // (sx * sy), slot // sx % sy, slot % sx
        out[slot] = data_zyx[
            az * span : (az + 1) * span, ay * span : (ay + 1) * span, ax * span : (ax + 1) * span
        ]
    return out


def reference_atlas_slot_blocks(svt: SparseVolumeTexture) -> np.ndarray:
    """All resident padded tiles as one (n, span, span, span) stack in slot order.

    A reference builder's (z, y, x) atlas is reordered by
    reference_slot_order; the library's store must already be in slot order,
    one block per resident tile.
    """
    span = svt.config.padded_size
    n = sum(reference_tile_counts(svt.mips))
    data = svt.atlas.data
    if isinstance(svt.atlas, ReferenceAtlas):
        return reference_slot_order(data, span, n)
    assert data.shape == (n, span, span, span)
    return data


def encode_tile_record(block: np.ndarray, config: SvtConfig) -> tuple[bytes, np.ndarray]:
    """Occupancy-compress one padded tile: (mask bytes, packed non-empty values)."""
    mask = nonempty_mask(block, config).ravel()
    packed = np.packbits(mask, bitorder="little").tobytes()
    return packed, block.ravel()[mask]


def decode_tile_record(
    mask_bytes: bytes, values: np.ndarray, config: SvtConfig, dtype
) -> np.ndarray:
    span = config.padded_size
    bits = np.unpackbits(
        np.frombuffer(mask_bytes, dtype=np.uint8), count=span**3, bitorder="little"
    ).astype(bool)
    if int(bits.sum()) != len(values):
        raise CorruptStream(
            f"tile payload has {len(values)} values but mask popcount is {int(bits.sum())}"
        )
    block = np.full(span**3, config.empty_value, dtype=dtype)
    block[bits] = values
    return block.reshape(span, span, span)


_REF_SVTF_MAGIC = b"SVTF"
_REF_SVTF_VERSION = 1
_REF_FORMAT_CODES = {VoxelFormat.U8: 0, VoxelFormat.F32: 1}
_REF_SVTF_HEADER = struct.Struct("<4sII IIIdd QQQ I QQQ QQd")


def reference_save_svtf(svt: SparseVolumeTexture, path) -> None:
    """Write svt as a container, counting the header's stats itself: the
    tiles from the page tables and the padded non-empty voxels from the
    records written; only nonempty_voxel_count is read off the texture."""
    cfg = svt.config
    blocks = reference_atlas_slot_blocks(svt)
    counts = reference_tile_counts(svt.mips)
    nonempty = svt.nonempty_voxel_count
    occupancy = nonempty / (counts[0] * cfg.tile_size**3) if counts[0] else 0.0
    records = []
    offsets = np.zeros(len(blocks), dtype=np.uint64)
    pos = 0
    padded_nonempty = 0
    for i, block in enumerate(blocks):
        mask, values = encode_tile_record(block, cfg)
        payload = values.astype(svt.format.dtype.newbyteorder("<")).tobytes()
        records.append(mask + payload)
        offsets[i] = pos
        pos += len(mask) + len(payload)
        padded_nonempty += len(values)

    az, ay, ax = reference_atlas_zyx(len(blocks), cfg)
    with open(path, "wb") as fh:
        fh.write(
            _REF_SVTF_HEADER.pack(
                _REF_SVTF_MAGIC,
                _REF_SVTF_VERSION,
                _REF_FORMAT_CODES[svt.format],
                cfg.tile_size,
                cfg.pad,
                cfg.max_atlas_extent,
                cfg.empty_value,
                cfg.float_empty_threshold,
                svt.virtual_dims.x,
                svt.virtual_dims.y,
                svt.virtual_dims.z,
                len(svt.mips),
                ax,
                ay,
                az,
                nonempty,
                padded_nonempty,
                occupancy,
            )
        )
        for table, count in zip(svt.mips, counts):
            gz, gy, gx = table.entries.shape
            fh.write(struct.pack("<QQQQ", gx, gy, gz, count))
            packed = reference_packed_table(table.entries, len(blocks), cfg)
            fh.write(packed.astype("<u4").tobytes())
        fh.write(struct.pack("<Q", len(blocks)))
        fh.write(offsets.astype("<u8").tobytes())
        for rec in records:
            fh.write(rec)


def reference_load_svtf(path) -> ReferenceTexture:
    raw = Path(path).read_bytes()
    if len(raw) < _REF_SVTF_HEADER.size or raw[:4] != _REF_SVTF_MAGIC:
        raise DataError(f"{path}: not an SVTF container")
    (
        _,
        version,
        fmt_code,
        tile_size,
        pad,
        max_extent,
        empty_value,
        threshold,
        vx,
        vy,
        vz,
        mip_count,
        ax,
        ay,
        az,
        nonempty,
        padded_nonempty,
        occupancy,
    ) = _REF_SVTF_HEADER.unpack_from(raw, 0)
    if version != _REF_SVTF_VERSION:
        raise DataError(f"{path}: unsupported SVTF version {version}")
    try:
        fmt = {v: k for k, v in _REF_FORMAT_CODES.items()}[fmt_code]
    except KeyError:
        raise DataError(f"{path}: unknown voxel format code {fmt_code}")
    config = SvtConfig(
        tile_size=tile_size,
        pad=pad,
        max_atlas_extent=max_extent,
        empty_value=empty_value,
        float_empty_threshold=threshold,
    )
    span = config.padded_size
    pos = _REF_SVTF_HEADER.size
    mips, tile_counts = [], []
    for _ in range(mip_count):
        gx, gy, gz, count = struct.unpack_from("<QQQQ", raw, pos)
        pos += 32
        n = gx * gy * gz
        entries = np.frombuffer(raw, dtype="<u4", count=n, offset=pos).reshape(gz, gy, gx)
        entries = entries.astype(np.uint32)
        pos += 4 * n
        mips.append(PageTable(entries))
        tile_counts.append(int(count))

    (tile_count,) = struct.unpack_from("<Q", raw, pos)
    pos += 8
    offsets = np.frombuffer(raw, dtype="<u8", count=tile_count, offset=pos)
    pos += 8 * tile_count
    if tile_count != sum(tile_counts):
        raise CorruptStream(f"{path}: tile count disagrees with per-mip counts")
    for table in mips:
        table.entries = reference_slot_table(table.entries, tile_count, config)

    if tile_count:
        atlas_data = np.full((az, ay, ax), empty_value, dtype=fmt.dtype)
        sy, sx = ay // span, ax // span
        mask_bytes = config.occupancy_mask_bytes
        dtype_le = fmt.dtype.newbyteorder("<")
        for i in range(tile_count):
            rec_start = pos + int(offsets[i])
            mask = raw[rec_start : rec_start + mask_bytes]
            if len(mask) < mask_bytes:
                raise CorruptStream(f"{path}: tile record {i} truncated")
            bits = np.unpackbits(
                np.frombuffer(mask, dtype=np.uint8), count=span**3, bitorder="little"
            )
            n_values = int(bits.sum())
            val_start = rec_start + mask_bytes
            if val_start + n_values * fmt.bytes_per_voxel > len(raw):
                raise CorruptStream(f"{path}: tile record {i} truncated")
            values = np.frombuffer(raw, dtype=dtype_le, count=n_values, offset=val_start)
            block = decode_tile_record(mask, values.astype(fmt.dtype), config, fmt.dtype)
            z0, y0, x0 = i // (sx * sy) * span, (i // sx) % sy * span, i % sx * span
            atlas_data[z0 : z0 + span, y0 : y0 + span, x0 : x0 + span] = block
    else:
        atlas_data = np.full((0, 0, 0), empty_value, dtype=fmt.dtype)

    stats = BuildStats(
        nonempty_voxel_count=nonempty,
        nonempty_tile_count=tuple(tile_counts),
        padded_nonempty_voxel_count=padded_nonempty,
        mean_tile_occupancy=occupancy,
    )
    return ReferenceTexture(
        config=config,
        format=fmt,
        virtual_dims=VolumeDims(vx, vy, vz),
        mips=mips,
        atlas=ReferenceAtlas(dims=(ax, ay, az), data=atlas_data),
        nonempty_voxel_count=nonempty,
        padded_nonempty_voxel_count=padded_nonempty,
        reference_stats=stats,
    )


@dataclass
class ReferenceUploadBuffer:
    """Serialized tile records plus the window table used to stream them."""

    config: SvtConfig
    format: VoxelFormat
    tiles: list[tuple[bytes, np.ndarray]]  # (occupancy mask, packed values)
    tile_data_offsets: np.ndarray  # uint64 start offset of each record
    windows: list[tuple[int, int]]  # (start_element, element_count)
    total_bytes: int
    exceeds_uint32: bool

    @property
    def total_elements(self) -> int:
        return int(sum(len(v) for _, v in self.tiles))


def reference_serialize_upload(
    svt: SparseVolumeTexture, window_elements: int = WINDOW_ELEMENTS
) -> ReferenceUploadBuffer:
    cfg = svt.config
    bpv = svt.format.bytes_per_voxel
    mask_bytes = cfg.occupancy_mask_bytes
    tiles = []
    offsets = np.zeros(sum(reference_tile_counts(svt.mips)), dtype=np.uint64)
    pos = 0
    total_elements = 0
    for i, block in enumerate(reference_atlas_slot_blocks(svt)):
        mask, values = encode_tile_record(block, cfg)
        tiles.append((mask, values))
        offsets[i] = pos
        pos += mask_bytes + len(values) * bpv
        total_elements += len(values)

    exceeds = pos >= UINT32_LIMIT
    if exceeds:
        _ref_log.warning("upload stream is %d bytes, beyond the uint32 offset range", pos)
    return ReferenceUploadBuffer(
        config=cfg,
        format=svt.format,
        tiles=tiles,
        tile_data_offsets=offsets,
        windows=window_table(total_elements, window_elements),
        total_bytes=pos,
        exceeds_uint32=exceeds,
    )


def _reference_expected_tile_count(page_tables) -> int:
    return int(sum(int((t.entries != EMPTY_ENTRY).sum()) for t in page_tables))


def reference_apply_upload(
    buffer: ReferenceUploadBuffer, config: SvtConfig, page_tables
) -> ReferenceAtlas:
    span = config.padded_size
    mask_bytes = config.occupancy_mask_bytes
    bpv = buffer.format.bytes_per_voxel
    n_tiles = len(buffer.tiles)
    if n_tiles != _reference_expected_tile_count(page_tables):
        raise CorruptStream(
            f"stream has {n_tiles} tiles, page tables reference "
            f"{_reference_expected_tile_count(page_tables)}"
        )

    total_elements = buffer.total_elements
    covered = 0
    for start, count in buffer.windows:
        if start != covered or count < 1 or count > WINDOW_ELEMENTS:
            raise CorruptStream("window table does not partition the element stream")
        covered += count
    if covered != total_elements:
        raise CorruptStream(
            f"windows cover {covered} elements, stream has {total_elements}"
        )

    pos = 0
    for i, (mask, values) in enumerate(buffer.tiles):
        if len(mask) != mask_bytes:
            raise CorruptStream(f"tile {i}: mask is {len(mask)} bytes, need {mask_bytes}")
        if int(buffer.tile_data_offsets[i]) != pos:
            raise CorruptStream(
                f"tile {i}: offset {int(buffer.tile_data_offsets[i])} != expected {pos}"
            )
        pos += mask_bytes + len(values) * bpv
    if pos != buffer.total_bytes:
        raise CorruptStream(f"total_bytes {buffer.total_bytes} != record sum {pos}")

    sx, sy, sz = slot_grid_for(n_tiles, config)
    if n_tiles == 0:
        empty = np.full((0, 0, 0), config.empty_value, dtype=buffer.format.dtype)
        return ReferenceAtlas(dims=(0, 0, 0), data=empty)
    atlas_data = np.full(
        (sz * span, sy * span, sx * span), config.empty_value, dtype=buffer.format.dtype
    )

    # Window-by-window element cursor; tiles complete as their last element
    # arrives, possibly one window later than they started.
    tile_starts = np.cumsum([0] + [len(v) for _, v in buffer.tiles])
    window_ends = [start + count for start, count in buffer.windows]
    done_elements = 0
    tile_idx = 0
    for end in window_ends:
        done_elements = end
        while tile_idx < n_tiles and tile_starts[tile_idx + 1] <= done_elements:
            mask, values = buffer.tiles[tile_idx]
            block = decode_tile_record(mask, values, config, buffer.format.dtype)
            z0 = tile_idx // (sx * sy) * span
            y0 = (tile_idx // sx) % sy * span
            x0 = tile_idx % sx * span
            atlas_data[z0 : z0 + span, y0 : y0 + span, x0 : x0 + span] = block
            tile_idx += 1
    if tile_idx != n_tiles:
        raise CorruptStream(f"stream ended with {n_tiles - tile_idx} tiles incomplete")

    return ReferenceAtlas(dims=atlas_data.shape[::-1], data=atlas_data)


_REF_SVTU_MAGIC = b"SVTU"
_REF_SVTU_VERSION = 1
_REF_SVTU_HEADER = struct.Struct("<4sII IIdd QQI Q")


def reference_save_upload(buffer: ReferenceUploadBuffer, path) -> None:
    cfg = buffer.config
    with open(path, "wb") as fh:
        fh.write(
            _REF_SVTU_HEADER.pack(
                _REF_SVTU_MAGIC,
                _REF_SVTU_VERSION,
                _REF_FORMAT_CODES[buffer.format],
                cfg.tile_size,
                cfg.pad,
                cfg.empty_value,
                cfg.float_empty_threshold,
                len(buffer.tiles),
                buffer.total_bytes,
                1 if buffer.exceeds_uint32 else 0,
                len(buffer.windows),
            )
        )
        for start, count in buffer.windows:
            fh.write(struct.pack("<QQ", start, count))
        fh.write(buffer.tile_data_offsets.astype("<u8").tobytes())
        dtype_le = buffer.format.dtype.newbyteorder("<")
        for mask, values in buffer.tiles:
            fh.write(mask)
            fh.write(values.astype(dtype_le).tobytes())


def reference_load_upload(path, max_atlas_extent: int = 2048) -> ReferenceUploadBuffer:
    raw = Path(path).read_bytes()
    if len(raw) < _REF_SVTU_HEADER.size or raw[:4] != _REF_SVTU_MAGIC:
        raise DataError(f"{path}: not an SVTU upload stream")
    (
        _,
        version,
        fmt_code,
        tile_size,
        pad,
        empty_value,
        threshold,
        tile_count,
        total_bytes,
        overflow,
        window_count,
    ) = _REF_SVTU_HEADER.unpack_from(raw, 0)
    if version != _REF_SVTU_VERSION:
        raise DataError(f"{path}: unsupported SVTU version {version}")
    try:
        fmt = {v: k for k, v in _REF_FORMAT_CODES.items()}[fmt_code]
    except KeyError:
        raise DataError(f"{path}: unknown voxel format code {fmt_code}")
    config = SvtConfig(
        tile_size=tile_size,
        pad=pad,
        max_atlas_extent=max_atlas_extent,
        empty_value=empty_value,
        float_empty_threshold=threshold,
    )
    pos = _REF_SVTU_HEADER.size
    windows = []
    for _ in range(window_count):
        start, count = struct.unpack_from("<QQ", raw, pos)
        windows.append((start, count))
        pos += 16
    offsets = np.frombuffer(raw, dtype="<u8", count=tile_count, offset=pos).astype(np.uint64)
    pos += 8 * tile_count

    mask_bytes = config.occupancy_mask_bytes
    span3 = config.padded_size**3
    dtype_le = fmt.dtype.newbyteorder("<")
    tiles = []
    for i in range(tile_count):
        rec = pos + int(offsets[i])
        mask = raw[rec : rec + mask_bytes]
        if len(mask) < mask_bytes:
            raise CorruptStream(f"{path}: tile {i} mask truncated")
        bits = np.unpackbits(
            np.frombuffer(mask, dtype=np.uint8), count=span3, bitorder="little"
        )
        n_values = int(bits.sum())
        end = rec + mask_bytes + n_values * fmt.bytes_per_voxel
        if end > len(raw):
            raise CorruptStream(f"{path}: tile {i} payload truncated")
        values = np.frombuffer(raw, dtype=dtype_le, count=n_values, offset=rec + mask_bytes)
        tiles.append((mask, values.astype(fmt.dtype)))

    return ReferenceUploadBuffer(
        config=config,
        format=fmt,
        tiles=tiles,
        tile_data_offsets=offsets,
        windows=windows,
        total_bytes=total_bytes,
        exceeds_uint32=bool(overflow),
    )


# The SEG-Y reader and writer as they were before the strided word-array
# versions, kept verbatim (names prefixed reference_) as their oracle.


def _reference_u16(buf: bytes, off: int) -> int:
    return struct.unpack_from(">H", buf, off)[0]


def _reference_i32(buf: bytes, off: int) -> int:
    return struct.unpack_from(">i", buf, off)[0]


def _reference_axis_transpose(axis_map) -> tuple[int, int, int]:
    if sorted(axis_map) != sorted(DEFAULT_AXIS_MAP):
        raise DataError(
            f"axis map must be a permutation of {DEFAULT_AXIS_MAP}, got {axis_map}"
        )
    # Canonical assembled cube is indexed [inline, crossline, sample];
    # produce the permutation giving [z, y, x] for the requested mapping.
    canonical = {"inline": 0, "crossline": 1, "sample": 2}
    x_src, y_src, z_src = axis_map
    return (canonical[z_src], canonical[y_src], canonical[x_src])


def reference_ibm_to_ieee(words) -> np.ndarray | float:
    """IBM base-16 floats by the direct formula: sign * ldexp(fraction, 4(e-64)-24).

    The decoder as it was before its scale table, kept as the oracle for it.
    """
    arr = np.asarray(words, dtype=np.uint32)
    sign = np.where(arr >> np.uint32(31) != 0, -1.0, 1.0)
    exponent = ((arr >> np.uint32(24)) & np.uint32(0x7F)).astype(np.int64)
    fraction = (arr & np.uint32(0xFFFFFF)).astype(np.float64)
    value = sign * np.ldexp(fraction, 4 * (exponent - 64) - 24)
    return value if value.ndim else float(value)


def reference_parse_segy(path, axis_map=DEFAULT_AXIS_MAP) -> tuple[SegYHeaderInfo, DenseVolume]:
    """Parse a SEG-Y file into a dense cube on the inline/crossline grid.

    Grid cells with no trace are filled with 0 and counted in
    missing_cells. Duplicate grid positions are rejected.
    """
    raw = Path(path).read_bytes()
    if len(raw) < TEXTUAL_HEADER_BYTES + BINARY_HEADER_BYTES:
        raise DataError(f"{path}: shorter than the 3600-byte SEG-Y header block")

    samples = _reference_u16(raw, OFF_SAMPLES_PER_TRACE)
    interval = _reference_u16(raw, OFF_SAMPLE_INTERVAL)
    format_code = _reference_u16(raw, OFF_FORMAT_CODE)
    if format_code not in (FORMAT_IBM_FLOAT, FORMAT_IEEE_FLOAT):
        raise UnsupportedFormatCode(
            f"{path}: format code {format_code} not supported (only 1 and 5)"
        )
    if samples == 0:
        raise DataError(f"{path}: binary header reports 0 samples per trace")

    trace_bytes = samples * 4
    pos = TEXTUAL_HEADER_BYTES + BINARY_HEADER_BYTES
    inlines, crosslines, payloads = [], [], []
    while pos < len(raw):
        header = raw[pos : pos + TRACE_HEADER_BYTES]
        if len(header) < TRACE_HEADER_BYTES:
            raise TruncatedTrace(f"{path}: trace header truncated at byte {pos}")
        ns_this = _reference_u16(header, OFF_TRACE_SAMPLES)
        if ns_this not in (0, samples):
            raise InconsistentTraceLength(
                f"{path}: trace at byte {pos} has {ns_this} samples, expected {samples}"
            )
        data = raw[pos + TRACE_HEADER_BYTES : pos + TRACE_HEADER_BYTES + trace_bytes]
        if len(data) < trace_bytes:
            raise TruncatedTrace(f"{path}: trace data truncated at byte {pos}")
        inlines.append(_reference_i32(header, OFF_INLINE))
        crosslines.append(_reference_i32(header, OFF_CROSSLINE))
        payloads.append(data)
        pos += TRACE_HEADER_BYTES + trace_bytes

    if not payloads:
        raise DataError(f"{path}: no traces found")

    il = np.asarray(inlines)
    xl = np.asarray(crosslines)
    il_range = (int(il.min()), int(il.max()))
    xl_range = (int(xl.min()), int(xl.max()))
    n_il = il_range[1] - il_range[0] + 1
    n_xl = xl_range[1] - xl_range[0] + 1

    words = np.frombuffer(b"".join(payloads), dtype=">u4").reshape(len(payloads), samples)
    if format_code == FORMAT_IEEE_FLOAT:
        values = words.view(">f4").astype(np.float32)
    else:
        values = reference_ibm_to_ieee(words).astype(np.float32)

    cube = np.zeros((n_il, n_xl, samples), dtype=np.float32)
    filled = np.zeros((n_il, n_xl), dtype=bool)
    ii = il - il_range[0]
    xi = xl - xl_range[0]
    if len(np.unique(ii * n_xl + xi)) != len(payloads):
        raise DataError(f"{path}: duplicate (inline, crossline) trace positions")
    cube[ii, xi] = values
    filled[ii, xi] = True

    info = SegYHeaderInfo(
        samples_per_trace=samples,
        sample_interval_us=interval,
        format_code=format_code,
        trace_count=len(payloads),
        inline_range=il_range,
        crossline_range=xl_range,
        missing_cells=int((~filled).sum()),
    )
    data_zyx = np.ascontiguousarray(cube.transpose(_reference_axis_transpose(axis_map)))
    return info, DenseVolume.from_array(data_zyx, VoxelFormat.F32)


def reference_write_segy(
    path,
    volume: DenseVolume,
    format_code: int = FORMAT_IEEE_FLOAT,
    sample_interval_us: int = 4000,
    axis_map=DEFAULT_AXIS_MAP,
) -> None:
    """Write a volume as a synthetic rev-1 SEG-Y cube (one trace per cell)."""
    if format_code not in (FORMAT_IBM_FLOAT, FORMAT_IEEE_FLOAT):
        raise UnsupportedFormatCode(f"cannot write format code {format_code}")
    perm = _reference_axis_transpose(axis_map)
    inverse = tuple(perm.index(i) for i in range(3))
    cube = volume.data.astype(np.float32).transpose(inverse)  # [inline, crossline, sample]
    n_il, n_xl, samples = cube.shape
    if samples > 0xFFFF:
        raise DataError(f"{samples} samples per trace exceeds the 16-bit header field")

    binary = bytearray(BINARY_HEADER_BYTES)
    struct.pack_into(">H", binary, OFF_SAMPLE_INTERVAL - TEXTUAL_HEADER_BYTES, sample_interval_us)
    struct.pack_into(">H", binary, OFF_SAMPLES_PER_TRACE - TEXTUAL_HEADER_BYTES, samples)
    struct.pack_into(">H", binary, OFF_FORMAT_CODE - TEXTUAL_HEADER_BYTES, format_code)
    struct.pack_into(">H", binary, 3500 - TEXTUAL_HEADER_BYTES, 0x0100)  # rev 1
    struct.pack_into(">H", binary, 3502 - TEXTUAL_HEADER_BYTES, 1)  # fixed-length traces

    with open(path, "wb") as fh:
        fh.write(b"\x00" * TEXTUAL_HEADER_BYTES)
        fh.write(binary)
        for i in range(n_il):
            for j in range(n_xl):
                header = bytearray(TRACE_HEADER_BYTES)
                struct.pack_into(">H", header, OFF_TRACE_SAMPLES, samples)
                struct.pack_into(">i", header, OFF_INLINE, i + 1)
                struct.pack_into(">i", header, OFF_CROSSLINE, j + 1)
                fh.write(header)
                if format_code == FORMAT_IEEE_FLOAT:
                    fh.write(cube[i, j].astype(">f4").tobytes())
                else:
                    fh.write(ieee_to_ibm(cube[i, j]).astype(">u4").tobytes())


# The builder as it was before it filled the atlas one tile row at a time,
# kept verbatim (names prefixed reference_) as the bit-identity oracle for
# build_svt and build_mip_level.


def reference_build_mip_level(volume: DenseVolume) -> DenseVolume:
    """Halve each axis (ceil), averaging the up-to-8 children of each voxel.

    Children falling outside the volume are excluded from the mean rather
    than padded, so border voxels average only what exists.
    """
    d = volume.data
    nz, ny, nx = d.shape
    oz, oy, ox = -(-nz // 2), -(-ny // 2), -(-nx // 2)
    sums = np.zeros((oz * 2, oy * 2, ox * 2), dtype=np.float64)
    sums[:nz, :ny, :nx] = d
    sums = sums.reshape(oz, 2, oy, 2, ox, 2).sum(axis=(1, 3, 5))
    counts = (
        np.where(np.arange(oz) * 2 + 1 < nz, 2, 1)[:, None, None]
        * np.where(np.arange(oy) * 2 + 1 < ny, 2, 1)[None, :, None]
        * np.where(np.arange(ox) * 2 + 1 < nx, 2, 1)[None, None, :]
    )
    mean = sums / counts
    if volume.format is VoxelFormat.U8:
        out = np.floor(mean + 0.5).astype(np.uint8)
    else:
        out = mean.astype(np.float32)
    return DenseVolume.from_array(out, volume.format)


def reference_mip_chain(volume: DenseVolume, config: SvtConfig) -> list[DenseVolume]:
    """Full-resolution volume plus halved levels until one tile covers it."""
    levels = [volume]
    for _ in range(1, mip_level_count(volume.dims, config.tile_size)):
        levels.append(reference_build_mip_level(levels[-1]))
    return levels


def _reference_tile_aligned(data: np.ndarray, grid: VolumeDims, config: SvtConfig) -> np.ndarray:
    """Edge-clamp data up to a tile-aligned shape (out-of-volume reads clamp)."""
    ts = config.tile_size
    widths = (
        (0, grid.z * ts - data.shape[0]),
        (0, grid.y * ts - data.shape[1]),
        (0, grid.x * ts - data.shape[2]),
    )
    if any(w for _, w in widths):
        return np.pad(data, widths, mode="edge")
    return data


def reference_build_svt(
    volume: DenseVolume, config: SvtConfig | None = None
) -> ReferenceTexture:
    """Build the page tables, mip chain, and packed tile atlas for a volume,
    and count its four stats.

    Deterministic: tiles take atlas slots in row-major (mip, tz, ty, tx)
    order. Voxels that compare empty are stored as empty_value exactly, so
    the atlas round-trips bit-identically through the upload stream.
    """
    config = config or SvtConfig()
    ts, p = config.tile_size, config.pad
    span = config.padded_size

    levels = reference_mip_chain(volume, config)
    per_level_tiles = []
    per_level_resident = []
    grids = []
    for level in levels:
        grid = tile_grid_dims(level.dims, ts)
        grids.append(grid)
        aligned = _reference_tile_aligned(level.data, grid, config)
        gz, gy, gx = grid.z, grid.y, grid.x
        occupied = nonempty_mask(aligned, config)
        resident = occupied.reshape(gz, ts, gy, ts, gx, ts).any(axis=(1, 3, 5))
        per_level_resident.append(resident)
        padded = np.pad(aligned, p, mode="edge")
        windows = sliding_window_view(padded, (span, span, span))[::ts, ::ts, ::ts]
        tiles = np.ascontiguousarray(windows[resident])
        tiles[~nonempty_mask(tiles, config)] = np.asarray(
            config.empty_value, dtype=tiles.dtype
        )
        per_level_tiles.append(tiles)

    tile_counts = tuple(int(t.shape[0]) for t in per_level_tiles)
    total = sum(tile_counts)
    nonempty0 = int(nonempty_mask(volume.data, config).sum(dtype=np.int64))
    sx, sy, sz = slot_grid_for(total, config)

    atlas_data = np.full(
        (sz * span, sy * span, sx * span), config.empty_value, dtype=volume.format.dtype
    )
    # Slots fill the atlas's block grid x fastest, then y, then z.
    slots = np.arange(total, dtype=np.int64)
    az, ay, ax = slots // (sx * sy), (slots // sx) % sy, slots % sx
    atlas = ReferenceAtlas(dims=atlas_data.shape[::-1], data=atlas_data)

    mips = []
    padded_nonempty = 0
    slot_base = 0
    for grid, resident, tiles in zip(grids, per_level_resident, per_level_tiles):
        level_slots = slice(slot_base, slot_base + tiles.shape[0])
        entries = np.full(grid.as_zyx(), EMPTY_ENTRY, dtype=np.uint32)
        entries.ravel()[np.flatnonzero(resident.ravel())] = slots[level_slots]
        for slot, tile in zip(range(level_slots.start, level_slots.stop), tiles):
            x0, y0, z0 = ax[slot] * span, ay[slot] * span, az[slot] * span
            atlas_data[z0 : z0 + span, y0 : y0 + span, x0 : x0 + span] = tile
        padded_nonempty += int(nonempty_mask(tiles, config).sum(dtype=np.int64))
        mips.append(PageTable(entries))
        slot_base = level_slots.stop

    if total and tile_counts[0]:
        occupancy = nonempty0 / (tile_counts[0] * ts**3)
    else:
        occupancy = 0.0
    stats = BuildStats(
        nonempty_voxel_count=nonempty0,
        nonempty_tile_count=tile_counts,
        padded_nonempty_voxel_count=padded_nonempty,
        mean_tile_occupancy=occupancy,
    )
    return ReferenceTexture(
        config=config,
        format=volume.format,
        virtual_dims=volume.dims,
        mips=mips,
        atlas=atlas,
        nonempty_voxel_count=nonempty0,
        padded_nonempty_voxel_count=padded_nonempty,
        reference_stats=stats,
    )


# The sampler as it was before it read every footprint through the
# footprint tables, kept verbatim (names prefixed reference_) as the
# bit-identity oracle for sample_trilinear_many and sample_nearest_many.


def _reference_level(svt: SparseVolumeTexture, mip: int):
    if not 0 <= mip < svt.mip_count:
        raise ValueError(f"mip {mip} out of range (have {svt.mip_count})")
    dims = svt.mip_dims(mip)
    table = svt.mips[mip]
    return dims, table.grid_dims, table.entries.ravel()


def _reference_gather_voxels(svt, entries_flat, grid, cx, cy, cz):
    """Values of integer voxels (already clamped in-bounds) via the page table."""
    ts = svt.config.tile_size
    pad = svt.config.pad
    tx, ty, tz = cx // ts, cy // ts, cz // ts
    entry = entries_flat[(tz * grid.y + ty) * grid.x + tx]
    resident = entry != EMPTY_ENTRY
    out = np.full(cx.shape, svt.config.empty_value, dtype=np.float64)
    if resident.any():
        slot = entry[resident].astype(np.int64)
        vx = pad + (cx[resident] - tx[resident] * ts)
        vy = pad + (cy[resident] - ty[resident] * ts)
        vz = pad + (cz[resident] - tz[resident] * ts)
        out[resident] = svt.atlas.data[slot, vz, vy, vx].astype(np.float64)
    return out


def reference_sample_nearest_many(svt: SparseVolumeTexture, px, py, pz, mip: int = 0) -> np.ndarray:
    """Nearest-voxel values; out of bounds and empty tiles give empty_value."""
    dims, grid, entries = _reference_level(svt, mip)
    scale = float(1 << mip)
    vx = np.floor(np.asarray(px, dtype=np.float64) / scale).astype(np.int64)
    vy = np.floor(np.asarray(py, dtype=np.float64) / scale).astype(np.int64)
    vz = np.floor(np.asarray(pz, dtype=np.float64) / scale).astype(np.int64)
    inside = (
        (vx >= 0) & (vx < dims.x) & (vy >= 0) & (vy < dims.y) & (vz >= 0) & (vz < dims.z)
    )
    out = np.full(vx.shape, svt.config.empty_value, dtype=np.float64)
    if inside.any():
        out[inside] = _reference_gather_voxels(
            svt, entries, grid, vx[inside], vy[inside], vz[inside]
        )
    return out


def _reference_lerp3(c000, c100, c010, c110, c001, c101, c011, c111, fx, fy, fz):
    v00 = c000 * (1.0 - fx) + c100 * fx
    v10 = c010 * (1.0 - fx) + c110 * fx
    v01 = c001 * (1.0 - fx) + c101 * fx
    v11 = c011 * (1.0 - fx) + c111 * fx
    v0 = v00 * (1.0 - fy) + v10 * fy
    v1 = v01 * (1.0 - fy) + v11 * fy
    return v0 * (1.0 - fz) + v1 * fz


def reference_sample_trilinear_many(svt: SparseVolumeTexture, px, py, pz, mip: int = 0) -> np.ndarray:
    dims, grid, entries = _reference_level(svt, mip)
    ts = svt.config.tile_size
    pad = svt.config.pad
    scale = float(1 << mip)

    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pz = np.asarray(pz, dtype=np.float64)
    if mip:
        px, py, pz = px / scale, py / scale, pz / scale
    qx, qy, qz = px - 0.5, py - 0.5, pz - 0.5
    bx, by, bz = np.floor(qx), np.floor(qy), np.floor(qz)
    fx, fy, fz = qx - bx, qy - by, qz - bz
    bx, by, bz = bx.astype(np.int64), by.astype(np.int64), bz.astype(np.int64)

    c0x = np.clip(bx, 0, dims.x - 1)
    c0y = np.clip(by, 0, dims.y - 1)
    c0z = np.clip(bz, 0, dims.z - 1)
    sx = np.clip(bx + 1, 0, dims.x - 1) - c0x  # 0 or 1
    sy = np.clip(by + 1, 0, dims.y - 1) - c0y
    sz = np.clip(bz + 1, 0, dims.z - 1) - c0z

    tx, ty, tz = c0x // ts, c0y // ts, c0z // ts
    entry = entries[(tz * grid.y + ty) * grid.x + tx]
    resident = entry != EMPTY_ENTRY

    corners = [np.full(qx.shape, svt.config.empty_value, dtype=np.float64) for _ in range(8)]

    if resident.any():
        slot = entry[resident].astype(np.int64)
        ox = pad + (c0x[resident] - tx[resident] * ts)
        oy = pad + (c0y[resident] - ty[resident] * ts)
        oz = pad + (c0z[resident] - tz[resident] * ts)
        dx, dy, dz = sx[resident], sy[resident], sz[resident]
        adata = svt.atlas.data
        for ez, ey, ex in np.ndindex(2, 2, 2):
            corner = adata[slot, oz + ez * dz, oy + ey * dy, ox + ex * dx]
            corners[(ez << 2) | (ey << 1) | ex][resident] = corner.astype(np.float64)

    # Empty base tile: if all eight corners stay inside it, they are all
    # empty_value, which the corner arrays already hold. Only positions whose
    # +1 corners spill into a neighboring tile need per-voxel lookups.
    spills = (
        ((c0x - tx * ts == ts - 1) & (sx == 1))
        | ((c0y - ty * ts == ts - 1) & (sy == 1))
        | ((c0z - tz * ts == ts - 1) & (sz == 1))
    )
    fallback = ~resident & spills
    if fallback.any():
        fx0, fy0, fz0 = c0x[fallback], c0y[fallback], c0z[fallback]
        fsx, fsy, fsz = sx[fallback], sy[fallback], sz[fallback]
        for ez, ey, ex in np.ndindex(2, 2, 2):
            corners[(ez << 2) | (ey << 1) | ex][fallback] = _reference_gather_voxels(
                svt, entries, grid, fx0 + ex * fsx, fy0 + ey * fsy, fz0 + ez * fsz
            )

    return _reference_lerp3(
        corners[0b000],
        corners[0b001],
        corners[0b010],
        corners[0b011],
        corners[0b100],
        corners[0b101],
        corners[0b110],
        corners[0b111],
        fx,
        fy,
        fz,
    )


# The transfer-function classify and the dense trilinear lookup as they were
# before the table classify and the shared corner addressing, kept verbatim
# (names prefixed reference_) as their bit-identity oracle.


def reference_classify(tf: TransferFunction, scalars: np.ndarray, fmt: VoxelFormat):
    """Map raw samples to (sigma, rgb); outside the window both are zero."""
    u = scalars / 255.0 if fmt is VoxelFormat.U8 else scalars
    visible = (u >= tf.window[0]) & (u <= tf.window[1])
    idx = np.clip(np.rint(u * 255.0), 0, 255).astype(np.int64)
    entry = tf.lut[idx]
    sigma = np.where(visible, entry[:, 3] * tf.density_scale, 0.0)
    rgb = np.where(visible[:, None], entry[:, :3], 0.0)
    return sigma, rgb


def edge_positions(rng, dims, scale: float = 1.0):
    """Positions at and past every face of a grid of VolumeDims. Per axis of
    n voxels the corner coordinates q (a position less half a voxel) are 3
    each in [-1, 0) and [n - 1, n), exactly -1 and n - 1, n + 3, +-2^62 and
    NaN; every combination of the three axes, as (q + 0.5) * scale, one
    array per axis."""
    axes = [
        (np.concatenate([
            rng.uniform(-1.0, 0.0, 3), [-1.0, n - 1.0], rng.uniform(n - 1.0, n, 3),
            [n + 3.0, 2.0**62, -(2.0**62), np.nan],
        ]) + 0.5) * scale
        for n in (dims.x, dims.y, dims.z)
    ]
    return [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]


def reference_trilinear_dense(arr: np.ndarray, px, py, pz) -> np.ndarray:
    """Clamped-edge trilinear lookup in a dense [z, y, x(, c)] array.

    Uses the same arithmetic order as the sparse path; the renderer uses it
    for illumination-cache lookups, and the sampling tests use it as the
    dense oracle of the sparse lookups.
    """
    nz, ny, nx = arr.shape[:3]
    qx = np.asarray(px, dtype=np.float64) - 0.5
    qy = np.asarray(py, dtype=np.float64) - 0.5
    qz = np.asarray(pz, dtype=np.float64) - 0.5
    bx, by, bz = np.floor(qx), np.floor(qy), np.floor(qz)
    fx, fy, fz = qx - bx, qy - by, qz - bz
    if arr.ndim > 3:
        fx, fy, fz = fx[..., None], fy[..., None], fz[..., None]
    c0x = np.clip(bx.astype(np.int64), 0, nx - 1)
    c0y = np.clip(by.astype(np.int64), 0, ny - 1)
    c0z = np.clip(bz.astype(np.int64), 0, nz - 1)
    c1x = np.clip(bx.astype(np.int64) + 1, 0, nx - 1)
    c1y = np.clip(by.astype(np.int64) + 1, 0, ny - 1)
    c1z = np.clip(bz.astype(np.int64) + 1, 0, nz - 1)
    a = arr.astype(np.float64, copy=False)
    return _reference_lerp3(
        a[c0z, c0y, c0x],
        a[c0z, c0y, c1x],
        a[c0z, c1y, c0x],
        a[c0z, c1y, c1x],
        a[c1z, c0y, c0x],
        a[c1z, c0y, c1x],
        a[c1z, c1y, c0x],
        a[c1z, c1y, c1x],
        fx,
        fy,
        fz,
    )
