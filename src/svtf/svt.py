"""Sparse volume textures: padded tiles, occupancy masks, mips, page tables.

The volume is cut into tile_size^3 logical tiles, each stored with a one
voxel border (18^3 by default) so trilinear filtering never has to leave a
tile. Only tiles whose logical region holds at least one non-empty voxel
get a slot in the physical atlas; a per-mip page table maps tile coords to
slots, with 0xFFFFFFFF marking empty tiles. A per-mip footprint table,
derived from the page table, names the padded tile that answers each
trilinear footprint. The slot grid and the packed entries of a .svtf file
exist only in save_svtf and load_svtf (_file_entries).

A loaded container keeps its tile records as they are in the mapped file
until the first voxel read: load_svtf checks them, and everything else it
reads, in full, so the expansion into the atlas cannot fail, and a stream or
a re-saved container reuses the record bytes without building an atlas.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
import threading
from dataclasses import astuple, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AtlasCapacityExceeded, CorruptStream, DataError
from .volume import DenseVolume, VolumeDims, VoxelFormat

EMPTY_ENTRY = np.uint32(0xFFFFFFFF)
_COORD_BITS = 10  # per-axis field in a packed page-table entry
NO_TILE = -(2**62)  # cell no resident tile answers; + any corner offset stays < 0
# Voxels that a thresholded mask and the tile-record codec handle at a time,
# so that their temporaries stay small next to the atlas.
_CHUNK_VOXELS = 2**20
# Output voxels of a mip level summed at a time, so that their pair sums stay
# in cache.
_MIP_SLAB_VOXELS = 2**16
# Atlas voxels that SparseVolumeTexture._slot_scan reads at a time, so that a
# chunk and its footprint bits stay in cache between the passes over it.
_SCAN_VOXELS = 2**18


@dataclass(frozen=True)
class SvtConfig:
    tile_size: int = 16
    pad: int = 1
    max_atlas_extent: int = 2048
    empty_value: float = 0.0
    # Emptiness for float volumes is |v - empty_value| <= threshold; 0 means
    # exact comparison (integer formats always compare exactly).
    float_empty_threshold: float = 0.0

    def __post_init__(self):
        if self.tile_size < 2:
            raise ValueError("tile_size must be >= 2")
        if self.pad < 1:
            raise ValueError("pad must be >= 1")
        if self.max_atlas_extent < self.padded_size:
            raise ValueError("max_atlas_extent smaller than one padded tile")
        if not self.float_empty_threshold >= 0:  # NaN too
            raise ValueError("float_empty_threshold must be >= 0")

    @property
    def padded_size(self) -> int:
        return self.tile_size + 2 * self.pad

    @property
    def occupancy_mask_bytes(self) -> int:
        return (self.padded_size**3 + 7) // 8

    @property
    def max_slots_per_axis(self) -> int:
        """Padded tiles per axis of the extent, at most a packed entry field's 2^10."""
        return min(self.max_atlas_extent // self.padded_size, 1 << _COORD_BITS)


@dataclass
class PageTable:
    """Each tile's atlas slot (its index in TileAtlas.data) by tile coords."""

    entries: np.ndarray  # uint32, [tz, ty, tx], EMPTY_ENTRY = not resident

    @property
    def grid_dims(self) -> VolumeDims:
        gz, gy, gx = self.entries.shape
        return VolumeDims(gx, gy, gz)


def tile_counts(page_tables) -> tuple[int, ...]:
    """The resident tiles of each page table: its entries that are not empty."""
    return tuple(int(np.count_nonzero(t.entries != EMPTY_ENTRY)) for t in page_tables)


class TileAtlas:
    """The physical atlas: one (n, span, span, span) array of the n resident
    padded tiles, in slot order.

    Tiles take slots in row-major (mip, tz, ty, tx) order; a tile's page-table
    entry is its slot. The slot grid of a .svtf file (atlas_dims) is not held here.

    An atlas that load_svtf returns holds the container's checked tile
    records instead. The first read of .data expands them, once and under a
    lock however many threads read, and drops them, so the atlas holds its
    records or its voxels, never both.
    """

    def __init__(self, data: np.ndarray | None, records: _TileRecords | None = None):
        self._data = data
        self._records = records
        self._lock = threading.Lock()

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            with self._lock:
                if self._data is None:
                    self._data = _expand(self._records)
                    self._records = None
        return self._data


@dataclass(frozen=True)
class BuildStats:
    nonempty_voxel_count: int
    nonempty_tile_count: tuple[int, ...]
    padded_nonempty_voxel_count: int
    mean_tile_occupancy: float


@dataclass(frozen=True)
class FootprintTable:
    """The padded tile that answers each trilinear footprint of a mip level.

    Per axis, the corners of a footprint are b and b + 1 (b: the base
    corner, clamped to [-1, n - 1]; -1 reads voxel 0's cell). They lie in
    b's tile T, or T + 1 only when b is T's last voxel, so each tile has two
    cells per axis; corners -1 and n lie in T's border of edge copies.
    base[cell] is the flat atlas index of level voxel (0, 0, 0) seen
    through one resident tile's padded block, so a corner (x, y, z) is at
    base + (z*span + y)*span + x (sample.corner_index). For tile
    (tx, ty, tz) in slot s (its page-table entry), base is
    _tile_base(s, tx, ty, tz) = s*span^3 + ((pad - tz*ts)*span + pad -
    ty*ts)*span + pad - tx*ts. The tile is the cell's own tile T if
    resident, else any resident tile the cell's footprints reach: as pad >=
    1 its block holds all eight corners, with the values of their own
    tiles, or empty_value where those are not resident. NO_TILE marks a
    cell whose footprints reach no resident tile.

    The march's table (render._live_box) also carries bits, the texture's
    footprint bits, one per atlas voxel: a footprint whose base corner's
    bit is clear reads empty_value alone, and sample.trilinear_footprint
    gives it base NO_TILE, as if its cell named no tile. The level's own
    table has none.
    """

    base: np.ndarray  # int64 per cell, [z, y, x]
    cells: tuple  # per axis (x, y, z): the cell of each voxel of the level
    bits: np.ndarray | None = None  # SparseVolumeTexture.footprint_bits, or None


@dataclass
class SparseVolumeTexture:
    config: SvtConfig
    format: VoxelFormat
    virtual_dims: VolumeDims
    mips: list[PageTable]
    atlas: TileAtlas
    # The counts that no page table gives: non-empty mip-0 voxels, and those
    # of the padded tiles (the tile data, which the records of a file hold).
    nonempty_voxel_count: int
    padded_nonempty_voxel_count: int
    # Footprint tables by mip, and the slots' value ranges with the
    # footprint bits (_slot_scan), built on first use. Nothing reassigns
    # mips or atlas after construction, so neither goes stale.
    _footprints: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _scan: tuple | None = field(init=False, repr=False, compare=False, default=None)

    @property
    def mip_count(self) -> int:
        return len(self.mips)

    def footprint_table(self, mip: int) -> FootprintTable:
        """The level's footprint table; ValueError for a mip it does not have.

        Fetch it before starting threads that sample the level, so that they
        do not each build it.
        """
        table = self._footprints.get(mip)
        if table is None:
            table = self._footprints[mip] = _footprint_table(self, mip)
        return table

    def slot_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), float64 by slot: the least and greatest value of each
        slot's padded block, both NaN where the block holds a NaN.

        Computed on first use, with footprint_bits, so fetch them before
        starting threads that need them.
        """
        return self._slot_scan()[:2]

    def footprint_bits(self) -> np.ndarray | None:
        """One bit per atlas voxel, packed LSB first in flat atlas order: set
        when the footprint whose base corner is that voxel, its 2x2x2 block,
        holds a voxel other than empty_value (NaN included). A voxel on a
        block's last layer of any axis is no base corner, and its bit is
        unspecified. None when no voxel is empty (padded_nonempty_voxel_count
        is the atlas's voxel count), as every bit would be set.

        Computed on first use, with slot_ranges.
        """
        return self._slot_scan()[2]

    def _slot_scan(self):
        """(lo, hi, bits) of slot_ranges and footprint_bits, from one pass over
        the atlas that takes a chunk of slots at a time while it is in cache.
        Each bit ORs the voxel's block as three shifted ORs over the chunk's
        whole slots, by span^2, span and 1; a chunk holds a multiple of 8
        slots, so its bits pack into whole bytes."""
        if self._scan is None:
            data = self.atlas.data
            span = self.config.padded_size
            span3 = span**3
            blocks = data.reshape(len(data), span3)
            lo, hi = np.empty(len(data)), np.empty(len(data))
            bits = None
            if self.padded_nonempty_voxel_count != blocks.size:
                bits = np.empty(-(-blocks.size // 8), dtype=np.uint8)
                empty = np.asarray(self.config.empty_value, dtype=data.dtype)
            step = 8 * max(1, _SCAN_VOXELS // (8 * span3))
            for start in range(0, len(data), step):
                part = blocks[start : start + step]
                lo[start : start + len(part)] = part.min(axis=1)
                hi[start : start + len(part)] = part.max(axis=1)
                if bits is not None:
                    read = np.not_equal(part, empty).ravel()
                    for s in (span * span, span, 1):  # one flat run: slot by slot is slower
                        np.logical_or(read[:-s], read[s:], out=read[:-s])
                    packed = np.packbits(read, bitorder="little")
                    at = start * span3 // 8
                    bits[at : at + len(packed)] = packed
            self._scan = lo, hi, bits
        return self._scan

    def mip_dims(self, level: int) -> VolumeDims:
        """The level's dims; ValueError for a mip the texture does not have."""
        if not 0 <= level < self.mip_count:
            raise ValueError(f"mip {level} out of range (have {self.mip_count})")
        return mip_level_dims(self.virtual_dims, level)

    @property
    def slot_count(self) -> int:
        return sum(tile_counts(self.mips))

    @property
    def stats(self) -> BuildStats:
        counts, nonempty = tile_counts(self.mips), self.nonempty_voxel_count
        occupancy = _mean_tile_occupancy(nonempty, counts[0], self.config.tile_size)
        return BuildStats(nonempty, counts, self.padded_nonempty_voxel_count, occupancy)


def _footprint_table(svt: SparseVolumeTexture, mip: int) -> FootprintTable:
    dims = svt.mip_dims(mip)  # first: it checks the mip
    ts = svt.config.tile_size
    entries = svt.mips[mip].entries
    tz, ty, tx = np.nonzero(entries != EMPTY_ENTRY)
    slot = entries[tz, ty, tx].astype(np.int64)
    # One extra NO_TILE layer per axis stands for the tiles past the grid.
    base = np.full([g + 1 for g in entries.shape], NO_TILE, dtype=np.int64)
    base[tz, ty, tx] = _tile_base(slot, tx, ty, tz, svt.config)
    # Expand each axis from tiles T to cells 2T (the rest of T: reaches T)
    # and 2T + 1 (the last layer of T: reaches T and T + 1, and takes T + 1's
    # base only when T is not resident).
    for axis in range(3):
        tiles = np.moveaxis(base, axis, 0)
        cells = np.repeat(tiles[:-1], 2, axis=0)
        np.copyto(cells[1::2], tiles[1:], where=cells[1::2] == NO_TILE)
        base = np.moveaxis(cells, 0, axis)
    cells = tuple(
        2 * (v // ts) + (v % ts == ts - 1) for v in map(np.arange, (dims.x, dims.y, dims.z))
    )
    return FootprintTable(base=np.ascontiguousarray(base), cells=cells)


def _tile_base(slot, tx, ty, tz, config: SvtConfig):
    """The footprint-table base of tile (tx, ty, tz) in the given slot
    (FootprintTable): exact in Python ints, int64 for arrays."""
    ts, pad, span = config.tile_size, config.pad, config.padded_size
    return slot * span**3 + ((pad - tz * ts) * span + pad - ty * ts) * span + pad - tx * ts


def tile_grid_dims(dims: VolumeDims, tile_size: int) -> VolumeDims:
    if tile_size < 2:
        raise ValueError("tile_size must be >= 2")
    return dims.ceil_div(tile_size)


def mip_level_dims(dims: VolumeDims, level: int) -> VolumeDims:
    return dims.ceil_div(1 << level)


def check_empty_value(value: float, fmt: VoxelFormat, source="") -> None:
    """DataError unless the voxel format holds empty_value exactly.

    Empty voxels are stored as empty_value in the format's dtype, and
    lookups outside resident tiles return it as is, so both must agree.
    """
    if fmt is VoxelFormat.U8:
        ok = float(value).is_integer() and 0 <= value <= 255
    else:
        with np.errstate(over="ignore"):
            ok = float(np.float32(value)) == value
    if not ok:
        raise DataError(f"{source}empty_value {value!r} is not a {fmt.value} voxel value")


def nonempty_mask(values: np.ndarray, config: SvtConfig) -> np.ndarray:
    """Boolean mask of voxels counted as occupied under the config.

    With a float threshold the comparison runs in float64, a bounded chunk
    of the leading axis at a time.
    """
    if values.dtype.kind in "ui" or config.float_empty_threshold == 0:
        return values != np.asarray(config.empty_value, dtype=values.dtype)
    out = np.empty(values.shape, dtype=bool)
    rows = max(1, min(len(values), _CHUNK_VOXELS // max(1, math.prod(values.shape[1:]))))
    buffer = np.empty((rows, *values.shape[1:]), dtype=np.float64)
    for lo in range(0, len(values), rows):
        chunk = values[lo : lo + rows]
        delta = buffer[: len(chunk)]
        np.subtract(chunk, config.empty_value, out=delta, dtype=np.float64)
        np.greater(np.abs(delta, out=delta), config.float_empty_threshold, out=out[lo : lo + rows])
    return out


def _reduced_slab(d: np.ndarray, z: int, oy: int, ox: int) -> np.ndarray:
    """numpy's float64 reduce of the children of output layer z, over a
    zero-padded copy of its two input layers: the order the f32 mips keep."""
    src = d[2 * z : 2 * z + 2]
    padded = np.zeros((2, 2 * oy, 2 * ox), dtype=d.dtype)
    padded[: len(src), : d.shape[1], : d.shape[2]] = src
    return padded.reshape(1, 2, oy, 2, ox, 2).sum(axis=(1, 3, 5), dtype=np.float64)[0]


def _child_means(d: np.ndarray, cz, cy, cx) -> np.ndarray:
    """The means of each voxel's children, in d's dtype, a few output
    layers at a time.

    u8 children are summed in uint16: eight sum to at most 2040, so the
    sums are exact in any order. The mean rounds half up, to
    floor(sum / count + 0.5): the float32 quotient (sum + count // 2) /
    count is exact for a count of 1, 2, 4 or 8, and the cast to uint8
    truncates it. f32 children are summed in float64, and the
    sums are those of numpy's reduce over a zero-padded copy,
    reshape(oz, 2, oy, 2, ox, 2).sum(axis=(1, 3, 5)); its order fixes the
    rounding and NaN bits that the container holds. That reduce starts at
    +0.0 and adds, for each (z, y) child pair in raster order, the x pair
    x0 + x1 as pair + sums, and so does the loop here. A lone last x child
    is its own pair, and missing y and z pairs are left out: a sum started
    at +0.0 is never -0.0, so adding a padding +0.0 changes nothing. Two
    cases go through numpy's own reduce, one output layer at a time
    (_reduced_slab): a level one voxel wide in x, where numpy sums the x
    and y pairs as one run of four, and a layer holding a NaN sum, whose
    NaN bits follow numpy's loop. Its float64 sums of u8 children are
    exact integers, so a u8 level one voxel wide takes them as they are.
    """
    nx = d.shape[2]
    oz, oy, ox = len(cz), len(cy), len(cx)
    hx = nx // 2
    sum_dtype = np.uint16 if d.dtype == np.uint8 else np.float64
    rows = max(1, _MIP_SLAB_VOXELS // (oy * ox))
    sums = np.empty((min(rows, oz), oy, ox), dtype=sum_dtype)
    pair = np.empty_like(sums)
    counts = cy[:, None] * cx
    out = np.empty((oz, oy, ox), dtype=d.dtype)
    for z0 in range(0, oz, rows):
        k = min(rows, oz - z0)
        layers = sums[:k]
        if ox == 1:
            redo = range(k)
        else:
            layers.fill(0)
            for dz, dy in ((0, 0), (0, 1), (1, 0), (1, 1)):
                src = d[2 * z0 + dz : 2 * (z0 + k) : 2, dy::2]
                pz, py = src.shape[:2]
                part, acc = pair[:pz, :py], layers[:pz, :py]
                x0, x1 = src[..., 0 : 2 * hx : 2], src[..., 1::2]
                np.add(x0, x1, out=part[..., :hx], dtype=sum_dtype)
                if nx % 2:
                    part[..., hx] = src[..., nx - 1]
                np.add(part, acc, out=acc)
            redo = np.flatnonzero(np.isnan(layers).any(axis=(1, 2))).tolist()
        for z in redo:
            layers[z] = _reduced_slab(d, z0 + z, oy, ox)
        n = cz[z0 : z0 + k, None, None] * counts
        if sum_dtype is np.uint16:
            out[z0 : z0 + k] = np.divide(layers + n // 2, n, dtype=np.float32)
        else:
            out[z0 : z0 + k] = np.divide(layers, n, out=layers)
    return out


def build_mip_level(volume: DenseVolume) -> DenseVolume:
    """Halve each axis (ceil), averaging the up-to-8 children of each voxel.

    Children falling outside the volume are excluded from the mean rather
    than padded, so border voxels average only what exists.
    """
    d = volume.data
    # Children per output voxel along each axis: 2, or 1 at an odd axis's end.
    cz, cy, cx = (np.minimum(n - 2 * np.arange(-(-n // 2)), 2).astype(np.uint16) for n in d.shape)
    with np.errstate(invalid="ignore"):  # +inf and -inf f32 children: a NaN mean, quietly
        return DenseVolume.from_array(_child_means(d, cz, cy, cx), volume.format)


def mip_level_count(dims: VolumeDims, tile_size: int) -> int:
    """Full resolution plus each halved level until one tile covers it."""
    level = 0
    while max(mip_level_dims(dims, level).as_zyx()) > tile_size:
        level += 1
    return level + 1


def mip_chain(volume: DenseVolume, config: SvtConfig) -> list[DenseVolume]:
    """Full-resolution volume plus halved levels until one tile covers it."""
    levels = [volume]
    for _ in range(1, mip_level_count(volume.dims, config.tile_size)):
        levels.append(build_mip_level(levels[-1]))
    return levels


def _ceil_cbrt(n: int) -> int:
    if n <= 0:
        return 0
    s = max(1, round(n ** (1.0 / 3.0)))
    while s**3 < n:
        s += 1
    while s > 1 and (s - 1) ** 3 >= n:
        s -= 1
    return s


def slot_grid_for(tile_count: int, config: SvtConfig) -> tuple[int, int, int]:
    """Near-cubic slot layout: (s, s, ceil(tile_count / s^2)) slots, where s
    is the smallest cube side that holds the tiles, so z is at most s.

    AtlasCapacityExceeded when s is over the slots per axis of the atlas
    extent, that is when the tiles outnumber its slot cube.
    """
    if tile_count == 0:
        return (0, 0, 0)
    cap = config.max_slots_per_axis
    side = _ceil_cbrt(tile_count)
    if side > cap:
        raise AtlasCapacityExceeded(
            f"{tile_count} tiles need more than the {cap}^3 slots that max_atlas_extent "
            f"{config.max_atlas_extent} and {_COORD_BITS}-bit page-table entry fields allow"
        )
    return (side, side, -(-tile_count // (side * side)))


def atlas_dims(tile_count: int, config: SvtConfig) -> tuple[int, int, int]:
    """The (x, y, z) voxel dims of the atlas texture that a container records
    for tile_count tiles: the slot grid times the padded tile; zeros for none."""
    return tuple(n * config.padded_size for n in slot_grid_for(tile_count, config))


def pack_entry(ax: int, ay: int, az: int) -> np.uint32:
    return np.uint32(ax | (ay << _COORD_BITS) | (az << 2 * _COORD_BITS))


def _file_entries(slots: np.ndarray, tile_count: int, config: SvtConfig) -> np.ndarray:
    """The .svtf page-table entries of atlas slots: each slot's block
    coordinates (ax, ay, az) in the slot grid of tile_count tiles, which
    slots fill x fastest, then y, then z, packed."""
    sx, sy, _ = slot_grid_for(tile_count, config)
    return pack_entry(slots % sx, slots // sx % sy, slots // (sx * sy))


def _mean_tile_occupancy(nonempty: int, tiles0: int, tile_size: int) -> float:
    """Non-empty voxels per mip-0 tile voxel; 0.0 without a mip-0 tile."""
    return nonempty / (tiles0 * tile_size**3) if tiles0 else 0.0


def _tile_any(mask: np.ndarray, axis: int, ts: int) -> np.ndarray:
    """Whether each tile-long run along an axis holds a True; the last run may be short."""
    src = np.moveaxis(mask, axis, 0)
    n = len(src)
    full = n - n % ts
    runs = [src[:full].reshape(full // ts, ts, *src.shape[1:]).any(axis=1)]
    if full < n:
        runs.append(src[full:].any(axis=0, keepdims=True))
    return np.moveaxis(np.concatenate(runs), 0, axis)


def build_svt(volume: DenseVolume, config: SvtConfig | None = None) -> SparseVolumeTexture:
    """Build the page tables, mip chain, and packed tile atlas for a volume.

    Deterministic: tiles take atlas slots in row-major (mip, tz, ty, tx)
    order. Voxels that compare empty are stored as empty_value exactly, so
    the atlas round-trips bit-identically through the upload stream.
    Residency is found first; the atlas is then filled one tile row at a
    time, each row cut from an edge-clamped slab straight into its slice of
    consecutive slots, so at most one row of padded tiles exists outside it.
    """
    config = config or SvtConfig()
    check_empty_value(config.empty_value, volume.format)
    ts, p = config.tile_size, config.pad
    span = config.padded_size

    levels = mip_chain(volume, config)
    residents = []
    for level in levels:
        occupied = nonempty_mask(level.data, config)
        if level is volume:
            nonempty0 = int(np.count_nonzero(occupied))
        for axis in range(3):
            occupied = _tile_any(occupied, axis, ts)
        residents.append(occupied)
    total = sum(int(np.count_nonzero(resident)) for resident in residents)

    dims = atlas_dims(total, config)
    try:
        atlas_data = np.empty((total, span, span, span), dtype=volume.format.dtype)
    except (MemoryError, ValueError):  # ValueError: too big for an array index
        raise AtlasCapacityExceeded(
            f"an atlas of {'x'.join(map(str, dims))} voxels for {total} "
            f"tile(s) does not fit in memory"
        ) from None

    empty = np.asarray(config.empty_value, dtype=atlas_data.dtype)
    mips = []
    padded_nonempty = 0
    slot = 0
    for level, resident in zip(levels, residents):
        entries = np.full(resident.shape, EMPTY_ENTRY, dtype=np.uint32)
        (nz, ny, nx), (_, gy, gx) = level.data.shape, resident.shape
        yx_pad = (p, gy * ts - ny + p), (p, gx * ts - nx + p)
        for tz in np.flatnonzero(resident.any(axis=(1, 2))).tolist():
            # The row's span z planes, every read clamped to the volume edge.
            z0 = tz * ts - p
            lo, hi = max(z0, 0), min(z0 + span, nz)
            slab = np.pad(level.data[lo:hi], ((lo - z0, z0 + span - hi), *yx_pad), mode="edge")
            window = sliding_window_view(slab, (span, span, span))[0, ::ts, ::ts]
            iy, ix = np.nonzero(resident[tz])
            entries[tz, iy, ix] = np.arange(slot, slot + len(iy))
            tiles = atlas_data[slot : slot + len(iy)]
            tiles[...] = window[iy, ix]
            occupied = nonempty_mask(tiles, config)
            padded_nonempty += int(np.count_nonzero(occupied))
            np.copyto(tiles, empty, where=np.logical_not(occupied, out=occupied))
            slot += len(iy)
        mips.append(PageTable(entries))

    return SparseVolumeTexture(
        config, volume.format, volume.dims, mips, TileAtlas(atlas_data), nonempty0, padded_nonempty
    )


# --- tile records (shared by the container file and the upload stream) ---
#
# A record is one padded tile: its occupancy bitmask (span^3 bits, LSB first,
# zero-padded to whole bytes) followed by its non-empty values in padded
# raster order, little-endian. Records are stored back to back in slot
# order; record i starts at the sum of the sizes of records 0..i-1.

_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)


def _chunks(n: int, config: SvtConfig) -> list[slice]:
    step = max(1, _CHUNK_VOXELS // config.padded_size**3)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def encode_records(svt: SparseVolumeTexture) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy-compress every atlas slot: (uint64 record offsets, uint8 records).

    A voxel is recorded when it is not empty_value (NaN included): every
    empty voxel of a built or expanded atlas is exactly that value. The
    records are written a chunk of slots at a time into one array, sized by
    padded_nonempty_voxel_count; a loaded record can hold empty_value at a
    set bit, so that count is an upper bound and the array is cut to the
    records written. An atlas that still holds its records gives them back
    as they are.
    """
    held = svt.atlas._records
    if held is not None:
        return held.offsets, held.records
    config, data = svt.config, svt.atlas.data
    n = len(data)
    mask_bytes = config.occupancy_mask_bytes
    records = np.empty(n * mask_bytes + svt.padded_nonempty_voxel_count * data.itemsize, np.uint8)
    empty = np.asarray(config.empty_value, dtype=data.dtype)
    dtype_le = data.dtype.newbyteorder("<")
    sizes = np.zeros(n, dtype=np.int64)
    end = 0
    for chunk in _chunks(n, config):
        flat = data[chunk].reshape(-1, config.padded_size**3)
        occupied = flat != empty
        payload = flat[occupied].astype(dtype_le, copy=False).view(np.uint8)
        payload_ends = np.cumsum(occupied.sum(axis=1) * flat.dtype.itemsize)
        masks = np.packbits(occupied, axis=1, bitorder="little")
        payload_starts = np.concatenate(([0], payload_ends[:-1]))
        bounds = zip(masks, payload_starts.tolist(), payload_ends.tolist())
        parts = [p for m, a, b in bounds for p in (m, payload[a:b])]
        sizes[chunk] = mask_bytes + payload_ends - payload_starts
        start, end = end, end + int(sizes[chunk].sum())
        np.concatenate(parts, out=records[start:end])
    offsets = (np.cumsum(sizes) - sizes).astype(np.uint64)
    return offsets, records[:end]


@dataclass(frozen=True)
class _TileRecords:
    """Tile records that passed every check, and how they expand."""

    records: np.ndarray  # uint8
    offsets: np.ndarray  # uint64, read-only, owning its memory
    config: SvtConfig
    dtype: np.dtype


def _checked_records(
    records: np.ndarray, offsets: np.ndarray, config: SvtConfig, dtype
) -> _TileRecords:
    """Check records for expansion into an atlas, in slot order.

    The offsets must be exactly the running sum of the record sizes and the
    records must end where the last one does; anything else is CorruptStream.
    More tiles than the slot grid at the atlas extent holds is
    AtlasCapacityExceeded.
    """
    n = len(offsets)
    span3 = config.padded_size**3
    mask_bytes = config.occupancy_mask_bytes
    dtype = np.dtype(dtype)
    if n * mask_bytes > records.size:
        raise CorruptStream(f"{n} tile records cannot fit in {records.size} bytes")
    if n == 0 and records.size:
        raise CorruptStream(f"{records.size} record bytes but no tiles")
    if n:
        if int(np.max(offsets)) > records.size - mask_bytes:
            raise CorruptStream(
                f"tile record offset {int(np.max(offsets))} past the end of "
                f"{records.size} record bytes"
            )
        starts = np.asarray(offsets).astype(np.int64)
        masks = sliding_window_view(records, mask_bytes)[starts]
        if span3 % 8:
            masks[:, -1] &= (1 << span3 % 8) - 1  # bits past span^3 are not voxels
        sizes = mask_bytes + _POPCOUNT[masks].sum(axis=1, dtype=np.int64) * dtype.itemsize
        ends = np.cumsum(sizes)
        if starts[0] != 0 or (starts[1:] != ends[:-1]).any():
            raise CorruptStream("tile record offsets are not the running sum of record sizes")
        if ends[-1] != records.size:
            raise CorruptStream(f"records need {int(ends[-1])} bytes, got {records.size}")
    slot_grid_for(n, config)  # AtlasCapacityExceeded if the grid cannot hold n tiles
    offsets = np.array(offsets, dtype=np.uint64)
    offsets.flags.writeable = False
    return _TileRecords(records, offsets, config, dtype)


def _expand(held: _TileRecords) -> np.ndarray:
    """The atlas of checked records: each record's block in its slot."""
    records, config, dtype = held.records, held.config, held.dtype
    n = len(held.offsets)
    span3 = config.padded_size**3
    mask_bytes = config.occupancy_mask_bytes
    starts = held.offsets.astype(np.int64)
    ends = np.append(starts[1:], records.size)
    data = np.empty((n, span3), dtype=dtype)
    for chunk in _chunks(n, config):
        masks = sliding_window_view(records, mask_bytes)[starts[chunk]]
        # Unpacking span^3 bits leaves out the spare bits of the last byte.
        occupied = np.unpackbits(masks, axis=1, count=span3, bitorder="little")
        bounds = zip((starts[chunk] + mask_bytes).tolist(), ends[chunk].tolist())
        payload = np.concatenate([records[a:b] for a, b in bounds])
        blocks = data[chunk]
        blocks.fill(config.empty_value)
        blocks[occupied.view(bool)] = payload.view(dtype.newbyteorder("<"))
    return data.reshape(-1, config.padded_size, config.padded_size, config.padded_size)


def value_count(records: np.ndarray, n: int, config: SvtConfig, fmt: VoxelFormat) -> int:
    """The voxel values n tile records hold: their bytes past the masks."""
    return (records.size - n * config.occupancy_mask_bytes) // fmt.bytes_per_voxel


# --- files that end in tile records: the container here, the stream in upload.py ---

_FORMAT_CODES = {VoxelFormat.U8: 0, VoxelFormat.F32: 1}


@dataclass(frozen=True)
class RecordFile:
    """A kind of file that holds one SVT's tile records, little-endian.

    The header starts with the magic, the version and the voxel format code,
    and the kind's own fields follow. The kind's tables come next, and the
    file ends in the uint64 tile offset table and the records.
    """

    magic: bytes
    version: int
    header: struct.Struct
    name: str

    def write(self, path, fmt: VoxelFormat, fields, tables, offsets, records) -> None:
        """Write the header (fields: those after the format code), the kind's
        table parts (bytes or little-endian arrays), the offsets and the records.

        The bytes go to a new file in path's directory, which then takes
        path's name, so a texture or stream that still maps the old file
        keeps its bytes, and a failed write leaves path as it was.
        """
        tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(self.header.pack(self.magic, self.version, _FORMAT_CODES[fmt], *fields))
                for part in tables:
                    fh.write(part)
                fh.write(np.ascontiguousarray(offsets, dtype="<u8"))
                fh.write(records)
            # The old file is unlinked first: on ext4 (auto_da_alloc) a rename
            # over an existing file starts writeback of the new file's data
            # inside the rename, and the save would wait for it.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def read(self, path) -> tuple[mmap.mmap | bytes, int, list]:
        """The file's bytes, its format code and the header fields after it.

        The bytes are a read-only mapping of the file; a file that cannot be
        mapped (empty, or a pipe) is read instead. DataError unless the file
        holds a whole header of this magic and version.
        """
        with open(path, "rb") as fh:
            try:
                raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                raw = fh.read()
        if len(raw) < self.header.size or raw[:4] != self.magic:
            raise DataError(f"{path}: not an {self.name}")
        _, version, fmt_code, *fields = self.header.unpack_from(raw, 0)
        if version != self.version:
            raise DataError(f"{path}: unsupported {self.magic.decode()} version {version}")
        return raw, fmt_code, fields


def header_config(
    path, fmt_code: int, tile_size, pad, max_atlas_extent, empty_value, threshold
) -> tuple[VoxelFormat, SvtConfig]:
    """The voxel format and config that a file header gives.

    A format code no writer uses, an empty_value the format cannot hold and
    a config no build can have are each a DataError prefixed with the path.
    """
    fmt = next((f for f, code in _FORMAT_CODES.items() if code == fmt_code), None)
    if fmt is None:
        raise DataError(f"{path}: unknown voxel format code {fmt_code}")
    check_empty_value(empty_value, fmt, f"{path}: ")
    try:
        return fmt, SvtConfig(tile_size, pad, max_atlas_extent, empty_value, threshold)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def check_available(raw: bytes, pos: int, size: int, path, what: str) -> None:
    """CorruptStream unless raw holds `size` more bytes from pos."""
    if size > len(raw) - pos:
        raise CorruptStream(f"{path}: {what} truncated")


def read_records(raw: bytes, pos: int, tile_count: int, path) -> tuple[np.ndarray, np.ndarray]:
    """Views of the uint64 tile offset table at pos and of the record bytes
    from its end to the file's."""
    check_available(raw, pos, 8 * tile_count, path, "tile offset table")
    offsets = np.frombuffer(raw, dtype="<u8", count=tile_count, offset=pos)
    return offsets, np.frombuffer(raw, dtype=np.uint8, offset=pos + 8 * tile_count)


SVTF_MAGIC = b"SVTF"
SVTF_VERSION = 1
SVTF = RecordFile(
    SVTF_MAGIC, SVTF_VERSION, struct.Struct("<4sII IIIdd QQQ I QQQ QQd"), "SVTF container"
)


def save_svtf(svt: SparseVolumeTexture, path) -> None:
    """Write the container: header, per-mip page tables, compressed tiles.

    All integers little-endian; page-table entries are packed uint32 atlas
    coordinates with all-ones meaning empty; tile offsets are unsigned
    64-bit, relative to the start of the record section. The header's
    padded_nonempty_voxel_count is the value count of the records written.
    """
    cfg, stats = svt.config, svt.stats
    offsets, records = encode_records(svt)
    tables = []
    for table, count in zip(svt.mips, stats.nonempty_tile_count):
        g = table.grid_dims
        entries = table.entries.astype("<u4")  # a copy: the texture keeps its slots
        resident = entries != EMPTY_ENTRY
        entries[resident] = _file_entries(entries[resident], len(offsets), cfg)
        tables += [struct.pack("<QQQQ", g.x, g.y, g.z, count), entries]
    tables.append(struct.pack("<Q", len(offsets)))
    # The header holds the SvtConfig fields in their order.
    fields = (
        *astuple(cfg),
        *astuple(svt.virtual_dims),
        len(svt.mips),
        *atlas_dims(len(offsets), cfg),
        stats.nonempty_voxel_count,
        value_count(records, len(offsets), cfg, svt.format),
        stats.mean_tile_occupancy,
    )
    SVTF.write(path, svt.format, fields, tables, offsets, records)


def load_svtf(path) -> SparseVolumeTexture:
    """Read and check a container; its atlas holds the tile records as read.

    Every check runs here: the header config, the page tables (packed slots
    in atlas slot order; the tables keep the slots), the record offsets and
    sizes, the atlas dims and the stats fields, each failing with a
    DataError or CapacityError subclass. The atlas expands the records on
    the first read of .data (see TileAtlas); that cannot fail.
    """
    raw, fmt_code, fields = SVTF.read(path)
    fmt, config = header_config(path, fmt_code, *fields[:5])
    vx, vy, vz, mip_count, ax, ay, az, nonempty, padded_nonempty, occupancy = fields[5:]
    try:
        virtual_dims = VolumeDims(vx, vy, vz)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    levels = mip_level_count(virtual_dims, config.tile_size)
    if mip_count != levels:
        raise CorruptStream(f"{path}: {mip_count} mips, the virtual dims give {levels}")
    pos = SVTF.header.size
    mips, counts = [], []
    for level in range(levels):
        grid = tile_grid_dims(mip_level_dims(virtual_dims, level), config.tile_size)
        check_available(raw, pos, 32, path, "page-table header")
        gx, gy, gz, count = struct.unpack_from("<QQQQ", raw, pos)
        pos += 32
        if (gx, gy, gz) != (grid.x, grid.y, grid.z):
            raise CorruptStream(f"{path}: mip {level} page table has the wrong grid")
        check_available(raw, pos, 4 * grid.count, path, "page table")
        entries = np.frombuffer(raw, dtype="<u4", count=grid.count, offset=pos)
        entries = entries.reshape(grid.as_zyx()).astype(np.uint32)
        pos += 4 * grid.count
        mips.append(PageTable(entries))
        counts += tile_counts(mips[-1:])
        if counts[-1] != count:
            raise CorruptStream(f"{path}: mip {level} resident tiles disagree with its count")

    check_available(raw, pos, 8, path, "tile count")
    (tile_count,) = struct.unpack_from("<Q", raw, pos)
    if tile_count != sum(counts):
        raise CorruptStream(f"{path}: tile count disagrees with per-mip counts")
    offsets, records = read_records(raw, pos + 8, tile_count, path)
    try:
        held = _checked_records(records, offsets, config, fmt.dtype)
    except CorruptStream as exc:
        raise CorruptStream(f"{path}: {exc}") from None
    if atlas_dims(tile_count, config) != (ax, ay, az):
        raise CorruptStream(f"{path}: atlas dims disagree with the tile count")
    slot = 0
    for level, (table, count) in enumerate(zip(mips, counts)):
        resident = table.entries != EMPTY_ENTRY
        slots = np.arange(slot, slot + count, dtype=np.uint32)
        if not np.array_equal(table.entries[resident], _file_entries(slots, tile_count, config)):
            raise CorruptStream(f"{path}: mip {level} page table is not in atlas slot order")
        table.entries[resident] = slots
        slot += count

    payload = value_count(records, tile_count, config, fmt)
    if padded_nonempty != payload:
        raise CorruptStream(
            f"{path}: padded_nonempty_voxel_count {padded_nonempty}, the records hold {payload}"
        )
    # Each resident mip-0 tile holds 1 to tile_size^3 non-empty voxels.
    if not counts[0] <= nonempty <= counts[0] * config.tile_size**3:
        raise CorruptStream(
            f"{path}: nonempty_voxel_count {nonempty} does not fit {counts[0]} mip-0 tiles"
        )
    want_occupancy = _mean_tile_occupancy(nonempty, counts[0], config.tile_size)
    if struct.pack("<d", occupancy) != struct.pack("<d", want_occupancy):
        raise CorruptStream(
            f"{path}: mean_tile_occupancy {occupancy!r}, the counts give {want_occupancy!r}"
        )

    atlas = TileAtlas(None, held)
    return SparseVolumeTexture(config, fmt, virtual_dims, mips, atlas, nonempty, padded_nonempty)
