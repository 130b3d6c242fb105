"""Virtual-space scalar lookup through the footprint tables.

Positions are continuous mip-0 voxel coordinates: voxel (i, j, k) is
centered at (i+0.5, j+0.5, k+0.5). Trilinear lookups reproduce dense
clamped-edge interpolation of the mip-level volume exactly. Each lookup
reads all eight corners of its footprint from the one padded tile that the
level's footprint table names for the clamped base corner (the guarantee
the tile border exists for): the base corner's own tile when it is
resident, else a resident neighbour whose padding covers the footprint. A
footprint that reaches no resident tile reads empty_value. Nearest lookups
read a voxel as the base corner of a footprint.

The atlas holds each padded tile as one contiguous span^3 block in slot
order, so a footprint's corners are read with the block strides
(span^2, span, 1) from the table's base, whatever the atlas's size.

Every lookup, sparse or dense, addresses its corners the same way
(corner_axis): per axis the base corner floor(q) clamped to [-1, n - 1],
and the second corner one stride on. Past a face, corners -1 and n read
the border of edge copies that padded tiles and the illumination cache
carry. The eight corner indices are the flat base index plus sums of the
strides, and _gather_lerp blends them in one fixed float64 order.

A sparse trilinear lookup is two steps: trilinear_footprint computes each
position's Footprint (table base, flat corner index, fractions),
and trilinear_lerp blends its corners. The marcher keeps the footprint
between them, so that it can drop the samples whose base is NO_TILE
without addressing their corners twice. The marcher's table carries
footprint bits, which trilinear_footprint applies: a footprint inside a
resident tile that reads only empty_value gets base NO_TILE too.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .svt import NO_TILE, FootprintTable, SparseVolumeTexture

_BIT = (1 << np.arange(8)).astype(np.uint8)  # bit k of a byte packed LSB first


def corner_axis(q: np.ndarray, n: int):
    """One axis, of n voxels, of the footprints whose base corner is
    floor(q): that corner clamped to [-1, n - 1], and the fraction
    q - floor(q). The second corner is the base corner plus one.

    Past a face both corners land on the edge voxel or its border copy:
    -1 and 0 below, n - 1 and n above. A NaN q gives a NaN fraction.
    """
    b = np.floor(q)
    f = q - b
    b = b.astype(np.int64)
    np.clip(b, -1, n - 1, out=b)
    return b, f


def footprint_cells(table: FootprintTable, x, y, z) -> np.ndarray:
    """Flat index into table.base of the cells of base corners; corner -1
    reads through voxel 0's cell."""
    _, t_y, t_x = table.base.shape
    cx, cy, cz = table.cells
    cell = (cz * (t_y * t_x)).take(z, mode="clip")
    cell += (cy * t_x).take(y, mode="clip")
    cell += cx.take(x, mode="clip")
    return cell


def _gather_lerp(take, i, sy: int, sz: int, fx, fy, fz):
    """Blend of the eight corners i + {0, 1} + {0, sy} + {0, sz}, read by
    take, as dense clamped-edge interpolation does: x first, then y, then z.
    """
    gx = 1.0 - fx
    gy = 1.0 - fy

    def along_x(j):
        v = take(j) * gx
        v += take(j + 1) * fx
        return v

    k = i + sz
    v0 = along_x(i) * gy
    v0 += along_x(i + sy) * fy
    v1 = along_x(k) * gy
    v1 += along_x(k + sy) * fy
    v0 *= 1.0 - fz
    v1 *= fz
    v0 += v1
    return v0


def level_coords(px, py, pz, mip: int):
    """Positions as float64 voxel coordinates of the mip level."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pz = np.asarray(pz, dtype=np.float64)
    if mip:
        scale = float(1 << mip)
        px, py, pz = px / scale, py / scale, pz / scale
    return px, py, pz


def far_clamped(px, py, pz, mip: int):
    """level_coords clamped to +-2^62, so that corners fit int64; past 2^52
    no float64 has a fraction."""
    return (np.clip(p, -(2.0**62), 2.0**62) for p in level_coords(px, py, pz, mip))


def sample_nearest_many(svt: SparseVolumeTexture, px, py, pz, mip: int = 0) -> np.ndarray:
    """Nearest-voxel values; out of bounds and empty tiles give empty_value.
    Voxel floor(q) is the base corner of the footprint at floor(q) + 0.5, exactly
    for |q| < 2^52; beyond that, and at NaN, q lies outside the volume."""
    dims = svt.mip_dims(mip)
    px, py, pz = far_clamped(px, py, pz, mip)
    inside = (px >= 0) & (px < dims.x) & (py >= 0) & (py < dims.y) & (pz >= 0) & (pz < dims.z)
    scale = float(1 << mip)
    with np.errstate(invalid="ignore"):  # the int64 cast of NaN rows
        fp = trilinear_footprint(svt, *((np.floor(q) + 0.5) * scale for q in (px, py, pz)), mip)
    live = inside & (fp.base != NO_TILE)
    out = np.full(px.shape, svt.config.empty_value, dtype=np.float64)
    out[live] = svt.atlas.data.ravel()[fp.flat[live]]
    return out


@dataclasses.dataclass
class Footprint:
    """The trilinear footprints of positions at one mip level."""

    base: np.ndarray  # footprint-table base; NO_TILE where no tile answers
    flat: np.ndarray  # atlas index of the base corner (negative at NO_TILE)
    fx: np.ndarray  # fractions per axis; the second corner is one stride on
    fy: np.ndarray
    fz: np.ndarray

    def select(self, rows) -> None:
        """Keep only the given rows, one array at a time, so that each
        full array is freed before the next is selected."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name).take(rows))


def corner_index(base, x, y, z, span: int):
    """The flat atlas index base + (z*span + y)*span + x of level voxel
    (x, y, z) through a footprint-table base: exact in Python ints; for
    arrays, int64 and computed in z and y, to hold one full-size array fewer."""
    flat = z
    flat *= span * span
    y *= span
    flat += y
    flat += x
    flat += base
    return flat


def trilinear_footprint(
    svt: SparseVolumeTexture, px, py, pz, mip: int = 0, table: FootprintTable | None = None
) -> Footprint:
    """The footprint step of a trilinear lookup: where its eight corners lie
    in the atlas, and how they are weighted. table is the level's footprint
    table unless given.

    A table with bits (FootprintTable.bits) gives the footprints whose
    base corner's bit is clear, which read empty_value alone, base and
    flat NO_TILE, as if their cell named no tile.
    """
    if table is None:
        table = svt.footprint_table(mip)
    dims = svt.mip_dims(mip)
    span = svt.config.padded_size
    px, py, pz = level_coords(px, py, pz, mip)
    x, fx = corner_axis(px - 0.5, dims.x)
    y, fy = corner_axis(py - 0.5, dims.y)
    z, fz = corner_axis(pz - 0.5, dims.z)
    base = table.base.ravel().take(footprint_cells(table, x, y, z))
    flat = corner_index(base, x, y, z, span)
    if table.bits is not None:
        # A NO_TILE row's negative index reads byte 0 under mode="clip"; its
        # base is NO_TILE whichever bit that holds.
        byte = table.bits.take(flat >> 3, mode="clip")
        clear = byte & _BIT.take(flat & 7) == 0
        np.copyto(base, NO_TILE, where=clear)
        np.copyto(flat, NO_TILE, where=clear)
    return Footprint(base, flat, fx, fy, fz)


def trilinear_lerp(svt: SparseVolumeTexture, fp: Footprint) -> np.ndarray:
    """The lerp step of a trilinear lookup: the blend of each footprint's
    eight corners; a footprint whose base is NO_TILE reads empty_value."""
    span = svt.config.padded_size
    strides = span, span * span
    fx, fy, fz = fp.fx, fp.fy, fp.fz
    dead = fp.base == NO_TILE
    empty = svt.config.empty_value
    if dead.all():  # also every lookup in an empty atlas
        return _gather_lerp(lambda j: empty, 0, *strides, fx, fy, fz)
    # Live indices lie in the atlas; a dead row's index is negative, reads
    # voxel 0 under mode="clip", and is then replaced.
    voxels = svt.atlas.data.ravel()
    out = _gather_lerp(lambda j: voxels.take(j, mode="clip"), fp.flat, *strides, fx, fy, fz)
    if dead.any():
        out[dead] = _gather_lerp(lambda j: empty, 0, *strides, fx[dead], fy[dead], fz[dead])
    return out


def sample_trilinear_many(svt: SparseVolumeTexture, px, py, pz, mip: int = 0) -> np.ndarray:
    px, py, pz = far_clamped(px, py, pz, 0)
    with np.errstate(invalid="ignore"):  # the int64 cast of NaN rows, which read NaN
        return trilinear_lerp(svt, trilinear_footprint(svt, px, py, pz, mip))


def _point(pos) -> np.ndarray:
    """One position as a (3, 1) float64 array, a row per axis; ValueError unless finite."""
    xyz = np.asarray(pos, dtype=np.float64).reshape(3, 1)
    if not np.isfinite(xyz).all():
        raise ValueError(f"position {tuple(pos)} is not finite")
    return xyz


def sample_nearest(svt: SparseVolumeTexture, pos, mip: int = 0) -> float:
    return float(sample_nearest_many(svt, *_point(pos), mip)[0])


def sample_trilinear(svt: SparseVolumeTexture, pos, mip: int = 0) -> float:
    return float(sample_trilinear_many(svt, *_point(pos), mip)[0])


def trilinear_dense(arr: np.ndarray, px, py, pz) -> np.ndarray:
    """Clamped-edge trilinear lookup in dense [z, y, x] data, or channel-first
    [c, z, y, x] data, which gives (c, n), held with a one-voxel border of
    edge copies on every face; positions are in the interior's coordinates.
    Same corner rule and arithmetic order as the sparse path; the renderer
    uses it for illumination-cache lookups.
    """
    nz, ny, nx = arr.shape[-3:]
    planes = arr.astype(np.float64, copy=False).reshape(*arr.shape[:-3], nz * ny * nx)
    x, fx = corner_axis(np.asarray(px, dtype=np.float64) - 0.5, nx - 2)
    y, fy = corner_axis(np.asarray(py, dtype=np.float64) - 0.5, ny - 2)
    z, fz = corner_axis(np.asarray(pz, dtype=np.float64) - 0.5, nz - 2)
    flat = z * (ny * nx)
    flat += y * nx
    flat += x
    flat += ny * nx + nx + 1  # voxel (0, 0, 0) inside the border
    return _gather_lerp(
        lambda j: planes.take(j, axis=-1, mode="clip"), flat, nx, ny * nx, fx, fy, fz
    )
