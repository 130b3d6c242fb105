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
(corner_axis): per axis the clamped base corner and the step to the
second corner, which is the axis stride or, at a clamped edge, 0. The
eight corner indices are the flat base index plus sums of the three steps,
and _gather_lerp blends them in one fixed float64 order.

A sparse trilinear lookup is two steps: trilinear_footprint computes each
position's Footprint (table base, flat corner index, steps, fractions),
and trilinear_lerp blends its corners. The marcher keeps the footprint
between them, so that it can drop the samples whose base is NO_TILE
without addressing their corners twice.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .svt import NO_TILE, FootprintTable, SparseVolumeTexture


def corner_axis(q: np.ndarray, n: int, stride: int):
    """One axis, of n voxels and the given stride, of the footprints whose
    base corner is floor(q): the clamped base corner, the step from it to
    the second corner, and the fraction q - floor(q).

    The step is stride where 0 <= floor(q) < n - 1, else 0: the clamp of
    floor(q) + 1 less the clamped base corner, times stride. A NaN q gives
    corner 0, step 0 and a NaN fraction.
    """
    b = np.floor(q)
    f = q - b
    b = b.astype(np.int64)
    # Viewed unsigned, a negative b (or NaN's int64 minimum) is out of range.
    step = (b.view(np.uint64) < n - 1).astype(np.int64)
    if stride != 1:
        step *= stride
    np.clip(b, 0, n - 1, out=b)
    return b, step, f


def footprint_cells(table: FootprintTable, x, y, z) -> np.ndarray:
    """Flat index into table.base of the cells of clamped base corners."""
    _, t_y, t_x = table.base.shape
    cx, cy, cz = table.cells
    cell = (cz * (t_y * t_x))[z]
    cell += (cy * t_x)[y]
    cell += cx[x]
    return cell


def _gather_lerp(take, i, dx, dy, dz, fx, fy, fz):
    """Blend of the eight corners i + {0, dx} + {0, dy} + {0, dz}, read by
    take, as dense clamped-edge interpolation does: x first, then y, then z.
    """
    gx = 1.0 - fx
    gy = 1.0 - fy

    def along_x(j):
        v = take(j) * gx
        v += take(j + dx) * fx
        return v

    k = i + dz
    v0 = along_x(i) * gy
    v0 += along_x(i + dy) * fy
    v1 = along_x(k) * gy
    v1 += along_x(k + dy) * fy
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
    dx: np.ndarray  # steps to the second corner per axis
    dy: np.ndarray
    dz: np.ndarray
    fx: np.ndarray  # fractions per axis
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
    table unless given."""
    if table is None:
        table = svt.footprint_table(mip)
    dims = svt.mip_dims(mip)
    span = svt.config.padded_size
    px, py, pz = level_coords(px, py, pz, mip)
    x, dx, fx = corner_axis(px - 0.5, dims.x, 1)
    y, dy, fy = corner_axis(py - 0.5, dims.y, span)
    z, dz, fz = corner_axis(pz - 0.5, dims.z, span * span)
    base = table.base.ravel().take(footprint_cells(table, x, y, z))
    return Footprint(base, corner_index(base, x, y, z, span), dx, dy, dz, fx, fy, fz)


def trilinear_lerp(svt: SparseVolumeTexture, fp: Footprint) -> np.ndarray:
    """The lerp step of a trilinear lookup: the blend of each footprint's
    eight corners; a footprint whose base is NO_TILE reads empty_value."""
    data = svt.atlas.data
    flat, dx, dy, dz, fx, fy, fz = fp.flat, fp.dx, fp.dy, fp.dz, fp.fx, fp.fy, fp.fz
    dead = fp.base == NO_TILE
    empty = svt.config.empty_value
    if dead.all():  # also every lookup in an empty atlas
        return _gather_lerp(lambda j: empty, 0, 0, 0, 0, fx, fy, fz)
    # Live indices lie in the atlas; a dead row's index is negative, reads
    # voxel 0 under mode="clip", and is then replaced.
    voxels = data.ravel()
    out = _gather_lerp(lambda j: voxels.take(j, mode="clip"), flat, dx, dy, dz, fx, fy, fz)
    if dead.any():
        out[dead] = _gather_lerp(lambda j: empty, 0, 0, 0, 0, fx[dead], fy[dead], fz[dead])
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
    """Clamped-edge trilinear lookup in a dense [z, y, x] array, or in
    channel-first [c, z, y, x] data, which gives (c, n).

    Uses the same corner addressing and arithmetic order as the sparse
    path; the renderer uses it for illumination-cache lookups.
    """
    nz, ny, nx = arr.shape[-3:]
    planes = arr.astype(np.float64, copy=False).reshape(*arr.shape[:-3], nz * ny * nx)
    x, dx, fx = corner_axis(np.asarray(px, dtype=np.float64) - 0.5, nx, 1)
    y, dy, fy = corner_axis(np.asarray(py, dtype=np.float64) - 0.5, ny, nx)
    z, dz, fz = corner_axis(np.asarray(pz, dtype=np.float64) - 0.5, nz, ny * nx)
    flat = z * (ny * nx)
    flat += y * nx
    flat += x
    return _gather_lerp(
        lambda j: planes.take(j, axis=-1, mode="clip"), flat, dx, dy, dz, fx, fy, fz
    )
