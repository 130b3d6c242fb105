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
"""

from __future__ import annotations

import numpy as np

from .svt import NO_TILE, FootprintTable, SparseVolumeTexture


def _corner_index(svt: SparseVolumeTexture, table: FootprintTable, cx, cy, cz):
    """(Flat atlas index, live) of in-bounds base corners of a mip level.

    The index is only meaningful where live, that is where the level's
    footprint table names a tile for the corner's cell.
    """
    x, y, z = table.cells
    base = table.base[z[cz], y[cy], x[cx]]
    _, a_y, a_x = svt.atlas.data.shape
    return base + (cz * a_y + cy) * a_x + cx, base != NO_TILE


def sample_nearest_many(svt: SparseVolumeTexture, px, py, pz, mip: int = 0) -> np.ndarray:
    """Nearest-voxel values; out of bounds and empty tiles give empty_value."""
    table = svt.footprint_table(mip)
    dims = svt.mip_dims(mip)
    scale = float(1 << mip)
    vx = np.floor(np.asarray(px, dtype=np.float64) / scale).astype(np.int64)
    vy = np.floor(np.asarray(py, dtype=np.float64) / scale).astype(np.int64)
    vz = np.floor(np.asarray(pz, dtype=np.float64) / scale).astype(np.int64)
    inside = (
        (vx >= 0) & (vx < dims.x) & (vy >= 0) & (vy < dims.y) & (vz >= 0) & (vz < dims.z)
    )
    flat, live = _corner_index(
        svt,
        table,
        np.clip(vx, 0, dims.x - 1),
        np.clip(vy, 0, dims.y - 1),
        np.clip(vz, 0, dims.z - 1),
    )
    live &= inside
    out = np.full(vx.shape, svt.config.empty_value, dtype=np.float64)
    out[live] = svt.atlas.data.ravel()[flat[live]]
    return out


def _lerp3(c000, c100, c010, c110, c001, c101, c011, c111, fx, fy, fz):
    v00 = c000 * (1.0 - fx) + c100 * fx
    v10 = c010 * (1.0 - fx) + c110 * fx
    v01 = c001 * (1.0 - fx) + c101 * fx
    v11 = c011 * (1.0 - fx) + c111 * fx
    v0 = v00 * (1.0 - fy) + v10 * fy
    v1 = v01 * (1.0 - fy) + v11 * fy
    return v0 * (1.0 - fz) + v1 * fz


def sample_trilinear_many(svt: SparseVolumeTexture, px, py, pz, mip: int = 0) -> np.ndarray:
    table = svt.footprint_table(mip)
    dims = svt.mip_dims(mip)
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

    flat, live = _corner_index(svt, table, c0x, c0y, c0z)
    corners = np.full((8, *qx.shape), svt.config.empty_value, dtype=np.float64)
    if live.any():
        _, a_y, a_x = svt.atlas.data.shape
        flat = flat[live]
        dx, dy, dz = sx[live], sy[live] * a_x, sz[live] * (a_y * a_x)
        data = svt.atlas.data.ravel()
        for k, (ez, ey, ex) in enumerate(np.ndindex(2, 2, 2)):
            corners[k][live] = data[flat + ez * dz + ey * dy + ex * dx]
    return _lerp3(*corners, fx, fy, fz)


def sample_nearest(svt: SparseVolumeTexture, pos, mip: int = 0) -> float:
    px, py, pz = (np.asarray([p], dtype=np.float64) for p in pos)
    return float(sample_nearest_many(svt, px, py, pz, mip)[0])


def sample_trilinear(svt: SparseVolumeTexture, pos, mip: int = 0) -> float:
    px, py, pz = (np.asarray([p], dtype=np.float64) for p in pos)
    return float(sample_trilinear_many(svt, px, py, pz, mip)[0])


def trilinear_dense(arr: np.ndarray, px, py, pz) -> np.ndarray:
    """Clamped-edge trilinear lookup in a dense [z, y, x(, c)] array.

    Uses the same arithmetic order as the sparse path; the renderer uses it
    for illumination-cache lookups.
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
    return _lerp3(
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
