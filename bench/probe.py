"""Oracles and workload-property counts computed from outside the program.

Everything here reads only public results (page tables, camera rays, dense
input arrays) and re-derives its numbers with its own arithmetic, so the
counts repeat exactly for a seed and do not move when the program's
internals change.
"""

from __future__ import annotations

import numpy as np

EMPTY_ENTRY = 0xFFFFFFFF  # page-table marker of a non-resident tile


def position_batch(rng, dims, tile_size: int, n: int):
    """n positions in mip-0 voxel space: half uniform, half across tile seams.

    A seam position puts one random axis within half a voxel of a tile
    boundary, where the trilinear footprint straddles two tiles.
    """
    size = np.array([dims.x, dims.y, dims.z], dtype=np.float64)
    p = rng.random((n, 3)) * size
    half = n // 2
    axis = rng.integers(0, 3, size=half)
    rows = np.arange(half)
    tiles = np.floor(size[axis] / tile_size)
    boundary = rng.integers(0, tiles.astype(np.int64) + 1) * tile_size
    p[rows, axis] = np.clip(boundary + rng.uniform(-0.5, 0.5, size=half), 0.0, size[axis])
    return p[:, 0], p[:, 1], p[:, 2]


def dense_trilinear(voxel, shape, px, py, pz) -> np.ndarray:
    """Clamped-edge trilinear interpolation straight off the dense input.

    voxel(z, y, x) returns float64 values of integer voxel coordinates.
    """
    nz, ny, nx = shape
    qx, qy, qz = px - 0.5, py - 0.5, pz - 0.5
    bx, by, bz = np.floor(qx), np.floor(qy), np.floor(qz)
    fx, fy, fz = qx - bx, qy - by, qz - bz
    bx, by, bz = bx.astype(np.int64), by.astype(np.int64), bz.astype(np.int64)
    x0, x1 = np.clip(bx, 0, nx - 1), np.clip(bx + 1, 0, nx - 1)
    y0, y1 = np.clip(by, 0, ny - 1), np.clip(by + 1, 0, ny - 1)
    z0, z1 = np.clip(bz, 0, nz - 1), np.clip(bz + 1, 0, nz - 1)
    a = voxel
    v00 = a(z0, y0, x0) * (1.0 - fx) + a(z0, y0, x1) * fx
    v10 = a(z0, y1, x0) * (1.0 - fx) + a(z0, y1, x1) * fx
    v01 = a(z1, y0, x0) * (1.0 - fx) + a(z1, y0, x1) * fx
    v11 = a(z1, y1, x0) * (1.0 - fx) + a(z1, y1, x1) * fx
    v0 = v00 * (1.0 - fy) + v10 * fy
    v1 = v01 * (1.0 - fy) + v11 * fy
    return v0 * (1.0 - fz) + v1 * fz


class Residency:
    """Mip-0 tile residency of an SVT and the footprint tests built on it."""

    def __init__(self, svt):
        self.resident = svt.mips[0].entries != EMPTY_ENTRY
        self.ts = svt.config.tile_size
        d = svt.virtual_dims
        self.size = np.array([d.x, d.y, d.z], dtype=np.int64)

    def _corners(self, px, py, pz):
        """Per axis: clamped base voxel c0 and its +1 neighbour c1."""
        out = []
        for p, n in zip((px, py, pz), self.size):
            b = np.floor(p - 0.5).astype(np.int64)
            out.append((np.clip(b, 0, n - 1), np.clip(b + 1, 0, n - 1)))
        return out

    def footprint_empty(self, px, py, pz) -> np.ndarray:
        """True where all eight trilinear corners lie in non-resident tiles."""
        (x0, x1), (y0, y1), (z0, z1) = self._corners(px, py, pz)
        ts, r = self.ts, self.resident
        tx, ty, tz = (x0 // ts, x1 // ts), (y0 // ts, y1 // ts), (z0 // ts, z1 // ts)
        any_resident = np.zeros(len(px), dtype=bool)
        for a in tz:
            for b in ty:
                for c in tx:
                    any_resident |= r[a, b, c]
        return ~any_resident

    def base_and_fallback(self, px, py, pz):
        """(base tile resident, base tile empty with a corner spilling out).

        Mirrors the two gather paths of the page-table trilinear lookup: one
        padded tile when the base tile is resident, per-voxel fallback
        lookups when it is empty and the footprint crosses into a neighbour.
        """
        corners = self._corners(px, py, pz)
        ts = self.ts
        tiles = [c0 // ts for c0, _ in corners]
        base = self.resident[tiles[2], tiles[1], tiles[0]]
        spills = np.zeros(len(px), dtype=bool)
        for (c0, c1), t in zip(corners, tiles):
            spills |= (c0 - t * ts == ts - 1) & (c1 > c0)
        return base, ~base & spills


def ray_box(origins, dirs, hi):
    """Slab test against [0, hi]; (t_near clamped to 0, t_far)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (0.0 - origins) / dirs
        t1 = (hi[None, :] - origins) / dirs
    near, far = np.minimum(t0, t1), np.maximum(t0, t1)
    parallel = dirs == 0.0
    inside = (origins >= 0.0) & (origins <= hi[None, :])
    near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
    far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
    return np.maximum(near.max(axis=1), 0.0), far.min(axis=1)


def primary_counts(res: Residency, frames):
    """(rays hitting the volume, nominal samples, samples with an empty footprint).

    Nominal samples are every step of every hit ray, t_i = t0 + (i+0.5)dt,
    counted before early ray termination.
    """
    hi = res.size.astype(np.float64)
    rays = nominal = empty = 0
    for params in frames:
        origins, dirs = params.camera.rays()
        t0, t1 = ray_box(origins, dirs, hi)
        hit = t1 > t0
        o, d, t0 = origins[hit], dirs[hit], t0[hit]
        steps = params.max_step_count
        dt = (t1[hit] - t0) / steps
        for i in range(steps):
            p = o + (t0 + (i + 0.5) * dt)[:, None] * d
            empty += int(res.footprint_empty(p[:, 0], p[:, 1], p[:, 2]).sum())
        rays += int(hit.sum())
        nominal += int(hit.sum()) * steps
    return rays, nominal, empty


def shadow_counts(res: Residency, lights, downsample: int, steps: int, svtf):
    """(cache voxels, shadow samples, shadow samples with an empty footprint).

    Re-derives the secondary rays of the illumination cache: one march per
    cache-voxel centre and light, clipped to the volume (and, for a point
    light, to the light's distance).
    """
    hi = res.size.astype(np.float64)
    f = float(downsample)
    counts = -(-res.size // downsample)
    axes = [(np.arange(n) + 0.5) * f for n in counts]
    zc, yc, xc = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    centers = np.stack([xc.ravel(), yc.ravel(), zc.ravel()], axis=1)
    total = empty = 0
    for light in lights:
        if isinstance(light, svtf.DirectionalLight):
            dirs = np.broadcast_to(-np.asarray(light.direction), centers.shape)
            stop = np.inf
        else:
            to_light = np.asarray(light.position)[None, :] - centers
            dist = np.maximum(np.linalg.norm(to_light, axis=1), 1e-12)
            dirs = to_light / dist[:, None]
            stop = dist
        t0, t1 = ray_box(centers, dirs, hi)
        dt = np.maximum(np.minimum(t1, stop) - t0, 0.0) / steps
        for j in range(steps):
            p = centers + (t0 + (j + 0.5) * dt)[:, None] * dirs
            empty += int(res.footprint_empty(p[:, 0], p[:, 1], p[:, 2]).sum())
        total += len(centers) * steps
    return len(centers), total, empty
