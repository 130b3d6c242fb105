"""Shared fixtures, volume factories, and independent oracles.

Oracle functions here deliberately re-derive results from the dense source
arrays without touching page tables or atlases, so they stay independent
of the code paths they check.
"""

import numpy as np
import pytest

from svtf import (
    DenseVolume,
    DirectionalLight,
    IlluminationCache,
    PointLight,
    SparseVolumeTexture,
    TransferFunction,
    VolumeDims,
    VoxelFormat,
)
from svtf.render import MIN_TRANSMITTANCE, _ray_aabb
from svtf.sample import sample_trilinear_many

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


def dense_trilinear_oracle(data_zyx: np.ndarray, px, py, pz) -> np.ndarray:
    """Clamped-edge trilinear interpolation straight off the dense array."""
    nz, ny, nx = data_zyx.shape
    qx = np.asarray(px, dtype=np.float64) - 0.5
    qy = np.asarray(py, dtype=np.float64) - 0.5
    qz = np.asarray(pz, dtype=np.float64) - 0.5
    bx, by, bz = np.floor(qx), np.floor(qy), np.floor(qz)
    fx, fy, fz = qx - bx, qy - by, qz - bz
    x0 = np.clip(bx.astype(np.int64), 0, nx - 1)
    y0 = np.clip(by.astype(np.int64), 0, ny - 1)
    z0 = np.clip(bz.astype(np.int64), 0, nz - 1)
    x1 = np.clip(bx.astype(np.int64) + 1, 0, nx - 1)
    y1 = np.clip(by.astype(np.int64) + 1, 0, ny - 1)
    z1 = np.clip(bz.astype(np.int64) + 1, 0, nz - 1)
    a = data_zyx.astype(np.float64)
    v00 = a[z0, y0, x0] * (1.0 - fx) + a[z0, y0, x1] * fx
    v10 = a[z0, y1, x0] * (1.0 - fx) + a[z0, y1, x1] * fx
    v01 = a[z1, y0, x0] * (1.0 - fx) + a[z1, y0, x1] * fx
    v11 = a[z1, y1, x0] * (1.0 - fx) + a[z1, y1, x1] * fx
    v0 = v00 * (1.0 - fy) + v10 * fy
    v1 = v01 * (1.0 - fy) + v11 * fy
    return v0 * (1.0 - fz) + v1 * fz


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


# The marchers as they were before empty-space skipping, kept verbatim as
# the bit-identity oracle for the skipping marchers.


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

        t0, t1 = _ray_aabb(centers, dirs, lo, hi)
        t1 = np.minimum(t1, t_stop)
        length = np.maximum(t1 - t0, 0.0)
        dt = length / shadow_steps
        tau = np.zeros(centers.shape[0], dtype=np.float64)
        for j in range(shadow_steps):
            t = t0 + (j + 0.5) * dt
            p = centers + t[:, None] * dirs
            scalars = sample_trilinear_many(svt, p[:, 0], p[:, 1], p[:, 2])
            sigma, _ = tf.classify(scalars, svt.format)
            tau += sigma * dt
        trans = np.exp(-tau)
        weight = (atten * trans)[:, None]
        flat += np.asarray(light.intensity, dtype=np.float64)[None, :] * weight

    values = flat.reshape(dims.z, dims.y, dims.x, 3)
    return IlluminationCache(dims=dims, downsample_factor=downsample_factor, values=values)


def reference_march_block(svt, cache, tf, params, origins, dirs):
    n = origins.shape[0]
    vd = svt.virtual_dims
    lo = np.zeros(3)
    hi = np.asarray([vd.x, vd.y, vd.z], dtype=np.float64)
    t0, t1 = _ray_aabb(origins, dirs, lo, hi)
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
        scalars = sample_trilinear_many(svt, p[:, 0], p[:, 1], p[:, 2], params.mip)
        sigma, rgb = tf.classify(scalars, svt.format)
        if visible is not None:
            sigma = np.where(visible, sigma, 0.0)
            rgb = np.where(visible[:, None], rgb, 0.0)
        # Incident light only matters where the transfer function emits;
        # rgb == 0 kills the contribution regardless of the cache value.
        source = tf.emission_scale * rgb
        lit = np.flatnonzero(rgb.any(axis=1))
        if len(lit):
            incident = cache.sample_incident(p[lit, 0], p[lit, 1], p[lit, 2])
            source[lit] *= 1.0 + incident
        e_half = np.exp(-0.5 * dt[alive] * sigma)
        radiance[alive] += (trans[alive] * e_half * dt[alive])[:, None] * source
        trans[alive] *= e_half * e_half
        alive = alive[trans[alive] > MIN_TRANSMITTANCE]
    return radiance, trans


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
