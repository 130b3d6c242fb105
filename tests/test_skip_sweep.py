"""A seeded differential sweep of empty-space skipping.

Small cases drawn from one seed: u8 and f32 volumes (f32 with NaN and
infinite voxels), empty or noise-filled "air" backgrounds, non-zero
empty_value, tile sizes 4 to 16, LUTs with zero bands, windows on exact u8
values and on value-range edges, perspective, orthographic and axis-aligned
cameras, cut planes (random, through sample positions and parallel to the
rays), both light kinds, mips 0 to 2 and 1 or 4 threads. The last
SPARSE_GROUPS groups hold sparse resident tiles instead: single voxels on
a tile's last layer and on the volume's faces, over empty_value, at tile
sizes 2 to 8, where skipping leaves out the footprints inside resident
tiles that read empty_value alone (svt.footprint_bits). Every cache and
image must be bit-identical to the march with render._live_box patched to
return None, that is with skipping off, and every REFERENCE_EVERY-th case
of a finite volume also to the reference marchers. Where skipping is on,
every random position whose dense value shows must have a live footprint
in the box, as a frame's few samples would rarely find a wrongly hidden
cell or footprint.
"""

import collections
import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import (
    make_volume,
    reference_illumination_cache,
    reference_mip_chain,
    reference_raymarch,
    reference_trilinear_dense,
)

from svtf import (
    Camera,
    DenseVolume,
    DirectionalLight,
    PointLight,
    RenderParams,
    SparseVolumeTexture,
    SvtConfig,
    TransferFunction,
    VoxelFormat,
    build_illumination_cache,
    build_svt,
    raymarch,
)
from svtf import render
from svtf.sample import trilinear_footprint
from svtf.svt import NO_TILE

SEED = 2026
GROUPS, PER_GROUP = 8, 30
SPARSE_GROUPS = 2  # drawn after the GROUPS groups, by _sparse_volume
REFERENCE_EVERY = 5


def _lut(rng, fmt, values):
    """A random or grayscale LUT with zero bands (all four channels, sigma
    only or colour only), and a window: the whole range, random, on exact
    u8 values, or on the edge of a value the volume holds."""
    lut = TransferFunction.grayscale().lut.copy() if rng.random() < 0.4 else rng.random((256, 4))
    finite = values[np.isfinite(values)]
    scale = 255.0 if fmt is VoxelFormat.U8 else 1.0
    for _ in range(int(rng.integers(1, 4))):
        # A band from or to the row of a value the volume holds, or anywhere.
        k = np.clip(np.rint(rng.choice(finite) / scale * 255.0), 0, 255)
        a = int(k) if rng.random() < 0.7 else int(rng.integers(0, 256))
        a, b = sorted((a, int(np.clip(a + rng.integers(-80, 81), 0, 255))))
        lut[a : b + 1, rng.choice([slice(0, 4), slice(3, 4), slice(0, 3)])] = 0.0
    if rng.random() < 0.75:
        lut[0] = 0.0  # values that round to row 0, such as empty_value 0, hide
    kind = rng.integers(0, 4)
    if kind == 0:
        window = (0.0, 1.0)
    elif kind == 1:
        window = tuple(np.sort(rng.uniform(-0.1, 1.1, 2)))
    elif kind == 2:
        a, b = np.sort(rng.choice(256, 2, replace=False))
        window = (a / 255.0, b / 255.0)
    else:  # an edge exactly on, or just beyond, a value of the volume
        u = float(rng.choice(finite)) / scale
        edge = u if rng.random() < 0.5 else float(np.nextafter(u, np.inf))
        window = (edge, 1.5) if rng.random() < 0.5 else (-0.5, edge)
    if not window[0] < window[1]:
        window = (0.0, 1.0)
    return TransferFunction(lut, density_scale=float(rng.uniform(0.05, 3.0)),
                            emission_scale=float(rng.uniform(0.2, 1.0)), window=window)


def _volume(rng, fmt):
    """(data, config) of a small volume: boxes and single voxels over
    empty_value, or over noise "air" that makes every tile resident."""
    nz, ny, nx = (int(n) for n in rng.integers(6, 25, 3))
    u8 = fmt is VoxelFormat.U8
    empty = 0.0
    if rng.random() < 0.3:
        empty = float(rng.integers(1, 60)) if u8 else float(np.float32(rng.uniform(-0.2, 0.3)))
    scale = 255.0 if u8 else 1.0
    if rng.random() < 0.35:
        lo = rng.uniform(0.0, 0.6)
        data = rng.uniform(lo, lo + rng.uniform(0.0, 0.2), (nz, ny, nx)) * scale
    else:
        data = np.full((nz, ny, nx), empty)
    for _ in range(int(rng.integers(1, 4))):
        lo = rng.integers(0, [nz, ny, nx])
        hi = lo + rng.integers(1, [nz // 3, ny // 3, nx // 3], endpoint=True)
        a = rng.uniform(-0.1, 1.1)
        part = data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
        part[...] = rng.uniform(a, a + rng.uniform(0.0, 0.4), part.shape) * scale
    for _ in range(int(rng.integers(0, 4))):
        data[tuple(rng.integers(0, [nz, ny, nx]))] = rng.uniform(0.0, 1.0) * scale
    if u8:
        data = np.clip(np.rint(data), 0, 255)
    elif rng.random() < 0.4:
        for v in rng.choice([np.nan, np.inf, -np.inf], int(rng.integers(1, 4))):
            data[tuple(rng.integers(0, [nz, ny, nx]))] = v
    config = SvtConfig(tile_size=int(rng.integers(4, 17)), empty_value=empty)
    return data.astype(fmt.dtype), config


def _sparse_volume(rng, fmt):
    """(data, config, voxels) of a small volume of empty_value holding 1 to 5
    single voxels, each with each axis on a tile's last layer, on a face of
    the volume or anywhere; voxels holds their mip-0 centres as (3, m)."""
    nz, ny, nx = (int(n) for n in rng.integers(6, 25, 3))
    ts = int(rng.integers(2, 9))
    u8 = fmt is VoxelFormat.U8
    empty = 0.0
    if rng.random() < 0.3:
        empty = float(rng.integers(1, 60)) if u8 else float(np.float32(rng.uniform(-0.2, 0.3)))
    data = np.full((nz, ny, nx), empty)
    voxels = []
    for _ in range(int(rng.integers(1, 6))):
        at = []
        for n in (nz, ny, nx):
            kind = rng.integers(0, 3)
            if kind == 0:  # the last layer of a tile, or the last voxel of a partial one
                at.append(min(int(rng.integers(0, -(-n // ts))) * ts + ts - 1, n - 1))
            elif kind == 1:
                at.append(int(rng.choice([0, n - 1])))
            else:
                at.append(int(rng.integers(0, n)))
        data[tuple(at)] = rng.uniform(0.05, 1.0) * (255.0 if u8 else 1.0)
        voxels.append(np.asarray(at[::-1], dtype=np.float64) + 0.5)
    if u8:
        data = np.clip(np.rint(data), 0, 255)
    elif rng.random() < 0.3:
        data[tuple(rng.integers(0, [nz, ny, nx]))] = rng.choice([np.nan, np.inf, -np.inf])
    config = SvtConfig(tile_size=ts, pad=int(rng.integers(1, 3)), empty_value=empty)
    return data.astype(fmt.dtype), config, np.asarray(voxels).T


def _camera(rng, extent):
    """(camera, axis): a perspective or orthographic camera from a random
    side, or one looking along an axis (axis is then that axis, else None)."""
    width, height = (int(v) for v in rng.integers(4, 10, 2))
    centre = extent / 2
    ortho = float(rng.uniform(0.6, 1.6) * extent.max()) if rng.random() < 0.5 else None
    if rng.random() < 0.35:
        axis = int(rng.integers(0, 3))
        eye = centre.copy()
        eye[axis] = -10.0 if rng.random() < 0.5 else extent[axis] + 10.0
        up = (1.0, 0.0, 0.0) if axis == 1 else (0.0, 1.0, 0.0)
        return Camera(eye=tuple(eye), look_at=tuple(centre), up=up, width=width, height=height,
                      ortho_height=ortho), axis
    d = rng.standard_normal(3)
    eye = centre + d / np.linalg.norm(d) * rng.uniform(1.2, 3.0) * extent.max()
    look_at = rng.uniform(0.2, 0.8) * extent
    return Camera(eye=tuple(eye), look_at=tuple(look_at), vfov_deg=float(rng.uniform(20, 70)),
                  width=width, height=height, ortho_height=ortho), None


def _cut(rng, extent, camera, axis, steps):
    """(cut plane, steps, kind): none, random through the volume, or, for an
    axis-aligned orthographic camera, through its sample positions (one
    step per voxel puts them at i + 0.5) or parallel to its rays."""
    aligned = axis is not None and camera.ortho_height is not None
    kinds = ["none", "random", "samples", "parallel"]
    kind = str(rng.choice(kinds, p=[0.15, 0.15, 0.35, 0.35] if aligned else [0.5, 0.5, 0, 0]))
    n = rng.standard_normal(3)
    if kind == "none":
        return None, steps, kind
    if kind == "samples":
        n[:] = 0.0
        n[axis] = rng.choice([-1.0, 1.0])
        plane = -n[axis] * (int(rng.integers(0, extent[axis])) + 0.5)
        return (tuple(n), float(plane)), int(extent[axis]), kind
    if kind == "parallel":
        n[axis] = 0.0  # n.d == 0 exactly
    return (tuple(n), float(-n @ rng.uniform(0.0, extent))), steps, kind


def _lights(rng, extent):
    lights = []
    for _ in range(int(rng.integers(1, 3))):
        intensity = tuple(rng.uniform(0.1, 1.0, 3))
        if rng.random() < 0.5:
            lights.append(DirectionalLight(direction=tuple(rng.standard_normal(3)),
                                           intensity=intensity))
        else:
            lights.append(PointLight(position=tuple(rng.uniform(-0.5, 1.5, 3) * extent),
                                     radius=float(rng.uniform(2.0, 30.0)), intensity=intensity))
    return lights


@dataclass
class Case:
    volume: DenseVolume
    svt: SparseVolumeTexture
    tf: TransferFunction
    lights: list
    cache_args: tuple[int, int]  # downsample factor, shadow steps
    params: RenderParams
    threads: int
    cut: str  # the kind of cut plane (_cut)
    voxels: np.ndarray | None = None  # a sparse case's single voxels (_sparse_volume)


def draw_case(rng, sparse=False) -> Case:
    fmt = VoxelFormat.U8 if rng.random() < 0.5 else VoxelFormat.F32
    voxels = None
    if sparse:
        data, config, voxels = _sparse_volume(rng, fmt)
    else:
        data, config = _volume(rng, fmt)
    volume = make_volume(data, fmt)
    tf = _lut(rng, fmt, data)
    if sparse and rng.random() < 0.8:  # empty_value's LUT row hides: skipping is on
        row = tf.rows(np.asarray([config.empty_value]), fmt)[0]
        if row < 256:
            tf.lut[row] = 0.0
    extent = np.asarray(data.shape[::-1], dtype=np.float64)
    camera, axis = _camera(rng, extent)
    cut, steps, kind = _cut(rng, extent, camera, axis, int(rng.integers(6, 21)))
    svt = build_svt(volume, config)
    params = RenderParams(camera=camera, max_step_count=steps, cut_plane=cut,
                          background=tuple(rng.uniform(0.0, 0.5, 3)),
                          mip=int(rng.integers(0, min(3, svt.mip_count))))
    cache_args = int(rng.integers(2, 5)), int(rng.integers(3, 9))
    threads = int(rng.choice([1, 4], p=[0.8, 0.2]))
    return Case(volume, svt, tf, _lights(rng, extent), cache_args, params, threads, kind, voxels)


def group_cases(group):
    """The cases of one group, drawn in order from its own seeded generator;
    the groups from GROUPS on are sparse."""
    rng = np.random.default_rng([SEED, group])
    return (draw_case(rng, sparse=group >= GROUPS) for _ in range(PER_GROUP))


def near_voxels(c: Case, rng, n):
    """n positions, as (3, n), around a sparse case's single voxels: half
    within 1.5 voxels of the frame's mip, where footprints read a voxel,
    and half within a tile, where most read only empty_value."""
    extent = np.asarray(c.volume.data.shape[::-1], dtype=np.float64)
    reach = float(1 << c.params.mip) * rng.choice([1.5, c.svt.config.tile_size], n)
    p = c.voxels[:, rng.integers(0, c.voxels.shape[1], n)] + rng.uniform(-reach, reach, (3, n))
    return np.clip(p, 0.0, extent[:, None])


def assert_shown_positions_are_live(c: Case, skip, rng, name, n=3000):
    """Each of n random positions whose dense trilinear value at the
    frame's mip shows has a footprint base that is not NO_TILE in
    _live_box's table, and lies in its box. Half of the positions have one
    coordinate in a tile's last voxel layer, whose footprints reach into
    the next tile. A sparse case adds n positions around its single voxels
    (near_voxels)."""
    (lo, hi), table = skip
    extent = np.asarray(c.volume.data.shape[::-1], dtype=np.float64)
    p = rng.uniform(0.0, extent, (n, 3)).T
    scale, ts = float(1 << c.params.mip), c.svt.config.tile_size
    level = reference_mip_chain(c.volume, c.svt.config)[c.params.mip].data
    axis, half = rng.integers(0, 3, n // 2), np.arange(n // 2)
    tiles = -(-np.asarray(level.shape[::-1]) // ts)
    layer = (rng.integers(0, tiles[axis]) + 1) * ts - 0.5 + rng.uniform(0.0, 1.0, n // 2)
    p[axis, half] = np.minimum(layer * scale, extent[axis])
    if c.voxels is not None:
        p = np.concatenate([p, near_voxels(c, rng, n)], axis=1)
    values = reference_trilinear_dense(level, *(p / scale))
    sigma, rgb = c.tf.tables()
    row = c.tf.rows(values, c.svt.format)
    shows = (sigma[row] != 0.0) | (c.tf.emission_scale * rgb[row]).any(axis=1)
    live = trilinear_footprint(c.svt, *p, c.params.mip, table).base != NO_TILE
    assert live[shows].all(), name
    assert ((p >= lo[:, None]) & (p <= hi[:, None])).all(axis=0)[shows].all(), name


# An infinite voxel weighted 0 blends to NaN, and numpy warns of it.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("group", range(GROUPS + SPARSE_GROUPS))
def test_skipping_sweep_is_bit_identical_to_marching_every_step(monkeypatch, group):
    rng = np.random.default_rng([SEED, group, 1])
    for k, c in enumerate(group_cases(group)):
        name = f"group {group} case {k}"
        svt, tf, lights, params = c.svt, c.tf, c.lights, c.params
        skip = render._live_box(svt, tf, params.mip)
        if skip is not None:
            assert_shown_positions_are_live(c, skip, rng, name)
        cache = build_illumination_cache(svt, tf, lights, *c.cache_args, threads=c.threads)
        img = raymarch(svt, cache, tf, params, threads=c.threads)
        with monkeypatch.context() as m:  # on one thread: results are thread-invariant
            m.setattr(render, "_live_box", lambda *args: None)
            every_cache = build_illumination_cache(svt, tf, lights, *c.cache_args)
            every = raymarch(svt, every_cache, tf, params)
        assert np.array_equal(cache.values, every_cache.values), name
        assert np.array_equal(img, every), name
        # The reference classify cannot take a NaN sample (of a NaN voxel or
        # of an infinite one weighted 0), so it checks finite volumes only.
        if k % REFERENCE_EVERY == 0 and np.isfinite(c.volume.data).all():
            want_cache = reference_illumination_cache(svt, tf, lights, *c.cache_args)
            assert np.array_equal(cache.values, want_cache.values), name
            assert np.array_equal(img, reference_raymarch(svt, want_cache, tf, params)), name


def skips_inside_resident_tiles(c: Case, table, rng, n=2000) -> bool:
    """Whether the footprint bits of _live_box's table leave out any of n
    random positions (near_voxels, in a sparse case) whose cell names a
    live tile: a skip inside a resident tile."""
    if table.bits is None:
        return False
    extent = np.asarray(c.volume.data.shape[::-1], dtype=np.float64)
    p = rng.uniform(0.0, extent, (n, 3)).T if c.voxels is None else near_voxels(c, rng, n)
    cells = trilinear_footprint(c.svt, *p, c.params.mip, dataclasses.replace(table, bits=None))
    bits = trilinear_footprint(c.svt, *p, c.params.mip, table)
    return bool(((cells.base != NO_TILE) & (bits.base == NO_TILE)).any())


def test_the_sweep_draws_every_kind_of_case():
    """The sweep holds cases with skipping on (at least 40%) and off, cases
    whose transfer function hides resident cells at each mip (at mips 1 and
    2, a frame over hidden air), cases that skip footprints inside resident
    tiles at each mip, skipping over non-finite voxels, each kind of cut
    plane, both light kinds, formats and thread counts, and cases that the
    reference marchers check."""
    seen = collections.Counter()
    rng = np.random.default_rng([SEED, 2])
    for group in range(GROUPS + SPARSE_GROUPS):
        for k, c in enumerate(group_cases(group)):
            skip = render._live_box(c.svt, c.tf, c.params.mip)
            finite = np.isfinite(c.volume.data).all()
            if skip is not None and (
                (c.svt.footprint_table(c.params.mip).base != NO_TILE) & (skip[1].base == NO_TILE)
            ).any():
                seen[("hides resident cells at mip", c.params.mip)] += 1
            if skip is not None and skips_inside_resident_tiles(c, skip[1], rng):
                seen[("skips inside resident tiles at mip", c.params.mip)] += 1
                seen[("skips inside resident tiles", c.voxels is not None)] += 1
            seen.update([
                ("skipping", skip is not None), ("cut", c.cut), ("threads", c.threads),
                ("format", c.svt.format.value), *(("light", type(x).__name__) for x in c.lights),
                ("skipping over non-finite voxels", skip is not None and not finite),
                ("reference", k % REFERENCE_EVERY == 0 and finite),
            ])
    assert seen[("skipping", True)] >= 0.4 * GROUPS * PER_GROUP
    assert seen[("reference", True)] >= 30
    for key in [
        ("skipping", False), ("skipping over non-finite voxels", True),
        *(("hides resident cells at mip", mip) for mip in (0, 1, 2)),
        *(("skips inside resident tiles at mip", mip) for mip in (0, 1, 2)),
        ("skips inside resident tiles", False), ("skips inside resident tiles", True),
        *(("cut", kind) for kind in ("none", "random", "samples", "parallel")),
        ("threads", 1), ("threads", 4), ("format", "u8"), ("format", "f32"),
        ("light", "DirectionalLight"), ("light", "PointLight"),
    ]:
        assert seen[key] >= 5, (key, seen[key])
