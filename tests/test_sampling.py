import sys
import threading
import time
import warnings

import numpy as np
import pytest
from conftest import (
    edge_positions,
    make_volume,
    random_build_case,
    random_volume,
    reference_incident,
    reference_sample_nearest_many,
    reference_mip_chain,
    reference_sample_trilinear_many,
    reference_trilinear_dense,
)

import svtf.svt
from svtf import (
    IlluminationCache,
    SvtConfig,
    VoxelFormat,
    build_svt,
    load_svtf,
    sample_nearest,
    sample_trilinear,
    save_svtf,
)
from svtf.sample import (
    sample_nearest_many,
    sample_trilinear_many,
    trilinear_dense,
    trilinear_footprint,
)
from svtf.svt import NO_TILE


def positions_with_seams(rng, dims, n):
    """Random positions, a margin outside the volume, plus tile-seam hits."""
    px = rng.uniform(-2.0, dims.x + 2.0, size=n)
    py = rng.uniform(-2.0, dims.y + 2.0, size=n)
    pz = rng.uniform(-2.0, dims.z + 2.0, size=n)
    # Pin a share of the x coordinates exactly onto tile boundaries.
    seams = np.arange(0, dims.x + 1, 16, dtype=np.float64)
    k = min(n // 4, n)
    px[:k] = rng.choice(seams, size=k)
    # And a share straddling boundaries by half a voxel.
    j = slice(k, min(2 * k, n))
    px[j] = rng.choice(seams, size=px[j].shape) + rng.choice([-0.5, 0.5], size=px[j].shape)
    return px, py, pz


def test_all_empty_everywhere_zero(rng):
    svt = build_svt(make_volume(np.zeros((20, 20, 20), np.uint8)))
    px, py, pz = positions_with_seams(rng, svt.virtual_dims, 100)
    assert not sample_nearest_many(svt, px, py, pz).any()
    assert not sample_trilinear_many(svt, px, py, pz).any()


def test_nearest_identity_at_centers(rng):
    vol = random_volume(rng, max_dim=33, fill=0.5)
    svt = build_svt(vol)
    d = vol.dims
    xs, ys, zs = (
        rng.integers(0, d.x, 50),
        rng.integers(0, d.y, 50),
        rng.integers(0, d.z, 50),
    )
    want = vol.data[zs, ys, xs].astype(np.float64)
    # The centre, the lower faces, and the last floats below the upper faces.
    for pick in range(3):
        p = [(c + 0.5, c + 0.0, np.nextafter(c + 1.0, -np.inf))[pick] for c in (xs, ys, zs)]
        np.testing.assert_array_equal(sample_nearest_many(svt, *p), want)


def test_nearest_out_of_bounds_zero():
    data = np.full((8, 8, 8), 3, np.uint8)
    svt = build_svt(make_volume(data))
    assert sample_nearest(svt, (-0.1, 4, 4)) == 0.0
    assert sample_nearest(svt, (8.0, 4, 4)) == 0.0
    assert sample_nearest(svt, (4, 4, 4)) == 3.0


def test_trilinear_constant_volume(rng):
    vol = make_volume(np.full((40, 24, 18), 9, np.uint8))
    svt = build_svt(vol)
    px, py, pz = (
        rng.uniform(0, vol.dims.x, 200),
        rng.uniform(0, vol.dims.y, 200),
        rng.uniform(0, vol.dims.z, 200),
    )
    np.testing.assert_array_equal(sample_trilinear_many(svt, px, py, pz), 9.0)


def test_trilinear_midpoint_between_voxels():
    data = np.zeros((4, 4, 4), np.uint8)
    data[0, 0, 0] = 0
    data[0, 0, 1] = 10
    svt = build_svt(make_volume(data))
    assert sample_trilinear(svt, (1.0, 0.5, 0.5)) == 5.0


def test_trilinear_matches_dense_oracle(rng):
    total = 0
    for trial in range(12):
        fmt = VoxelFormat.U8 if trial % 2 == 0 else VoxelFormat.F32
        vol = random_volume(rng, max_dim=64, fmt=fmt, fill=rng.uniform(0.005, 0.6))
        svt = build_svt(vol)
        px, py, pz = positions_with_seams(rng, vol.dims, 2000)
        got = sample_trilinear_many(svt, px, py, pz)
        want = reference_trilinear_dense(vol.data, px, py, pz)
        np.testing.assert_array_equal(got, want)
        total += len(px)
    assert total >= 20_000


def test_trilinear_border_of_empty_tile_exact():
    # Resident tile at x<16, empty tile at x>=16; positions within half a
    # voxel of the seam on the empty side still see the neighbor's values.
    data = np.zeros((16, 16, 32), np.uint8)
    data[:, :, 15] = 200  # last voxel column of the resident tile
    vol = make_volume(data)
    svt = build_svt(vol)
    assert svt.stats.nonempty_tile_count[0] == 1
    for x in (15.5, 15.9, 16.0, 16.2, 16.499999, 16.5):
        got = sample_trilinear(svt, (x, 8.0, 8.0))
        want = float(reference_trilinear_dense(vol.data, np.float64(x), 8.0, 8.0))
        assert got == want, x
    assert sample_trilinear(svt, (16.5, 8.0, 8.0)) == 0.0
    assert sample_trilinear(svt, (16.0, 8.0, 8.0)) == 100.0


def test_trilinear_same_value_from_both_sides_of_seam(rng):
    data = np.where(
        rng.random((40, 40, 40)) < 0.5, rng.integers(1, 256, (40, 40, 40)), 0
    ).astype(np.uint8)
    vol = make_volume(data)
    svt = build_svt(vol)
    d = vol.dims
    seam = 16.0
    py = rng.uniform(0, d.y, 64)
    pz = rng.uniform(0, d.z, 64)
    on_seam = sample_trilinear_many(svt, np.full(64, seam), py, pz)
    eps = 1e-6
    below = sample_trilinear_many(svt, np.full(64, seam - eps), py, pz)
    above = sample_trilinear_many(svt, np.full(64, seam + eps), py, pz)
    # Gradient of u8 trilinear data is bounded by 255 per axis, so a 1e-6
    # step can move the value by at most ~8e-4.
    np.testing.assert_allclose(below, on_seam, atol=255 * 3 * eps)
    np.testing.assert_allclose(above, on_seam, atol=255 * 3 * eps)


def test_mip_sampling_matches_downsampled_dense(rng):
    """Inside every level, and at and past its faces (edge_positions), bit
    for bit against the reference mip chain; the f32 volume has mips 0-4."""
    f32 = rng.standard_normal((37, 45, 70)).astype(np.float32)
    for vol, cfg in (
        (random_volume(rng, max_dim=64, fill=0.4), SvtConfig()),
        (make_volume(np.where(f32 > 1.0, f32, 0), VoxelFormat.F32), SvtConfig(tile_size=8)),
    ):
        svt = build_svt(vol, cfg)
        levels = reference_mip_chain(vol, cfg)
        assert len(levels) == svt.mip_count
        for mip, level in enumerate(levels):
            d = level.dims
            n = 500
            px = rng.uniform(0, d.x, n) * (1 << mip)
            py = rng.uniform(0, d.y, n) * (1 << mip)
            pz = rng.uniform(0, d.z, n) * (1 << mip)
            edges = edge_positions(rng, d, 1 << mip)
            px, py, pz = (np.concatenate([p, e]) for p, e in zip((px, py, pz), edges))
            got = sample_trilinear_many(svt, px, py, pz, mip)
            with np.errstate(invalid="ignore"):  # the int64 cast of NaN rows
                want = reference_trilinear_dense(
                    level.data, px / (1 << mip), py / (1 << mip), pz / (1 << mip)
                )
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert svt.mip_count >= 3


def test_mip_out_of_range():
    svt = build_svt(make_volume(np.ones((16, 16, 16), np.uint8)))
    with pytest.raises(ValueError):
        sample_trilinear(svt, (1, 1, 1), mip=svt.mip_count)


def test_scalar_wrappers_match_batch(rng):
    vol = random_volume(rng, max_dim=32, fill=0.3)
    svt = build_svt(vol)
    pos = (3.7, 2.1, 5.9)
    assert sample_trilinear(svt, pos) == sample_trilinear_many(
        svt, np.asarray([pos[0]]), np.asarray([pos[1]]), np.asarray([pos[2]])
    )[0]
    assert sample_nearest(svt, pos) == sample_nearest_many(
        svt, np.asarray([pos[0]]), np.asarray([pos[1]]), np.asarray([pos[2]])
    )[0]


def seam_positions(rng, svt, mip, n):
    """n mip-0 positions around one mip level: half of each axis's
    coordinates on or half a voxel off its tile seams and last voxel layers,
    the rest uniform with a margin outside the volume, plus NaN rows."""
    scale = float(1 << mip)
    ts = svt.config.tile_size
    dims = svt.mip_dims(mip)
    axes = []
    for extent in (dims.x, dims.y, dims.z):
        p = rng.uniform(-2.0, extent + 2.0, n)
        seams = np.arange(0, extent + ts, ts, dtype=np.float64)
        on = rng.random(n) < 0.5
        offsets = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n)
        p[on] = rng.choice(seams, size=int(on.sum())) + offsets[on]
        p[-3:] = [np.nan, np.nan, 0.0]
        axes.append(p * scale)
    axes[0][-1] = np.nan  # one row NaN on a single axis
    return axes


def test_sampling_is_bit_identical_to_reference():
    """The footprint-table sampler against the per-voxel gather it replaced:
    u8/f32, tile 2-16, pad 1-2, empty_value 0/3/-1.5/200, threshold 0/0.25,
    densities 0-1, every mip, compared as float64 bit patterns."""
    rng = np.random.default_rng(606)
    compared = 0
    for _ in range(300):
        vol, cfg = random_build_case(rng, max_fill=1.0)
        svt = build_svt(vol, cfg)
        for mip in range(svt.mip_count):
            px, py, pz = seam_positions(rng, svt, mip, 96)
            with np.errstate(invalid="ignore"):
                pairs = (
                    (sample_trilinear_many, reference_sample_trilinear_many),
                    (sample_nearest_many, reference_sample_nearest_many),
                )
                for fn, ref in pairs:
                    got, want = fn(svt, px, py, pz, mip), ref(svt, px, py, pz, mip)
                    assert got.dtype == want.dtype == np.float64
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                    compared += 1
    assert compared >= 1000


def test_each_texture_samples_its_own_atlas(rng):
    # Textures built and dropped in a loop can reuse object ids; each must
    # still read its own page tables and atlas.
    for _ in range(50):
        vol = random_volume(rng, max_dim=24, fill=rng.uniform(0.01, 0.3))
        svt = build_svt(vol, SvtConfig(tile_size=4))
        px, py, pz = positions_with_seams(rng, vol.dims, 64)
        got = sample_trilinear_many(svt, px, py, pz)
        np.testing.assert_array_equal(got, reference_trilinear_dense(vol.data, px, py, pz))
        del svt


def test_first_read_from_many_threads_expands_once(tmp_path, rng, monkeypatch):
    # A freshly loaded texture holds its records; four threads that sample
    # it at once must expand them once and all read that one atlas.
    vol = random_volume(rng, max_dim=48, fmt=VoxelFormat.F32, fill=0.2)
    svt = build_svt(vol, SvtConfig(tile_size=4))
    path = tmp_path / "t.svtf"
    save_svtf(svt, path)
    loaded = load_svtf(path)

    expand, expansions = svtf.svt._expand, []

    def slow_expand(held):
        expansions.append(held)
        time.sleep(0.05)  # widen the window in which a second read could start
        return expand(held)

    monkeypatch.setattr(svtf.svt, "_expand", slow_expand)
    positions = [positions_with_seams(rng, vol.dims, 2000) for _ in range(4)]
    start = threading.Barrier(4)
    atlases, samples = [None] * 4, [None] * 4

    def work(i):
        start.wait(timeout=30)
        samples[i] = sample_trilinear_many(loaded, *positions[i])
        atlases[i] = loaded.atlas.data

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(expansions) == 1
    assert all(atlas is atlases[0] for atlas in atlases)
    for got, (px, py, pz) in zip(samples, positions):
        want = reference_sample_trilinear_many(svt, px, py, pz)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dense_lookup_is_bit_identical_to_reference():
    """trilinear_dense against the 3-D fancy-index lookup it replaced: scalar
    and RGB grids, one-voxel axes, u8/f32/f64 values, positions on voxel
    centres and faces, outside the grid, and NaN. trilinear_dense reads the
    grid with a one-voxel edge-copy border on every face. RGB grids go in
    channel-first and come out as (3, n): the reference's (z, y, x, 3) grid
    and (n, 3) result, transposed."""
    rng = np.random.default_rng(909)
    for trial in range(120):
        nz, ny, nx = rng.integers(1, 9, 3)
        shape = (nz, ny, nx) if trial % 2 else (nz, ny, nx, 3)
        dtype = (np.uint8, np.float32, np.float64)[trial % 3]
        arr = (rng.random(shape) * 255).astype(dtype)
        n = 200
        axes = []
        for extent in (nx, ny, nz):
            p = rng.uniform(-2.0, extent + 2.0, n)
            p[: n // 2] = rng.integers(-1, 2 * extent + 2, n // 2) / 2.0
            axes.append(p)
        axes[trial % 3][-1] = np.nan
        with np.errstate(invalid="ignore"):
            if arr.ndim == 3:
                got = trilinear_dense(np.pad(arr, 1, mode="edge"), *axes)
                want = reference_trilinear_dense(arr, *axes)
            else:
                planes = np.pad(np.moveaxis(arr, -1, 0), [(0, 0)] + [(1, 1)] * 3, mode="edge")
                got = trilinear_dense(planes, *axes)
                want = reference_trilinear_dense(arr, *axes).T
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _gradient():
    """A 1..20 f32 gradient along x, at tile 4: the x = 0 edge reads 1.0,
    the far edge 20.0."""
    data = np.broadcast_to(np.arange(1, 21, dtype=np.float32), (6, 6, 20)).copy()
    return build_svt(make_volume(data, VoxelFormat.F32), SvtConfig(tile_size=4))


def test_far_positions_read_the_clamped_edge_without_a_warning():
    """Trilinear reads the clamped edge, nearest the empty value (the
    positions lie outside), NaN reads NaN and the empty value, and neither
    sampler warns, at mips 0 and 1. At every mip of the gradient and of
    random builds, positions at and past every face (edge_positions) read
    as the reference samplers do, bit for bit, without a warning."""
    x = np.array([2.0**63, 1e19, np.inf, 2.0**62, 1e6, -(2.0**63), -np.inf, np.nan])
    yz = np.full(len(x), 1.5)
    svt = _gradient()
    for mip, (far, near) in ((0, (20.0, 1.0)), (1, (19.5, 1.5))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample_trilinear_many(svt, x, yz, yz, mip)
            nearest = sample_nearest_many(svt, x, yz, yz, mip)
        assert got[:7].tolist() == [far] * 5 + [near] * 2 and np.isnan(got[7])
        assert nearest.tolist() == [0.0] * len(x)
    rng = np.random.default_rng(4242)
    builds = [svt] + [build_svt(*random_build_case(rng, max_fill=0.5)) for _ in range(6)]
    for svt in builds:
        for mip in range(svt.mip_count):
            d = svt.mip_dims(mip)
            p = edge_positions(rng, d, 1 << mip)
            pairs = (
                (sample_trilinear_many, reference_sample_trilinear_many),
                (sample_nearest_many, reference_sample_nearest_many),
            )
            for fn, ref in pairs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = fn(svt, *p, mip)
                with np.errstate(invalid="ignore"):  # the reference's int64 casts
                    want = ref(svt, *p, mip)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_far_cache_positions_read_the_clamped_edge_without_a_warning():
    """IlluminationCache.sample_incident clamps positions as the sparse
    samplers do (sample.far_clamped): on a 4x2x2 cache whose x-ramp reads
    0.0 to 3.0, far and infinite x read the edge, NaN reads NaN, and
    nothing warns. Positions at and past every face of random caches
    (edge_positions) read as reference_incident does, bit for bit."""
    ramp = np.broadcast_to(np.arange(4.0)[None, None, :, None], (2, 2, 4, 3))
    cache = IlluminationCache(downsample_factor=2, values=ramp)
    x = np.array([1e19, np.inf, 2.0**63, 1e6, -1e19, -np.inf, -(2.0**63), np.nan])
    yz = np.full(len(x), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cache.sample_incident(x, yz, yz)
    assert (got[:, :4] == 3.0).all() and (got[:, 4:7] == 0.0).all() and np.isnan(got[:, 7]).all()
    rng = np.random.default_rng(2727)
    for factor in (1, 2, 3, 4):
        dims = rng.integers(1, 7, 3)
        cache = IlluminationCache(factor, rng.uniform(0.0, 2.0, (*dims, 3)))
        p = edge_positions(rng, cache.dims, factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cache.sample_incident(*p)
        with np.errstate(invalid="ignore"):  # the reference's int64 casts of NaN
            want = reference_incident(cache, *p).T
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_dead_footprint_at_a_low_face_indexes_below_zero():
    """trilinear_footprint's flat index is negative wherever its base is
    NO_TILE, at positions within half a voxel of each low face, whose base
    corner is -1 or 0: NO_TILE plus a negative corner offset must not wrap
    into the atlas. Live rows index inside it."""
    data = np.zeros((12, 10, 14), np.uint8)
    data[-1, -1, -1] = data[0, 0, 0] = 9
    svt = build_svt(make_volume(data), SvtConfig(tile_size=4))
    rng = np.random.default_rng(31)
    dead_rows = live_rows = 0
    for mip in range(svt.mip_count):
        d, scale = svt.mip_dims(mip), float(1 << mip)
        for axis in range(3):
            p = [rng.uniform(0.0, n, 300) * scale for n in (d.x, d.y, d.z)]
            p[axis] = rng.uniform(-0.5, 0.5, 300) * scale
            fp = trilinear_footprint(svt, *p, mip)
            dead = fp.base == NO_TILE
            assert (fp.flat[dead] < 0).all()
            assert ((fp.flat[~dead] >= 0) & (fp.flat[~dead] < svt.atlas.data.size)).all()
            dead_rows += int(dead.sum())
            live_rows += int((~dead).sum())
    assert dead_rows > 1000 and live_rows > 100


@pytest.mark.parametrize("pos", [(np.inf, 1.5, 1.5), (np.nan, 1, 1), (1, 1, -np.inf)])
@pytest.mark.parametrize("sample", [sample_trilinear, sample_nearest])
def test_a_non_finite_position_is_a_value_error(sample, pos):
    with pytest.raises(ValueError, match="not finite"):
        sample(_gradient(), pos)
