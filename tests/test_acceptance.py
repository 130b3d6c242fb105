"""End-to-end acceptance checks, one test per criterion, each with its
stated tolerance and runtime budget."""

import itertools
import math
import os
import time

import numpy as np
import pytest
from conftest import (
    brute_force_residency,
    make_volume,
    random_volume,
    reference_trilinear_dense,
)

import svtf
from svtf import (
    Camera,
    ChunkSplit,
    DirectionalLight,
    PlanInputs,
    RenderParams,
    SvtConfig,
    TransferFunction,
    VolumeDims,
    VoxelFormat,
    apply_upload,
    atlas_extent_estimate,
    border_artifact_metric,
    build_illumination_cache,
    build_svt,
    check_overflow,
    int32_regression_probe,
    parse_segy,
    raymarch,
    render_chunked,
    serialize_upload,
    upload_buffer_bytes,
    write_segy,
)
from svtf.cli import main
from svtf.errors import AtlasCapacityExceeded
from svtf.planner import derive_tile_counts
from svtf.sample import corner_index, sample_trilinear_many
from svtf.svt import (
    NO_TILE,
    _tile_base,
    mip_level_count,
    mip_level_dims,
    slot_grid_for,
    tile_grid_dims,
)
from svtf.upload import UploadBuffer

GI = 2**30


class timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"took {self.elapsed:.2f}s, budget {self.budget}s"
            )


def test_c01_plan_net_payload(capsys):
    with timer(1.0):
        code = main(["plan", "--extent", "2048", "--tile", "16", "--pad", "1"])
    assert code == 0
    out = capsys.readouterr().out
    gi = float(next(l for l in out.splitlines() if l.startswith("net_payload_givoxels")).split()[-1])
    assert abs(gi - 4.90) <= 0.05
    raw = int(next(l for l in out.splitlines() if l.startswith("net_payload_voxels")).split()[-1])
    assert abs(raw - 5.279e9) / 5.279e9 < 0.001


def test_c02_survey_upload_bytes():
    with timer(1.0):
        got = upload_buffer_bytes(2_600_000_000, 1, SvtConfig())
    assert abs(got - 4.2318432e9) / 4.2318432e9 < 0.005


def test_c03_overflow_guards():
    with timer(1.0):
        survey = check_overflow(
            PlanInputs(config=SvtConfig(), nonempty_voxels=2_600_000_000, bytes_per_voxel=1)
        )
        dense = check_overflow(
            PlanInputs(
                config=SvtConfig(), nonempty_voxels=2340 * 2340 * 177, bytes_per_voxel=4
            )
        )
    assert survey.fits_int32_index is False
    assert survey.fits_uint32_upload is True
    assert dense.fits_uint32_upload is False
    assert abs(dense.upload_buffer_bytes / GI - 5.87) <= 0.1


def test_c04_occupancy_breakeven():
    with timer(1.0):
        report = check_overflow(PlanInputs(config=SvtConfig(), bytes_per_voxel=1))
    assert abs(report.occupancy_breakeven - 0.50) <= 0.02


def test_c05_atlas_extent_estimate():
    with timer(1.0):
        counts = derive_tile_counts(
            2_600_000_000, SvtConfig(), mean_tile_occupancy=0.70
        )
        extent = atlas_extent_estimate(counts, SvtConfig())
    assert abs(extent - 1872) / 1872 <= 0.05


def test_c06_desk_scale_oracle_suite():
    rng = np.random.default_rng(60001)
    positions_checked = 0
    with timer(120.0):
        for trial in range(100):
            fmt = VoxelFormat.U8 if trial % 2 == 0 else VoxelFormat.F32
            fill = float(rng.uniform(0.0, 0.7)) if trial % 7 else 0.0
            vol = random_volume(rng, max_dim=64, fmt=fmt, fill=fill)
            tex = build_svt(vol)

            # (a) build -> serialize -> apply reproduces the atlas exactly
            atlas = apply_upload(serialize_upload(tex), tex.config, tex.mips)
            np.testing.assert_array_equal(atlas.data, tex.atlas.data)

            # (c) page-table residency matches brute-force emptiness
            resident = tex.mips[0].entries != svtf.svt.EMPTY_ENTRY
            np.testing.assert_array_equal(
                resident, brute_force_residency(vol, tex.config.tile_size)
            )

            # (b) trilinear equals the dense oracle, tile seams included
            d = vol.dims
            n = 1000
            px = rng.uniform(-2.0, d.x + 2.0, n)
            py = rng.uniform(-2.0, d.y + 2.0, n)
            pz = rng.uniform(-2.0, d.z + 2.0, n)
            seams = np.arange(0, d.x + 1, 16, dtype=np.float64)
            px[: n // 3] = rng.choice(seams, n // 3) + rng.choice(
                [0.0, -0.5, 0.5], n // 3
            )
            got = sample_trilinear_many(tex, px, py, pz)
            want = reference_trilinear_dense(vol.data, px, py, pz)
            np.testing.assert_array_equal(got, want)
            positions_checked += n
    assert positions_checked >= 100_000


def test_c07_analytic_rendering_checks():
    with timer(30.0):
        # Uniform self-emissive slab vs the closed-form integral.
        n, sigma, emission = 32, 0.1, 0.5
        tex = build_svt(make_volume(np.full((n, n, n), 255, np.uint8)))
        tf = TransferFunction.grayscale(density_scale=sigma, emission_scale=emission)
        cache = build_illumination_cache(tex, tf, [])
        camera = Camera(
            eye=(n / 2, n / 2, -10.0), look_at=(n / 2, n / 2, n / 2),
            width=8, height=8, ortho_height=n / 4,
        )
        img = raymarch(tex, cache, tf, RenderParams(camera=camera, max_step_count=512))
        analytic = emission / sigma * (1.0 - math.exp(-sigma * n))
        got = float(img[4, 4, 0])
        assert abs(got - analytic) / analytic < 0.01

        # Illumination-cache transmittance vs Beer-Lambert.
        lit = build_illumination_cache(
            tex, tf, [DirectionalLight(direction=(1, 0, 0))],
            downsample_factor=4, shadow_steps=64,
        )
        for ix in range(lit.dims.x):
            depth = (ix + 0.5) * 4.0
            want = math.exp(-sigma * depth)
            got = float(lit.values[4, 4, ix, 0])
            assert abs(got - want) / want < 1e-3


def test_c08_chunk_border_artifact():
    with timer(60.0):
        n = 64
        volume = make_volume(np.full((n, n, n), 255, np.uint8))
        tf = TransferFunction.grayscale(density_scale=0.15, emission_scale=1.0)
        camera = Camera(
            eye=(n / 2, n / 2, -20.0), look_at=(n / 2, n / 2, n / 2),
            width=n, height=n, ortho_height=float(n),
        )
        params = RenderParams(camera=camera, max_step_count=128)
        light = [DirectionalLight(direction=(1.0, 0.0, 0.0))]
        split = ChunkSplit(axis="x", count=2)

        indep = render_chunked(volume, split, "independent", light, tf, params, shadow_steps=32)
        unified = render_chunked(volume, split, "unified", light, tf, params, shadow_steps=32)
        metric = border_artifact_metric(indep, unified, split, 4, camera, volume.dims)
        assert metric.ratio > 2.0

        # Unified lighting is split-agnostic: bit-identical for any count.
        for axis, count in (("x", 1), ("x", 3), ("y", 2), ("z", 5)):
            other = render_chunked(
                volume, ChunkSplit(axis=axis, count=count), "unified", light, tf, params,
                shadow_steps=32,
            )
            np.testing.assert_array_equal(other, unified)


def test_c09_int32_regression_probe():
    with timer(1.0):
        below64, below32 = int32_regression_probe(2**31 - 1)
        at64, at32 = int32_regression_probe(2**31)
        survey64, survey32 = int32_regression_probe(2_600_000_000)
    assert (below64, below32) == (2**31 - 1, 2**31 - 1)
    assert at64 == 2**31 and at32 == -(2**31)
    assert survey64 == 2_600_000_000 and survey32 < 0


def test_c09_addressing_stays_inside_int64_and_the_uint32_flag_flips_at_2_32():
    # The footprint-table base (svt._tile_base) and the flat corner index
    # (sample.corner_index), evaluated in Python ints at the largest slot
    # count each config allows (slot_grid_for raises one past it) and at the
    # corner tiles and padded-block voxels of a 32768 x 32768 x 16384 volume,
    # with the corners -1 and n past the faces, which lie in the border. A
    # dead footprint's index, NO_TILE plus the least or greatest corner
    # offset, stays negative and inside int64. Nothing here allocates an array.
    dims = VolumeDims(32768, 32768, 16384)
    configs = [
        SvtConfig(), SvtConfig(tile_size=8),
        SvtConfig(tile_size=16, max_atlas_extent=1024 * 18),  # the 2^10 field cap
        SvtConfig(tile_size=254, pad=1, max_atlas_extent=1024 * 256),
    ]
    with timer(5.0):
        for config in configs:
            ts, pad, span = config.tile_size, config.pad, config.padded_size
            slots = config.max_slots_per_axis**3
            slot_grid_for(slots, config)
            with pytest.raises(AtlasCapacityExceeded):
                slot_grid_for(slots + 1, config)
            for mip in (0, mip_level_count(dims, ts) - 1):
                level = mip_level_dims(dims, mip)
                tiles = tile_grid_dims(level, ts)
                least = corner_index(NO_TILE, -1, -1, -1, span)
                greatest = corner_index(NO_TILE, level.x, level.y, level.z, span)
                assert -(2**63) <= least < greatest < 0
                for slot in (0, slots - 1):
                    for tx, ty, tz in itertools.product(
                        {0, tiles.x - 1}, {0, tiles.y - 1}, {0, tiles.z - 1}
                    ):
                        base = _tile_base(slot, tx, ty, tz, config)
                        assert -(2**63) < base < 2**63
                        # Each voxel of the tile's padded block, clamped to the level,
                        # and a face tile's corners -1 and n, which lie in its border.
                        corners = [
                            {min(max(t * ts - pad + k, 0), n - 1) for k in (0, pad, span - 1)}
                            | ({-1} if t == 0 else set()) | ({n} if t == g - 1 else set())
                            for t, n, g in (
                                (tx, level.x, tiles.x), (ty, level.y, tiles.y),
                                (tz, level.z, tiles.z),
                            )
                        ]
                        for x, y, z in itertools.product(*corners):
                            assert z * span * span + y * span + x < 2**63
                            flat = corner_index(base, x, y, z, span)
                            assert slot * span**3 <= flat < (slot + 1) * span**3 <= 2**63
        for size, flag in ((2**32 - 1, False), (2**32, True), (2**32 + 1, True)):
            buffer = UploadBuffer(
                config=SvtConfig(), format=VoxelFormat.U8,
                records=np.broadcast_to(np.uint8(0), (size,)),
                tile_data_offsets=np.zeros(0, np.uint64), windows=[],
            )
            assert buffer.total_bytes == size and buffer.exceeds_uint32 is flag


def test_c10_segy_roundtrip_and_ibm_oracle(tmp_path):
    rng = np.random.default_rng(60010)
    with timer(30.0):
        for fmt_code in (1, 5):
            data = rng.integers(-1000, 1000, size=(5, 6, 7)).astype(np.float32)
            vol = make_volume(data, VoxelFormat.F32)
            first = tmp_path / f"a{fmt_code}.sgy"
            second = tmp_path / f"b{fmt_code}.sgy"
            write_segy(first, vol, format_code=fmt_code)
            _, parsed = parse_segy(first)
            np.testing.assert_array_equal(parsed.data, vol.data)
            write_segy(second, parsed, format_code=fmt_code)
            assert first.read_bytes() == second.read_bytes()

        words = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint64).astype(np.uint32)
        got = svtf.ibm_to_ieee(words)
        # Independent formula: 16^(e-64) built by exact power-of-two scaling,
        # separate multiplies (not the scale table the implementation uses).
        sign = np.where(words >> np.uint32(31) != 0, -1.0, 1.0)
        e = ((words >> np.uint32(24)) & np.uint32(0x7F)).astype(np.int64)
        frac = (words & np.uint32(0xFFFFFF)).astype(np.float64)
        want = sign * frac * np.ldexp(1.0, 4 * (e - 64)) / float(2**24)
        np.testing.assert_array_equal(got, want)


def test_c11_performance_smoke():
    rng = np.random.default_rng(60011)
    z, y, x = np.meshgrid(
        np.arange(256), np.arange(256), np.arange(256), indexing="ij", sparse=True
    )
    surface = 96 + 20 * np.sin(x / 40.0) + 10 * np.cos(y / 30.0)
    data = np.where(
        z > surface, (64 + 180 * rng.random((256, 256, 256))).astype(np.uint8), 0
    ).astype(np.uint8)
    vol = make_volume(data)
    threads = min(8, os.cpu_count() or 1)
    with timer(60.0):
        tex = build_svt(vol)
        tf = TransferFunction.grayscale(density_scale=0.5, emission_scale=0.6)
        cache = build_illumination_cache(
            tex, tf, [DirectionalLight(direction=(0.3, -0.5, 0.8))],
            downsample_factor=4, shadow_steps=32,
        )
        params = RenderParams(
            camera=Camera(
                eye=(128, 128, -300), look_at=(128, 128, 128), width=512, height=512
            ),
            max_step_count=512,
        )
        img = raymarch(tex, cache, tf, params, threads=threads)
    assert img.shape == (512, 512, 3)
    assert img.max() > 0
