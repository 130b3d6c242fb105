import dataclasses
import fractions
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from conftest import (
    footprint_touches_resident,
    make_volume,
    reference_classify,
    reference_illumination_cache,
    reference_mip_chain,
    reference_ray_aabb,
    reference_raymarch,
    reference_trilinear_dense,
)

from svtf import (
    Camera,
    DirectionalLight,
    IlluminationCache,
    PointLight,
    RenderParams,
    SvtConfig,
    TransferFunction,
    VolumeDims,
    VoxelFormat,
    build_illumination_cache,
    build_svt,
    load_svtf,
    raymarch,
    save_svtf,
    write_image,
)
from svtf import render
from svtf.render import _cut_keeps, _hidden, _live_box, _ray_aabb, _schedule
from svtf.sample import trilinear_footprint
from svtf.svt import NO_TILE


def uniform_slab(n=32, value=255):
    return build_svt(make_volume(np.full((n, n, n), value, np.uint8)))


def ortho_camera(n=32, width=8, height=8):
    return Camera(
        eye=(n / 2, n / 2, -10.0),
        look_at=(n / 2, n / 2, n / 2),
        up=(0.0, 1.0, 0.0),
        width=width,
        height=height,
        ortho_height=n / 4,  # stay well inside the lateral faces
    )


def test_cache_zero_density_full_transmittance():
    svt = build_svt(make_volume(np.zeros((32, 32, 32), np.uint8)))
    tf = TransferFunction.grayscale()
    cache = build_illumination_cache(
        svt, tf, [DirectionalLight(direction=(1, 0, 0))], downsample_factor=4
    )
    assert cache.dims.as_zyx() == (8, 8, 8)
    np.testing.assert_array_equal(cache.values, 1.0)


def test_cache_no_lights_all_zero():
    svt = uniform_slab()
    tf = TransferFunction.grayscale()
    cache = build_illumination_cache(svt, tf, [])
    assert not cache.values.any()


def test_cache_beer_lambert_uniform_extinction():
    sigma = 0.05
    svt = uniform_slab()
    tf = TransferFunction.grayscale(density_scale=sigma)
    cache = build_illumination_cache(
        svt, tf, [DirectionalLight(direction=(1, 0, 0))], downsample_factor=4,
        shadow_steps=64,
    )
    xs = (np.arange(8) + 0.5) * 4.0  # cache voxel centers, also the depth t
    for ix, t in enumerate(xs):
        got = cache.values[4, 4, ix, 0]
        want = math.exp(-sigma * t)
        assert abs(got - want) / want < 1e-3


def test_cache_light_additivity():
    svt = uniform_slab(16)
    tf = TransferFunction.grayscale(density_scale=0.1)
    a = DirectionalLight(direction=(1, 0, 0), intensity=(1.0, 0.5, 0.25))
    b = PointLight(position=(8.0, 8.0, -4.0), radius=10.0, intensity=(0.2, 0.4, 0.8))
    both = build_illumination_cache(svt, tf, [a, b])
    only_a = build_illumination_cache(svt, tf, [a])
    only_b = build_illumination_cache(svt, tf, [b])
    np.testing.assert_array_equal(both.values, only_a.values + only_b.values)


def test_cache_values_always_show_the_light_it_samples():
    light = DirectionalLight(direction=(1, 0, 0))
    built = build_illumination_cache(uniform_slab(16), TransferFunction.grayscale(), [light])
    assert np.shares_memory(built.values, built.planes)  # no second copy
    given = np.arange(4 * 4 * 4 * 3, dtype=np.float64).reshape(4, 4, 4, 3)
    cache = IlluminationCache(downsample_factor=4, values=given)
    at = np.asarray([6.0]), np.asarray([2.0]), np.asarray([10.0])
    before = cache.sample_incident(*at).copy()
    given += 1.0  # the cache copied the caller's array
    for c in (built, cache):
        with pytest.raises(ValueError, match="read-only"):
            c.values[0, 0, 0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.values = np.zeros_like(c.values)
        np.testing.assert_array_equal(c.values, np.moveaxis(c.planes, 0, -1))
    np.testing.assert_array_equal(cache.values, given - 1.0)
    np.testing.assert_array_equal(cache.sample_incident(*at), before)
    np.testing.assert_array_equal(before[:, 0], given[2, 0, 1] - 1.0)


def test_cache_dims_are_read_off_its_values():
    cache = IlluminationCache(downsample_factor=4, values=np.zeros((8, 6, 5, 3)))
    assert cache.dims == VolumeDims(5, 6, 8)
    with pytest.raises(TypeError, match="dims"):
        IlluminationCache(dims=VolumeDims(1, 1, 1), downsample_factor=4, values=cache.values)


def test_raymarch_empty_volume_is_background():
    svt = build_svt(make_volume(np.zeros((32, 32, 32), np.uint8)))
    tf = TransferFunction.grayscale()
    cache = build_illumination_cache(svt, tf, [])
    params = RenderParams(camera=ortho_camera(), max_step_count=64,
                          background=(0.25, 0.5, 0.75))
    img = raymarch(svt, cache, tf, params)
    np.testing.assert_array_equal(img, np.broadcast_to((0.25, 0.5, 0.75), img.shape))


def test_raymarch_miss_is_background():
    svt = uniform_slab()
    tf = TransferFunction.grayscale()
    cache = build_illumination_cache(svt, tf, [])
    camera = Camera(eye=(200.0, 200.0, -10.0), look_at=(200.0, 200.0, 10.0),
                    width=4, height=4, ortho_height=4.0)
    params = RenderParams(camera=camera, max_step_count=16, background=(1.0, 0.0, 0.0))
    img = raymarch(svt, cache, tf, params)
    np.testing.assert_array_equal(img, np.broadcast_to((1.0, 0.0, 0.0), img.shape))


def slab_pixel(steps, sigma=0.1, emission=0.5, n=32):
    svt = uniform_slab(n)
    tf = TransferFunction.grayscale(density_scale=sigma, emission_scale=emission)
    cache = build_illumination_cache(svt, tf, [])  # no lights: pure emission
    params = RenderParams(camera=ortho_camera(n), max_step_count=steps)
    img = raymarch(svt, cache, tf, params)
    center = img[img.shape[0] // 2, img.shape[1] // 2]
    assert np.ptp(img) < 1e-9  # orthographic uniform slab: flat image
    return float(center[0])


def test_slab_analytic_emission_absorption():
    sigma, emission, n = 0.1, 0.5, 32
    analytic = emission / sigma * (1.0 - math.exp(-sigma * n))
    got = slab_pixel(512, sigma, emission, n)
    assert abs(got - analytic) / analytic < 0.01


def test_step_count_error_monotone():
    sigma, emission, n = 0.1, 0.5, 32
    analytic = emission / sigma * (1.0 - math.exp(-sigma * n))
    errors = [abs(slab_pixel(s, sigma, emission, n) - analytic) for s in (32, 128, 512)]
    assert errors[0] > errors[1] > errors[2]


def test_halving_steps_converges_monotonically():
    sigma, emission, n = 0.2, 1.0, 32
    analytic = emission / sigma * (1.0 - math.exp(-sigma * n))
    values = [slab_pixel(s, sigma, emission, n) for s in (16, 32, 64, 128)]
    assert all(a < b for a, b in zip(values, values[1:]))  # from below
    assert all(v < analytic for v in values)


def test_cache_lifts_brightness():
    svt = uniform_slab()
    tf = TransferFunction.grayscale(density_scale=0.05, emission_scale=0.3)
    dark = build_illumination_cache(svt, tf, [])
    lit = build_illumination_cache(svt, tf, [DirectionalLight(direction=(0, 0, 1))])
    params = RenderParams(camera=ortho_camera(), max_step_count=128)
    img_dark = raymarch(svt, dark, tf, params)
    img_lit = raymarch(svt, lit, tf, params)
    assert (img_lit > img_dark).all()


def test_cut_plane_culling_everything_matches_empty():
    svt = uniform_slab()
    tf = TransferFunction.grayscale(density_scale=0.1, emission_scale=1.0)
    cache = build_illumination_cache(svt, tf, [])
    base = RenderParams(camera=ortho_camera(), max_step_count=64,
                        background=(0.1, 0.2, 0.3))
    culled = RenderParams(camera=ortho_camera(), max_step_count=64,
                          background=(0.1, 0.2, 0.3),
                          cut_plane=((1.0, 0.0, 0.0), -1e6))
    img = raymarch(svt, cache, tf, culled)
    np.testing.assert_array_equal(img, np.broadcast_to((0.1, 0.2, 0.3), img.shape))
    # and a half-space cut keeps exactly the visible half bright
    half = RenderParams(camera=ortho_camera(32, 16, 16), max_step_count=64,
                        cut_plane=((1.0, 0.0, 0.0), -16.0))
    img_half = raymarch(svt, cache, tf, half)
    lum = img_half.sum(axis=2)
    assert np.ptp(lum) > 0  # one side culled, one side lit


def test_window_hides_out_of_range_density():
    data = np.full((16, 16, 16), 40, np.uint8)  # u = 40/255 ~ 0.157
    svt = build_svt(make_volume(data))
    tf = TransferFunction.grayscale(density_scale=1.0, emission_scale=1.0,
                                    window=(0.5, 1.0))
    cache = build_illumination_cache(svt, tf, [])
    params = RenderParams(camera=ortho_camera(16), max_step_count=32,
                          background=(0.0, 0.0, 0.0))
    img = raymarch(svt, cache, tf, params)
    np.testing.assert_array_equal(img, 0.0)


def test_render_deterministic_and_thread_invariant(rng):
    data = np.where(
        rng.random((32, 32, 32)) < 0.3, rng.integers(1, 256, (32, 32, 32)), 0
    ).astype(np.uint8)
    svt = build_svt(make_volume(data))
    tf = TransferFunction.grayscale(density_scale=0.2, emission_scale=1.0)
    cache = build_illumination_cache(svt, tf, [DirectionalLight(direction=(1, 0, 0))])
    params = RenderParams(
        camera=Camera(eye=(16, 16, -40), look_at=(16, 16, 16), width=24, height=24),
        max_step_count=64,
    )
    a = raymarch(svt, cache, tf, params, threads=1)
    b = raymarch(svt, cache, tf, params, threads=1)
    c = raymarch(svt, cache, tf, params, threads=4)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_write_image_ppm_bytes(tmp_path):
    path = tmp_path / "black.ppm"
    write_image(np.zeros((1, 1, 3)), path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\x00\x00\x00"
    write_image(np.ones((1, 1, 3)), path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"
    write_image(np.full((1, 1, 3), 5.0), path)  # clamped
    assert path.read_bytes().endswith(b"\xff\xff\xff")


def test_write_image_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        write_image(np.zeros((1, 1, 3)), tmp_path / "no" / "such" / "dir" / "x.ppm")


def test_tf_lut_file_roundtrip(tmp_path):
    path = tmp_path / "tf.lut"
    lines = [f"{i} {255 - i} {i // 2} {i}" for i in range(256)]
    path.write_text("\n".join(lines) + "\n")
    tf = TransferFunction.from_lut_file(path, density_scale=2.0)
    assert tf.lut.shape == (256, 4)
    assert tf.lut[255, 0] == 1.0
    assert tf.lut[0, 1] == 1.0
    assert tf.density_scale == 2.0
    bad = tmp_path / "bad.lut"
    bad.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        TransferFunction.from_lut_file(bad)


# --- exact empty-space skipping ---


def sparse_volume(fmt, n=40, background=0):
    """n^3 (not tile-aligned) with a blob across tile seams, a few single
    voxels on tile faces, and empty tiles around them."""
    values = np.random.default_rng(11).uniform(0.25, 1.0, (n, n, n))
    if fmt is VoxelFormat.U8:
        values = np.rint(values * 255.0)
    occupied = np.zeros((n, n, n), dtype=bool)
    occupied[12:21, 14:19, 10:20] = True
    for z, y, x in ((31, 20, 5), (16, 2, 33), (39, 39, 39), (15, 31, 16)):
        occupied[z, y, x] = True
    return make_volume(np.where(occupied, values, background).astype(fmt.dtype), fmt)


def opaque_zero_lut():
    lut = TransferFunction.grayscale().lut.copy()
    lut[0, 3] = 0.2  # 0 is visible and absorbs unless the window hides it
    return lut


def glowing_zero_lut():
    lut = TransferFunction.grayscale().lut.copy()
    lut[0, :3] = 0.5  # 0 emits without absorbing
    return lut


def ct_lut():
    """A CT-style ramp: absorbs from entry 52 (0.2) up, emits from entry 1 up."""
    ramp = np.linspace(0.0, 1.0, 256)
    return np.stack([ramp, ramp, ramp, np.clip(ramp - 0.2, 0.0, 1.0)], axis=1)


def banded_lut(lo=90, hi=130):
    """Grayscale with entries lo..hi zeroed: a band inside the window that hides."""
    lut = TransferFunction.grayscale().lut.copy()
    lut[lo : hi + 1] = 0.0
    return lut


RENDER_CASES = {
    # name: (format, config, transfer function, lights, params, skipping on)
    "u8": (  # dense enough that rays terminate early
        VoxelFormat.U8, SvtConfig(),
        TransferFunction.grayscale(density_scale=2.0, emission_scale=0.8),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))], {}, True,
    ),
    "f32-cut-point-light": (
        VoxelFormat.F32, SvtConfig(),
        TransferFunction.grayscale(density_scale=0.4, emission_scale=0.6),
        [PointLight(position=(35.0, 45.0, 8.0), radius=20.0, intensity=(1.0, 0.8, 0.6))],
        {"cut_plane": ((0.6, 0.0, 0.8), -21.0)}, True,
    ),
    "u8-mip1": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction.grayscale(density_scale=0.3, emission_scale=0.8),
        [DirectionalLight(direction=(-1.0, 0.2, 0.1))], {"mip": 1}, True,
    ),
    "u8-nonzero-empty-value": (
        VoxelFormat.U8, SvtConfig(empty_value=5.0),
        TransferFunction.grayscale(density_scale=0.3, emission_scale=0.8),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))], {}, False,
    ),
    "u8-zero-absorbs": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction(opaque_zero_lut(), density_scale=0.05, emission_scale=0.8),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))], {}, False,
    ),
    "u8-zero-emits": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction(glowing_zero_lut(), density_scale=0.05, emission_scale=0.8),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))], {}, False,
    ),
    "u8-window-hides-zero": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction(opaque_zero_lut(), density_scale=0.05, emission_scale=0.8,
                         window=(0.1, 1.0)),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))], {}, True,
    ),
    "u8-zero-absorbs-cut": (  # the cut-away zeros would absorb, so they must be left out
        VoxelFormat.U8, SvtConfig(),
        TransferFunction(opaque_zero_lut(), density_scale=0.05, emission_scale=0.8),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))],
        {"cut_plane": ((-0.5, 0.3, 0.7), -6.0)}, False,
    ),
    "u8-mip1-cut": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction.grayscale(density_scale=0.3, emission_scale=0.8),
        [DirectionalLight(direction=(-1.0, 0.2, 0.1))],
        {"mip": 1, "cut_plane": ((0.2, -0.9, 0.4), 5.0)}, True,
    ),
    # Orthographic rays along +z sample z = i + 0.5 exactly, so the plane
    # z = 15.5 holds the blob's samples of step 15: >= 0 keeps them.
    "u8-cut-through-samples": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction.grayscale(density_scale=0.3, emission_scale=0.8),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))],
        {"camera": Camera(eye=(20.0, 18.0, -10.0), look_at=(20.0, 18.0, 20.0),
                          width=23, height=17, ortho_height=50.0),
         "cut_plane": ((0.0, 0.0, 1.0), -15.5)}, True,
    ),
    "u8-cut-hides-all": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction.grayscale(density_scale=0.3, emission_scale=0.8),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))],
        {"cut_plane": ((0.0, 1.0, 0.0), -100.0)}, True,
    ),
    # Every tile is resident (AIR); the window hides the air tiles, as in a CT scan.
    "f32-window-hides-air": (
        VoxelFormat.F32, SvtConfig(),
        TransferFunction(ct_lut(), density_scale=0.4, emission_scale=0.6, window=(0.1, 1.0)),
        [DirectionalLight(direction=(0.3, -0.5, 0.8)),
         PointLight(position=(35.0, 45.0, 8.0), radius=20.0, intensity=(1.0, 0.8, 0.6))],
        {"cut_plane": ((0.0, 0.0, 1.0), -16.0)}, True,
    ),
    # The air (AIR) lies in the LUT's zero band, inside the window.
    "u8-lut-band-hides-air": (
        VoxelFormat.U8, SvtConfig(),
        TransferFunction(banded_lut(), density_scale=0.3, emission_scale=0.8),
        [DirectionalLight(direction=(-1.0, 0.2, 0.1))], {}, True,
    ),
    "u8-window-hides-empty-value": (  # 5/255 lies below the window
        VoxelFormat.U8, SvtConfig(empty_value=5.0),
        TransferFunction.grayscale(density_scale=0.3, emission_scale=0.8, window=(0.1, 1.0)),
        [DirectionalLight(direction=(0.3, -0.5, 0.8))], {}, True,
    ),
}
# Cases whose empty voxels hold air instead of empty_value: seeded uniform
# noise in [lo, hi] (raw units), so that every tile is resident.
AIR = {"f32-window-hides-air": (0.004, 0.03), "u8-lut-band-hides-air": (100, 120)}
# Cases that hide what skipping did not hide before. Their last tiles along
# x hold only air or empty_value, so the hidden cells take in a face of the
# volume and the live box leaves it out.
HIDING = ["f32-window-hides-air", "u8-lut-band-hides-air", "u8-window-hides-empty-value"]


def case_volume(name, n=40):
    """A RENDER_CASES case's volume: sparse_volume over its empty value or its air."""
    fmt, config = RENDER_CASES[name][:2]
    background = config.empty_value
    if name in AIR:
        air = np.random.default_rng(12).uniform(*AIR[name], (n, n, n))
        background = np.rint(air) if fmt is VoxelFormat.U8 else air
    data = sparse_volume(fmt, n, background).data
    if name in HIDING:
        data[:, :, 32:] = np.broadcast_to(background, data.shape)[:, :, 32:]
    return make_volume(data, fmt)


def case_params(extra) -> RenderParams:
    """A RENDER_CASES case's render parameters: 40 steps from a perspective
    camera that some rays miss the volume from, unless extra says otherwise."""
    return RenderParams(**{
        "camera": Camera(eye=(-30.0, 55.0, -45.0), look_at=(20.0, 18.0, 22.0),
                         vfov_deg=60.0, width=23, height=17),
        "max_step_count": 40, "background": (0.1, 0.2, 0.3), **extra,
    })


@pytest.mark.parametrize("name", sorted(RENDER_CASES))
def test_skipping_is_bit_identical_to_reference(name):
    fmt, config, tf, lights, extra, skipping = RENDER_CASES[name]
    svt = build_svt(case_volume(name), config)
    params = case_params(extra)
    assert (_live_box(svt, tf, params.mip) is not None) == skipping
    origins, dirs = params.camera.rays()
    t0, t1 = _ray_aabb(origins.T, dirs.T, np.zeros(3), np.full(3, 40.0))
    assert (t1 > t0).any() and (t1 <= t0).any()  # some rays miss the box

    want_cache = reference_illumination_cache(svt, tf, lights, 4, 16)
    for threads in (1, 4):
        cache = build_illumination_cache(svt, tf, lights, 4, 16, threads=threads)
        assert np.array_equal(cache.values, want_cache.values)
    want = reference_raymarch(svt, want_cache, tf, params)
    for threads in (1, 4):
        assert np.array_equal(raymarch(svt, cache, tf, params, threads=threads), want)
    if params.cut_plane is not None:  # the cut hides some of what the frame shows
        uncut = dataclasses.replace(params, cut_plane=None)
        assert not np.array_equal(reference_raymarch(svt, want_cache, tf, uncut), want)


@pytest.mark.parametrize("name", HIDING)
def test_hidden_tiles_leave_out_footprint_rows(monkeypatch, name):
    """Each case that hides resident tiles or empty_value addresses fewer
    footprint rows, and blends fewer, in the cache and in the frame, than
    with skipping off, and renders the same image."""
    fmt, config, tf, lights, extra, _ = RENDER_CASES[name]
    svt = build_svt(case_volume(name), config)
    params = case_params(extra)
    calls, blends = footprint_calls(monkeypatch), []
    lerp = render.trilinear_lerp

    def counting_lerp(svt, fp):
        blends.append(len(fp.base))
        return lerp(svt, fp)

    monkeypatch.setattr(render, "trilinear_lerp", counting_lerp)

    def rows():
        counts = []
        for run in (lambda: build_illumination_cache(svt, tf, lights, 4, 16),
                    lambda: raymarch(svt, cache, tf, params)):
            calls.clear()
            blends.clear()
            got = run()
            counts.append((sum(c.shape[1] for c in calls), sum(blends)))
        return np.asarray(counts), got

    cache = build_illumination_cache(svt, tf, lights, 4, 16)
    skipped, img = rows()
    monkeypatch.setattr(render, "_live_box", lambda *args: None)
    every, all_img = rows()
    assert (skipped < every).all()
    assert np.array_equal(img, all_img) and img.any()


@pytest.mark.parametrize("threads", [1, 4])
def test_a_cut_that_hides_the_volume_makes_no_footprint_call(monkeypatch, threads):
    fmt, config, tf, lights, extra, _ = RENDER_CASES["u8-cut-hides-all"]
    svt = build_svt(sparse_volume(fmt), config)
    cache = build_illumination_cache(svt, tf, lights, 4, 16)
    params = case_params(extra)
    calls = footprint_calls(monkeypatch)
    img = raymarch(svt, cache, tf, params, threads=threads)
    assert calls == []
    np.testing.assert_array_equal(img, np.broadcast_to(params.background, img.shape))
    raymarch(svt, cache, tf, dataclasses.replace(params, cut_plane=None), threads=threads)
    assert calls  # without the cut, the same frame samples


def test_one_row_image_with_threads_matches_reference():
    fmt, config, tf, lights, _, _ = RENDER_CASES["u8"]
    svt = build_svt(sparse_volume(fmt), config)
    cache = build_illumination_cache(svt, tf, lights, downsample_factor=4, shadow_steps=16)
    params = RenderParams(
        camera=Camera(eye=(20.0, 17.0, -40.0), look_at=(20.0, 17.0, 20.0), width=31, height=1),
        max_step_count=40,
    )
    want = reference_raymarch(svt, cache, tf, params)
    assert np.array_equal(raymarch(svt, cache, tf, params, threads=4), want)


@pytest.mark.parametrize("name", ["u8", "u8-nonzero-empty-value"])
@pytest.mark.parametrize("mip", [0, 1])
def test_freshly_loaded_texture_renders_alike_on_any_thread_count(tmp_path, name, mip):
    # A loaded texture has no footprint table yet; raymarch builds it before
    # its threads start.
    fmt, config, tf, lights, _, _ = RENDER_CASES[name]
    path = tmp_path / "volume.svtf"
    save_svtf(build_svt(sparse_volume(fmt, background=int(config.empty_value)), config), path)
    cache = build_illumination_cache(load_svtf(path), tf, lights, 4, 16)
    params = RenderParams(
        camera=Camera(eye=(-30.0, 55.0, -45.0), look_at=(20.0, 18.0, 22.0),
                      vfov_deg=60.0, width=23, height=17),
        max_step_count=40, mip=mip,
    )
    one, four = (raymarch(load_svtf(path), cache, tf, params, threads=t) for t in (1, 4))
    assert np.array_equal(one, four)
    assert one.any()


def test_all_resident_volume_has_no_skip_grid():
    assert _live_box(uniform_slab(), TransferFunction.grayscale(), 0) is None


def footprint_calls(monkeypatch, cut_tests=False):
    """The (3, m) positions of each call _march makes to trilinear_footprint,
    and with cut_tests to _cut_keeps, from any thread."""
    calls = []

    def recording(svt, px, py, pz, mip=0, table=None):
        calls.append(np.stack([px, py, pz]))
        return trilinear_footprint(svt, px, py, pz, mip, table)

    def recording_cut(p, cut_n, cut_off):
        calls.append(p.copy())
        return cut_keeps(p, cut_n, cut_off)

    cut_keeps = render._cut_keeps
    monkeypatch.setattr(render, "trilinear_footprint", recording)
    if cut_tests:
        monkeypatch.setattr(render, "_cut_keeps", recording_cut)
    return calls


def test_all_empty_volume_skips_every_step(monkeypatch):
    svt = build_svt(make_volume(np.zeros((40, 40, 40), np.uint8)))
    tf = TransferFunction.grayscale()
    calls = footprint_calls(monkeypatch)
    cache = build_illumination_cache(svt, tf, [DirectionalLight(direction=(0, -1, 0))])
    np.testing.assert_array_equal(cache.values, 1.0)
    light = PointLight(position=(20.0, 60.0, 20.0), radius=15.0)
    lit = build_illumination_cache(svt, tf, [light], downsample_factor=4, shadow_steps=8)
    params = RenderParams(camera=ortho_camera(40, 9, 7), max_step_count=16,
                          background=(0.25, 0.5, 0.75))
    img = raymarch(svt, cache, tf, params, threads=4)
    assert calls == []
    assert np.array_equal(lit.values, reference_illumination_cache(svt, tf, [light], 4, 8).values)
    np.testing.assert_array_equal(img, np.broadcast_to((0.25, 0.5, 0.75), img.shape))


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("skipping", [True, False])
def test_march_positions_stay_inside_the_volume(monkeypatch, threads, skipping):
    """Every position _march samples or tests against the cut plane, for
    primary rays with a cut plane at mips 0 and 1 and for directional- and
    point-light shadow rays, lies in [0, extent] on each axis: from 20
    random cameras, 4 of them looking along an axis so that their centre
    rays have two zero components. A camera whose samples the cut plane
    all cuts away may make no call, as its rays' step windows are empty."""
    rng = np.random.default_rng(41)
    extent = np.asarray([29.0, 41.0, 37.0])  # x, y, z
    data = np.where(rng.random((37, 41, 29)) < 0.002, rng.integers(1, 256, (37, 41, 29)), 0)
    svt = build_svt(make_volume(data.astype(np.uint8)), SvtConfig(tile_size=8))
    lut = TransferFunction.grayscale().lut if skipping else opaque_zero_lut()
    tf = TransferFunction(lut, density_scale=0.3, emission_scale=0.8)
    assert (_live_box(svt, tf, 0) is not None) == skipping
    centre = extent / 2
    calls = footprint_calls(monkeypatch, cut_tests=True)

    def assert_inside(label, sampled=True):
        assert calls or not sampled, label
        if calls:
            p = np.concatenate(calls, axis=1)
            assert (p.min(axis=1) >= 0.0).all() and (p.max(axis=1) <= extent).all(), label
        calls.clear()

    lights = [DirectionalLight(direction=tuple(rng.standard_normal(3))),
              PointLight(position=tuple(rng.uniform(-10.0, 50.0, 3)), radius=20.0)]
    for light in lights:
        cache = build_illumination_cache(svt, tf, [light], 4, 12, threads=threads)
        assert_inside(type(light).__name__)
    for k in range(20):
        if k < 4:
            eye = centre.copy()
            eye[k % 3] = -20.0 if k < 3 else extent[2] + 20.0
            look_at = centre
        else:
            direction = rng.standard_normal(3)
            eye = centre + direction / np.linalg.norm(direction) * rng.uniform(30.0, 80.0)
            look_at = rng.uniform(0.0, extent)
        up = (1.0, 0.0, 0.0) if k == 1 else (0.0, 1.0, 0.0)
        camera = Camera(eye=tuple(eye), look_at=tuple(look_at), up=up, vfov_deg=60.0,
                        width=7, height=5)
        cut = (tuple(rng.standard_normal(3)), float(rng.uniform(-10.0, 10.0)))
        for mip in (0, 1):
            params = RenderParams(camera=camera, max_step_count=24, cut_plane=cut, mip=mip)
            raymarch(svt, cache, tf, params, threads=threads)
            assert_inside(f"camera {k} mip {mip}", cut_keeps_a_sample(params, extent))


def cut_keeps_a_sample(params, extent) -> bool:
    """Whether the cut plane keeps any sample of the rays that hit the box
    [0, extent], marched without step windows, as _march forms them."""
    o, d = (np.ascontiguousarray(a.T) for a in params.camera.rays())
    t0, t1 = _ray_aabb(o, d, np.zeros(3), extent)
    hit = t1 > t0
    o, d, t0 = o[:, hit], d[:, hit], t0[hit]
    dt = (t1[hit] - t0) / params.max_step_count
    normal, offset = np.asarray(params.cut_plane[0], dtype=np.float64), params.cut_plane[1]
    return any(
        _cut_keeps(d * (t0 + (i + 0.5) * dt) + o, normal, offset).any()
        for i in range(params.max_step_count)
    )


# One non-empty voxel per volume: the centre, the 6 faces, 12 edges and 8
# corners of the second 16-voxel tile, then the first voxel of the partial
# last tile of a 40-voxel axis (a mip-1 tile face) and the last voxel.
_SINGLE_VOXELS = [*itertools.product((16, 24, 31), repeat=3), (32, 20, 33), (39, 39, 39)]


@pytest.mark.parametrize("mip", [0, 1])
def test_skip_grid_never_skips_a_footprint_touching_a_resident_tile(mip):
    n = 40
    rng = np.random.default_rng(3)
    grid = np.arange(-2.5, 2.51, 0.25)  # hits voxel centres and faces exactly
    near = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    for voxel in _SINGLE_VOXELS:
        data = np.zeros((n, n, n), np.uint8)
        data[voxel[::-1]] = 255
        svt = build_svt(make_volume(data))
        box, table = _live_box(svt, TransferFunction.grayscale(), mip)
        p = np.concatenate([
            np.asarray(voxel) + 0.5 + near,
            rng.uniform(-1.0, n + 1.0, (2000, 3)),
            np.asarray([[n, n, n], [n, 0.0, n], [0.0, 0.0, 0.0], [16.0, 32.0, n]]),
        ])
        touches = footprint_touches_resident(svt, mip, p[:, 0], p[:, 1], p[:, 2])
        assert touches.any()
        # _march's live test: the base of the footprint step it samples with.
        live = trilinear_footprint(svt, p[:, 0], p[:, 1], p[:, 2], mip, table).base != NO_TILE
        assert live[touches].all()

        # Step windows: every step whose footprint touches a resident tile
        # lies inside its ray's window.
        origins = rng.uniform(-30.0, n + 30.0, (300, 3))
        dirs = np.asarray(voxel) + 0.5 + rng.uniform(-3.0, 3.0, (300, 3)) - origins
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        t0, t1 = _ray_aabb(origins.T, dirs.T, np.zeros(3), np.full(3, float(n)))
        hit = t1 > t0
        origins, dirs, t0, t1 = origins[hit], dirs[hit], t0[hit], t1[hit]
        steps = 64
        dt = (t1 - t0) / steps
        every = np.ones(len(t0), dtype=bool)
        rays, kept_first, kept_last = _schedule(box, None, origins.T, dirs.T, t0, dt, steps, every)
        first, last = np.zeros(len(t0), np.int64), np.zeros(len(t0), np.int64)
        first[rays], last[rays] = kept_first, kept_last  # the rest have empty windows
        for i in range(steps):
            t = t0 + (i + 0.5) * dt
            q = origins + t[:, None] * dirs
            inside = footprint_touches_resident(svt, mip, q[:, 0], q[:, 1], q[:, 2])
            assert ((first <= i) & (i < last))[inside].all()


def cut_window_cases(rng):
    """(name, origins, dirs, normal, offset) of rays, as (3, n), and cut
    planes for _schedule's cut windows, in a 40 x 24 x 33 box."""
    extent = np.asarray([40.0, 24.0, 33.0])
    origins = rng.uniform(-30.0, 70.0, (3, 300))
    dirs = rng.uniform(0.0, 1.0, (3, 300)) * extent[:, None] - origins
    dirs /= np.linalg.norm(dirs, axis=0)
    for k in range(12):
        normal = rng.standard_normal(3) * rng.uniform(0.1, 10.0)
        yield f"random {k}", origins, dirs, normal, float(rng.uniform(-30.0, 30.0))
    for k in range(6):  # rays in the plane's direction: n.d is about 1e-17
        normal = rng.standard_normal(3)
        d = np.cross(normal, rng.standard_normal((300, 3)))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        offset = float(rng.uniform(-5.0, 5.0))
        # Origins this far (in voxels) from the plane n.p + offset = 0.
        side = rng.choice([-2.0, -1.5, -1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5], 300)
        o = rng.uniform(-10.0, 50.0, (3, 300))
        norm = np.linalg.norm(normal)
        o -= normal[:, None] * ((normal @ o + offset) / norm**2 - side / norm)
        yield f"parallel {k}", o, d.T.copy(), normal, offset
    # Orthographic rays along +z from the z = 0 face, one step per voxel:
    # they sample z = i + 0.5 exactly, and the planes hold samples.
    xy = rng.uniform(0.0, 24.0, (2, 200))
    o = np.vstack([xy, np.zeros(200)])
    d = np.broadcast_to([[0.0], [0.0], [1.0]], o.shape).copy()
    for z in (0.5, 15.5, 32.5):
        yield f"through samples {z}", o, d, np.asarray([0.0, 0.0, 1.0]), -z
        yield f"through samples {z}, cut above", o, d, np.asarray([0.0, 0.0, -3.0]), 3.0 * z
    for normal, offset in (((1.0, 0.0, 0.0), 500.0), ((1.0, 0.0, 0.0), -500.0),
                           ((0.0, -2.0, 0.0), 100.0), ((0.0, -2.0, 0.0), -100.0)):
        yield f"beyond the box {offset}", origins, dirs, np.asarray(normal), offset
    # Rays exactly parallel to the plane (n.d == 0), their origins this many
    # |n| from it: on either side, on it, and (at -1) exactly on the
    # boundary n.o = -(offset + |n|) of the kept slab.
    side = np.asarray([-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 2.0])[np.arange(300) % 7]
    for normal, offset in (((0.0, 0.0, 2.0), -20.0), ((0.0, -4.0, 0.0), 36.0),
                           ((-1.0, 0.0, 0.0), 23.0)):
        normal = np.asarray(normal)
        axis = int(np.flatnonzero(normal)[0])
        d = rng.standard_normal((3, 300))
        d[axis] = 0.0
        d /= np.linalg.norm(d, axis=0)
        o = rng.uniform(-5.0, 45.0, (3, 300))
        o[axis] = (side * np.linalg.norm(normal) - offset) / normal[axis]  # exact
        yield f"exactly parallel {axis}", o, d, normal, offset
    # A finite normal whose dot product with the origins can overflow to
    # inf - inf (NaN, or an infinity when it is summed with fused multiply-
    # adds), while n.p of the samples at x, z < 16 is finite. Its even rays
    # have d.x == d.z, so n.d == 0 exactly.
    o = rng.uniform(-24.0, -20.0, (3, 300))
    o[1] = rng.uniform(4.0, 20.0, 300)
    d = np.vstack([np.ones(300), rng.uniform(-0.2, 0.2, 300),
                   1.0 + (np.arange(300) % 2) * rng.uniform(-0.2, 0.2, 300)])
    d /= np.linalg.norm(d, axis=0)
    yield "overflowing normal", o, d, np.asarray([2.0**1020, 0.0, -(2.0**1020)]), 0.0
    bad_o, bad_d = origins.copy(), dirs.copy()
    bad_o[0, ::4] = np.nan
    bad_d[1, 1::5] = np.nan
    bad_d[:, 2::6] = [[np.inf], [0.0], [1.0]]
    bad_o[2, 3::7] = -np.inf
    yield "nan and infinite rays", bad_o, bad_d, np.asarray([0.3, -0.5, 0.8]), -4.0


def test_cut_windows_hold_every_step_the_cut_keeps():
    """No step whose sample _cut_keeps keeps, formed as _march forms it,
    lies outside its ray's window from _schedule, with and without a box:
    random planes, rays nearly and exactly parallel to the plane, planes
    through exact sample positions, planes beyond the box on either side, a
    normal whose n.o overflows, and NaN and infinite rays. Steps against the
    cut plane are left out in most cases."""
    rng = np.random.default_rng(1234)
    extent = np.asarray([40.0, 24.0, 33.0])
    steps, kept_steps, windowed, walked = 33, 0, 0, 0
    for name, o, d, normal, offset in cut_window_cases(rng):
        with np.errstate(invalid="ignore"):
            t0, t1 = _ray_aabb(o, d, np.zeros(3), extent)
            dt = (t1 - t0) / steps
        hit = t1 > t0
        cut = (np.asarray(normal, dtype=np.float64), float(offset))
        for box in (None, (np.zeros(3), extent)):
            with np.errstate(over="ignore", invalid="ignore"):  # the overflowing normal
                rays, ray_first, ray_last = _schedule(box, cut, o, d, t0, dt, steps, hit)
            first, last = np.zeros(len(t0), np.int64), np.zeros(len(t0), np.int64)
            first[rays], last[rays] = ray_first, ray_last
            for i in range(steps):
                p = d[:, hit] * (t0[hit] + (i + 0.5) * dt[hit])
                p += o[:, hit]
                with np.errstate(over="ignore", invalid="ignore"):
                    kept = _cut_keeps(p, *cut)
                window = (first[hit] <= i) & (i < last[hit])
                assert window[kept].all(), (name, i)
                kept_steps += int(kept.sum())
                windowed += int(window.sum())
            walked += steps * int(hit.sum())
    assert 0 < kept_steps < windowed < walked * 0.7


def test_a_ray_exactly_parallel_to_the_cut_keeps_every_step_or_none():
    """With no box, each hitting ray with n.d == 0 keeps every step when
    n.o + offset + |n| >= 0 or is NaN (an n.o that overflows), and no step
    when it is < 0: on either side of the plane and on the boundary."""
    rng = np.random.default_rng(1234)
    extent = np.asarray([40.0, 24.0, 33.0])
    steps, seen = 33, set()
    for name, o, d, normal, offset in cut_window_cases(rng):
        if not name.startswith(("exactly parallel", "overflowing normal")):
            continue
        t0, t1 = _ray_aabb(o, d, np.zeros(3), extent)
        with np.errstate(over="ignore", invalid="ignore"):
            parallel = (t1 > t0) & (normal @ d == 0.0)
            keeps = ~(normal @ o + (offset + np.linalg.norm(normal)) < 0.0)
            rays, first, last = _schedule(None, (normal, offset), o, d, t0, (t1 - t0) / steps,
                                          steps, parallel)
        assert rays.tolist() == np.flatnonzero(parallel & keeps).tolist(), name
        assert (first == 0).all() and (last == steps).all(), name
        seen |= {(name, bool(k)) for k in keeps[parallel]}
    # Rays that keep every step and rays that keep none in each exactly
    # parallel case. The overflowing normal's n.o is NaN, or an infinity
    # when the dot product is summed with fused multiply-adds.
    assert seen - {("overflowing normal", False), ("overflowing normal", True)} == {
        (f"exactly parallel {axis}", keeps) for axis in range(3) for keeps in (False, True)
    }
    assert seen & {("overflowing normal", False), ("overflowing normal", True)}


def hiding_scene(fmt):
    """A 40^3 volume of air with regions that transfer functions hide or
    show, and the transfer functions, whose LUT has a zero band inside each
    window: u8 windows (40/255, 200/255), f32 (0.125, 0.875), then (0, 1) and
    (-inf, inf). Regions, as u: values in the band, values at each window
    edge (a third exactly on it), values above the window, values over the
    whole range, -0.0 among air, and zeros; f32 also holds NaN, +inf and
    -inf voxels inside hidden regions. Returns the volume, the transfer
    functions and the [z, y, x] voxels that are not finite."""
    rng = np.random.default_rng(2024)
    u8 = fmt is VoxelFormat.U8
    lo, hi = (40 / 255, 200 / 255) if u8 else (0.125, 0.875)
    data = rng.uniform(0.004, 0.9 * lo, (40, 40, 40))
    regions = [  # (z, y, x), (low, high) of the uniform values, exact value
        ((slice(8, 32), slice(8, 32), slice(0, 16)), (0.52, 0.62), None),
        ((slice(0, 8), slice(0, 8), slice(24, 40)), (0.8 * lo, lo), lo),
        ((slice(32, 40), slice(0, 16), slice(0, 16)), (hi, 1.05 * hi), hi),
        ((slice(24, 40), slice(24, 40), slice(24, 40)), (1.01 * hi, 1.0), None),
        ((slice(0, 8), slice(32, 40), slice(0, 8)), (0.0, 1.0), None),
        ((slice(32, 40), slice(32, 40), slice(0, 8)), (0.0, 0.0), None),
    ]
    for at, (a, b), exact in regions:
        data[at] = rng.uniform(a, b, data[at].shape)
        if exact is not None:
            data[at][rng.random(data[at].shape) < 0.3] = exact
    data[16:24, 0:8, 16:32][rng.random((8, 8, 16)) < 0.5] = -0.0
    bad = np.zeros((0, 3), np.int64)
    if u8:
        data = np.rint(data * 255.0)
    else:
        bad = np.asarray([[9, 9, 1], [26, 38, 30], [30, 30, 30], [36, 4, 36]])
        data[tuple(bad.T)] = [np.nan, np.inf, -np.inf, np.nan]
    volume = make_volume(data.astype(fmt.dtype), fmt)
    tfs = [TransferFunction(banded_lut(128, 160), density_scale=0.5, window=window)
           for window in ((lo, hi), (0.0, 1.0), (-np.inf, np.inf))]
    return volume, tfs, bad


@pytest.mark.parametrize("mip", [0, 1])
@pytest.mark.parametrize("fmt", [VoxelFormat.U8, VoxelFormat.F32])
def test_every_position_whose_value_shows_has_a_live_cell(fmt, mip):
    """_live_box's table, against the dense oracle: each position whose
    dense trilinear value shows (its TransferFunction.rows row has sigma or
    a source) has a footprint base that is not NO_TILE, and lies in the box.
    Positions: every voxel centre and face, and random ones; the table
    must hide cells that name a tile, and no cell whose slot holds a voxel
    that is not finite."""
    volume, tfs, bad = hiding_scene(fmt)
    svt = build_svt(volume, SvtConfig(tile_size=4))
    level = reference_mip_chain(volume, svt.config)[mip].data
    g = np.arange(0.0, 40.01, 0.5)
    p = np.concatenate([
        np.stack(np.meshgrid(g, g, g, indexing="ij")).reshape(3, -1),
        np.random.default_rng(5).uniform(0.0, 40.0, (3, 20000)),
    ], axis=1)
    scale = float(1 << mip)
    with np.errstate(invalid="ignore"):
        values = reference_trilinear_dense(level, *(p / scale))
    own = svt.footprint_table(mip).base != NO_TILE
    for tf in tfs:
        box, table = _live_box(svt, tf, mip)
        sigma, rgb = tf.tables()
        row = tf.rows(values, fmt)
        shows = (sigma[row] != 0.0) | (tf.emission_scale * rgb[row]).any(axis=1)
        live = trilinear_footprint(svt, *p, mip, table).base != NO_TILE
        assert shows.any() and live[shows].all()
        inside = (p >= box[0][:, None]) & (p <= box[1][:, None])
        assert inside.all(axis=0)[shows].all()
        assert (own & (table.base == NO_TILE)).any()  # some tiles are hidden
        at_bad = trilinear_footprint(svt, *(bad[:, ::-1].T + 0.5), mip, table)
        assert (at_bad.base != NO_TILE).all()


def test_a_last_layer_cell_tests_the_slot_of_the_tile_it_reads():
    """A cell in the last voxel layer of an empty tile reads the next
    tile's padded block, so _live_box tests that block's slot: here the
    slot after a hidden one. Tiles of 4 along x and z; values 60 (hidden by
    the LUT's zero band) at tile (x 0, z 1) in slot 0, and 200 at tile (x 2,
    z 1) in slot 1; the tiles below them are empty."""
    data = np.zeros((8, 4, 12), np.uint8)  # z, y, x
    data[4:8, :, 0:4] = 60
    data[4:8, :, 8:12] = 200
    svt = build_svt(make_volume(data), SvtConfig(tile_size=4))
    assert svt.mips[0].entries[1, 0].tolist() == [0, 0xFFFFFFFF, 1]
    tf = TransferFunction(banded_lut(0, 80), density_scale=0.5)
    _, table = _live_box(svt, tf, 0)
    g = np.arange(0.25, 12.0, 0.5)
    z = np.arange(3.5, 4.5, 0.125)  # base corner z = 3, the last layer of tile z 0
    p = np.stack(np.meshgrid(g[g > 8.5], g[g < 4.0], z, indexing="ij")).reshape(3, -1)
    assert (reference_trilinear_dense(data, *p) > 80).any()
    assert (trilinear_footprint(svt, *p, 0, table).base != NO_TILE).all()
    camera = Camera(eye=(10.0, 2.0, -10.0), look_at=(10.0, 2.0, 4.0), width=4, height=3,
                    ortho_height=3.0)
    assert_matches_reference(svt, tf, RenderParams(camera=camera, max_step_count=32))


def test_a_range_just_below_the_window_is_widened_into_it():
    """_hidden widens each range by a few ulps' worth (a rounded float64
    blend of values in [lo, hi] may leave it by that much), and by no more
    than a millionth of a millionth of its magnitude."""
    for fmt, value in ((VoxelFormat.F32, 0.75), (VoxelFormat.U8, 191.0)):
        u = value / 255.0 if fmt is VoxelFormat.U8 else value
        ranges = np.asarray([value]), np.asarray([value])
        for above, hidden in ((np.nextafter(u, np.inf), False), (u * (1 + 1e-12), True)):
            tf = TransferFunction.grayscale(window=(above, 1.0))
            assert _hidden(tf, fmt, *ranges).tolist() == [hidden]


def _classify_scalars(rng, fmt, window):
    """Samples around every LUT entry, its rounding midpoints, the window
    edges and beyond the format's range, in the format's raw units."""
    k = np.arange(256.0)
    lo, hi = window
    edges = np.asarray([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    u = np.concatenate([
        k / 255.0, (k + 0.5) / 255.0, (k - 0.5) / 255.0, edges,
        rng.uniform(-0.5, 1.5, 400), [-np.inf, np.inf, -1e300, 1e300],
    ])
    return u * 255.0 if fmt is VoxelFormat.U8 else u


def test_table_classify_is_bit_identical_to_reference():
    """The 257-row table classify against the LUT gather it replaced: u8 and
    f32 samples, windows inside, at and beyond [0, 1], signed-zero and zero
    LUT entries, zero and non-zero scales."""
    rng = np.random.default_rng(707)
    windows = [(0.0, 1.0), (0.1, 1.0), (0.0, 0.5), (-0.5, 2.0), (100 / 255, 101 / 255)]
    for trial in range(40):
        lut = rng.random((256, 4))
        lut[rng.random((256, 4)) < 0.2] = 0.0
        lut[rng.random((256, 4)) < 0.05] = -0.0
        window = windows[trial % len(windows)] if trial < 20 else tuple(
            np.sort(rng.uniform(-0.2, 1.2, 2))
        )
        scale = [0.0, 1.0, float(rng.uniform(0.01, 5.0))][trial % 3]
        tf = TransferFunction(lut, density_scale=scale, window=window)
        for fmt in (VoxelFormat.U8, VoxelFormat.F32):
            scalars = _classify_scalars(rng, fmt, window)
            sigma_of, rgb_of = tf.tables()
            row = tf.rows(scalars, fmt)
            sigma, rgb = sigma_of[row], rgb_of[row]
            want_sigma, want_rgb = reference_classify(tf, scalars, fmt)
            assert sigma.shape == want_sigma.shape and rgb.shape == want_rgb.shape
            assert np.array_equal(sigma.view(np.int64), want_sigma.view(np.int64))
            assert np.array_equal(rgb.view(np.int64), want_rgb.view(np.int64))


@pytest.mark.parametrize("entry, value", [
    ((5, 3), np.nan), ((5, 3), -0.5), ((5, 3), 1.5), ((0, 0), -3.0), ((255, 2), np.inf),
    ((7, 1), np.nan), ((9, 0), -np.inf),
])
def test_lut_entries_outside_0_1_are_rejected(entry, value):
    lut = TransferFunction.grayscale().lut.copy()
    lut[entry] = value
    with pytest.raises(ValueError, match=r"lut entries must lie in \[0, 1\]"):
        TransferFunction(lut)
    lut[entry] = -0.0
    assert TransferFunction(lut, window=(-np.inf, np.inf)).lut[entry] == 0.0


def test_classify_sends_nan_samples_to_zero():
    lut = np.ones((256, 4))
    tf = TransferFunction(lut, window=(-np.inf, np.inf))
    sigma_of, rgb_of = tf.tables()
    for fmt in (VoxelFormat.U8, VoxelFormat.F32):
        row = tf.rows(np.asarray([np.nan, 0.0]), fmt)
        sigma, rgb = sigma_of[row], rgb_of[row]
        assert sigma.tolist() == [0.0, 1.0]
        assert rgb.tolist() == [[0.0] * 3, [1.0] * 3]


def test_ray_box_clip_matches_reference():
    """_ray_aabb against the row-reduction version it replaced, on rays in
    general position, parallel to one or two axes, and from origins on and
    outside the faces."""
    rng = np.random.default_rng(808)
    lo, hi = np.zeros(3), np.asarray([40.0, 24.0, 33.0])
    origins = rng.uniform(-20.0, 60.0, (3000, 3))
    origins[::5] = rng.integers(0, 3, (600, 3)) * hi / 2  # faces and centre planes
    dirs = rng.standard_normal((3000, 3))
    dirs[rng.random((3000, 3)) < 0.3] = 0.0
    dirs[(dirs == 0.0).all(axis=1), 0] = -1.0
    for d in (dirs, dirs[~(dirs == 0.0).any(axis=1)]):
        o = origins[: len(d)]
        got, want = _ray_aabb(o.T, d.T, lo, hi), reference_ray_aabb(o, d, lo, hi)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_per_axis_ray_box_clip_on_axis_parallel_rays():
    """_ray_aabb, one axis at a time, against reference_ray_aabb on rays
    parallel to each axis: from origins inside, outside and on each face of
    the slab, pointing either way, with signed zeros in the other axes."""
    lo, hi = np.asarray([0.0, 2.0, -3.0]), np.asarray([40.0, 24.0, 33.0])
    origins, dirs = [], []
    for axis in range(3):
        across = [lo[axis] - 5.0, lo[axis], (lo[axis] + hi[axis]) / 2, hi[axis], hi[axis] + 5.0]
        for a, b in itertools.product(range(3), repeat=2):
            for other in across:  # the parallel axes' coordinate: inside, out, faces
                for sign in (1.0, -1.0, 0.0, -0.0):
                    o = (lo + hi) / 2 + (hi - lo) * (np.asarray([a, b, a]) - 1) * 0.5
                    o[(axis + 1) % 3] = other
                    d = np.zeros(3)
                    d[axis] = sign if sign != 0.0 else 1.0
                    d[(axis + 2) % 3] = sign if sign == 0.0 else 0.0
                    origins.append(o)
                    dirs.append(d)
    origins, dirs = np.asarray(origins), np.asarray(dirs)
    assert (dirs == 0.0).sum(axis=1).min() == 2  # every ray is parallel to two axes
    got, want = _ray_aabb(origins.T, dirs.T, lo, hi), reference_ray_aabb(origins, dirs, lo, hi)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert (got[1] > got[0]).any() and (got[1] <= got[0]).any()


# --- lazily compacted march ---


def depth_scene(depths, height=6, nz=12, tile_size=4):
    """One ortho ray per voxel of a len(depths) x height face, marching +z
    through voxel centres with one step per voxel. Voxel column x holds an
    opaque wall at z = depths[x] and the voxel behind it (None: no wall), so
    its rays end on that step."""
    width = len(depths)
    data = np.zeros((nz, height, width), np.uint8)
    for x, depth in enumerate(depths):
        if depth is not None:
            data[depth : depth + 2, :, x] = 255
    svt = build_svt(make_volume(data), SvtConfig(tile_size=tile_size))
    camera = Camera(eye=(width / 2, height / 2, -10.0), look_at=(width / 2, height / 2, nz / 2),
                    width=width, height=height, ortho_height=float(height))
    tf = TransferFunction.grayscale(density_scale=50.0, emission_scale=0.7)
    return svt, tf, RenderParams(camera=camera, max_step_count=nz, background=(0.1, 0.2, 0.3))


def compactions(monkeypatch):
    """A list that records the share of rows s:k each compaction removes."""
    shares = []
    drop = render._drop

    def recording(arrays, s, k, done):
        shares.append(fractions.Fraction(int(done.sum()), k - s))
        return drop(arrays, s, k, done)

    monkeypatch.setattr(render, "_drop", recording)
    return shares


LIGHTS = (DirectionalLight(direction=(0.3, -0.5, 0.8)),)


def assert_matches_reference(svt, tf, params, lights=LIGHTS, seen=None):
    """Cache and image at threads 1, 3 and 4 against the reference marchers.
    Returns the image and, if seen is a compactions() list, the sorted
    shares each raymarch compacted, by thread count."""
    want_cache = reference_illumination_cache(svt, tf, lights, 4, 8)
    want = reference_raymarch(svt, want_cache, tf, params)
    shares = {}
    for threads in (1, 3, 4):
        cache = build_illumination_cache(svt, tf, lights, 4, 8, threads=threads)
        assert np.array_equal(cache.values, want_cache.values)
        if seen is not None:
            seen.clear()
        got = raymarch(svt, cache, tf, params, threads=threads)
        assert np.array_equal(got, want)
        if seen is not None:
            shares[threads] = sorted(seen)
    return want, shares


def blocks(threads, height=6):
    return 1 if threads == 1 else min(2 * threads, height)


@pytest.mark.parametrize("tile_size", [4, 16])  # with and without a live box
@pytest.mark.parametrize("depths, shares", [
    # A quarter of the rows end on step 2: exactly the share, so they are
    # compacted there; then two thirds of the rest, then the window ends.
    ([2, 5, None, 5, 2, None, 5, 5], [(1, 4), (2, 3), (1, 1)]),
    # Two of nine end on step 2, just under a quarter: they stay flagged off
    # until a third ends on step 5 and a third of the rows is compacted.
    ([2, None, None, 5, None, None, None, None, 2], [(1, 3), (1, 1)]),
    # After a compaction, one row in nine ends, under the share, so the
    # march runs with rows flagged off until four in nine have ended. (The
    # camera mirrors x: columns 0-2 are each block's last rays.)
    ([2, 2, 2, 5, 5, 5, None, None, None, None, None, 3], [(1, 4), (4, 9), (1, 1)]),
    ([3] * 5, [(1, 1)]),  # every ray ends on the same step
    ([0, 0, 0], [(1, 1)]),  # and on its first one
])
def test_compaction_is_bit_identical_to_reference(monkeypatch, tile_size, depths, shares):
    svt, tf, params = depth_scene(depths, tile_size=tile_size)
    assert (_live_box(svt, tf, 0) is not None) == (tile_size == 4)
    want, seen = assert_matches_reference(svt, tf, params, seen=compactions(monkeypatch))
    assert want.any()
    # Every block holds whole rows of the image, so each compacts alike.
    for threads in (1, 3, 4):
        expected = [fractions.Fraction(*share) for share in shares] * blocks(threads)
        assert seen[threads] == sorted(expected)


def test_one_step_march_ends_every_ray_on_its_first_step(monkeypatch):
    svt, tf, params = depth_scene([None, 4, 1, None, 0])
    params = RenderParams(camera=params.camera, max_step_count=1, background=(0.1, 0.2, 0.3))
    _, seen = assert_matches_reference(svt, tf, params, seen=compactions(monkeypatch))
    assert all(shares == [1] * blocks(threads) for threads, shares in seen.items())


@pytest.mark.parametrize("tile_size", [4, 16])
def test_block_of_one_ray_matches_reference(tile_size):
    svt, tf, params = depth_scene([3], height=1, tile_size=tile_size)
    assert_matches_reference(svt, tf, params)
    svt, tf, params = depth_scene([None], height=1, tile_size=tile_size)
    assert_matches_reference(svt, tf, params)


def test_nan_and_infinite_rays_match_reference(monkeypatch):
    fmt, config, tf, lights, _, _ = RENDER_CASES["u8"]
    svt = build_svt(sparse_volume(fmt), config)
    camera = Camera(eye=(-30.0, 55.0, -45.0), look_at=(20.0, 18.0, 22.0),
                    vfov_deg=60.0, width=9, height=7)
    origins, dirs = camera.rays()
    origins[::4, 0] = np.nan
    dirs[1::5, 1] = np.nan
    dirs[2::6] = [np.inf, 0.0, 1.0]
    origins[3::7, 2] = -np.inf
    monkeypatch.setattr(Camera, "rays", lambda self: (origins, dirs))
    params = RenderParams(camera=camera, max_step_count=40, background=(0.1, 0.2, 0.3))
    img, _ = assert_matches_reference(svt, tf, params, lights)
    assert img.any()


def test_chunked_cache_path_matches_reference():
    from svtf.chunks import ChunkSplit, _ChunkedCaches, _chunk_volume

    fmt, config, tf, lights, _, _ = RENDER_CASES["u8"]
    volume = sparse_volume(fmt)
    whole = build_svt(volume, config)
    split = ChunkSplit(axis="y", count=3)
    chunks = [build_svt(_chunk_volume(volume, split, i), config) for i in range(split.count)]
    want_caches = [reference_illumination_cache(c, tf, lights, 4, 8) for c in chunks]
    params = RenderParams(
        camera=Camera(eye=(-30.0, 55.0, -45.0), look_at=(20.0, 18.0, 22.0),
                      vfov_deg=60.0, width=23, height=17),
        max_step_count=40,
    )
    edges = split.edges(volume.dims)
    want = reference_raymarch(whole, _ChunkedCaches("y", edges, want_caches), tf, params)
    for threads in (1, 3, 4):
        caches = [build_illumination_cache(c, tf, lights, 4, 8, threads=threads) for c in chunks]
        for got_cache, want_cache in zip(caches, want_caches):
            assert np.array_equal(got_cache.values, want_cache.values)
        got = raymarch(whole, _ChunkedCaches("y", edges, caches), tf, params, threads=threads)
        assert np.array_equal(got, want)
    assert want.any()


# --- cache lights ---

THREE_LIGHTS = [
    DirectionalLight(direction=(0.3, -0.5, 0.8), intensity=(0.7, 0.3, 0.11)),
    PointLight(position=(17.0, 33.0, 26.0), radius=9.0, intensity=(0.13, 0.9, 0.37)),
    DirectionalLight(direction=(-1.0, 0.2, 0.1), intensity=(0.29, 0.61, 1.0)),
]


def assert_cache_matches_reference(svt, tf, lights):
    """The cache at threads 1 and 4 against the reference cache, which it returns."""
    want = reference_illumination_cache(svt, tf, lights, 4, 8)
    for threads in (1, 4):
        got = build_illumination_cache(svt, tf, lights, 4, 8, threads=threads)
        assert np.array_equal(got.values, want.values)
    return want


def test_cache_of_three_lights_adds_them_in_list_order():
    svt = build_svt(sparse_volume(VoxelFormat.U8))
    tf = TransferFunction.grayscale(density_scale=2.0)
    want = assert_cache_matches_reference(svt, tf, THREE_LIGHTS)
    # With three lights the order of each voxel's sum shows in its bits.
    a, b, c = THREE_LIGHTS
    for order in ([c, b, a], [a, c, b]):
        other = reference_illumination_cache(svt, tf, order, 4, 8)
        assert not np.array_equal(other.values, want.values)


@pytest.mark.parametrize("position, centre_of", [
    ((14.0, 18.0, 18.0), (4, 4, 3)),  # a cache voxel's centre, inside the blob
    ((-9.0, 52.0, 20.0), None),  # outside the volume box, so the box clips every ray
])
def test_cache_point_light_at_a_voxel_centre_or_outside_the_box(position, centre_of):
    svt = build_svt(sparse_volume(VoxelFormat.U8))
    tf = TransferFunction.grayscale(density_scale=2.0)
    want = assert_cache_matches_reference(svt, tf, [PointLight(position=position, radius=15.0)])
    if centre_of is not None:
        # The voxel's own shadow ray is 1e-12 long and still absorbs.
        assert 1.0 - 1e-9 < want.values[centre_of][0] < 1.0


@pytest.mark.parametrize("threads", [1, 4])
def test_cache_rejects_a_non_light_before_any_march(monkeypatch, threads):
    marched = []
    monkeypatch.setattr(render, "_march", lambda *args, **kwargs: marched.append(args))
    lights = [DirectionalLight(direction=(1, 0, 0)), "sun"]
    with pytest.raises(TypeError, match="unknown light type str"):
        build_illumination_cache(uniform_slab(8), TransferFunction.grayscale(), lights,
                                 threads=threads)
    assert marched == []


def test_concurrent_blocks_write_every_ray_and_leave_no_thread_running():
    svt, tf = build_svt(sparse_volume(VoxelFormat.U8)), TransferFunction.grayscale()
    params = RenderParams(camera=ortho_camera(40, 16, 16), max_step_count=16)
    want_cache = build_illumination_cache(svt, tf, THREE_LIGHTS, 4, 8)
    want = raymarch(svt, want_cache, tf, params)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # blocks switch threads as often as they can
    try:
        cache = build_illumination_cache(svt, tf, THREE_LIGHTS, 4, 8, threads=4)
        assert threading.active_count() == before
        got = raymarch(svt, cache, tf, params, threads=4)
        assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(cache.values, want_cache.values)
    assert np.array_equal(got, want) and want.any()


# --- render arguments ---


@pytest.mark.parametrize("name", ["shadow_steps", "downsample_factor"])
@pytest.mark.parametrize("value", [0, -1, 1.5])
def test_cache_rejects_a_count_that_is_not_a_positive_integer(name, value):
    light = DirectionalLight(direction=(1, 0, 0))
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        build_illumination_cache(uniform_slab(8), TransferFunction.grayscale(), [light],
                                 **{name: value})


@pytest.mark.parametrize("threads", [0, -2, 1.5])
def test_render_rejects_a_thread_count_that_is_not_a_positive_integer(threads):
    svt, tf = uniform_slab(8), TransferFunction.grayscale()
    light = DirectionalLight(direction=(1, 0, 0))
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        build_illumination_cache(svt, tf, [light], threads=threads)
    cache = build_illumination_cache(svt, tf, [light])
    params = RenderParams(camera=ortho_camera(8, 4, 4), max_step_count=8)
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        raymarch(svt, cache, tf, params, threads=threads)


@pytest.mark.parametrize("name", ["max_step_count"])
@pytest.mark.parametrize("value", [0, -1, 1.5])
def test_render_params_reject_a_count_that_is_not_a_positive_integer(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        RenderParams(camera=ortho_camera(), **{name: value})
    assert RenderParams(camera=ortho_camera(), **{name: np.int64(2)})
