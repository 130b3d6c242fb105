import numpy as np
import pytest
from conftest import make_volume

from svtf import (
    Camera,
    ChunkSplit,
    DimMismatch,
    DirectionalLight,
    RenderParams,
    TransferFunction,
    border_artifact_metric,
    build_illumination_cache,
    build_svt,
    raymarch,
    render_chunked,
)
from svtf.chunks import _chunk_volume, border_band_mask

N = 64
LIGHT_FROM_MINUS_X = DirectionalLight(direction=(1.0, 0.0, 0.0))


def artifact_scene():
    volume = make_volume(np.full((N, N, N), 255, np.uint8))
    tf = TransferFunction.grayscale(density_scale=0.15, emission_scale=1.0)
    camera = Camera(
        eye=(N / 2, N / 2, -20.0),
        look_at=(N / 2, N / 2, N / 2),
        width=N,
        height=N,
        ortho_height=float(N),
    )
    params = RenderParams(camera=camera, max_step_count=128)
    return volume, tf, params


def test_single_chunk_modes_identical():
    volume, tf, params = artifact_scene()
    split = ChunkSplit(axis="x", count=1)
    a = render_chunked(volume, split, "independent", [LIGHT_FROM_MINUS_X], tf, params,
                       shadow_steps=32)
    b = render_chunked(volume, split, "unified", [LIGHT_FROM_MINUS_X], tf, params,
                       shadow_steps=32)
    np.testing.assert_array_equal(a, b)


def test_zero_density_both_modes_background():
    volume = make_volume(np.zeros((32, 32, 32), np.uint8))
    tf = TransferFunction.grayscale()
    camera = Camera(eye=(16, 16, -10), look_at=(16, 16, 16), width=8, height=8,
                    ortho_height=16.0)
    params = RenderParams(camera=camera, max_step_count=32, background=(0.2, 0.3, 0.4))
    split = ChunkSplit(axis="x", count=2)
    for mode in ("independent", "unified"):
        img = render_chunked(volume, split, mode, [LIGHT_FROM_MINUS_X], tf, params,
                             shadow_steps=8)
        np.testing.assert_array_equal(img, np.broadcast_to((0.2, 0.3, 0.4), img.shape))


def test_unified_invariant_under_split(rng):
    data = np.where(
        rng.random((48, 48, 48)) < 0.4, rng.integers(1, 256, (48, 48, 48)), 0
    ).astype(np.uint8)
    volume = make_volume(data)
    tf = TransferFunction.grayscale(density_scale=0.1, emission_scale=0.8)
    camera = Camera(eye=(24, 24, -20), look_at=(24, 24, 24), width=32, height=32,
                    ortho_height=48.0)
    params = RenderParams(camera=camera, max_step_count=64)
    light = [LIGHT_FROM_MINUS_X]
    images = [
        render_chunked(volume, ChunkSplit(axis=axis, count=count), "unified",
                       light, tf, params, shadow_steps=16)
        for axis, count in (("x", 1), ("x", 2), ("x", 3), ("y", 2), ("z", 4))
    ]
    for img in images[1:]:
        np.testing.assert_array_equal(img, images[0])


def test_independent_cache_compositional(rng):
    data = np.where(
        rng.random((48, 32, 32)) < 0.5, rng.integers(1, 256, (48, 32, 32)), 0
    ).astype(np.uint8)
    volume = make_volume(data)  # dims x=32, y=32, z=48
    tf = TransferFunction.grayscale(density_scale=0.1)
    split = ChunkSplit(axis="z", count=3)
    edges = split.edges(volume.dims)
    for i in range(split.count):
        chunk = _chunk_volume(volume, split, i)
        # Oracle crop straight off the source array.
        manual = make_volume(data[edges[i] : edges[i + 1]])
        np.testing.assert_array_equal(chunk.data, manual.data)
        a = build_illumination_cache(build_svt(chunk), tf, [LIGHT_FROM_MINUS_X],
                                     downsample_factor=4, shadow_steps=16)
        b = build_illumination_cache(build_svt(manual), tf, [LIGHT_FROM_MINUS_X],
                                     downsample_factor=4, shadow_steps=16)
        np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("mode", ["independent", "unified"])
def test_render_chunked_builds_its_caches_with_its_shadow_steps(mode):
    volume = make_volume(np.random.default_rng(5).integers(0, 256, (16, 16, 16), np.uint8))
    tf = TransferFunction.grayscale(density_scale=0.3)
    camera = Camera(eye=(8, 8, -10), look_at=(8, 8, 8), width=6, height=6, ortho_height=16.0)
    params = RenderParams(camera=camera, max_step_count=16)
    split, light = ChunkSplit(axis="x", count=2), [LIGHT_FROM_MINUS_X]
    images = [render_chunked(volume, split, mode, light, tf, params, shadow_steps=s)
              for s in (3, 5)]
    assert not np.array_equal(*images)
    if mode == "unified":
        whole = build_svt(volume)
        cache = build_illumination_cache(whole, tf, light, shadow_steps=3)
        np.testing.assert_array_equal(images[0], raymarch(whole, cache, tf, params))
    with pytest.raises(ValueError, match="shadow_steps must be an integer >= 1"):
        render_chunked(volume, split, mode, light, tf, params, shadow_steps=0)


def test_border_artifact_bright_band():
    volume, tf, params = artifact_scene()
    split = ChunkSplit(axis="x", count=2)
    indep = render_chunked(volume, split, "independent", [LIGHT_FROM_MINUS_X], tf, params,
                           shadow_steps=32)
    unified = render_chunked(volume, split, "unified", [LIGHT_FROM_MINUS_X], tf, params,
                             shadow_steps=32)

    band = border_band_mask(split, volume.dims, params.camera, band_width_px=4)
    assert band.any() and not band.all()

    # Far side of the light: independent lighting restarts at the seam, so
    # every band pixel there is at least as bright, most strictly brighter.
    lum_i = indep @ np.asarray([0.2126, 0.7152, 0.0722])
    lum_u = unified @ np.asarray([0.2126, 0.7152, 0.0722])
    cols = np.arange(N)
    prow, pcol = params.camera.project(np.asarray([[N / 2 + 2.0, N / 2, N / 2]]))
    far_side_cols = np.abs(cols - pcol[0]) <= 4
    band_far = band & far_side_cols[None, :]
    # restrict to the half that belongs to the second chunk
    plane_row, plane_col = params.camera.project(np.asarray([[N / 2, N / 2, N / 2]]))
    chunk2 = (cols - plane_col[0]) * np.sign(pcol[0] - plane_col[0]) > 0
    band_chunk2 = band & chunk2[None, :]
    assert band_chunk2.any()
    assert (lum_i[band_chunk2] >= lum_u[band_chunk2]).all()
    assert (lum_i[band_chunk2] > lum_u[band_chunk2] + 1e-9).any()

    metric = border_artifact_metric(indep, unified, split, 4, params.camera, volume.dims)
    assert metric.ratio > 2.0
    assert metric.mean_abs_diff_border > metric.mean_abs_diff_global


def test_metric_identical_images():
    volume, tf, params = artifact_scene()
    split = ChunkSplit(axis="x", count=2)
    img = np.zeros((N, N, 3))
    metric = border_artifact_metric(img, img, split, 4, params.camera, volume.dims)
    assert metric.mean_abs_diff_border == 0.0
    assert metric.mean_abs_diff_global == 0.0
    assert metric.ratio == 0.0


def test_metric_diff_outside_band_only():
    volume, tf, params = artifact_scene()
    split = ChunkSplit(axis="x", count=2)
    a = np.zeros((N, N, 3))
    b = a.copy()
    band = border_band_mask(split, volume.dims, params.camera, 4)
    outside = np.argwhere(~band)
    r, c = outside[0]
    b[r, c] = 1.0
    metric = border_artifact_metric(a, b, split, 4, params.camera, volume.dims)
    assert metric.mean_abs_diff_border == 0.0
    assert metric.mean_abs_diff_global > 0.0
    assert metric.ratio == 0.0


def test_metric_dim_mismatch():
    volume, tf, params = artifact_scene()
    split = ChunkSplit(axis="x", count=2)
    with pytest.raises(DimMismatch):
        border_artifact_metric(
            np.zeros((4, 4, 3)), np.zeros((5, 5, 3)), split, 2, params.camera, volume.dims
        )


def test_metric_rejects_a_negative_band_width():
    volume, tf, params = artifact_scene()
    split = ChunkSplit(axis="x", count=2)
    a, b = np.zeros((N, N, 3)), np.ones((N, N, 3))
    with pytest.raises(ValueError):
        border_band_mask(split, volume.dims, params.camera, -1)
    with pytest.raises(ValueError):
        border_artifact_metric(a, b, split, -1, params.camera, volume.dims)
    metric = border_artifact_metric(a, b, split, 0, params.camera, volume.dims)
    assert metric.band_width_px == 0 and metric.mean_abs_diff_global == 1.0


def test_split_validation():
    with pytest.raises(ValueError):
        ChunkSplit(axis="w", count=2)
    with pytest.raises(ValueError):
        ChunkSplit(axis="x", count=0)
    split = ChunkSplit(axis="x", count=3)
    volume, _, _ = artifact_scene()
    edges = split.edges(volume.dims)
    assert edges[0] == 0 and edges[-1] == N
    assert split.boundaries(volume.dims) == edges[1:-1]
