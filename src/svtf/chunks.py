"""Chunk-border lighting artifact lab.

Splitting a volume into chunks that are lit independently makes each
chunk's shadow accumulation restart at its boundary: the far side of every
interior split plane receives too much light and renders as a bright seam.
Feeding one illumination cache with the whole volume removes the seam.
This module renders both variants and quantifies the border error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch
from .render import (
    DEFAULT_DOWNSAMPLE,
    Camera,
    RenderParams,
    TransferFunction,
    build_illumination_cache,
    luminance,
    raymarch,
)
from .svt import SvtConfig, build_svt
from .volume import DenseVolume

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}  # position component per axis name


@dataclass(frozen=True)
class ChunkSplit:
    """Even partition of a volume into count slabs along one axis."""

    axis: str
    count: int

    def __post_init__(self):
        if self.axis not in _AXIS_INDEX:
            raise ValueError(f"axis must be one of x, y, z, got {self.axis!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def edges(self, dims) -> list[int]:
        """Chunk boundaries in voxel space, including 0 and the axis extent."""
        extent = getattr(dims, self.axis)
        return [i * extent // self.count for i in range(self.count + 1)]

    def boundaries(self, dims) -> list[int]:
        """Interior split planes only."""
        return self.edges(dims)[1:-1]


@dataclass
class BorderMetric:
    band_width_px: int
    mean_abs_diff_border: float
    mean_abs_diff_global: float
    ratio: float


@dataclass
class _ChunkedCaches:
    """Per-chunk illumination caches selected by sample position.

    Quacks like IlluminationCache for the raymarcher: incident light at a
    position comes from the cache of the chunk that owns it, as if its
    neighbors did not exist.
    """

    axis: str
    edges: list[int]
    caches: list = field(default_factory=list)

    def sample_incident(self, px, py, pz) -> np.ndarray:
        """Incident RGB at mip-0 positions, as (3, n)."""
        component = (px, py, pz)[_AXIS_INDEX[self.axis]]
        interior = np.asarray(self.edges[1:-1], dtype=np.float64)
        owner = np.searchsorted(interior, component, side="right")
        out = np.zeros((3, np.shape(px)[0]), dtype=np.float64)
        for i, cache in enumerate(self.caches):
            sel = owner == i
            if not sel.any():
                continue
            offset = float(self.edges[i])
            lx = px[sel] - (offset if self.axis == "x" else 0.0)
            ly = py[sel] - (offset if self.axis == "y" else 0.0)
            lz = pz[sel] - (offset if self.axis == "z" else 0.0)
            out[:, sel] = cache.sample_incident(lx, ly, lz)
        return out


def _chunk_volume(volume: DenseVolume, split: ChunkSplit, index: int) -> DenseVolume:
    edges = split.edges(volume.dims)
    sl = [slice(None)] * 3
    sl[2 - _AXIS_INDEX[split.axis]] = slice(edges[index], edges[index + 1])  # zyx order
    return DenseVolume.from_array(volume.data[tuple(sl)], volume.format)


def render_chunked(
    volume: DenseVolume,
    split: ChunkSplit,
    mode: str,
    lights,
    tf: TransferFunction,
    params: RenderParams,
    config: SvtConfig | None = None,
    downsample_factor: int = DEFAULT_DOWNSAMPLE,
    threads: int = 1,
) -> np.ndarray:
    """Render the volume under per-chunk ("independent") or whole-volume
    ("unified") lighting.

    Density is always sampled from the whole-volume SVT (identical to the
    source at every position, so chunking cannot introduce value seams);
    the mode only changes where incident light comes from. Unified mode is
    literally a render with the global cache, hence bit-identical for any
    split. Independent mode builds each chunk's cache from that chunk's own
    SVT alone, reproducing the border artifact.
    """
    if mode not in ("independent", "unified"):
        raise ValueError(f"mode must be 'independent' or 'unified', got {mode!r}")
    config = config or SvtConfig()
    whole = build_svt(volume, config)
    if mode == "unified":
        cache = build_illumination_cache(
            whole, tf, lights, downsample_factor, params.shadow_steps, threads=threads
        )
    else:
        edges = split.edges(volume.dims)
        caches = []
        for i in range(split.count):
            chunk_svt = build_svt(_chunk_volume(volume, split, i), config)
            caches.append(
                build_illumination_cache(
                    chunk_svt, tf, lights, downsample_factor, params.shadow_steps, threads=threads
                )
            )
        cache = _ChunkedCaches(axis=split.axis, edges=edges, caches=caches)
    return raymarch(whole, cache, tf, params, threads=threads)


def _plane_corners(dims, axis: str, plane: float) -> np.ndarray:
    """Corners of the split plane's intersection with the volume box."""
    hi = {"x": dims.x, "y": dims.y, "z": dims.z}
    corners = []
    for a, b in ((0, 0), (1, 0), (1, 1), (0, 1)):
        point = {axis: float(plane)}
        others = [ax for ax in "xyz" if ax != axis]
        point[others[0]] = a * hi[others[0]]
        point[others[1]] = b * hi[others[1]]
        corners.append([point["x"], point["y"], point["z"]])
    return np.asarray(corners, dtype=np.float64)


def _distance_to_quad(points: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """2D distance from points to a (possibly degenerate) convex quad."""
    dists = np.full(points.shape[0], np.inf)
    signs = np.zeros((points.shape[0], 4))
    for i in range(4):
        a, b = quad[i], quad[(i + 1) % 4]
        ab = b - a
        ap = points - a
        denom = float(ab @ ab)
        t = np.clip(ap @ ab / denom, 0.0, 1.0) if denom > 0 else np.zeros(len(points))
        closest = a + t[:, None] * ab
        dists = np.minimum(dists, np.linalg.norm(points - closest, axis=1))
        signs[:, i] = ab[0] * ap[:, 1] - ab[1] * ap[:, 0]

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    area = 0.5 * abs(
        cross2(quad[1] - quad[0], quad[2] - quad[0])
        + cross2(quad[2] - quad[0], quad[3] - quad[0])
    )
    if area > 1e-9:
        inside = (signs >= 0).all(axis=1) | (signs <= 0).all(axis=1)
        dists = np.where(inside, 0.0, dists)
    return dists


def border_band_mask(
    split: ChunkSplit, dims, camera: Camera, band_width_px: int
) -> np.ndarray:
    """Pixels within band_width_px (>= 0) of any projected interior split plane."""
    if band_width_px < 0:
        raise ValueError(f"band_width_px must be >= 0, got {band_width_px}")
    h, w = camera.height, camera.width
    cols, rows = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    pixels = np.stack([cols.ravel(), rows.ravel()], axis=1)
    mask = np.zeros(h * w, dtype=bool)
    for plane in split.boundaries(dims):
        corners = _plane_corners(dims, split.axis, plane)
        prow, pcol = camera.project(corners)
        quad = np.stack([pcol, prow], axis=1)
        mask |= _distance_to_quad(pixels, quad) <= band_width_px
    return mask.reshape(h, w)


def border_artifact_metric(
    img_a: np.ndarray,
    img_b: np.ndarray,
    split: ChunkSplit,
    band_width_px: int,
    camera: Camera,
    dims,
) -> BorderMetric:
    """Mean absolute luminance difference inside the projected border band
    versus over the whole image; ratio uses a 1e-6 floor on the global mean.
    """
    if img_a.shape != img_b.shape:
        raise DimMismatch(f"image shapes differ: {img_a.shape} vs {img_b.shape}")
    diff = np.abs(luminance(img_a) - luminance(img_b))
    band = border_band_mask(split, dims, camera, band_width_px)
    border_mean = float(diff[band].mean()) if band.any() else 0.0
    global_mean = float(diff.mean())
    return BorderMetric(
        band_width_px=band_width_px,
        mean_abs_diff_border=border_mean,
        mean_abs_diff_global=global_mean,
        ratio=border_mean / max(global_mean, 1e-6),
    )
