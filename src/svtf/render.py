"""Emission/absorption raymarcher over an SVT with a precomputed
illumination cache.

Lighting model: incident light at each point is precomputed per cache voxel
as sum over lights of intensity times Beer-Lambert transmittance along a
secondary march toward the light (isotropic scattering, so the cache is
camera independent). The marcher then composites, front to back with a
fixed step count across the ray's AABB span,

    radiance/length = emission_scale * lut_color * (1 + incident)

attenuated by extinction sigma = lut_opacity * density_scale. Sources are
sampled at step midpoints, which converges to the analytic transmittance
integral from below at second order in the step size.

Both marches run through one loop, _march, over the same blocks of
interleaved rays (_in_blocks). Each block clips its own rays to the volume
box, or to a point light, and writes each ray that ends straight into the
image's or the cache's arrays. _march is the one place that decides which
samples are left out, each of which would change no state, so images and
caches are bit-identical to marching every step. Each ray marches only
the steps of its window (_schedule): one slab test (_slab) clips it to
_live_box's box and, in the primary march, to within a voxel of the kept
side of the cut plane. Before addressing, _march leaves out the samples of
rays that have ended and those on the cut-away side of the plane. After the
footprint, it leaves out the samples whose base is NO_TILE in _live_box's
table: the cells that read only empty_value, those whose tile's value
range the transfer function hides (a value shows when it lies in the
window and its LUT row has sigma or a source), and, through the table's
footprint bits, the footprints inside resident tiles whose eight corners
all hold empty_value.

Each remaining sample's footprint is computed once
(sample.trilinear_footprint): its table base is the live test, and the
live rows of it are what the lerp blends. A ray that ends is written back
at once but its row stays, flagged off, until a quarter of the marching
rows have ended; then the rows are compacted in order.

Per-ray vectors (origins, directions, positions, sources, radiance and the
cache's light sums) are held channel-planar, as (3, n) arrays, so that each
arithmetic step runs over n rays at once rather than over rows of three.
Camera.rays, IlluminationCache.values and the image keep their row-major
(..., 3) layout at the edges.
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sample import far_clamped, trilinear_dense, trilinear_footprint, trilinear_lerp
from .svt import NO_TILE, FootprintTable, SparseVolumeTexture
from .volume import VolumeDims, VoxelFormat

MIN_TRANSMITTANCE = 1e-3
DEFAULT_DOWNSAMPLE = 4  # volume voxels per illumination-cache voxel, along each axis
DEFAULT_SHADOW_STEPS = 64  # steps per illumination-cache shadow ray
# _march leaves ended rays in place, flagged off, until they make up
# 1/_COMPACT_SHARE of its marching rows, and then compacts the rows.
_COMPACT_SHARE = 4
# _hidden widens each value range by this share of its larger magnitude: a
# float64 blend of values in [lo, hi] can leave it by a few ulps.
_BLEND_MARGIN = 2.0**-40


def _check_count(name: str, v) -> None:
    if not isinstance(v, numbers.Integral) or v < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


def _check_finite(name: str, v) -> None:
    if not np.isfinite(np.asarray(v, dtype=np.float64)).all():
        raise ValueError(f"{name} must be finite, got {v}")


def _check_positive(name: str, v, allow_zero=False) -> None:
    """ValueError unless every value of v is finite and > 0, or >= 0 with allow_zero."""
    _check_finite(name, v)
    low = np.min(v)
    if low < 0 or (low == 0 and not allow_zero):
        raise ValueError(f"{name} must be {'>=' if allow_zero else '>'} 0, got {v}")


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n == 0:
        raise ValueError("zero-length direction")
    return v / n


@dataclass(frozen=True)
class DirectionalLight:
    """Parallel light; `direction` is the direction the light travels."""

    direction: tuple[float, float, float]
    intensity: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_finite("direction", self.direction)
        object.__setattr__(self, "direction", tuple(_unit(self.direction)))
        _check_positive("intensity", self.intensity, allow_zero=True)

    def shadow_rays(self, centers):
        """(dirs, reach, attenuation) of the shadow rays from the (3, n)
        centers: toward the light, unbounded and unattenuated."""
        d = -np.asarray(self.direction, dtype=np.float64)
        return np.broadcast_to(d[:, None], centers.shape), None, 1.0


@dataclass(frozen=True)
class PointLight:
    """Point light with smooth radial falloff 1 / (1 + (d/radius)^2)."""

    position: tuple[float, float, float]
    radius: float = 1.0
    intensity: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_finite("position", self.position)
        _check_positive("radius", self.radius)
        _check_positive("intensity", self.intensity, allow_zero=True)

    def shadow_rays(self, centers):
        """(dirs, reach, attenuation) of the shadow rays from the (3, n)
        centers: toward the light, ending at it, with the radial falloff."""
        to_light = np.asarray(self.position, dtype=np.float64)[:, None] - centers
        dist = np.maximum(np.linalg.norm(to_light, axis=0), 1e-12)
        return to_light / dist, dist, 1.0 / (1.0 + (dist / self.radius) ** 2)


Light = DirectionalLight | PointLight


@dataclass
class TransferFunction:
    """256-entry RGBA lookup plus density/emission scales and a visibility window."""

    lut: np.ndarray  # (256, 4) floats in [0, 1]
    density_scale: float = 1.0
    emission_scale: float = 1.0
    window: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        self.lut = np.asarray(self.lut, dtype=np.float64)
        if self.lut.shape != (256, 4):
            raise ValueError("lut must have 256 RGBA entries")
        if not ((self.lut >= 0) & (self.lut <= 1)).all():  # NaN fails both
            raise ValueError("lut entries must lie in [0, 1]")
        if not self.window[0] < self.window[1]:
            raise ValueError("window must satisfy lo < hi")
        _check_positive("density_scale", self.density_scale, allow_zero=True)
        _check_positive("emission_scale", self.emission_scale, allow_zero=True)

    @staticmethod
    def grayscale(**kwargs) -> "TransferFunction":
        ramp = np.linspace(0.0, 1.0, 256)
        return TransferFunction(np.stack([ramp, ramp, ramp, ramp], axis=1), **kwargs)

    @staticmethod
    def from_lut_file(path, **kwargs) -> "TransferFunction":
        """Read 256 lines of 4 integers 0-255 (R G B A)."""
        rows = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"lut line needs 4 integers, got {line!r}")
            rows.append([int(p) for p in parts])
        if len(rows) != 256:
            raise ValueError(f"lut file must have 256 entries, got {len(rows)}")
        lut = np.asarray(rows, dtype=np.float64)
        if lut.min() < 0 or lut.max() > 255:
            raise ValueError("lut entries must be integers 0-255")
        return TransferFunction(lut / 255.0, **kwargs)

    def tables(self):
        """(sigma, rgb) by row: the 256 LUT entries, then row 256, zero, for
        samples outside the window."""
        sigma = np.append(self.lut[:, 3] * self.density_scale, 0.0)
        return sigma, np.vstack([self.lut[:, :3], np.zeros(3)])

    def rows(self, scalars: np.ndarray, fmt: VoxelFormat) -> np.ndarray:
        """The table row of each raw sample: its nearest LUT entry, or 256
        where the sample lies outside the window (NaN lies outside every
        window)."""
        u = scalars / 255.0 if fmt is VoxelFormat.U8 else scalars
        k = np.rint(u * 255.0)
        np.clip(k, 0, 255, out=k)
        shown = (u >= self.window[0]) & (u <= self.window[1])
        return np.where(shown, k, 256.0).astype(np.intp)


@dataclass(frozen=True)
class IlluminationCache:
    """Per-voxel incident RGB radiance on a grid downsampled from the volume.

    The cache holds its light as channel-first (3, z + 2, y + 2, x + 2)
    float64 planes: the values given, copied inside one voxel of edge copies
    per face as a padded tile is, read by the sparse corner rule. values
    becomes a read-only (z, y, x, 3) view of the interior, so what it shows
    is always what sample_incident reads, and dims is read off it.
    """

    downsample_factor: int
    values: np.ndarray  # (z, y, x, 3)
    planes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        planes = np.moveaxis(np.asarray(self.values, dtype=np.float64), -1, 0)
        planes = np.ascontiguousarray(np.pad(planes, [(0, 0)] + [(1, 1)] * 3, mode="edge"))
        values = np.moveaxis(planes[:, 1:-1, 1:-1, 1:-1], 0, -1)
        values.flags.writeable = False
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "values", values)

    @property
    def dims(self) -> VolumeDims:
        z, y, x = self.values.shape[:3]
        return VolumeDims(x, y, z)

    def sample_incident(self, px, py, pz) -> np.ndarray:
        """Incident RGB at mip-0 positions, as (3, n). Far and infinite
        positions read the clamped edge (sample.far_clamped), NaN reads NaN."""
        f = float(self.downsample_factor)
        with np.errstate(invalid="ignore"):  # the int64 cast of NaN rows
            return trilinear_dense(self.planes, *far_clamped(px / f, py / f, pz / f, 0))


@dataclass(frozen=True)
class Camera:
    eye: tuple[float, float, float]
    look_at: tuple[float, float, float]
    up: tuple[float, float, float] = (0.0, 1.0, 0.0)
    vfov_deg: float = 45.0
    width: int = 512
    height: int = 512
    ortho_height: float | None = None  # orthographic when set

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dims must be positive")
        for name in ("eye", "look_at", "up"):
            _check_finite(name, getattr(self, name))
        if not 0 < self.vfov_deg < 180:
            raise ValueError(f"vfov_deg must lie in (0, 180), got {self.vfov_deg}")
        if self.ortho_height is not None:
            _check_positive("ortho_height", self.ortho_height)

    def _basis(self):
        fwd = _unit(np.asarray(self.look_at, float) - np.asarray(self.eye, float))
        right = _unit(np.cross(fwd, _unit(self.up)))
        up = np.cross(right, fwd)
        return right, up, fwd

    def rays(self):
        """Per-pixel (origins, directions), each (H*W, 3), row-major pixels."""
        right, up, fwd = self._basis()
        w, h = self.width, self.height
        aspect = w / h
        ndc_x = ((np.arange(w) + 0.5) / w * 2.0 - 1.0)[None, :].repeat(h, axis=0)
        ndc_y = (1.0 - (np.arange(h) + 0.5) / h * 2.0)[:, None].repeat(w, axis=1)
        eye = np.asarray(self.eye, dtype=np.float64)
        if self.ortho_height is not None:
            half_h = self.ortho_height / 2.0
            origins = (
                eye[None, :]
                + (ndc_x.ravel() * half_h * aspect)[:, None] * right
                + (ndc_y.ravel() * half_h)[:, None] * up
            )
            dirs = np.broadcast_to(fwd, origins.shape).copy()
        else:
            th = math.tan(math.radians(self.vfov_deg) / 2.0)
            dirs = (
                fwd[None, :]
                + (ndc_x.ravel() * th * aspect)[:, None] * right
                + (ndc_y.ravel() * th)[:, None] * up
            )
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            origins = np.broadcast_to(eye, dirs.shape).copy()
        return origins, dirs

    def project(self, points: np.ndarray):
        """World points -> fractional (row, col) pixel coordinates."""
        right, up, fwd = self._basis()
        v = np.asarray(points, dtype=np.float64) - np.asarray(self.eye, dtype=np.float64)
        xc, yc, zc = v @ right, v @ up, v @ fwd
        aspect = self.width / self.height
        if self.ortho_height is not None:
            half_h = self.ortho_height / 2.0
            ndc_x = xc / (half_h * aspect)
            ndc_y = yc / half_h
        else:
            th = math.tan(math.radians(self.vfov_deg) / 2.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ndc_x = xc / zc / (th * aspect)
                ndc_y = yc / zc / th
        col = (ndc_x + 1.0) / 2.0 * self.width - 0.5
        row = (1.0 - ndc_y) / 2.0 * self.height - 0.5
        return row, col


@dataclass
class RenderParams:
    camera: Camera
    max_step_count: int = 1024  # preview ~32, quality ~512
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    cut_plane: tuple[tuple[float, float, float], float] | None = None
    mip: int = 0

    def __post_init__(self):
        _check_count("max_step_count", self.max_step_count)
        _check_finite("background", self.background)
        if self.cut_plane is not None:
            normal = self.cut_plane[0]
            _check_finite("cut_plane", (*normal, self.cut_plane[1]))
            with np.errstate(over="ignore"):  # _schedule's |n|: inf when it overflows
                length = np.linalg.norm(normal)
            if not np.any(normal) or length == np.inf:
                raise ValueError(f"cut_plane normal must be non-zero of finite length, got {normal}")


def _slab(o, d, lo, hi):
    """One axis of the slab test: (near, far) of rays o + t d against the
    slab [lo, hi]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t0 = (lo - o) * inv
        t1 = (hi - o) * inv
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1)
    # A parallel axis constrains nothing when the origin lies inside its
    # slab (faces inclusive) and everything when it does not.
    parallel = d == 0.0
    if parallel.any():
        inside = (o >= lo) & (o <= hi)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
    return near, far


def _ray_aabb(origins, dirs, lo, hi):
    """Slab intersection of (3, n) rays; returns (t_near, t_far) with t_near
    clamped to 0."""
    near, far = _slab(origins[0], dirs[0], lo[0], hi[0])
    for a in (1, 2):
        near_a, far_a = _slab(origins[a], dirs[a], lo[a], hi[a])
        near = np.maximum(near, near_a)
        far = np.minimum(far, far_a)
    return np.maximum(near, 0.0, out=near), far


def _hidden(tf: TransferFunction, fmt: VoxelFormat, lo, hi) -> np.ndarray:
    """Whether no value in each range [lo, hi] of raw values shows, with the
    ranges widened by _BLEND_MARGIN. A value shows when it lies inside the
    window and its row (TransferFunction.rows) has sigma != 0 or a non-zero
    source. A range with a non-finite end is never hidden.

    Both u and its row rint(u * 255) grow with the value, so the rows that
    values of a range can take are those from the row of its lowest value
    inside the window to the row of its highest.
    """
    sigma, rgb = tf.tables()
    lit = (sigma[:256] != 0.0) | (tf.emission_scale * rgb[:256]).any(axis=1)
    lit_below = np.concatenate([[0], np.cumsum(lit)])  # lit rows before each row
    with np.errstate(invalid="ignore"):  # the margin of an infinite end
        margin = _BLEND_MARGIN * np.maximum(np.abs(lo), np.abs(hi))
        u_lo, u_hi = lo - margin, hi + margin
    if fmt is VoxelFormat.U8:
        u_lo, u_hi = u_lo / 255.0, u_hi / 255.0
    u_lo, u_hi = np.maximum(u_lo, tf.window[0]), np.minimum(u_hi, tf.window[1])
    # fmax and fmin send a NaN row, of a non-finite range, to 0.
    k_lo, k_hi = (
        np.fmin(np.fmax(np.rint(u * 255.0), 0), 255).astype(np.intp) for u in (u_lo, u_hi)
    )
    shows = (u_lo <= u_hi) & (lit_below[k_hi + 1] > lit_below[k_lo])
    return ~shows & np.isfinite(lo) & np.isfinite(hi)


def _live_box(svt: SparseVolumeTexture, tf: TransferFunction, mip: int):
    """(box, table): the mip-0 box (lo, hi) around the live cells of a mip
    level and the level's footprint table with NO_TILE at every cell that is
    not live (the cached table's bases when no cell is hidden) and the
    texture's footprint bits, or None when skipping could change a result or
    would skip nothing. The one place that decides empty-space skipping.

    A cell is hidden when no value its footprints can blend shows
    (_hidden). A cell that names a tile blends values of that tile's padded
    block, so it is hidden when the slot's value range (svt.slot_ranges) is;
    the slot of a cell is (base + flat index of any of its voxels) //
    span^3. A cell that names no tile blends empty_value alone, so it is
    hidden when [empty_value, empty_value] is; when it is not, skipping is
    off. Inside a live cell, a footprint whose eight corners all hold
    empty_value blends it alone as well, so it is hidden too: the table
    carries svt.footprint_bits, and sample.trilinear_footprint gives each
    footprint whose bit is clear base NO_TILE. Where some atlas voxel holds
    empty_value, the table is returned even when every cell is live. A
    hidden sample has sigma 0 and a zero source, so its step would multiply
    transmittance by 1.0 and add 0.0. So _march leaves out each step whose
    footprint base in the returned table is NO_TILE, and _schedule bounds
    each ray's steps by the box.

    The box is one voxel wider on each side than the positions whose base
    corner lies in a live cell. Every sample that may show therefore lies a
    voxel or more inside each face of the box that is not a face of the
    volume, far beyond any rounding error of the slab test. With no live
    cell the box lies at infinity, which no ray's window reaches.
    """
    table = svt.footprint_table(mip)  # fetched here, before any march thread starts
    empty = np.full(1, svt.config.empty_value)
    if not _hidden(tf, svt.format, empty, empty)[0]:
        return None
    live = table.base != NO_TILE  # a cell that names no tile reads empty_value: hidden
    hidden = _hidden(tf, svt.format, *svt.slot_ranges())  # fetched here too
    bits = svt.footprint_bits()  # and these
    base = table.base
    if hidden.any():
        ts, span = svt.config.tile_size, svt.config.padded_size
        # A voxel of each cell, per axis: the first of its tile, or its last layer.
        cells = np.ogrid[tuple(map(slice, live.shape))]
        z, y, x = ((c // 2) * ts + c % 2 * (ts - 1) for c in cells)
        slot = (table.base + (z * span + y) * span + x) // span**3
        shown = live & ~hidden.take(slot, mode="clip")  # a NO_TILE cell's slot clips to 0
        if (shown != live).any():
            live = shown
            base = np.where(live, base, NO_TILE)
    if live.all() and bits is None:
        return None
    table = FootprintTable(base, table.cells, bits)
    if not live.any():
        return (np.full(3, np.inf), np.full(3, np.inf)), table
    scale = float(1 << mip)
    # Per axis, the voxels that are base corners in a live cell.
    on = [
        np.flatnonzero(live.any(axis=other)[cell])
        for other, cell in zip(((0, 1), (0, 2), (1, 2)), table.cells)
    ]
    lo = np.maximum([(v[0] - 0.5) * scale for v in on], 0.0)
    hi = np.minimum([(v[-1] + 2.5) * scale for v in on], _extent(svt))
    return (lo, hi), table


def _extent(svt: SparseVolumeTexture) -> np.ndarray:
    vd = svt.virtual_dims
    return np.asarray([vd.x, vd.y, vd.z], dtype=np.float64)


def _drop(arrays, s: int, k: int, done: np.ndarray) -> int:
    """Remove the rays flagged in done from rows s:k (the last axis) of
    every array, keeping the order of the rest, which move up to end at row
    k. Returns the new first row."""
    kept = s + np.flatnonzero(~done)
    s2 = k - len(kept)
    for a in arrays:
        a[..., s2:k] = a.take(kept, axis=-1)
    return s2


def _cut_keeps(p, cut_n, cut_off) -> np.ndarray:
    """Whether each of the (3, m) positions p lies on the kept side of the
    cut plane. The dot product runs on row-major (m, 3) positions: its BLAS
    summation order fixes the bits of the test."""
    return p.T.copy() @ cut_n + cut_off >= 0.0


def _march(
    svt, mip, skip, origins, dirs, block, steps, outs, step,
    stop=None, reach=None, positions=True, cut=None,
):
    """March the rays `block` of the (3, n) origins and dirs across the
    volume box, clipped to reach[block] when reach is given, in `steps`
    steps of equal length dt each, sampling the mip level at step
    midpoints. Rays that miss the box are left out.

    outs are the caller's per-ray result arrays, ray index last: each
    marching ray's columns seed its march state and take it back when the
    ray ends, so blocks of disjoint rays may march at once.
    step(p, scalars, sel, dts, state) updates the state rows sel of the
    marching rays from their (3, m) positions p (None unless positions),
    their trilinear samples and step lengths dts; stop(*state rows s:k),
    when given, flags the marching rays that end early. skip is what
    _live_box returns, None or (box, table); the footprints are read
    through its table. cut, when given, is the plane (normal, offset)
    whose negative side is cut away.

    The one place that decides which samples are left out: those of rays
    that have ended, and those that would change no state because they
    have sigma == 0 and a zero source: a step outside its ray's window
    (_schedule, from the box and the cut plane), a sample on the cut-away
    side of the plane, or, when skip is given, one whose footprint base is
    NO_TILE in its table: every sample that reads empty_value alone or
    that the transfer function hides. Rows s: of the state hold the rays
    still marching, sorted by first step, so the rays marching at step i
    are rows s:k. Of those, the ended and the cut-away rows are dropped
    before addressing, and no footprint (sample.Footprint) is computed when
    none is left; then the rows whose base is NO_TILE are dropped, and only
    the rest are blended. A ray that ends is written back and flagged off
    at once; the rows are compacted, in order, only when the ended rows
    reach 1/_COMPACT_SHARE of rows s:k.
    """
    box, table = skip or (None, None)
    o, d = origins.take(block, axis=1), dirs.take(block, axis=1)
    t0, t1 = _ray_aabb(o, d, np.zeros(3), _extent(svt))
    if reach is not None:
        t1 = np.minimum(t1, reach[block])
    dt = (t1 - t0) / steps
    rays, first, last = _schedule(box, cut, o, d, t0, dt, steps, t1 > t0)
    o, d, t0, dt = o.take(rays, axis=1), d.take(rays, axis=1), t0[rays], dt[rays]
    rays = block[rays]
    state = [out.take(rays, axis=-1) for out in outs]
    on = np.ones(len(rays), dtype=bool)
    i = s = ended = 0
    while s < len(rays):
        i = max(i, int(first[s]))
        k = s + int(np.searchsorted(first[s:], i, side="right"))
        rows = slice(s, k)
        p = d[:, rows] * (t0[rows] + (i + 0.5) * dt[rows])
        p += o[:, rows]
        sampled = on[rows] if ended else None
        if cut is not None:
            kept = _cut_keeps(p, *cut)
            sampled = kept if sampled is None else sampled & kept
        keep = None  # the rows of s:k that sample, when not all of them do
        if sampled is not None and not sampled.all():
            keep = np.flatnonzero(sampled)
            p = p.take(keep, axis=1)
        if p.shape[1]:
            fp = trilinear_footprint(svt, p[0], p[1], p[2], mip, table)
            if not positions:
                p = None
            live = None if box is None else fp.base != NO_TILE
            if live is not None and not live.all():
                live = np.flatnonzero(live)
                fp.select(live)
                if p is not None:
                    p = p.take(live, axis=1)
                keep = live if keep is None else keep[live]
                del live  # before the lerp allocates, as fp below
            if len(fp.base):
                sel = rows if keep is None else s + keep
                samples = trilinear_lerp(svt, fp)
                del fp  # before step allocates: this bounds the peak memory
                step(p, samples, sel, dt[sel], state)
        i += 1
        done = last[rows] <= i
        if stop is not None:
            done |= stop(*(a[..., rows] for a in state))
        if ended:
            done &= on[rows]
        if done.any():
            gone = s + np.flatnonzero(done)
            for out, a in zip(outs, state):
                out[..., rays[gone]] = a[..., gone]
            on[gone] = False
            ended += len(gone)
            if ended * _COMPACT_SHARE >= k - s:
                s = _drop((rays, o, d, t0, dt, first, last, *state), s, k, ~on[rows])
                on[s:k] = True
                ended = 0


def _in_blocks(fn, rows: np.ndarray, threads: int) -> None:
    """fn(block) for the rays of a (rows, width) grid of ray indices: one
    block of every ray on one thread, else two blocks per thread of
    interleaved rows, so that they hold alike shares of empty and dense
    rays. Each block pays per-step Python work under the interpreter lock,
    so fewer blocks run faster, while smaller blocks keep the per-step
    temporaries, and so peak memory, low."""
    if threads == 1 or len(rows) <= 1:
        fn(rows.ravel())
        return
    count = min(2 * threads, len(rows))
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fn, [rows[r::count].ravel() for r in range(count)]))


def build_illumination_cache(
    svt: SparseVolumeTexture,
    tf: TransferFunction,
    lights,
    downsample_factor: int = DEFAULT_DOWNSAMPLE,
    shadow_steps: int = DEFAULT_SHADOW_STEPS,
    threads: int = 1,
) -> IlluminationCache:
    """Beer-Lambert transmittance from every cache voxel toward every light.

    Light contributions add linearly, so the cache of a union of light sets
    is the sum of the individual caches. Deterministic: the cache is
    bit-identical for any thread count (voxels are independent).
    """
    _check_count("downsample_factor", downsample_factor)
    _check_count("shadow_steps", shadow_steps)
    _check_count("threads", threads)
    lights = list(lights)
    for light in lights:
        if not isinstance(light, Light):
            raise TypeError(f"unknown light type {type(light).__name__}")
    dims = svt.virtual_dims.ceil_div(downsample_factor)
    f = float(downsample_factor)
    zc, yc, xc = np.meshgrid(
        (np.arange(dims.z) + 0.5) * f,
        (np.arange(dims.y) + 0.5) * f,
        (np.arange(dims.x) + 0.5) * f,
        indexing="ij",
        sparse=True,
    )
    centers = np.stack(np.broadcast_arrays(xc, yc, zc)).reshape(3, -1)
    skip = _live_box(svt, tf, 0)
    sigma_of, _ = tf.tables()

    def absorb(p, scalars, sel, dts, state):
        state[0][sel] += sigma_of[tf.rows(scalars, svt.format)] * dts

    planes = np.zeros(centers.shape, dtype=np.float64)
    voxel_rows = np.arange(centers.shape[1]).reshape(dims.z * dims.y, dims.x)
    for light in lights:
        dirs, reach, atten = light.shadow_rays(centers)
        tau = np.zeros(centers.shape[1], dtype=np.float64)
        _in_blocks(
            lambda b: _march(
                svt, 0, skip, centers, dirs, b, shadow_steps, [tau], absorb,
                reach=reach, positions=False,
            ),
            voxel_rows, threads,
        )
        planes += np.asarray(light.intensity, dtype=np.float64)[:, None] * (atten * np.exp(-tau))
    values = np.moveaxis(planes.reshape(3, dims.z, dims.y, dims.x), 0, -1)
    return IlluminationCache(downsample_factor=downsample_factor, values=values)


def _schedule(box, cut, origins, dirs, t0, dt, steps, march):
    """The rays flagged in march whose step window is not empty, sorted by
    first step, and their [first, last) windows: the steps whose t lies in
    every slab window (_slab) of the ray, with a one-step margin on each
    side. The windows are the live box's, when there is one, and the cut
    plane's, when there is one: the slab n.(o + t d) >= -(offset + |n|),
    within one voxel of the kept side. origins and dirs are (3, n).

    The voxel of margin dwarfs the rounding of n.d and of the crossing over
    the ray's length, for any origin and offset far below 2^52 voxels, so
    _cut_keeps keeps no sample outside the window and still decides every
    sample inside it. A NaN bound, from a non-finite ray or an n.o that
    overflows, leaves the window open."""
    windows = [] if box is None else [_ray_aabb(origins, dirs, *box)]
    if cut is not None:
        n, offset = cut
        at = np.fmin(n @ origins, np.inf)  # NaN reads as inf, inside even when parallel
        windows.append(_slab(at, n @ dirs, -(offset + float(np.linalg.norm(n))), np.inf))
    enter, leave = -np.inf, np.inf
    for near, far in windows:
        enter, leave = np.fmax(enter, near), np.fmin(leave, far)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.floor((enter - t0) / dt - 0.5) - 1.0
        last = np.floor((leave - t0) / dt - 0.5) + 2.0
    # NaN, from dt == 0 or a non-finite ray, gives the full window.
    first, last = np.fmin(np.fmax(first, 0), steps), np.fmax(np.fmin(last, steps), 0)
    rays = np.flatnonzero(march & (first < last))
    rays = rays[np.argsort(first[rays], kind="stable")]
    return rays, first[rays].astype(np.int64), last[rays].astype(np.int64)


def raymarch(
    svt: SparseVolumeTexture,
    cache: IlluminationCache,
    tf: TransferFunction,
    params: RenderParams,
    threads: int = 1,
) -> np.ndarray:
    """Render the volume to a float RGB image of shape (height, width, 3).

    Deterministic: identical inputs produce bit-identical images for any
    thread count (pixels are independent).
    """
    _check_count("threads", threads)
    cam = params.camera
    origins, dirs = (np.ascontiguousarray(a.T) for a in cam.rays())
    n = origins.shape[1]
    radiance = np.zeros((3, n), dtype=np.float64)
    trans = np.ones(n, dtype=np.float64)
    skip = _live_box(svt, tf, params.mip)
    sigma_of, rgb_of = tf.tables()
    source_of = np.ascontiguousarray((tf.emission_scale * rgb_of).T)
    # Incident light only matters where the transfer function emits;
    # rgb == 0 kills the contribution regardless of the cache value.
    lit_of = rgb_of.any(axis=1)
    cut = params.cut_plane
    if cut is not None:
        cut = np.asarray(cut[0], dtype=np.float64), float(cut[1])

    def shade(p, scalars, sel, dts, state):
        rad, tr = state
        row = tf.rows(scalars, svt.format)
        sigma = sigma_of[row]
        source = source_of.take(row, axis=1)
        lit = np.flatnonzero(lit_of[row])
        if len(lit):
            q = p.take(lit, axis=1)
            # Channel by channel: fancy indexing along the ray axis of a
            # (3, m) array costs twice as much.
            for ch, f in zip(source, 1.0 + cache.sample_incident(q[0], q[1], q[2])):
                ch[lit] *= f
        e_half = np.exp(-0.5 * dts * sigma)
        for ch, v in zip(rad, (tr[sel] * e_half * dts) * source):
            ch[sel] += v
        tr[sel] *= e_half * e_half

    _in_blocks(
        lambda b: _march(
            svt, params.mip, skip, origins, dirs, b, params.max_step_count, [radiance, trans],
            shade, stop=lambda rad, tr: ~(tr > MIN_TRANSMITTANCE), cut=cut,
        ),
        np.arange(n).reshape(cam.height, cam.width), threads,
    )
    img = trans[:, None] * np.asarray(params.background, dtype=np.float64)[None, :]
    img += radiance.T
    return img.reshape(cam.height, cam.width, 3)


def write_image(image: np.ndarray, path) -> None:
    """Write a binary PPM (P6), 8 bits per channel, values clamped to [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("image must have shape (height, width, 3)")
    h, w = image.shape[:2]
    quantized = np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def luminance(image: np.ndarray) -> np.ndarray:
    return image @ np.asarray([0.2126, 0.7152, 0.0722])
