"""Seeded workload definitions: input generators, file writers, render setups.

Everything here depends only on the seed, so one seed always gives the same
input files and the same render parameters. The writers are the benchmark's
own (not the program's), so a parsed input can be checked against the
generated values independently of the code under test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "raw" or "segy": the file the session starts from
    tile_size: int
    image_from_source: bool  # time_to_image_s starts at the source file, else at the .svtf
    threads_all: bool  # render on every available core, else on one
    downsample: int
    shadow_steps: int


WORKLOADS = {
    "survey_u8": Workload("survey_u8", "raw", 16, True, True, 4, 32),
    "ct_f32_orbit": Workload("ct_f32_orbit", "raw", 16, False, False, 4, 32),
    "scatter_f32_stream": Workload("scatter_f32_stream", "segy", 8, True, False, 8, 16),
}
NAMES = tuple(WORKLOADS)

SURVEY_N = 256
CT_N = 160
SCATTER_N = 320
SCATTER_FILL = 0.03
ORBIT_DEGREES = (0.0, 30.0, 60.0, 90.0)


def generate(name: str, seed: int) -> np.ndarray:
    """The workload's dense volume, indexed [z, y, x]."""
    rng = np.random.default_rng(seed)
    if name == "survey_u8":
        # The c11 acceptance generator: empty above a sinusoidal horizon.
        n = SURVEY_N
        z, y, x = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij", sparse=True)
        surface = 96 + 20 * np.sin(x / 40.0) + 10 * np.cos(y / 30.0)
        return np.where(
            z > surface, (64 + 180 * rng.random((n, n, n))).astype(np.uint8), 0
        ).astype(np.uint8)
    if name == "ct_f32_orbit":
        return _ct_phantom(rng, CT_N)
    if name == "scatter_f32_stream":
        # ~3% of voxels hold +-k/4096 (k < 4096): every value, and zero, is
        # exact in both float32 and IBM base-16 floats.
        n = SCATTER_N
        data = np.zeros((n, n, n), dtype=np.float32)
        occupied = rng.random((n, n, n), dtype=np.float32) < SCATTER_FILL
        count = int(occupied.sum())
        k = rng.integers(1, 4096, size=count) * rng.choice(np.array([-1, 1]), size=count)
        data[occupied] = (k / 4096.0).astype(np.float32)
        return data
    raise KeyError(name)


def _ct_phantom(rng, n: int) -> np.ndarray:
    """Ellipsoidal body with a bright shell and denser blobs, in noisy air.

    Air is low non-zero noise, so every tile is resident; the transfer
    function window hides it.
    """
    c = (n - 1) / 2.0
    z, y, x = np.meshgrid(*(np.arange(n, dtype=np.float32),) * 3, indexing="ij", sparse=True)
    r = ((x - c) / (0.42 * n)) ** 2 + ((y - c) / (0.34 * n)) ** 2 + ((z - c) / (0.46 * n)) ** 2
    data = rng.uniform(0.004, 0.03, size=(n, n, n)).astype(np.float32)
    body = r <= 1.0
    data[body] = 0.25 + 0.02 * rng.standard_normal(int(body.sum()), dtype=np.float32)
    shell = body & (r > 0.82)
    data[shell] = 0.85
    for _ in range(6):
        cx, cy, cz = rng.uniform(0.3 * n, 0.7 * n, size=3)
        rad = rng.uniform(0.05, 0.12) * n
        blob = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= rad * rad
        data[blob & body & ~shell] = rng.uniform(0.4, 0.65)
    return np.clip(data, 0.004, 1.0).astype(np.float32)


def volume_digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


# --- input writers ---

def write_raw(path: Path, data: np.ndarray) -> None:
    """Little-endian raw voxels plus the key: value sidecar load_volume reads."""
    fmt = "u8" if data.dtype == np.uint8 else "f32"
    data.astype(data.dtype.newbyteorder("<")).tofile(path)
    nz, ny, nx = data.shape
    lo, hi = float(data.min()), float(data.max())
    Path(str(path) + ".meta").write_text(
        f"dims: {nx} {ny} {nz}\nformat: {fmt}\nendianness: little\n"
        f"value_range: {lo!r} {hi!r}\n"
    )


def ibm_words(values: np.ndarray) -> np.ndarray:
    """Encode floats as IBM base-16 words; the values must be exact in 24 bits."""
    v = values.astype(np.float64)
    mant, exp2 = np.frexp(np.abs(v))  # |v| = mant * 2^exp2, mant in [0.5, 1)
    exp16 = -(-exp2 // 4)  # smallest k with |v| < 16^k
    frac = np.ldexp(mant, exp2 - 4 * exp16 + 24)  # |v| / 16^k * 2^24, in [2^20, 2^24)
    if not np.array_equal(frac, np.floor(frac)):
        raise ValueError("values are not exact in IBM single precision")
    word = (
        np.where(v < 0, np.uint32(1 << 31), np.uint32(0))
        | ((exp16 + 64).astype(np.uint32) << np.uint32(24))
        | frac.astype(np.uint32)
    )
    return np.where(v == 0, np.uint32(0), word).astype(np.uint32)


def ibm_values(words: np.ndarray) -> np.ndarray:
    """Decode IBM base-16 words: (-1)^s * 16^(e-64) * fraction / 2^24."""
    words = words.astype(np.uint32)
    sign = np.where(words >> np.uint32(31) != 0, -1.0, 1.0)
    exp16 = ((words >> np.uint32(24)) & np.uint32(0x7F)).astype(np.int64)
    frac = (words & np.uint32(0xFFFFFF)).astype(np.float64)
    return sign * frac * np.ldexp(1.0, 4 * (exp16 - 64)) / float(2**24)


def write_segy_ibm(path: Path, data: np.ndarray) -> None:
    """SEG-Y rev 1, format 1 (IBM float), one trace per (inline, crossline).

    Axes follow the reader's default map: x = crossline, y = inline,
    z = sample.
    """
    nz, ny, nx = data.shape
    binary = np.zeros(400, dtype=np.uint8)
    for offset, value in ((16, 4000), (20, nz), (24, 1), (300, 0x0100), (302, 1)):
        binary[offset : offset + 2] = np.frombuffer(np.array(value, ">u2").tobytes(), np.uint8)
    traces = np.zeros((nx, 240 + 4 * nz), dtype=np.uint8)  # one inline at a time
    traces[:, 114:116] = np.frombuffer(np.array(nz, ">u2").tobytes(), np.uint8)
    traces[:, 192:196] = np.arange(1, nx + 1, dtype=">i4").view(np.uint8).reshape(nx, 4)
    with open(path, "wb") as fh:
        fh.write(bytes(3200))
        fh.write(binary.tobytes())
        for il in range(ny):
            traces[:, 188:192] = np.frombuffer(np.array(il + 1, ">i4").tobytes(), np.uint8)
            words = ibm_words(np.ascontiguousarray(data[:, il, :].T))  # [crossline, sample]
            traces[:, 240:] = words.astype(">u4").view(np.uint8).reshape(nx, 4 * nz)
            fh.write(traces.tobytes())


def voxel_reader(directory: Path, source: str, shape, dtype: str):
    """voxel(z, y, x) -> float64 values read from the input file on disk."""
    nz, ny, nx = shape
    if source == "segy":
        # 3600 header bytes, then per trace 60 header words and nz samples.
        words = np.memmap(directory / "input.sgy", ">u4", "r", offset=3600, shape=(ny, nx, 60 + nz))
        return lambda z, y, x: ibm_values(words[y, x, 60 + z])
    data = np.memmap(directory / "input.raw", dtype, "r", shape=tuple(shape))
    return lambda z, y, x: data[z, y, x].astype(np.float64)


# --- render set-ups ---

def render_setup(name: str, dims, svtf):
    """(transfer function, lights, list of RenderParams) for a workload.

    dims is the volume's VolumeDims; svtf is the imported program package.
    """
    nx, ny, nz = dims.x, dims.y, dims.z
    c = (nx / 2.0, ny / 2.0, nz / 2.0)
    if name == "survey_u8":
        tf = svtf.TransferFunction.grayscale(density_scale=0.5, emission_scale=0.6)
        lights = [svtf.DirectionalLight(direction=(0.3, -0.5, 0.8))]
        cam = svtf.Camera(eye=(128, 128, -300), look_at=(128, 128, 128), width=512, height=512)
        return tf, lights, [svtf.RenderParams(camera=cam, max_step_count=64)]
    if name == "ct_f32_orbit":
        ramp = np.linspace(0.0, 1.0, 256)
        lut = np.stack(
            [
                np.clip(ramp * 1.4, 0, 1),
                np.clip(ramp * 1.1, 0, 1),
                ramp,
                np.clip(ramp - 0.2, 0, 1),
            ],
            axis=1,
        )
        tf = svtf.TransferFunction(lut, density_scale=0.08, emission_scale=0.02, window=(0.1, 1.0))
        lights = [
            svtf.DirectionalLight(direction=(0.3, -0.5, 0.8)),
            svtf.PointLight(position=(c[0], 1.3 * ny, c[2]), radius=0.5 * nx, intensity=(1.0, 0.9, 0.8)),
        ]
        cut = ((0.0, 0.0, 1.0), -0.4 * nz)  # keeps z >= 0.4 * nz, opening the body
        frames = []
        for deg in ORBIT_DEGREES:
            a = math.radians(deg)
            eye = (c[0] + 1.6 * nx * math.sin(a), c[1] + 0.3 * ny, c[2] - 1.6 * nz * math.cos(a))
            cam = svtf.Camera(eye=eye, look_at=c, width=256, height=256)
            frames.append(svtf.RenderParams(camera=cam, max_step_count=64, cut_plane=cut))
        return tf, lights, frames
    if name == "scatter_f32_stream":
        tf = svtf.TransferFunction.grayscale(density_scale=2.0, emission_scale=0.5, window=(0.0, 1.0))
        lights = [svtf.DirectionalLight(direction=(0.3, -0.5, 0.8))]
        cam = svtf.Camera(eye=(c[0], c[1], -1.2 * nz), look_at=c, width=128, height=128)
        return tf, lights, [svtf.RenderParams(camera=cam, max_step_count=64)]
    raise KeyError(name)
