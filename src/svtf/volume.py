"""Dense scalar volumes: raw binary ingestion and 8-bit normalization.

Voxel data is held as a 3D numpy array indexed [z, y, x], so the C-order
flat view is in x-fastest raster order (index = x + nx*(y + ny*z)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateRange, SizeMismatch


class VoxelFormat(Enum):
    U8 = "u8"
    F32 = "f32"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint8 if self is VoxelFormat.U8 else np.float32)

    @property
    def bytes_per_voxel(self) -> int:
        return self.dtype.itemsize


@dataclass(frozen=True)
class VolumeDims:
    """Voxel counts per axis; all positive, product must fit in 64 bits."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        if min(self.x, self.y, self.z) <= 0:
            raise ValueError(f"dims must be positive, got {self}")
        if self.x * self.y * self.z >= 2**64:
            raise ValueError("voxel count does not fit in unsigned 64-bit")

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    def ceil_div(self, f: int) -> "VolumeDims":
        """These dims divided by f per axis, rounded up: the grid of f^3-voxel
        cells that covers them."""
        return VolumeDims(-(-self.x // f), -(-self.y // f), -(-self.z // f))

    def as_zyx(self) -> tuple[int, int, int]:
        return (self.z, self.y, self.x)

    @staticmethod
    def from_zyx(shape) -> "VolumeDims":
        return VolumeDims(x=int(shape[2]), y=int(shape[1]), z=int(shape[0]))


@dataclass
class DenseVolume:
    """A dense scalar grid with format and source value range metadata."""

    dims: VolumeDims
    format: VoxelFormat
    data: np.ndarray  # shape dims.as_zyx(), dtype format.dtype
    value_range: tuple[float, float] = field(default=(0.0, 0.0))

    def __post_init__(self):
        if self.data.shape != self.dims.as_zyx():
            raise ValueError(
                f"data shape {self.data.shape} != dims {self.dims.as_zyx()}"
            )
        if self.value_range[0] > self.value_range[1]:
            raise ValueError(f"inverted value_range {self.value_range}")

    @staticmethod
    def from_array(data: np.ndarray, format: VoxelFormat) -> "DenseVolume":
        data = np.ascontiguousarray(data, dtype=format.dtype)
        lo = float(data.min()) if data.size else 0.0
        hi = float(data.max()) if data.size else 0.0
        return DenseVolume(VolumeDims.from_zyx(data.shape), format, data, (lo, hi))


def read_raw(
    path, dims: VolumeDims, format: VoxelFormat, endianness: str = "little"
) -> DenseVolume:
    """Read a headerless binary volume, converting byte order to host.

    The file length must equal dims.count * bytes-per-voxel exactly; it is
    checked before anything is allocated, and the voxels are read once.
    """
    if endianness not in ("little", "big"):
        raise DataError(f"unknown endianness {endianness!r}")
    size = Path(path).stat().st_size
    expected = dims.count * format.bytes_per_voxel
    if size != expected:
        raise SizeMismatch(
            f"{path}: file is {size} bytes, expected {expected} "
            f"for {dims.x}x{dims.y}x{dims.z} {format.value}"
        )
    dtype = format.dtype.newbyteorder("<" if endianness == "little" else ">")
    data = np.fromfile(path, dtype=dtype, count=dims.count)
    if not dtype.isnative:
        data = data.byteswap(inplace=True).view(format.dtype)
    return DenseVolume.from_array(data.reshape(dims.as_zyx()), format)


def normalize_to_u8(volume: DenseVolume, value_range=None) -> DenseVolume:
    """Rescale values onto 0..255 with round-half-up, clamping outside the range.
    DegenerateRange unless lo < hi and hi - lo is finite.

    The output volume keeps the normalization range as value_range so the
    original scale stays recoverable.
    """
    if value_range is None:
        value_range = volume.value_range
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (lo < hi and math.isfinite(hi - lo)):
        raise DegenerateRange(f"range ({lo}, {hi}) has no finite width")
    scaled = (volume.data.astype(np.float64) - lo) / (hi - lo)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    quantized = np.floor(scaled * 255.0 + 0.5).astype(np.uint8)
    return DenseVolume(volume.dims, VoxelFormat.U8, quantized, (lo, hi))


# Plain-text sidecar accompanying raw volume files: key:value lines.

def save_volume(volume: DenseVolume, path) -> None:
    """Write a volume as little-endian raw bytes plus a `.meta` sidecar."""
    path = Path(path)
    data = np.ascontiguousarray(volume.data, dtype=volume.format.dtype.newbyteorder("<"))
    path.write_bytes(data.tobytes())
    lines = [
        f"dims: {volume.dims.x} {volume.dims.y} {volume.dims.z}",
        f"format: {volume.format.value}",
        "endianness: little",
        f"value_range: {volume.value_range[0]!r} {volume.value_range[1]!r}",
    ]
    Path(str(path) + ".meta").write_text("\n".join(lines) + "\n")


def parse_sidecar(text: str) -> dict:
    fields = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DataError(f"sidecar line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def load_volume(path, dims=None, format=None, endianness=None) -> DenseVolume:
    """Load a raw volume; metadata comes from the sidecar unless overridden."""
    path = Path(path)
    sidecar = Path(str(path) + ".meta")
    fields = parse_sidecar(sidecar.read_text()) if sidecar.exists() else {}
    if dims is None:
        try:
            x, y, z = (int(v) for v in fields["dims"].split())
        except (KeyError, ValueError):
            raise DataError(f"{path}: no usable 'dims' in sidecar and none given")
        dims = VolumeDims(x, y, z)
    if format is None:
        try:
            format = VoxelFormat(fields.get("format", "u8"))
        except ValueError:
            raise DataError(f"{path}: unknown format {fields.get('format')!r}")
    if endianness is None:
        endianness = fields.get("endianness", "little")
    volume = read_raw(path, dims, format, endianness)
    if "value_range" in fields:
        try:
            lo, hi = (float(v) for v in fields["value_range"].split())
        except ValueError:
            raise DataError(f"{path}: malformed value_range in sidecar")
        if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
            volume.value_range = (lo, hi)
    return volume
