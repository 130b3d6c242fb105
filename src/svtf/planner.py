"""Closed-form capacity arithmetic: padding and mip overheads, atlas limits,
upload-buffer sizes, and the 32-bit overflow guards.

Everything is computed with exact integer/rational arithmetic so reports are
identical across platforms. The padding factor is the exact ratio
(tile+2*pad)^3/tile^3 and the mip factor is exactly 8/7 (the limit of the
halving-chain series), not their rounded decimal forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .svt import SvtConfig, atlas_dims

UINT32_LIMIT = 2**32
INT32_LIMIT = 2**31
MIP_FACTOR = Fraction(8, 7)


@dataclass(frozen=True)
class PlanInputs:
    config: SvtConfig
    nonempty_voxels: int = 0
    bytes_per_voxel: int = 1
    mean_tile_occupancy: float = 1.0


@dataclass(frozen=True)
class CapacityReport:
    padding_factor: float
    mip_factor: float
    net_payload_voxels: int
    upload_buffer_bytes: int
    atlas_extent_estimate: int
    fits_uint32_upload: bool
    fits_int32_index: bool
    occupancy_breakeven: float


def padding_factor(config: SvtConfig) -> Fraction:
    return Fraction(config.padded_size**3, config.tile_size**3)


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def net_payload_voxels(config: SvtConfig) -> int:
    """Usable voxels of a maximal atlas once padding and mips take their cut:
    floor(extent^3 * tile^3/(tile+2*pad)^3 * 7/8).
    """
    capacity = Fraction(config.max_atlas_extent**3) / padding_factor(config) / MIP_FACTOR
    return math.floor(capacity)


def upload_buffer_bytes(nonempty_voxels: int, bytes_per_voxel: int, config: SvtConfig) -> int:
    """Estimated compressed-stream payload size in bytes.

    Scales the non-empty voxel count by the padding and mip factors; an
    actual build's exact payload is its padded non-empty voxel count times
    the bytes per voxel.
    """
    if nonempty_voxels < 0 or bytes_per_voxel < 0:
        raise ValueError("counts must be non-negative")
    size = Fraction(nonempty_voxels) * padding_factor(config) * MIP_FACTOR * bytes_per_voxel
    return _round_half_up(size)


def derive_tile_counts(
    nonempty_voxels: int, config: SvtConfig, mean_tile_occupancy: float = 1.0
) -> tuple[int, ...]:
    """Synthesize a per-mip tile-count chain from a voxel count and occupancy."""
    if not 0 < mean_tile_occupancy <= 1:
        raise ValueError("mean_tile_occupancy must be in (0, 1]")
    if nonempty_voxels <= 0:
        return ()
    tiles = max(1, round(nonempty_voxels / (mean_tile_occupancy * config.tile_size**3)))
    counts = []
    while tiles >= 1:
        counts.append(tiles)
        tiles //= 8
    return tuple(counts)


def atlas_extent_estimate(nonempty_tile_counts, config: SvtConfig) -> int:
    """A build's atlas width for these per-mip resident tile counts;
    AtlasCapacityExceeded when they outnumber the slot cube at the cap."""
    counts = [int(n) for n in nonempty_tile_counts]
    if min(counts, default=0) < 0:
        raise ValueError("tile counts must be non-negative")
    return atlas_dims(sum(counts), config)[0]


def check_overflow(inputs: PlanInputs) -> CapacityReport:
    """Assemble the full report, including the 32-bit overflow flags."""
    config = inputs.config
    pad_f = padding_factor(config)
    net = net_payload_voxels(config)
    upload = upload_buffer_bytes(inputs.nonempty_voxels, inputs.bytes_per_voxel, config)
    counts = derive_tile_counts(inputs.nonempty_voxels, config, inputs.mean_tile_occupancy)
    breakeven = (
        Fraction(UINT32_LIMIT) / (pad_f * MIP_FACTOR * max(inputs.bytes_per_voxel, 1))
    ) / net
    return CapacityReport(
        padding_factor=float(pad_f),
        mip_factor=float(MIP_FACTOR),
        net_payload_voxels=net,
        upload_buffer_bytes=upload,
        atlas_extent_estimate=atlas_extent_estimate(counts, config),
        fits_uint32_upload=upload < UINT32_LIMIT,
        fits_int32_index=inputs.nonempty_voxels < INT32_LIMIT,
        occupancy_breakeven=float(breakeven),
    )


def int32_regression_probe(payload_voxels: int) -> tuple[int, int]:
    """End byte offset of a payload computed in 64-bit vs wrap-on-overflow
    signed 32-bit, showing where the two diverge. No allocation happens.
    """
    offset_64 = int(payload_voxels)
    offset_32 = ((payload_voxels + INT32_LIMIT) % UINT32_LIMIT) - INT32_LIMIT
    return offset_64, offset_32


def report_lines(report: CapacityReport) -> list[str]:
    """Key:value lines, aligned for humans, parseable by machines."""
    rows = [
        ("padding_factor", repr(report.padding_factor)),
        ("mip_factor", repr(report.mip_factor)),
        ("net_payload_voxels", str(report.net_payload_voxels)),
        ("net_payload_givoxels", f"{report.net_payload_voxels / 2**30:.4f}"),
        ("upload_buffer_bytes", str(report.upload_buffer_bytes)),
        ("upload_buffer_gibytes", f"{report.upload_buffer_bytes / 2**30:.4f}"),
        ("atlas_extent_estimate", str(report.atlas_extent_estimate)),
        ("fits_uint32_upload", str(report.fits_uint32_upload).lower()),
        ("fits_int32_index", str(report.fits_int32_index).lower()),
        ("occupancy_breakeven", f"{report.occupancy_breakeven:.4f}"),
    ]
    width = max(len(k) for k, _ in rows) + 1
    return [f"{k + ':':<{width}} {v}" for k, v in rows]
