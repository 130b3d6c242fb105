"""Occupancy-compressed upload stream: the CPU analog of the GPU
upload/decompress pass.

Each resident tile becomes one record: its occupancy bitmask followed by
the non-empty values in padded raster order (the record encoding of
svt.encode_records, shared with the container file). The value stream is
cut into windows of at most 2^27 elements (the per-dispatch upload limit);
tiles may span a window boundary. All offsets are unsigned 64-bit. The
stream's byte size, and whether it overflows a uint32 (the hard failure the
stock engine guards with), are read off the records, not stored.

A .svtu file is read and written by the same svt.RecordFile code as the
container. Its header holds the byte size and the overflow flag as well;
load_upload rejects a file whose records disagree with either, and
apply_upload rejects a stream built under another tile size, pad,
empty_value or float_empty_threshold than the config it is applied with.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptStream
from .planner import UINT32_LIMIT
from .svt import (
    RecordFile,
    SparseVolumeTexture,
    SvtConfig,
    TileAtlas,
    _checked_records,
    _expand,
    check_available,
    encode_records,
    header_config,
    read_records,
    tile_counts,
    value_count,
)
from .volume import VoxelFormat

log = logging.getLogger(__name__)

WINDOW_ELEMENTS = 2**27


@dataclass
class UploadBuffer:
    """Serialized tile records plus the window table used to stream them."""

    config: SvtConfig
    format: VoxelFormat
    records: np.ndarray  # uint8, the records back to back in slot order
    tile_data_offsets: np.ndarray  # uint64 start offset of each record
    windows: list[tuple[int, int]]  # (start_element, element_count)

    @property
    def tile_count(self) -> int:
        return len(self.tile_data_offsets)

    @property
    def total_bytes(self) -> int:
        return self.records.size

    @property
    def exceeds_uint32(self) -> bool:
        return self.total_bytes >= UINT32_LIMIT

    @property
    def total_elements(self) -> int:
        return value_count(self.records, self.tile_count, self.config, self.format)


def window_table(total_elements: int, window_elements: int = WINDOW_ELEMENTS):
    """Greedy partition of the element stream into windows of bounded size."""
    if not 1 <= window_elements <= WINDOW_ELEMENTS:
        raise ValueError(f"window size must be in [1, 2^27], got {window_elements}")
    windows = []
    start = 0
    while start < total_elements:
        count = min(window_elements, total_elements - start)
        windows.append((start, count))
        start += count
    return windows


def serialize_upload(
    svt: SparseVolumeTexture, window_elements: int = WINDOW_ELEMENTS
) -> UploadBuffer:
    """Emit tiles in atlas-slot order as occupancy-compressed records."""
    offsets, records = encode_records(svt)
    buffer = UploadBuffer(svt.config, svt.format, records, offsets, windows=[])
    if buffer.exceeds_uint32:
        log.warning("upload stream is %d bytes, beyond the uint32 offset range", records.size)
    buffer.windows = window_table(buffer.total_elements, window_elements)
    return buffer


def _stream_fields(config: SvtConfig) -> tuple:
    """The config fields a stream header holds, in its order; not the extent."""
    return config.tile_size, config.pad, config.empty_value, config.float_empty_threshold


def apply_upload(buffer: UploadBuffer, config: SvtConfig, page_tables) -> TileAtlas:
    """Expand an upload stream back into a dense tile atlas.

    The windows must partition the element stream in order. A tile whose
    payload straddles a window boundary is complete once the next window
    has arrived, so with every window present the atlas does not depend on
    where the boundaries fall. Tile-count, config, window-table, offset and
    record-size inconsistencies raise CorruptStream; the config's
    max_atlas_extent is the caller's, and the stream does not hold one.
    """
    expected = sum(tile_counts(page_tables))
    if buffer.tile_count != expected:
        raise CorruptStream(
            f"stream has {buffer.tile_count} tiles, page tables reference {expected}"
        )
    stream, applied = _stream_fields(buffer.config), _stream_fields(config)
    bits = struct.Struct("<dd").pack
    # Floats compare by their bits: an f32 atlas holds -0.0 and 0.0 apart.
    if stream[:2] != applied[:2] or bits(*stream[2:]) != bits(*applied[2:]):
        raise CorruptStream(
            f"stream tile_size, pad, empty_value and float_empty_threshold are {stream}, "
            f"the config's are {applied}"
        )

    total_elements = buffer.total_elements
    covered = 0
    for start, count in buffer.windows:
        if start != covered or count < 1 or count > WINDOW_ELEMENTS:
            raise CorruptStream("window table does not partition the element stream")
        covered += count
    if covered != total_elements:
        raise CorruptStream(
            f"windows cover {covered} elements, stream has {total_elements}"
        )

    held = _checked_records(buffer.records, buffer.tile_data_offsets, config, buffer.format.dtype)
    return TileAtlas(_expand(held))


# --- stream dump file ---

SVTU_MAGIC = b"SVTU"
SVTU_VERSION = 1
SVTU = RecordFile(
    SVTU_MAGIC, SVTU_VERSION, struct.Struct("<4sII IIdd QQI Q"), "SVTU upload stream"
)


def save_upload(buffer: UploadBuffer, path) -> None:
    fields = (
        *_stream_fields(buffer.config),
        buffer.tile_count,
        buffer.total_bytes,
        int(buffer.exceeds_uint32),
        len(buffer.windows),
    )
    windows = np.asarray(buffer.windows, dtype="<u8")
    SVTU.write(path, buffer.format, fields, [windows], buffer.tile_data_offsets, buffer.records)


def load_upload(path, max_atlas_extent: int = SvtConfig.max_atlas_extent) -> UploadBuffer:
    """Read a stream file and check its header; apply_upload checks the records.

    The header's record byte count and uint32 overflow flag must be what the
    records give, or the file is a CorruptStream.
    """
    raw, fmt_code, fields = SVTU.read(path)
    tile_size, pad, empty_value, threshold = fields[:4]
    tile_count, total_bytes, overflow, window_count = fields[4:]
    fmt, config = header_config(
        path, fmt_code, tile_size, pad, max_atlas_extent, empty_value, threshold
    )
    pos = SVTU.header.size
    check_available(raw, pos, 16 * window_count, path, "window table")
    windows = np.frombuffer(raw, dtype="<u8", count=2 * window_count, offset=pos).reshape(-1, 2)
    offsets, records = read_records(raw, pos + 16 * window_count, tile_count, path)
    if records.size != total_bytes:
        raise CorruptStream(f"{path}: {records.size} record bytes, header says {total_bytes}")
    buffer = UploadBuffer(config, fmt, records, offsets, [tuple(w) for w in windows.tolist()])
    if overflow != buffer.exceeds_uint32:
        raise CorruptStream(
            f"{path}: uint32 overflow flag {overflow}, {total_bytes} record bytes give "
            f"{int(buffer.exceeds_uint32)}"
        )
    return buffer
