"""Occupancy-compressed upload stream: the CPU analog of the GPU
upload/decompress pass.

Each resident tile becomes one record: its occupancy bitmask followed by
the non-empty values in padded raster order (the record encoding of
svt.encode_records, shared with the container file). The value stream is
cut into windows of at most 2^27 elements (the per-dispatch upload limit);
tiles may span a window boundary. All offsets are unsigned 64-bit; a flag
records streams whose byte size would overflow a uint32, which is the hard
failure the stock engine guards with.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptStream, DataError
from .planner import UINT32_LIMIT
from .svt import (
    _FORMAT_CODES,
    EMPTY_ENTRY,
    SparseVolumeTexture,
    SvtConfig,
    TileAtlas,
    check_available,
    check_empty_value,
    decode_records,
    encode_records,
    format_for_code,
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
    total_bytes: int
    exceeds_uint32: bool

    @property
    def tile_count(self) -> int:
        return len(self.tile_data_offsets)

    @property
    def total_elements(self) -> int:
        masks = self.tile_count * self.config.occupancy_mask_bytes
        return (self.records.size - masks) // self.format.bytes_per_voxel


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
    offsets, records = encode_records(svt.atlas, svt.slot_count, svt.config)
    exceeds = records.size >= UINT32_LIMIT
    if exceeds:
        log.warning("upload stream is %d bytes, beyond the uint32 offset range", records.size)
    buffer = UploadBuffer(
        config=svt.config,
        format=svt.format,
        records=records,
        tile_data_offsets=offsets,
        windows=[],
        total_bytes=records.size,
        exceeds_uint32=exceeds,
    )
    buffer.windows = window_table(buffer.total_elements, window_elements)
    return buffer


def _expected_tile_count(page_tables) -> int:
    return int(sum(int((t.entries != EMPTY_ENTRY).sum()) for t in page_tables))


def apply_upload(buffer: UploadBuffer, config: SvtConfig, page_tables) -> TileAtlas:
    """Expand an upload stream back into a dense tile atlas.

    The windows must partition the element stream in order. A tile whose
    payload straddles a window boundary is complete once the next window
    has arrived, so with every window present the atlas does not depend on
    where the boundaries fall. Tile-count, window-table, offset and
    record-size inconsistencies raise CorruptStream.
    """
    expected = _expected_tile_count(page_tables)
    if buffer.tile_count != expected:
        raise CorruptStream(
            f"stream has {buffer.tile_count} tiles, page tables reference {expected}"
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
    if buffer.records.size != buffer.total_bytes:
        raise CorruptStream(
            f"total_bytes {buffer.total_bytes} != record bytes {buffer.records.size}"
        )

    return decode_records(buffer.records, buffer.tile_data_offsets, config, buffer.format.dtype)


# --- stream dump file ---

SVTU_MAGIC = b"SVTU"
SVTU_VERSION = 1
_HEADER = struct.Struct("<4sII IIdd QQI Q")


def save_upload(buffer: UploadBuffer, path) -> None:
    cfg = buffer.config
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                SVTU_MAGIC,
                SVTU_VERSION,
                _FORMAT_CODES[buffer.format],
                cfg.tile_size,
                cfg.pad,
                cfg.empty_value,
                cfg.float_empty_threshold,
                buffer.tile_count,
                buffer.total_bytes,
                1 if buffer.exceeds_uint32 else 0,
                len(buffer.windows),
            )
        )
        fh.write(np.asarray(buffer.windows, dtype="<u8").tobytes())
        fh.write(buffer.tile_data_offsets.astype("<u8").tobytes())
        fh.write(buffer.records)


def load_upload(path, max_atlas_extent: int = 2048) -> UploadBuffer:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size or raw[:4] != SVTU_MAGIC:
        raise DataError(f"{path}: not an SVTU upload stream")
    (
        _,
        version,
        fmt_code,
        tile_size,
        pad,
        empty_value,
        threshold,
        tile_count,
        total_bytes,
        overflow,
        window_count,
    ) = _HEADER.unpack_from(raw, 0)
    if version != SVTU_VERSION:
        raise DataError(f"{path}: unsupported SVTU version {version}")
    fmt = format_for_code(fmt_code, path)
    check_empty_value(empty_value, fmt, f"{path}: ")
    try:
        config = SvtConfig(
            tile_size=tile_size,
            pad=pad,
            max_atlas_extent=max_atlas_extent,
            empty_value=empty_value,
            float_empty_threshold=threshold,
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    pos = _HEADER.size
    check_available(raw, pos, 16 * window_count, path, "window table")
    windows = np.frombuffer(raw, dtype="<u8", count=2 * window_count, offset=pos)
    pos += 16 * window_count
    check_available(raw, pos, 8 * tile_count, path, "tile offset table")
    offsets = np.frombuffer(raw, dtype="<u8", count=tile_count, offset=pos).astype(np.uint64)
    pos += 8 * tile_count
    records = np.frombuffer(raw, dtype=np.uint8, offset=pos)
    if records.size != total_bytes:
        raise CorruptStream(f"{path}: {records.size} record bytes, header says {total_bytes}")

    return UploadBuffer(
        config=config,
        format=fmt,
        records=records,
        tile_data_offsets=offsets,
        windows=[tuple(w) for w in windows.reshape(-1, 2).tolist()],
        total_bytes=total_bytes,
        exceeds_uint32=bool(overflow),
    )
