"""Minimal SEG-Y rev-1 reader/writer: fixed-length traces, IBM or IEEE floats.

Only the subset needed to ingest full 3D cubes is supported: the 3200-byte
textual header is skipped as opaque bytes, all multi-byte fields are
big-endian, trace grid position comes from the standard inline/crossline
trace-header words. Anything else is rejected loudly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    InconsistentTraceLength,
    OutOfGrid,
    TruncatedTrace,
    UnsupportedFormatCode,
)
from .volume import DenseVolume, VoxelFormat

TEXTUAL_HEADER_BYTES = 3200
BINARY_HEADER_BYTES = 400
TRACE_HEADER_BYTES = 240
TRACE_HEADER_WORDS = TRACE_HEADER_BYTES // 4

# Zero-based byte offsets of the fields we use (SEG-Y rev 1 standard).
OFF_SAMPLE_INTERVAL = 3216
OFF_SAMPLES_PER_TRACE = 3220
OFF_FORMAT_CODE = 3224
OFF_TRACE_SAMPLES = 114
OFF_INLINE = 188
OFF_CROSSLINE = 192

FORMAT_IBM_FLOAT = 1
FORMAT_IEEE_FLOAT = 5

DEFAULT_AXIS_MAP = ("crossline", "inline", "sample")

# Most inline/crossline grid cells allowed per trace in the file. The cube
# is allocated for the whole grid, so this keeps it within 16x the trace
# payload the file holds; inline or crossline words that spread a few
# traces over a far larger grid are corrupt, not a sparse survey.
MAX_CELLS_PER_TRACE = 16

# Samples decoded or encoded at a time: the float64 temporaries of one
# block (1 MiB each) stay in a core's cache and small next to the cube.
_CHUNK_SAMPLES = 2**17

# IBM word -> signed scale (-1)^s * 16^(e-64) / 2^24, indexed by the top
# byte (sign and exponent). Every scale is a power of two between 2^-280
# and 2^228, so fraction * scale is exact in float64.
_IBM_SCALE = np.array(
    [(-1.0 if byte >> 7 else 1.0) * 2.0 ** (4 * ((byte & 0x7F) - 64) - 24) for byte in range(256)]
)


@dataclass
class SegYHeaderInfo:
    samples_per_trace: int
    sample_interval_us: int
    format_code: int
    trace_count: int
    inline_range: tuple[int, int]
    crossline_range: tuple[int, int]
    missing_cells: int = 0


def ibm_to_ieee(words) -> np.ndarray | float:
    """Decode IBM System/360 base-16 floats: (-1)^s * 16^(e-64) * frac/2^24.

    Every 32-bit pattern decodes; results are exact in double precision.
    """
    arr = np.asarray(words, dtype=np.uint32)
    value = (arr & np.uint32(0xFFFFFF)).astype(np.float64)
    # An intp index and mode="clip" (a no-op for indices < 256) make take
    # several times faster than indexing with the uint32 top bytes.
    value *= _IBM_SCALE.take(np.right_shift(arr, 24, dtype=np.intp), mode="clip")
    return value if value.ndim else float(value)


def ieee_to_ibm(values) -> np.ndarray:
    """Encode doubles as normalized IBM floats (canonical form, zero -> 0)."""
    v = np.asarray(values, dtype=np.float64)
    sign = np.where(np.signbit(v), np.uint32(1 << 31), np.uint32(0))
    mag = np.abs(v)
    f2, e2 = np.frexp(mag)
    k = -(-e2 // 4)  # ceil(e2/4), so frac = mag/16^k lands in [1/16, 1)
    frac_bits = np.rint(np.ldexp(f2, e2 - 4 * k + 24)).astype(np.int64)
    carry = frac_bits >= 1 << 24
    k = k + carry
    frac_bits = np.where(carry, np.int64(1 << 20), frac_bits)
    exponent = k + 64
    if np.any((exponent > 127) & (mag != 0)):
        raise DataError("value magnitude exceeds the IBM float exponent range")
    underflow = (exponent < 0) | (mag == 0) | ~np.isfinite(mag)
    word = sign | (exponent.astype(np.uint32) << np.uint32(24)) | frac_bits.astype(np.uint32)
    return np.where(underflow, np.uint32(0), word).astype(np.uint32)


def _u16(buf: bytes, off: int) -> int:
    return struct.unpack_from(">H", buf, off)[0]


def _axis_transpose(axis_map) -> tuple[int, int, int]:
    if sorted(axis_map) != sorted(DEFAULT_AXIS_MAP):
        raise DataError(
            f"axis map must be a permutation of {DEFAULT_AXIS_MAP}, got {axis_map}"
        )
    # Canonical assembled cube is indexed [inline, crossline, sample];
    # produce the permutation giving [z, y, x] for the requested mapping.
    canonical = {"inline": 0, "crossline": 1, "sample": 2}
    x_src, y_src, z_src = axis_map
    return (canonical[z_src], canonical[y_src], canonical[x_src])


def parse_segy(path, axis_map=DEFAULT_AXIS_MAP) -> tuple[SegYHeaderInfo, DenseVolume]:
    """Parse a SEG-Y file into a dense cube on the inline/crossline grid.

    The file is mapped read-only, not read whole, and traces may come in
    any order. Grid cells with no trace are filled with 0 and counted in
    missing_cells. Duplicate grid positions are rejected.
    """
    with Path(path).open("rb") as fh:
        if os.fstat(fh.fileno()).st_size < TEXTUAL_HEADER_BYTES + BINARY_HEADER_BYTES:
            raise DataError(f"{path}: shorter than the 3600-byte SEG-Y header block")
        raw = np.memmap(fh, dtype=np.uint8, mode="r")

    samples = _u16(raw, OFF_SAMPLES_PER_TRACE)
    interval = _u16(raw, OFF_SAMPLE_INTERVAL)
    format_code = _u16(raw, OFF_FORMAT_CODE)
    if format_code not in (FORMAT_IBM_FLOAT, FORMAT_IEEE_FLOAT):
        raise UnsupportedFormatCode(
            f"{path}: format code {format_code} not supported (only 1 and 5)"
        )
    if samples == 0:
        raise DataError(f"{path}: binary header reports 0 samples per trace")

    # Traces are fixed-size records, so all full ones are rows of one
    # big-endian word array viewed in place.
    start = TEXTUAL_HEADER_BYTES + BINARY_HEADER_BYTES
    row_words = TRACE_HEADER_WORDS + samples
    count, tail = divmod(len(raw) - start, 4 * row_words)
    end = start + count * 4 * row_words
    words = raw[start:end].view(">u4").reshape(count, row_words)

    trace_samples = words[:, OFF_TRACE_SAMPLES // 4] & 0xFFFF
    if tail >= TRACE_HEADER_BYTES:
        trace_samples = np.append(trace_samples, _u16(raw, end + OFF_TRACE_SAMPLES))
    bad = np.flatnonzero((trace_samples != 0) & (trace_samples != samples))
    if bad.size:
        i = int(bad[0])
        raise InconsistentTraceLength(
            f"{path}: trace at byte {start + i * 4 * row_words} has "
            f"{trace_samples[i]} samples, expected {samples}"
        )
    if tail:
        part = "header" if tail < TRACE_HEADER_BYTES else "data"
        raise TruncatedTrace(f"{path}: trace {part} truncated at byte {end}")
    if not count:
        raise DataError(f"{path}: no traces found")

    signed = words.view(">i4")
    il = signed[:, OFF_INLINE // 4].astype(np.int64)
    xl = signed[:, OFF_CROSSLINE // 4].astype(np.int64)
    il_range = (int(il.min()), int(il.max()))
    xl_range = (int(xl.min()), int(xl.max()))
    n_il = il_range[1] - il_range[0] + 1
    n_xl = xl_range[1] - xl_range[0] + 1
    if n_il * n_xl > MAX_CELLS_PER_TRACE * count:
        raise OutOfGrid(
            f"{path}: inline range {il_range} and crossline range {xl_range} span "
            f"{n_il * n_xl} grid cells for {count} traces (at most "
            f"{MAX_CELLS_PER_TRACE} per trace)"
        )
    # The trace at each grid cell, -1 where none is; a duplicate position
    # leaves fewer cells filled than there are traces.
    trace_at = np.full((n_il, n_xl), -1, dtype=np.intp)
    trace_at[il - il_range[0], xl - xl_range[0]] = np.arange(count)
    if np.count_nonzero(trace_at >= 0) != count:
        raise DataError(f"{path}: duplicate (inline, crossline) trace positions")

    perm = _axis_transpose(axis_map)
    shape = (n_il, n_xl, samples)
    data_zyx = np.empty(tuple(shape[axis] for axis in perm), dtype=np.float32)
    cube = data_zyx.transpose(np.argsort(perm))  # [inline, crossline, sample]
    payload = words[:, TRACE_HEADER_WORDS:]
    # Fill the grid in raster order, one block of whole inlines (or of part
    # of one inline, when an inline exceeds the chunk) at a time: gather the
    # block's traces, decode them into one contiguous buffer, zero its
    # missing cells and copy it into the cube through the 3-D view, which
    # never copies the cube whatever the axis map.
    inlines = max(1, _CHUNK_SAMPLES // (n_xl * samples))
    crosslines = max(1, min(n_xl, _CHUNK_SAMPLES // samples))
    for i in range(0, n_il, inlines):
        for x in range(0, n_xl, crosslines):
            block = trace_at[i : i + inlines, x : x + crosslines]
            present = block >= 0
            traces = payload[np.where(present, block, 0)]
            if format_code == FORMAT_IEEE_FLOAT:
                values = traces.view(">f4")
            else:
                values = ibm_to_ieee(traces)
            values[~present] = 0
            cube[i : i + inlines, x : x + crosslines] = values
    del raw, words, signed, payload  # the volume keeps nothing of the mapped file

    info = SegYHeaderInfo(
        samples_per_trace=samples,
        sample_interval_us=interval,
        format_code=format_code,
        trace_count=count,
        inline_range=il_range,
        crossline_range=xl_range,
        missing_cells=n_il * n_xl - count,
    )
    return info, DenseVolume.from_array(data_zyx, VoxelFormat.F32)


def write_segy(
    path,
    volume: DenseVolume,
    format_code: int = FORMAT_IEEE_FLOAT,
    sample_interval_us: int = 4000,
    axis_map=DEFAULT_AXIS_MAP,
) -> None:
    """Write a volume as a synthetic rev-1 SEG-Y cube (one trace per cell)."""
    if format_code not in (FORMAT_IBM_FLOAT, FORMAT_IEEE_FLOAT):
        raise UnsupportedFormatCode(f"cannot write format code {format_code}")
    cube = volume.data.transpose(np.argsort(_axis_transpose(axis_map)))
    n_il, n_xl, samples = cube.shape  # [inline, crossline, sample]
    if samples > 0xFFFF:
        raise DataError(f"{samples} samples per trace exceeds the 16-bit header field")

    binary = bytearray(BINARY_HEADER_BYTES)
    struct.pack_into(">H", binary, OFF_SAMPLE_INTERVAL - TEXTUAL_HEADER_BYTES, sample_interval_us)
    struct.pack_into(">H", binary, OFF_SAMPLES_PER_TRACE - TEXTUAL_HEADER_BYTES, samples)
    struct.pack_into(">H", binary, OFF_FORMAT_CODE - TEXTUAL_HEADER_BYTES, format_code)
    struct.pack_into(">H", binary, 3500 - TEXTUAL_HEADER_BYTES, 0x0100)  # rev 1
    struct.pack_into(">H", binary, 3502 - TEXTUAL_HEADER_BYTES, 1)  # fixed-length traces

    count = n_il * n_xl
    step = max(1, _CHUNK_SAMPLES // samples)
    with open(path, "wb") as fh:
        fh.write(b"\x00" * TEXTUAL_HEADER_BYTES)
        fh.write(binary)
        # One block of traces at a time: headers and sample words.
        for lo in range(0, count, step):
            ii, xi = np.divmod(np.arange(lo, min(lo + step, count)), n_xl)
            words = np.zeros((len(ii), TRACE_HEADER_WORDS + samples), dtype=">u4")
            words[:, OFF_TRACE_SAMPLES // 4] = samples
            words[:, OFF_INLINE // 4] = ii + 1
            words[:, OFF_CROSSLINE // 4] = xi + 1
            values = cube[ii, xi].astype(np.float32, copy=False)
            if format_code == FORMAT_IEEE_FLOAT:
                words[:, TRACE_HEADER_WORDS:] = values.view(np.uint32)
            else:
                words[:, TRACE_HEADER_WORDS:] = ieee_to_ibm(values)
            fh.write(words)
