import struct
import tracemalloc

import numpy as np
import pytest
from conftest import (
    make_volume,
    reference_ibm_to_ieee,
    reference_parse_segy,
    reference_write_segy,
)

from svtf import (
    DataError,
    InconsistentTraceLength,
    OutOfGrid,
    TruncatedTrace,
    UnsupportedFormatCode,
    VoxelFormat,
    ibm_to_ieee,
    ieee_to_ibm,
    parse_segy,
    write_segy,
)
from svtf import segy
from svtf.segy import (
    DEFAULT_AXIS_MAP,
    MAX_CELLS_PER_TRACE,
    OFF_CROSSLINE,
    OFF_FORMAT_CODE,
    OFF_INLINE,
    OFF_TRACE_SAMPLES,
)


def ibm_oracle(word: int) -> float:
    """Direct base-16 formula; exact in double precision for every pattern."""
    sign = -1.0 if word >> 31 else 1.0
    exponent = (word >> 24) & 0x7F
    fraction = word & 0xFFFFFF
    return sign * float(fraction) * 16.0 ** (exponent - 64) / 2**24


@pytest.mark.parametrize(
    "word,expected",
    [
        (0x00000000, 0.0),
        (0x42640000, 100.0),  # sign 0, exp 66 -> 16^2, fraction 0.390625
        (0xC2640000, -100.0),
        (0x41100000, 1.0),
    ],
)
def test_ibm_known_words(word, expected):
    assert ibm_to_ieee(word) == expected


def test_ibm_matches_formula_oracle(rng):
    words = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint64).astype(np.uint32)
    decoded = ibm_to_ieee(words)
    # Oracle evaluated independently on a dense subsample plus all extremes.
    idx = np.concatenate([np.arange(0, len(words), 97), [0, len(words) - 1]])
    for i in idx:
        assert decoded[i] == ibm_oracle(int(words[i]))


def test_ibm_decode_matches_the_formula_for_every_sign_and_exponent():
    fractions = np.array([0, 1, 0x0FFFFF, 0x100000, 0xFFFFFF], dtype=np.uint32)
    words = (np.arange(256, dtype=np.uint32)[:, None] << np.uint32(24)) | fractions
    got, want = ibm_to_ieee(words), reference_ibm_to_ieee(words)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    for word in words.ravel().tolist():  # the scalar form too
        got_word, want_word = ibm_to_ieee(word), reference_ibm_to_ieee(word)
        assert struct.pack("<d", got_word) == struct.pack("<d", want_word)
    with np.errstate(over="ignore"):
        got32, want32 = got.astype(np.float32), want.astype(np.float32)
    np.testing.assert_array_equal(got32.view(np.uint32), want32.view(np.uint32))
    # The cast reaches every float32 edge: overflow, subnormals and -0.0.
    assert np.isposinf(want32).any() and np.isneginf(want32).any()
    tiny = np.abs(want32)
    assert ((tiny > 0) & (tiny < np.finfo(np.float32).tiny)).any()
    assert ((want32 == 0) & np.signbit(want32)).any()


def test_ibm_roundtrip_for_normalized_words(rng):
    words = rng.integers(0, 2**32, size=4096, dtype=np.uint64).astype(np.uint32)
    # Normalize: keep patterns whose first fraction hex digit is non-zero.
    words = words[(words & 0xF00000) != 0]
    back = ieee_to_ibm(ibm_to_ieee(words))
    np.testing.assert_array_equal(back, words)


def _cube_volume(ni=2, nx=2, ns=3):
    values = np.arange(ni * nx * ns, dtype=np.float32).reshape(ni, nx, ns)
    # DenseVolume expects [z, y, x] = [sample, inline, crossline].
    return make_volume(values.transpose(2, 0, 1), VoxelFormat.F32)


def test_synthetic_roundtrip_format5(tmp_path):
    vol = _cube_volume()
    path = tmp_path / "cube.sgy"
    write_segy(path, vol, format_code=5)
    info, parsed = parse_segy(path)
    assert info.format_code == 5
    assert info.samples_per_trace == 3
    assert info.trace_count == 4
    assert info.inline_range == (1, 2)
    assert info.crossline_range == (1, 2)
    assert info.missing_cells == 0
    assert parsed.dims.as_zyx() == (3, 2, 2)
    np.testing.assert_array_equal(parsed.data, vol.data)
    # Bit-exact file round-trip.
    second = tmp_path / "cube2.sgy"
    write_segy(second, parsed, format_code=5)
    assert second.read_bytes() == path.read_bytes()


def test_synthetic_roundtrip_format1(tmp_path, rng):
    data = rng.integers(-500, 500, size=(4, 3, 2)).astype(np.float32)
    vol = make_volume(data, VoxelFormat.F32)
    path = tmp_path / "ibm.sgy"
    write_segy(path, vol, format_code=1)
    info, parsed = parse_segy(path)
    assert info.format_code == 1
    np.testing.assert_array_equal(parsed.data, vol.data)
    second = tmp_path / "ibm2.sgy"
    write_segy(second, parsed, format_code=1)
    assert second.read_bytes() == path.read_bytes()


def test_ibm_word_in_trace(tmp_path):
    vol = make_volume(np.full((1, 1, 1), 100.0, np.float32), VoxelFormat.F32)
    path = tmp_path / "one.sgy"
    write_segy(path, vol, format_code=1)
    raw = bytearray(path.read_bytes())
    word = struct.unpack_from(">I", raw, 3600 + 240)[0]
    assert word == 0x42640000
    _, parsed = parse_segy(path)
    assert parsed.data[0, 0, 0] == 100.0


def test_unsupported_format_code(tmp_path):
    vol = _cube_volume()
    path = tmp_path / "bad.sgy"
    write_segy(path, vol, format_code=5)
    raw = bytearray(path.read_bytes())
    struct.pack_into(">H", raw, OFF_FORMAT_CODE, 3)
    path.write_bytes(raw)
    with pytest.raises(UnsupportedFormatCode):
        parse_segy(path)


def test_truncated_trace(tmp_path):
    vol = _cube_volume()
    path = tmp_path / "trunc.sgy"
    write_segy(path, vol)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(TruncatedTrace):
        parse_segy(path)


def test_inconsistent_trace_length(tmp_path):
    vol = _cube_volume()
    path = tmp_path / "inc.sgy"
    write_segy(path, vol)
    raw = bytearray(path.read_bytes())
    struct.pack_into(">H", raw, 3600 + OFF_TRACE_SAMPLES, 99)
    path.write_bytes(raw)
    with pytest.raises(InconsistentTraceLength):
        parse_segy(path)


def test_missing_traces_filled_and_flagged(tmp_path):
    vol = _cube_volume()
    path = tmp_path / "full.sgy"
    write_segy(path, vol)
    raw = path.read_bytes()
    trace_size = 240 + 3 * 4
    # Drop the last trace entirely: grid cell (2, 2) is now missing.
    path.write_bytes(raw[: 3600 + 3 * trace_size])
    info, parsed = parse_segy(path)
    assert info.trace_count == 3
    assert info.missing_cells == 1
    assert not parsed.data[:, 1, 1].any()


def test_volume_mean_matches_trace_mean(tmp_path, rng):
    data = rng.standard_normal((5, 4, 3)).astype(np.float32)
    vol = make_volume(data, VoxelFormat.F32)
    path = tmp_path / "mean.sgy"
    write_segy(path, vol)
    raw = path.read_bytes()
    trace_size = 240 + 5 * 4
    kept = 10  # drop the last two traces
    path.write_bytes(raw[: 3600 + kept * trace_size])
    info, parsed = parse_segy(path)
    assert info.trace_count == kept
    trace_values = []
    buf = path.read_bytes()
    pos = 3600
    for _ in range(kept):
        trace_values.append(np.frombuffer(buf, ">f4", count=5, offset=pos + 240))
        pos += trace_size
    expected = np.concatenate(trace_values).astype(np.float64).mean()
    # Fill cells are zero, so the volume sum over present-trace count gives
    # the mean of the real samples only.
    got = parsed.data.astype(np.float64).sum() / (kept * 5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_axis_map_override(tmp_path):
    vol = _cube_volume()
    path = tmp_path / "axes.sgy"
    write_segy(path, vol)
    _, parsed = parse_segy(path, axis_map=("inline", "crossline", "sample"))
    assert parsed.dims.as_zyx() == (3, 2, 2)
    default = parse_segy(path)[1]
    np.testing.assert_array_equal(parsed.data, default.data.transpose(0, 2, 1))


# --- the strided reader and writer against the per-trace ones they replaced ---

AXIS_MAPS = [DEFAULT_AXIS_MAP, ("inline", "sample", "crossline")]


def _outcome(parse, path, axis_map):
    """Everything parse gives for a file: its result, or its error."""
    try:
        info, vol = parse(path, axis_map)
    except Exception as exc:  # the oracle compares whatever either side raises
        return type(exc), str(exc)
    return info, vol.dims, vol.format, vol.data.dtype, vol.data.tobytes(), repr(vol.value_range)


def assert_parse_matches_reference(path, blob, axis_maps=AXIS_MAPS):
    path.write_bytes(bytes(blob))
    for axis_map in axis_maps:
        assert _outcome(parse_segy, path, axis_map) == _outcome(
            reference_parse_segy, path, axis_map
        )


def _trace_pos(t, samples):
    return 3600 + t * (240 + 4 * samples)


def _written(tmp_path, data, fmt=5, **kwargs):
    """The SEG-Y bytes of a u8 or f32 [z, y, x] array, equal from both writers."""
    vol = make_volume(data, VoxelFormat.U8 if data.dtype == np.uint8 else VoxelFormat.F32)
    path, ref = tmp_path / "new.sgy", tmp_path / "ref.sgy"
    write_segy(path, vol, format_code=fmt, **kwargs)
    reference_write_segy(ref, vol, format_code=fmt, **kwargs)
    blob = path.read_bytes()
    assert blob == ref.read_bytes()
    return bytearray(blob)


@pytest.mark.parametrize("fmt", [1, 5])
@pytest.mark.parametrize("axis_map", AXIS_MAPS)
@pytest.mark.parametrize("dtype", [np.float32, np.uint8])
def test_writer_and_reader_match_reference(tmp_path, rng, fmt, axis_map, dtype):
    if dtype is np.uint8:
        data = rng.integers(0, 256, size=(5, 3, 4)).astype(np.uint8)
    else:
        data = (rng.standard_normal((5, 3, 4)) * 1e3).astype(np.float32)
        data[0, 0, :2] = (1e-40, -3.0e38)  # an f32 subnormal, a large magnitude
    blob = _written(tmp_path, data, fmt, sample_interval_us=250, axis_map=axis_map)
    assert_parse_matches_reference(tmp_path / "cube.sgy", blob)


@pytest.mark.parametrize("fmt", [1, 5])
def test_multi_chunk_cube_matches_reference(tmp_path, rng, fmt):
    # 60,000 samples per trace, 4 traces per inline: an inline spans more
    # than one chunk of segy._CHUNK_SAMPLES, so blocks end mid-inline.
    samples = 60_000
    assert samples <= segy._CHUNK_SAMPLES < 4 * samples
    blob = _written(tmp_path, rng.standard_normal((samples, 5, 4)).astype(np.float32), fmt)
    grid = [(il, xl) for il in range(1, 6) for xl in range(1, 5)]
    _set_grid(blob, samples, grid[::-1])
    assert_parse_matches_reference(tmp_path / "big.sgy", blob)


def _reorder(blob, samples, order):
    """The file with its traces in the given order (a subset drops the rest)."""
    traces = [blob[_trace_pos(t, samples) : _trace_pos(t + 1, samples)] for t in order]
    return blob[:3600] + b"".join(traces)


@pytest.mark.parametrize(
    "chunk,samples,inlines,crosslines",
    [
        (13, 3, 5, 2),  # blocks of two whole inlines, the last of one
        (12, 4, 3, 5),  # an inline of 5 traces in blocks of 3 and 2: a block ends mid-inline
        (4, 7, 3, 3),  # one trace longer than the chunk: one trace per block
        (8, 3, 2, 7),  # an inline wider than the chunk: blocks of 2, 2, 2 and 1 traces
    ],
)
@pytest.mark.parametrize("fmt", [1, 5])
def test_block_boundaries_match_reference(
    tmp_path, rng, monkeypatch, fmt, chunk, samples, inlines, crosslines
):
    monkeypatch.setattr(segy, "_CHUNK_SAMPLES", chunk)
    data = (rng.standard_normal((samples, inlines, crosslines)) * 1e3).astype(np.float32)
    blob = _written(tmp_path, data, fmt)
    traces = inlines * crosslines
    missing = {1, traces - 2}
    kept = [t for t in range(traces) if t not in missing]
    orders = [
        list(range(traces)),
        list(range(traces))[::-1],
        rng.permutation(traces).tolist(),
        kept,
        kept[::-1],
        rng.permutation(kept).tolist(),
    ]
    for order in orders:
        assert_parse_matches_reference(tmp_path / "blocks.sgy", _reorder(blob, samples, order))
    # Only the corners, which keep the grid's extent, and every third trace.
    corners = {0, crosslines - 1, traces - crosslines, traces - 1}
    sparse = [t for t in range(traces) if t in corners or t % 3 == 0]
    assert_parse_matches_reference(tmp_path / "blocks.sgy", _reorder(blob, samples, sparse[::-1]))


@pytest.mark.parametrize("fmt", [1, 5])
def test_write_holds_a_few_blocks_but_not_the_file(tmp_path, rng, monkeypatch, fmt):
    monkeypatch.setattr(segy, "_CHUNK_SAMPLES", 2**14)
    data = rng.standard_normal((512, 64, 64)).astype(np.float32)
    vol = make_volume(data, VoxelFormat.F32)
    path, ref = tmp_path / "big.sgy", tmp_path / "ref.sgy"
    tracemalloc.start()
    try:
        write_segy(path, vol, format_code=fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The IBM encoder's float64 and integer temporaries take a few times 8
    # bytes a sample of one block; the file is 9 MiB.
    assert peak < 16 * 8 * segy._CHUNK_SAMPLES < path.stat().st_size // 4
    reference_write_segy(ref, vol, format_code=fmt)
    assert path.read_bytes() == ref.read_bytes()


def test_parse_holds_the_cube_and_a_few_blocks_but_not_the_file(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(segy, "_CHUNK_SAMPLES", 2**14)
    samples, inlines, crosslines = 512, 64, 64
    data = rng.standard_normal((samples, inlines, crosslines)).astype(np.float32)
    path = tmp_path / "big.sgy"
    write_segy(path, make_volume(data, VoxelFormat.F32), format_code=1)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, vol = parse_segy(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block's float64 values take 8 bytes a sample; a handful of such
    # temporaries and a few words per trace may be live next to the cube.
    block = 8 * segy._CHUNK_SAMPLES
    assert peak <= data.nbytes + 8 * block + 64 * inlines * crosslines < data.nbytes + size
    # The volume owns its voxels: the file can change or go without them changing.
    assert vol.data.base is None and vol.data.flags.owndata
    assert not np.shares_memory(vol.data, np.memmap(path, np.uint8, "r"))
    kept = vol.data.copy()
    with open(path, "r+b") as fh:
        fh.write(b"\xff" * size)
    np.testing.assert_array_equal(vol.data, kept)
    path.unlink()
    np.testing.assert_array_equal(vol.data, kept)


@pytest.mark.parametrize("kind", ["empty", "one byte", "directory", "header only"])
def test_short_and_unreadable_files_match_reference(tmp_path, kind):
    path = tmp_path / "in.sgy"
    if kind == "directory":
        path.mkdir()
    else:
        size = {"empty": 0, "one byte": 1, "header only": 3600}[kind]
        path.write_bytes(b"\x01" * size)
    for axis_map in AXIS_MAPS + [("inline", "inline", "sample")]:
        got = _outcome(parse_segy, path, axis_map)
        assert got == _outcome(reference_parse_segy, path, axis_map)
        assert isinstance(got[0], type) and issubclass(got[0], (DataError, OSError))


def test_writer_non_finite_values_match_reference(tmp_path):
    data = np.array([np.nan, np.inf, -np.inf, -0.0, 1.5], dtype=np.float32).reshape(5, 1, 1)
    with np.errstate(invalid="ignore"):
        for fmt in (1, 5):
            _written(tmp_path, data, fmt)


def test_writer_errors_match_reference(tmp_path):
    vol = make_volume(np.zeros((2, 2, 2), np.float32), VoxelFormat.F32)
    tall = make_volume(np.zeros((1, 1, 0x10000), np.float32), VoxelFormat.F32)
    for volume, kwargs in [
        (vol, {"format_code": 3}),
        (vol, {"axis_map": ("inline", "inline", "sample")}),
        (tall, {"axis_map": ("sample", "inline", "crossline")}),
    ]:
        errors = []
        for write in (write_segy, reference_write_segy):
            with pytest.raises(DataError) as exc:
                write(tmp_path / "bad.sgy", volume, **kwargs)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("fmt", [1, 5])
def test_every_truncation_matches_reference(tmp_path, rng, fmt):
    blob = _written(tmp_path, rng.standard_normal((3, 2, 2)).astype(np.float32), fmt)
    for length in range(len(blob) + 1):
        assert_parse_matches_reference(tmp_path / "cut.sgy", blob[:length], AXIS_MAPS[:1])


@pytest.mark.parametrize("bad_samples", [0, 2, 4, 0xFFFF])
def test_trace_sample_counts_match_reference(tmp_path, rng, bad_samples):
    samples = 3
    blob = _written(tmp_path, rng.standard_normal((samples, 2, 3)).astype(np.float32))
    traces = 6
    cuts = [
        len(blob),
        _trace_pos(traces - 1, samples) + 240,  # last trace keeps only its header
        _trace_pos(traces - 1, samples) + 244,  # and one sample
    ]
    for t in range(traces):
        bad = bytearray(blob)
        struct.pack_into(">H", bad, _trace_pos(t, samples) + OFF_TRACE_SAMPLES, bad_samples)
        for cut in cuts:
            assert_parse_matches_reference(tmp_path / "ns.sgy", bad[:cut])
    # The two bytes before the 16-bit field are not part of it.
    high = bytearray(blob)
    struct.pack_into(">H", high, _trace_pos(2, samples) + OFF_TRACE_SAMPLES - 2, 0xABCD)
    assert_parse_matches_reference(tmp_path / "ns.sgy", high)


def _set_grid(blob, samples, positions):
    for t, (il, xl) in enumerate(positions):
        struct.pack_into(">i", blob, _trace_pos(t, samples) + OFF_INLINE, il)
        struct.pack_into(">i", blob, _trace_pos(t, samples) + OFF_CROSSLINE, xl)
    return blob


def _drop_traces(blob, samples, dropped):
    traces = (len(blob) - 3600) // (240 + 4 * samples)
    kept = [blob[_trace_pos(t, samples) : _trace_pos(t + 1, samples)] for t in range(traces)]
    return blob[:3600] + b"".join(trace for t, trace in enumerate(kept) if t not in dropped)


@pytest.mark.parametrize("fmt", [1, 5])
def test_grid_positions_match_reference(tmp_path, rng, fmt):
    samples = 4
    blob = _written(tmp_path, rng.standard_normal((samples, 3, 2)).astype(np.float32), fmt)
    grid = [(il, xl) for il in range(1, 4) for xl in range(1, 3)]
    cases = [
        _set_grid(bytearray(blob), samples, [grid[0]] + grid[:-1]),  # duplicate
        _set_grid(bytearray(blob), samples, grid[::-1]),  # reversed order
        _set_grid(bytearray(blob), samples, [(il + 1000, xl - 7) for il, xl in grid]),
        _set_grid(bytearray(blob), samples, [(il - 2**31, 2**31 - xl) for il, xl in grid]),
        _set_grid(bytearray(blob), samples, [(il * 3, xl * 5) for il, xl in grid]),  # sparse
        _drop_traces(bytearray(blob), samples, {1, 4}),  # missing
        _drop_traces(bytearray(blob), samples, {0, 1, 2, 3, 4}),  # one trace left
    ]
    for case in cases:
        assert_parse_matches_reference(tmp_path / "grid.sgy", case)
        # A bad axis map is reported only after the file checks pass.
        assert_parse_matches_reference(
            tmp_path / "grid.sgy", case, [("inline", "inline", "sample")]
        )


def test_grid_far_larger_than_the_traces_is_out_of_grid(tmp_path, rng):
    # 3x2 traces of 4 samples; a first inline of -2^31 spans a 2^31-row grid.
    blob = _written(tmp_path, rng.standard_normal((4, 3, 2)).astype(np.float32))
    assert len(blob) == 5136
    struct.pack_into(">i", blob, _trace_pos(0, 4) + OFF_INLINE, -(2**31))
    path = tmp_path / "far.sgy"
    path.write_bytes(bytes(blob))
    with pytest.raises(OutOfGrid, match="for 6 traces"):
        parse_segy(path)


@pytest.mark.parametrize("last_inline,fits", [(48, True), (49, False)])
def test_grid_cells_per_trace_bound(tmp_path, rng, last_inline, fits):
    # Six traces on inlines 1, 2 and last_inline, crosslines 1 and 2: the
    # grid holds 2 * last_inline cells, 96 = 16 per trace at the bound.
    samples = 4
    blob = _written(tmp_path, rng.standard_normal((samples, 3, 2)).astype(np.float32))
    grid = [(il, xl) for il in (1, 2, last_inline) for xl in (1, 2)]
    _set_grid(blob, samples, grid)
    assert (2 * last_inline <= MAX_CELLS_PER_TRACE * len(grid)) == fits
    if fits:
        assert_parse_matches_reference(tmp_path / "bound.sgy", blob)
        info, _ = parse_segy(tmp_path / "bound.sgy")
        assert info.missing_cells == 2 * last_inline - len(grid)
    else:
        (tmp_path / "bound.sgy").write_bytes(bytes(blob))
        with pytest.raises(OutOfGrid):
            parse_segy(tmp_path / "bound.sgy")


def test_patched_sample_words_match_reference(tmp_path):
    words = [
        0x7FFFFFFF,  # IBM: largest magnitude, beyond float32
        0x61100000,  # IBM: 16^33, just beyond float32
        0xE1100000,
        0x00000001,  # IBM: far below the float32 subnormal range
        0x80000001,
        0x1C100000,  # IBM: 16^-36, a float32 subnormal
        0x7FC00001,  # IEEE: quiet NaN with a payload
        0x7F800001,  # IEEE: signalling NaN
        0xFF800000,  # IEEE: -inf
        0x00000001,  # IEEE: smallest subnormal
    ]
    for fmt in (1, 5):
        blob = _written(tmp_path, np.ones((len(words), 1, 2), np.float32), fmt)
        for t in range(2):
            for i, word in enumerate(words):
                struct.pack_into(">I", blob, _trace_pos(t, len(words)) + 240 + 4 * i, word)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_parse_matches_reference(tmp_path / "words.sgy", blob)
