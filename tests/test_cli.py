import os
import threading
import warnings

import numpy as np
import pytest
from conftest import make_volume

from svtf import VoxelFormat, save_volume, write_segy
from svtf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if ":" in line:
            k, _, v = line.partition(":")
            pairs[k.strip()] = v.strip()
    return pairs


@pytest.fixture
def volume_file(tmp_path, rng):
    data = np.where(
        rng.random((32, 32, 32)) < 0.3, rng.integers(1, 256, (32, 32, 32)), 0
    ).astype(np.uint8)
    path = tmp_path / "vol.raw"
    save_volume(make_volume(data), path)
    return path


def test_no_arguments_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_usage_error(capsys):
    code, _, _ = run(capsys, "plan", "--no-such-flag")
    assert code == 1


def test_plan_defaults_eq1(capsys):
    code, out, _ = run(capsys, "plan", "--extent", "2048", "--tile", "16", "--pad", "1")
    assert code == 0
    values = kv(out)
    assert abs(float(values["net_payload_givoxels"]) - 4.9) < 0.05
    assert values["net_payload_voxels"] == "5278862410"


def test_plan_survey_flags(capsys):
    code, out, _ = run(
        capsys, "plan", "--nonempty", "2600000000", "--bytes-per-voxel", "1",
        "--occupancy", "0.7",
    )
    assert code == 0
    values = kv(out)
    assert values["fits_uint32_upload"] == "true"
    assert values["fits_int32_index"] == "false"
    assert abs(int(values["atlas_extent_estimate"]) - 1872) / 1872 < 0.05


def test_plan_past_the_atlas_capacity_exits_3(capsys):
    code, out, err = run(capsys, "plan", "--nonempty", "10000000000000")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: AtlasCapacityExceeded: ")


@pytest.mark.parametrize("nonempty", ["0", "100000"])
@pytest.mark.parametrize("occupancy", ["0", "-0.5", "nan", "1.5"])
def test_plan_rejects_an_occupancy_outside_0_1(capsys, nonempty, occupancy):
    code, out, err = run(capsys, "plan", "--nonempty", nonempty, "--occupancy", occupancy)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: ValueError: mean_tile_occupancy must be in (0, 1]"]


def test_import_raw_build_probe_inspect(tmp_path, capsys, volume_file):
    out_vol = tmp_path / "canonical.raw"
    code, out, _ = run(capsys, "import-raw", str(volume_file), "-o", str(out_vol))
    assert code == 0
    assert kv(out)["dims"] == "32 32 32"

    svt_path = tmp_path / "vol.svtf"
    code, out, _ = run(capsys, "build", str(out_vol), "-o", str(svt_path))
    assert code == 0
    stats = kv(out)
    assert stats["mips"] == "2"

    code, out, _ = run(capsys, "inspect", str(svt_path))
    assert code == 0
    assert kv(out)["kind"] == "svt"

    code, out, _ = run(capsys, "inspect", str(out_vol))
    assert code == 0
    assert kv(out)["kind"] == "volume"

    # Probe a voxel center; value must match the raw volume.
    vol_data = np.fromfile(out_vol, dtype=np.uint8).reshape(32, 32, 32)
    code, out, _ = run(
        capsys, "probe", str(svt_path), "--pos", "4.5,2.5,7.5", "--nearest"
    )
    assert code == 0
    assert float(kv(out)["value"]) == float(vol_data[7, 2, 4])


def test_upload_dump_apply_roundtrip(tmp_path, capsys, volume_file):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    stream = tmp_path / "vol.svtu"
    code, out, _ = run(
        capsys, "dump-upload", str(svt_path), "-o", str(stream),
        "--window-elements", "1000",
    )
    assert code == 0
    assert int(kv(out)["windows"]) >= 1
    code, out, _ = run(capsys, "apply-upload", str(svt_path), str(stream))
    assert code == 0
    assert kv(out)["atlas_match"] == "true"


def test_build_capacity_exit_code(tmp_path, capsys):
    data = np.ones((16, 16, 32), np.uint8)
    path = tmp_path / "dense.raw"
    save_volume(make_volume(data), path)
    code, _, err = run(
        capsys, "build", str(path), "-o", str(tmp_path / "x.svtf"), "--extent", "18"
    )
    assert code == 3
    assert err.startswith("error: AtlasCapacityExceeded:")


@pytest.mark.parametrize("tile", [600_000, 3_000_000])
def test_build_huge_tile_exit_code(tmp_path, capsys, tile):
    # One tile holds the volume, but its padded slot alone needs more bytes
    # than any address space (600002^3) or any array index (3000002^3).
    # Residency must not allocate a tile-aligned mask, and the failed atlas
    # allocation must end as a capacity error.
    path = tmp_path / "dense.raw"
    save_volume(make_volume(np.ones((24, 20, 16), np.uint8)), path)
    out = tmp_path / "x.svtf"
    code, _, err = run(
        capsys, "build", str(path), "-o", str(out), "--tile", str(tile),
        "--extent", str(2 * tile + 2),
    )
    assert code == 3
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: AtlasCapacityExceeded: an atlas of ")
    assert not out.exists()


@pytest.mark.parametrize("empty", ["300", "-1", "inf", "3.5", "nan"])
def test_build_rejects_an_empty_value_u8_cannot_hold(tmp_path, capsys, volume_file, empty):
    out = tmp_path / "x.svtf"
    code, _, err = run(capsys, "build", str(volume_file), "-o", str(out), "--empty", empty)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: DataError: empty_value ")
    assert not out.exists()


def test_build_rejects_a_nan_float_empty_threshold(tmp_path, capsys):
    raw = tmp_path / "ones.raw"
    save_volume(make_volume(np.ones((8, 8, 8), np.float32), VoxelFormat.F32), raw)
    out = tmp_path / "o.svtf"
    code, _, err = run(
        capsys, "build", str(raw), "-o", str(out), "--float-empty-threshold", "nan"
    )
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ValueError: float_empty_threshold must be >= 0")
    assert not out.exists()


def test_build_of_a_mip_block_of_plus_and_minus_infinity_prints_no_warning(tmp_path, capsys):
    data = np.ones((8, 8, 8), np.float32)
    data[0, 0, 0], data[0, 0, 1] = np.inf, -np.inf  # voxels (0, 0, 0) and (1, 0, 0)
    raw = tmp_path / "inf.raw"
    save_volume(make_volume(data, VoxelFormat.F32), raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "build", str(raw), "-o", str(tmp_path / "o.svtf"), "--tile", "4")
    assert code == 0 and err == ""


def test_render_of_a_nan_voxel_exits_0_with_a_finite_image(tmp_path, capsys):
    # NaN is a legal f32 voxel value; samples that read it lie outside
    # every transfer-function window.
    data = np.full((16, 16, 16), 0.5, np.float32)
    data[8, 8, 8] = np.nan
    raw = tmp_path / "v.raw"
    save_volume(make_volume(data, VoxelFormat.F32), raw)
    svt_path = tmp_path / "v.svtf"
    assert run(capsys, "build", str(raw), "-o", str(svt_path))[0] == 0
    out = tmp_path / "v.ppm"
    # Pixel (8, 8)'s ray and the shadow rays of cache row (y, z) = (8, 8)
    # pass through the NaN voxel's centre.
    code, _, err = run(
        capsys, "render", str(svt_path), "-o", str(out), "--size", "16x16",
        "--ortho-height", "16", "--eye", "8,8,-30", "--look-at", "8,8,8",
        "--steps", "32", "--light", "dir:1,0,0", "--downsample", "1",
        "--density-scale", "0.2",
    )
    assert code == 0
    assert err == ""
    header = b"P6\n16 16\n255\n"
    blob = out.read_bytes()
    assert blob.startswith(header) and len(blob) == len(header) + 16 * 16 * 3
    assert np.frombuffer(blob[len(header):], np.uint8).any()


def test_data_error_exit_code(tmp_path, capsys):
    bogus = tmp_path / "bogus.svtf"
    bogus.write_bytes(b"nope")
    code, _, err = run(capsys, "inspect", str(bogus))
    assert code == 2
    assert err.startswith("error: DataError:")


@pytest.mark.parametrize("kind", ["empty", "pipe"])
@pytest.mark.parametrize(
    "command,name", [("dump-upload", "SVTF container"), ("apply-upload", "SVTU upload stream")]
)
def test_empty_or_unmappable_file_exit_code(tmp_path, capsys, volume_file, kind, command, name):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    bad = tmp_path / "bad"
    writer = None
    if kind == "empty":
        bad.write_bytes(b"")
    else:  # a pipe cannot be mapped and is read instead
        os.mkfifo(bad)
        writer = threading.Thread(target=bad.write_bytes, args=(b"SVT",), daemon=True)
        writer.start()
    if command == "dump-upload":
        argv = [str(bad), "-o", str(tmp_path / "out.svtu")]
    else:
        argv = [str(svt_path), str(bad)]
    try:
        code, out, err = run(capsys, command, *argv)
    finally:
        if writer:
            writer.join(timeout=10)
            assert not writer.is_alive()
    assert code == 2
    assert out == ""
    assert err == f"error: DataError: {bad}: not an {name}\n"


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "inspect", str(tmp_path / "missing.raw"))
    assert code == 2
    assert err.startswith("error: FileNotFoundError:")


def test_import_segy_and_normalize(tmp_path, capsys, rng):
    data = rng.standard_normal((6, 4, 5)).astype(np.float32)
    vol = make_volume(data, VoxelFormat.F32)
    segy_path = tmp_path / "cube.sgy"
    write_segy(segy_path, vol)
    out_vol = tmp_path / "imported.raw"
    code, out, _ = run(capsys, "import-segy", str(segy_path), "-o", str(out_vol))
    assert code == 0
    values = kv(out)
    assert values["dims"] == "5 4 6"
    assert values["missing_cells"] == "0"

    norm = tmp_path / "norm.raw"
    code, out, _ = run(capsys, "normalize", str(out_vol), "-o", str(norm))
    assert code == 0
    loaded = np.fromfile(norm, dtype=np.uint8)
    assert loaded.min() == 0 and loaded.max() == 255


@pytest.mark.parametrize(
    "flags, peak",
    [
        (["--range=-inf,inf"], 1.0),
        (["--range=0,inf"], 1.0),
        (["--range=-1e308,1e308"], 1.0),
        ([], np.inf),
    ],
    ids=["-inf,inf", "0,inf", "-1e308,1e308", "inf_voxel"],
)
def test_normalize_rejects_a_range_without_a_finite_width(tmp_path, capsys, flags, peak):
    path = tmp_path / "vol.raw"
    save_volume(make_volume(np.array([[[0.0, 0.5, peak]]], np.float32), VoxelFormat.F32), path)
    out = tmp_path / "norm.raw"
    code, stdout, err = run(capsys, "normalize", str(path), "-o", str(out), *flags)
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: DegenerateRange:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vol.raw", "vol.raw.meta"]


def test_segy_bad_format_exit_code(tmp_path, capsys):
    import struct

    data = make_volume(np.zeros((2, 2, 2), np.float32), VoxelFormat.F32)
    segy_path = tmp_path / "bad.sgy"
    write_segy(segy_path, data)
    raw = bytearray(segy_path.read_bytes())
    struct.pack_into(">H", raw, 3224, 8)
    segy_path.write_bytes(raw)
    code, _, err = run(capsys, "import-segy", str(segy_path), "-o", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error: UnsupportedFormatCode:")


def test_segy_grid_far_larger_than_the_traces_exit_code(tmp_path, capsys):
    import struct

    from svtf.segy import OFF_INLINE

    segy_path = tmp_path / "far.sgy"
    write_segy(segy_path, make_volume(np.zeros((4, 3, 2), np.float32), VoxelFormat.F32))
    raw = bytearray(segy_path.read_bytes())
    assert len(raw) == 5136
    struct.pack_into(">i", raw, 3600 + OFF_INLINE, -(2**31))  # first trace's inline
    segy_path.write_bytes(raw)
    code, out, err = run(capsys, "import-segy", str(segy_path), "-o", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: OutOfGrid:")


@pytest.mark.parametrize(
    "kind,error",
    [("empty", "DataError"), ("one byte", "DataError"), ("directory", "IsADirectoryError")],
)
def test_segy_short_or_unreadable_input_exit_code(tmp_path, capsys, kind, error):
    segy_path = tmp_path / "in.sgy"
    if kind == "directory":
        segy_path.mkdir()
    else:
        segy_path.write_bytes(b"\x01" * (kind == "one byte"))
    code, out, err = run(capsys, "import-segy", str(segy_path), "-o", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error}:")
    assert "Traceback" not in err


def test_render_writes_ppm(tmp_path, capsys, volume_file):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    out = tmp_path / "img.ppm"
    code, _, _ = run(
        capsys, "render", str(svt_path), "-o", str(out),
        "--size", "16x12", "--eye", "16,16,-40", "--look-at", "16,16,16",
        "--steps", "32", "--light", "dir:1,0,0",
        "--density-scale", "0.2", "--emission-scale", "1.0",
    )
    assert code == 0
    blob = out.read_bytes()
    assert blob.startswith(b"P6\n16 12\n255\n")
    assert len(blob) == len(b"P6\n16 12\n255\n") + 16 * 12 * 3


def test_render_is_the_same_at_threads_1_and_4(tmp_path, capsys, volume_file):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    imgs = []
    for i, extra in enumerate((["--threads", "1"], ["--threads", "4"])):
        out = tmp_path / f"img{i}.ppm"
        code, _, _ = run(
            capsys, *extra, "render", str(svt_path), "-o", str(out),
            "--size", "8x8", "--eye", "16,16,-40", "--look-at", "16,16,16",
            "--steps", "16", "--ortho-height", "32",
        )
        assert code == 0
        imgs.append(out.read_bytes())
    assert imgs[0] == imgs[1]


def test_chunk_compare(tmp_path, capsys):
    data = np.full((32, 32, 32), 255, np.uint8)
    path = tmp_path / "cube.raw"
    save_volume(make_volume(data), path)
    prefix = tmp_path / "cmp"
    code, out, _ = run(
        capsys, "chunk-compare", str(path), "--out-prefix", str(prefix),
        "--axis", "x", "--count", "2", "--band-width", "4",
        "--size", "32x32", "--eye", "16,16,-20", "--look-at", "16,16,16",
        "--ortho-height", "32", "--steps", "64", "--shadow-steps", "16",
        "--light", "dir:1,0,0", "--density-scale", "0.2",
    )
    assert code == 0
    values = kv(out)
    assert float(values["ratio"]) > 2.0
    assert (tmp_path / "cmp_independent.ppm").exists()
    assert (tmp_path / "cmp_unified.ppm").exists()


@pytest.mark.parametrize("band_width", ["-1", "0"])
def test_chunk_compare_rejects_a_negative_band_width(tmp_path, capsys, band_width):
    path = tmp_path / "cube.raw"
    save_volume(make_volume(np.full((24, 24, 24), 255, np.uint8)), path)
    code, out, err = run(
        capsys, "chunk-compare", str(path), "--out-prefix", str(tmp_path / "cmp"),
        "--band-width", band_width, "--size", "8x8", "--eye", "12,12,-20",
        "--look-at", "12,12,12", "--steps", "8", "--shadow-steps", "4",
    )
    written = sorted(p.name for p in tmp_path.glob("cmp_*"))
    if band_width == "-1":
        assert (code, out, written) == (2, "", [])
        assert err.splitlines() == ["error: ValueError: --band-width must be >= 0, got -1"]
    else:
        assert code == 0 and kv(out)["band_width_px"] == "0"
        assert written == ["cmp_independent.ppm", "cmp_unified.ppm"]


def test_threads_env_default(monkeypatch):
    from svtf.cli import build_parser

    monkeypatch.setenv("SVTF_THREADS", "3")
    args = build_parser().parse_args(["plan"])
    assert args.threads == 3
    monkeypatch.delenv("SVTF_THREADS")
    args = build_parser().parse_args(["plan"])
    assert args.threads == 1


@pytest.mark.parametrize("value", ["-3", "0", "abc"])
def test_threads_flag_invalid_is_data_error(capsys, tmp_path, value):
    code, out, err = run(capsys, "--threads", value, "inspect", str(tmp_path / "x"))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: DataError: --threads must be an integer >= 1, got {value!r}"
    ]


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_threads_env_invalid_is_data_error(monkeypatch, capsys, tmp_path, value):
    monkeypatch.setenv("SVTF_THREADS", value)
    code, out, err = run(capsys, "inspect", str(tmp_path / "x"))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: DataError: SVTF_THREADS must be an integer >= 1, got {value!r}"
    ]


def test_probe_trilinear_matches_library(tmp_path, capsys, volume_file):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    code, out, _ = run(capsys, "probe", str(svt_path), "--pos", "3.25,4.5,9.75")
    assert code == 0
    from svtf import load_svtf, sample_trilinear

    want = sample_trilinear(load_svtf(svt_path), (3.25, 4.5, 9.75))
    assert float(kv(out)["value"]) == want


@pytest.mark.parametrize("nearest", [[], ["--nearest"]])
@pytest.mark.parametrize("pos", ["inf,1.5,1.5", "nan,1,1"])
def test_probe_rejects_a_non_finite_position(tmp_path, capsys, volume_file, pos, nearest):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    code, out, err = run(capsys, "probe", str(svt_path), f"--pos={pos}", *nearest)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"error: ValueError: position {tuple(map(float, pos.split(',')))} is not finite"
    ]


@pytest.mark.parametrize("mip", ["-1", "2"])
def test_probe_checks_the_mip_the_same_way_in_both_modes(tmp_path, capsys, volume_file, mip):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    for nearest in ([], ["--nearest"]):
        argv = ["probe", str(svt_path), "--pos", "1,1,1", "--mip", mip, *nearest]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: ValueError: mip {mip} out of range (have 2)"]


@pytest.mark.parametrize("nearest", [[], ["--nearest"]])
def test_probe_far_outside_reads_without_a_warning(tmp_path, capsys, volume_file, nearest):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "probe", str(svt_path), "--pos", "1e19,1.5,1.5", *nearest)
    assert (code, err) == (0, "")
    from svtf import load_svtf, sample_nearest, sample_trilinear

    sample = sample_nearest if nearest else sample_trilinear
    assert float(kv(out)["value"]) == sample(load_svtf(svt_path), (1e19, 1.5, 1.5))


@pytest.mark.parametrize(
    "flags,code",
    [
        (["--light", "point:inf,0,0:1"], 1),
        (["--light", "dir:nan,0,1"], 1),
        (["--eye", "nan,10,-40"], 2),
        (["--look-at", "16,inf,16"], 2),
        (["--up", "0,nan,0"], 2),
        (["--light", "point:0,0,0:nan"], 1),
        (["--light", "point:0,0,0:1:1,nan,1"], 1),
        (["--light", "dir:0,0,1:nan,1,1"], 1),
        (["--density-scale", "nan"], 2),
        (["--density-scale", "inf"], 2),
        (["--emission-scale", "nan"], 2),
        (["--background", "nan,0,0"], 2),
        (["--cut-plane", "nan,0,1"], 2),
        (["--fov", "nan"], 2),
        (["--fov", "0"], 2),
        (["--fov", "180"], 2),
        (["--ortho-height", "nan"], 2),
        (["--ortho-height", "0"], 2),
        (["--ortho-height", "-5"], 2),
        (["--cut-plane", "0,0,0"], 2),
        (["--cut-plane", "1e200,0,0"], 2),
    ],
)
def test_render_rejects_non_finite_vectors(tmp_path, capsys, volume_file, flags, code):
    svt_path = tmp_path / "vol.svtf"
    assert run(capsys, "build", str(volume_file), "-o", str(svt_path))[0] == 0
    out = tmp_path / "img.ppm"
    got, _, err = run(
        capsys, "render", str(svt_path), "-o", str(out),
        "--size", "8x8", "--eye", "16,16,-40", "--look-at", "16,16,16",
        "--steps", "8", *flags,
    )
    assert got == code
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert not out.exists()
