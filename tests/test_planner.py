import numpy as np
import pytest
from conftest import random_volume
from hypothesis import given, settings
from hypothesis import strategies as st

from svtf import (
    CapacityExceeded,
    PlanInputs,
    SvtConfig,
    atlas_extent_estimate,
    build_svt,
    check_overflow,
    int32_regression_probe,
    net_payload_voxels,
    serialize_upload,
    upload_buffer_bytes,
)
from svtf.planner import derive_tile_counts

GI = 2**30
SURVEY_NONEMPTY = 2_600_000_000


def test_net_payload_defaults():
    n = net_payload_voxels(SvtConfig())
    assert n == (2048**3 * 16**3 * 7) // (18**3 * 8)
    assert abs(n / GI - 4.9) < 0.05  # the power-of-two "4.9 G"


def test_net_payload_no_padding():
    cfg = SvtConfig(tile_size=16, pad=1)
    # pad=0 is rejected by config validation; evaluate the formula directly.
    assert (2048**3 * 7) // 8 == 7516192768
    # and a small worked example:
    small = SvtConfig(tile_size=16, pad=1, max_atlas_extent=36)
    assert net_payload_voxels(small) == 28672


def test_upload_bytes_survey():
    got = upload_buffer_bytes(SURVEY_NONEMPTY, 1, SvtConfig())
    assert abs(got - 4.2318432e9) / 4.2318432e9 < 0.005
    assert got < 2**32


def test_upload_bytes_zero():
    assert upload_buffer_bytes(0, 1, SvtConfig()) == 0


def test_upload_bytes_dense_float_dataset():
    voxels = 2340 * 2340 * 177
    got = upload_buffer_bytes(voxels, 4, SvtConfig())
    assert got > 2**32
    assert abs(got / GI - 5.87) < 0.1


def test_check_overflow_survey():
    report = check_overflow(
        PlanInputs(config=SvtConfig(), nonempty_voxels=SURVEY_NONEMPTY, bytes_per_voxel=1)
    )
    assert report.fits_uint32_upload is True
    assert report.fits_int32_index is False


def test_check_overflow_dense():
    report = check_overflow(
        PlanInputs(config=SvtConfig(), nonempty_voxels=2340 * 2340 * 177, bytes_per_voxel=4)
    )
    assert report.fits_uint32_upload is False


def test_check_overflow_reads_the_build_atlas_extent():
    """The report's atlas extent is atlas_extent_estimate's, capacity check
    included: a count past the 113^3 slot cube of the default extent raises."""
    for nonempty in (SURVEY_NONEMPTY, 10**9, 4096):
        report = check_overflow(PlanInputs(config=SvtConfig(), nonempty_voxels=nonempty))
        counts = derive_tile_counts(nonempty, SvtConfig())
        assert report.atlas_extent_estimate == atlas_extent_estimate(counts, SvtConfig())
    with pytest.raises(CapacityExceeded, match="113"):
        check_overflow(PlanInputs(config=SvtConfig(), nonempty_voxels=10**13))


def test_occupancy_breakeven():
    report = check_overflow(PlanInputs(config=SvtConfig(), bytes_per_voxel=1))
    assert abs(report.occupancy_breakeven - 0.50) < 0.02


def test_padding_and_mip_factors_exact():
    report = check_overflow(PlanInputs(config=SvtConfig()))
    assert report.padding_factor == (18 / 16) ** 3
    assert report.mip_factor == 8 / 7


@pytest.mark.parametrize(
    "tiles,expected",
    [
        ([1], 18),
        ([9], 54),  # ceil(cbrt(9)) = 3 slots -> 3*18
        ([8], 36),
    ],
)
def test_atlas_extent_small(tiles, expected):
    assert atlas_extent_estimate(tiles, SvtConfig()) == expected


def test_atlas_extent_survey_like():
    counts = derive_tile_counts(SURVEY_NONEMPTY, SvtConfig(), mean_tile_occupancy=0.70)
    extent = atlas_extent_estimate(counts, SvtConfig())
    assert abs(extent - 1872) / 1872 < 0.05


def test_atlas_extent_capacity_error():
    with pytest.raises(CapacityExceeded):
        atlas_extent_estimate([2_000_000], SvtConfig())


@pytest.mark.parametrize("payload", [10**6, 2**31 - 1])
def test_probe_below_threshold(payload):
    off64, off32 = int32_regression_probe(payload)
    assert off64 == payload
    assert off32 == payload


def test_probe_wraps_at_2_31():
    off64, off32 = int32_regression_probe(2**31)
    assert off64 == 2**31
    assert off32 == -(2**31)


def test_probe_survey_negative():
    off64, off32 = int32_regression_probe(SURVEY_NONEMPTY)
    assert off64 == SURVEY_NONEMPTY
    assert off32 < 0


@given(
    extent=st.integers(min_value=18, max_value=4096),
    pad=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_net_payload_monotone(extent, pad):
    cfg_lo = SvtConfig(tile_size=16, pad=pad, max_atlas_extent=max(extent, 16 + 2 * pad))
    cfg_hi = SvtConfig(
        tile_size=16, pad=pad, max_atlas_extent=max(extent, 16 + 2 * pad) + 18
    )
    assert net_payload_voxels(cfg_hi) >= net_payload_voxels(cfg_lo)
    if pad < 4:
        wider = SvtConfig(
            tile_size=16, pad=pad + 1, max_atlas_extent=max(extent, 16 + 2 * (pad + 1))
        )
        narrow = SvtConfig(
            tile_size=16, pad=pad, max_atlas_extent=wider.max_atlas_extent
        )
        assert net_payload_voxels(wider) <= net_payload_voxels(narrow)


def test_estimate_close_to_exact_on_scattered_volumes(rng):
    # Near-dense random fill on tile-aligned dims: the analytic padding and
    # mip factors model real tiles, not clamp-extended slivers.
    from conftest import make_volume, upload_buffer_bytes_exact

    for _ in range(5):
        dims = rng.choice([32, 48, 64], size=3)
        data = np.where(
            rng.random(size=dims) < 0.97, rng.integers(1, 256, size=dims), 0
        ).astype(np.uint8)
        vol = make_volume(data)
        svt = build_svt(vol)
        estimate = upload_buffer_bytes(svt.stats.nonempty_voxel_count, 1, svt.config)
        exact = upload_buffer_bytes_exact(svt.stats.padded_nonempty_voxel_count, 1)
        assert abs(estimate - exact) / exact < 0.10
        # and the exact mode matches the materialized stream payload
        buf = serialize_upload(svt)
        payload = buf.total_bytes - buf.tile_count * svt.config.occupancy_mask_bytes
        assert payload == exact


def test_report_lines_stable():
    from svtf.planner import report_lines

    lines = report_lines(check_overflow(PlanInputs(config=SvtConfig())))
    keys = [line.split(":")[0] for line in lines]
    assert keys == [
        "padding_factor",
        "mip_factor",
        "net_payload_voxels",
        "net_payload_givoxels",
        "upload_buffer_bytes",
        "upload_buffer_gibytes",
        "atlas_extent_estimate",
        "fits_uint32_upload",
        "fits_int32_index",
        "occupancy_breakeven",
    ]
