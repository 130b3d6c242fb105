"""Pinned bytes of the container and the upload stream.

One small seeded u8 volume and one small seeded f32 volume are built, saved
as .svtf and streamed to .svtu, and each file's sha256 must equal the digest
recorded here. The f32 volume holds -0.0 and values within a nonzero
float_empty_threshold of empty_value, so the empty-voxel rewrite and the
signed zero are both in the bytes. Any change to how the atlas is held in
memory must leave these files as they are. The reference builder and
writers in conftest, which keep their atlas as a (z, y, x) texture, must
write the same bytes.
"""

import hashlib

import numpy as np
import pytest
from conftest import (
    make_volume,
    reference_build_svt,
    reference_save_svtf,
    reference_save_upload,
    reference_serialize_upload,
)

from svtf import SvtConfig, VoxelFormat, build_svt, save_svtf, serialize_upload
from svtf.upload import save_upload


def _u8_case():
    rng = np.random.default_rng(2024)
    data = np.where(rng.random((21, 18, 27)) < 0.08, rng.integers(1, 256, (21, 18, 27)), 0)
    return make_volume(data.astype(np.uint8)), SvtConfig(tile_size=4)


def _f32_case():
    rng = np.random.default_rng(7)
    shape = (19, 23, 17)
    data = np.zeros(shape, np.float32)
    pick = rng.random(shape)
    data[pick < 0.06] = rng.normal(0.0, 2.0, int((pick < 0.06).sum())).astype(np.float32)
    data[(pick >= 0.06) & (pick < 0.10)] = -0.0
    near = (pick >= 0.10) & (pick < 0.14)  # within the threshold: stored as empty
    data[near] = rng.uniform(-0.05, 0.05, int(near.sum())).astype(np.float32)
    cfg = SvtConfig(tile_size=6, pad=2, float_empty_threshold=0.0625)
    return make_volume(data, VoxelFormat.F32), cfg


GOLDEN = {
    "u8": (
        _u8_case,
        "2169357c108c1317a58d68767ead2859097fecc9cf4a6a06a5b69254d5939da4",
        "6ef83009e4401932da2c09d1c6f326109f87fdb4c0d89fe584054fd1701b9f85",
    ),
    "f32": (
        _f32_case,
        "cb252d9038924ce8021a96109362c633aab9991a455694ab82ca58caddd32a39",
        "6661cb6e4f388d3b4967b3a818d5f9564958119b58545ad6bf9e9654c46be505",
    ),
}


def _digests(directory) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((directory / f"v.{ext}").read_bytes()).hexdigest()
        for ext in ("svtf", "svtu")
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_file_bytes_are_pinned(tmp_path, name):
    case, svtf_digest, svtu_digest = GOLDEN[name]
    volume, cfg = case()
    svt = build_svt(volume, cfg)
    assert svt.slot_count > 1
    save_svtf(svt, tmp_path / "v.svtf")
    save_upload(serialize_upload(svt, window_elements=97), tmp_path / "v.svtu")
    assert _digests(tmp_path) == (svtf_digest, svtu_digest)

    ref = reference_build_svt(volume, cfg)
    reference_save_svtf(ref, tmp_path / "v.svtf")
    reference_save_upload(reference_serialize_upload(ref, window_elements=97), tmp_path / "v.svtu")
    assert _digests(tmp_path) == (svtf_digest, svtu_digest)
