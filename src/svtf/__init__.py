"""Sparse volume texture toolkit.

Builds page-table tiled representations of dense scalar volumes (SEG-Y or
raw), plans their capacity and overflow behavior, streams them through an
occupancy-compressed upload buffer, and renders them with an
illumination-cached raymarcher.
"""

from .chunks import BorderMetric, ChunkSplit, border_artifact_metric, render_chunked
from .errors import (
    AtlasCapacityExceeded,
    CapacityError,
    CapacityExceeded,
    CorruptStream,
    DataError,
    DegenerateRange,
    DimMismatch,
    InconsistentTraceLength,
    OutOfGrid,
    SizeMismatch,
    SvtfError,
    TruncatedTrace,
    UnsupportedFormatCode,
)
from .planner import (
    CapacityReport,
    PlanInputs,
    atlas_extent_estimate,
    check_overflow,
    int32_regression_probe,
    net_payload_voxels,
    upload_buffer_bytes,
)
from .render import (
    Camera,
    DirectionalLight,
    IlluminationCache,
    PointLight,
    RenderParams,
    TransferFunction,
    build_illumination_cache,
    raymarch,
    write_image,
)
from .sample import sample_nearest, sample_trilinear
from .segy import SegYHeaderInfo, ibm_to_ieee, ieee_to_ibm, parse_segy, write_segy
from .svt import (
    BuildStats,
    PageTable,
    SparseVolumeTexture,
    SvtConfig,
    TileAtlas,
    build_mip_level,
    build_svt,
    load_svtf,
    save_svtf,
    tile_grid_dims,
)
from .upload import UploadBuffer, apply_upload, serialize_upload, window_table
from .volume import (
    DenseVolume,
    VolumeDims,
    VoxelFormat,
    load_volume,
    normalize_to_u8,
    read_raw,
    save_volume,
)

__version__ = "0.1.0"
