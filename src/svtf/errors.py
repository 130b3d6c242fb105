"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data errors
(parse/corrupt/mismatch) exit 2, capacity and overflow errors exit 3.
"""


class SvtfError(Exception):
    """Base class for all svtf errors."""


class DataError(SvtfError):
    """Input bytes or values violate a format contract (exit code 2)."""


class CapacityError(SvtfError):
    """A size or capacity limit was exceeded (exit code 3)."""


class SizeMismatch(DataError):
    pass


class DegenerateRange(DataError):
    pass


class UnsupportedFormatCode(DataError):
    pass


class TruncatedTrace(DataError):
    pass


class InconsistentTraceLength(DataError):
    pass


class OutOfGrid(DataError):
    pass


class CorruptStream(DataError):
    pass


class DimMismatch(DataError):
    pass


class CapacityExceeded(CapacityError):
    pass


class AtlasCapacityExceeded(CapacityExceeded):
    """The resident tiles outnumber the atlas's slot cube at
    max_atlas_extent, or the atlas does not fit in memory. Raised by the
    build, the loaders and the planner's atlas extent estimate alike.
    """
