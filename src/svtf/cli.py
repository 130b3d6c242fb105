"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error (parse/corrupt),
3 capacity/overflow error. Every failure prints one machine-greppable
line to stderr: `error: <ExceptionName>: <detail>`.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import chunks, planner, render, sample, segy, upload, volume
from . import svt as svtmod
from .errors import CapacityError, DataError, SvtfError


def _triple(text: str, kind=float):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values: {text!r}")
    return tuple(kind(p) for p in parts)


def _pair(text: str, kind=float):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values: {text!r}")
    return tuple(kind(p) for p in parts)


def _size(text: str):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT: {text!r}")


def _parse_light(text: str):
    parts = text.split(":")
    kind = parts[0]
    if kind == "dir" and len(parts) in (2, 3):
        direction = _triple(parts[1])
        intensity = _triple(parts[2]) if len(parts) == 3 else render.DirectionalLight.intensity
        return render.DirectionalLight(direction=direction, intensity=intensity)
    if kind == "point" and len(parts) in (3, 4):
        position = _triple(parts[1])
        radius = float(parts[2])
        intensity = _triple(parts[3]) if len(parts) == 4 else render.PointLight.intensity
        return render.PointLight(position=position, radius=radius, intensity=intensity)
    raise argparse.ArgumentTypeError(
        f"light must be dir:dx,dy,dz[:r,g,b] or point:px,py,pz:radius[:r,g,b], got {text!r}"
    )


def _svt_config(args) -> svtmod.SvtConfig:
    return svtmod.SvtConfig(
        tile_size=args.tile,
        pad=args.pad,
        max_atlas_extent=args.extent,
        empty_value=args.empty,
        float_empty_threshold=args.float_empty_threshold,
    )


def _add_config_flags(p):
    d = svtmod.SvtConfig
    p.add_argument("--tile", type=int, default=d.tile_size, help="logical tile size per axis")
    p.add_argument("--pad", type=int, default=d.pad, help="border voxels per tile face")
    p.add_argument(
        "--extent", type=int, default=d.max_atlas_extent, help="max atlas voxels per axis"
    )
    p.add_argument("--empty", type=float, default=d.empty_value, help="empty voxel value")
    p.add_argument("--float-empty-threshold", type=float, default=d.float_empty_threshold)


def _add_render_flags(p):
    cam, params, tf = render.Camera, render.RenderParams, render.TransferFunction
    p.add_argument("--size", type=_size, default=(cam.width, cam.height), metavar="WxH")
    p.add_argument("--eye", type=_triple, required=True)
    p.add_argument("--look-at", type=_triple, required=True)
    p.add_argument("--up", type=_triple, default=cam.up)
    p.add_argument("--fov", type=float, default=cam.vfov_deg,
                   help="vertical field of view, degrees")
    p.add_argument("--ortho-height", type=float, default=cam.ortho_height,
                   help="orthographic view height in voxels (disables perspective)")
    p.add_argument("--steps", type=int, default=params.max_step_count, help="max samples per ray")
    p.add_argument("--background", type=_triple, default=params.background)
    p.add_argument("--cut-plane", type=_triple, default=None,
                   metavar="NX,NY,NZ", help="cut plane normal; use with --cut-offset")
    p.add_argument("--cut-offset", type=float, default=0.0)
    p.add_argument("--light", type=_parse_light, action="append", default=[],
                   help="repeatable; dir:dx,dy,dz[:r,g,b] or point:px,py,pz:radius[:r,g,b]")
    p.add_argument("--downsample", type=int, default=render.DEFAULT_DOWNSAMPLE,
                   help="illumination cache factor")
    p.add_argument("--shadow-steps", type=int, default=params.shadow_steps)
    p.add_argument("--lut", default=None, help="transfer function file: 256 lines 'R G B A'")
    p.add_argument("--window", type=_pair, default=tf.window)
    p.add_argument("--density-scale", type=float, default=tf.density_scale)
    p.add_argument("--emission-scale", type=float, default=tf.emission_scale)


def _camera(args) -> render.Camera:
    w, h = args.size
    return render.Camera(
        eye=args.eye,
        look_at=args.look_at,
        up=args.up,
        vfov_deg=args.fov,
        width=w,
        height=h,
        ortho_height=args.ortho_height,
    )


def _render_params(args) -> render.RenderParams:
    cut = (args.cut_plane, args.cut_offset) if args.cut_plane else None
    return render.RenderParams(
        camera=_camera(args),
        max_step_count=args.steps,
        background=args.background,
        cut_plane=cut,
        shadow_steps=args.shadow_steps,
    )


def _transfer_function(args) -> render.TransferFunction:
    kwargs = dict(
        density_scale=args.density_scale,
        emission_scale=args.emission_scale,
        window=args.window,
    )
    if args.lut:
        return render.TransferFunction.from_lut_file(args.lut, **kwargs)
    return render.TransferFunction.grayscale(**kwargs)


def _thread_count(text: str, source: str) -> int:
    """A thread count from the environment or a flag; DataError unless >= 1."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DataError(f"{source} must be an integer >= 1, got {text!r}")
    return threads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svtf", description="Sparse volume texture toolkit"
    )
    parser.add_argument(
        "--threads",
        default=_thread_count(os.environ.get("SVTF_THREADS", "1"), "SVTF_THREADS"),
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("import-segy", help="parse a SEG-Y cube into a raw volume")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--axis-map", type=lambda s: tuple(a.strip() for a in s.split(",")),
                   default=segy.DEFAULT_AXIS_MAP, help="sources for x,y,z axes")

    p = sub.add_parser("import-raw", help="validate a raw volume and write it canonically")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dims", type=lambda s: _triple(s, int), default=None)
    p.add_argument("--format", choices=["u8", "f32"], default=None)
    p.add_argument("--endian", choices=["little", "big"], default=None)

    p = sub.add_parser("normalize", help="rescale a volume to 8-bit")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--range", type=_pair, default=None, help="min,max source values")

    p = sub.add_parser("build", help="build a sparse volume texture")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_config_flags(p)

    p = sub.add_parser("plan", help="print the capacity report")
    _add_config_flags(p)
    p.add_argument("--nonempty", type=int, default=0, help="non-empty voxel count")
    p.add_argument("--bytes-per-voxel", type=int, default=1)
    p.add_argument("--occupancy", type=float, default=1.0,
                   help="mean tile occupancy for the atlas extent estimate")

    p = sub.add_parser("inspect", help="describe a volume or SVT container")
    p.add_argument("input")

    p = sub.add_parser("dump-upload", help="write the upload stream of an SVT")
    p.add_argument("svt")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window-elements", type=int, default=upload.WINDOW_ELEMENTS)

    p = sub.add_parser("apply-upload", help="expand an upload stream and verify it")
    p.add_argument("svt")
    p.add_argument("stream")

    p = sub.add_parser("probe", help="sample the SVT at one position")
    p.add_argument("svt")
    p.add_argument("--pos", type=_triple, required=True)
    p.add_argument("--mip", type=int, default=0)
    p.add_argument("--nearest", action="store_true", help="nearest instead of trilinear")

    p = sub.add_parser("render", help="raymarch an SVT to a PPM image")
    p.add_argument("svt")
    p.add_argument("-o", "--output", required=True)
    _add_render_flags(p)

    p = sub.add_parser("chunk-compare",
                       help="render independent vs unified chunk lighting")
    p.add_argument("input", help="raw volume (chunk builds need the source)")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--axis", choices=["x", "y", "z"], default="x")
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--band-width", type=int, default=8)
    _add_config_flags(p)
    _add_render_flags(p)
    return parser


def _cmd_import_segy(args) -> int:
    info, vol = segy.parse_segy(args.input, axis_map=args.axis_map)
    volume.save_volume(vol, args.output)
    print(f"samples_per_trace: {info.samples_per_trace}")
    print(f"sample_interval_us: {info.sample_interval_us}")
    print(f"format_code: {info.format_code}")
    print(f"trace_count: {info.trace_count}")
    print(f"inline_range: {info.inline_range[0]} {info.inline_range[1]}")
    print(f"crossline_range: {info.crossline_range[0]} {info.crossline_range[1]}")
    print(f"missing_cells: {info.missing_cells}")
    print(f"dims: {vol.dims.x} {vol.dims.y} {vol.dims.z}")
    return 0


def _cmd_import_raw(args) -> int:
    dims = volume.VolumeDims(*args.dims) if args.dims else None
    fmt = volume.VoxelFormat(args.format) if args.format else None
    vol = volume.load_volume(args.input, dims=dims, format=fmt, endianness=args.endian)
    volume.save_volume(vol, args.output)
    print(f"dims: {vol.dims.x} {vol.dims.y} {vol.dims.z}")
    print(f"format: {vol.format.value}")
    print(f"value_range: {vol.value_range[0]!r} {vol.value_range[1]!r}")
    return 0


def _cmd_normalize(args) -> int:
    vol = volume.load_volume(args.input)
    out = volume.normalize_to_u8(vol, args.range)
    volume.save_volume(out, args.output)
    print(f"value_range: {out.value_range[0]!r} {out.value_range[1]!r}")
    return 0


def _print_svt_stats(tex) -> None:
    s = tex.stats
    print(f"mips: {tex.mip_count}")
    print(f"nonempty_voxel_count: {s.nonempty_voxel_count}")
    print(f"nonempty_tile_count: {' '.join(str(c) for c in s.nonempty_tile_count)}")
    print(f"padded_nonempty_voxel_count: {s.padded_nonempty_voxel_count}")
    print(f"mean_tile_occupancy: {s.mean_tile_occupancy:.4f}")
    x, y, z = svtmod.atlas_dims(tex.slot_count, tex.config)
    print(f"atlas_dims: {x} {y} {z}")


def _cmd_build(args) -> int:
    vol = volume.load_volume(args.input)
    tex = svtmod.build_svt(vol, _svt_config(args))
    svtmod.save_svtf(tex, args.output)
    _print_svt_stats(tex)
    return 0


def _cmd_plan(args) -> int:
    report = planner.check_overflow(
        planner.PlanInputs(
            config=_svt_config(args),
            nonempty_voxels=args.nonempty,
            bytes_per_voxel=args.bytes_per_voxel,
            mean_tile_occupancy=args.occupancy,
        )
    )
    for line in planner.report_lines(report):
        print(line)
    return 0


def _cmd_inspect(args) -> int:
    with open(args.input, "rb") as fh:
        magic = fh.read(4)
    if magic == svtmod.SVTF_MAGIC:
        tex = svtmod.load_svtf(args.input)
        print("kind: svt")
        print(f"format: {tex.format.value}")
        d = tex.virtual_dims
        print(f"virtual_dims: {d.x} {d.y} {d.z}")
        print(f"tile_size: {tex.config.tile_size}")
        print(f"pad: {tex.config.pad}")
        _print_svt_stats(tex)
    else:
        vol = volume.load_volume(args.input)
        print("kind: volume")
        print(f"dims: {vol.dims.x} {vol.dims.y} {vol.dims.z}")
        print(f"format: {vol.format.value}")
        print(f"value_range: {vol.value_range[0]!r} {vol.value_range[1]!r}")
        print(f"mean: {float(vol.data.mean()):.6g}")
    return 0


def _cmd_dump_upload(args) -> int:
    tex = svtmod.load_svtf(args.svt)
    buf = upload.serialize_upload(tex, window_elements=args.window_elements)
    upload.save_upload(buf, args.output)
    print(f"tiles: {buf.tile_count}")
    print(f"windows: {len(buf.windows)}")
    print(f"total_bytes: {buf.total_bytes}")
    print(f"exceeds_uint32: {str(buf.exceeds_uint32).lower()}")
    return 0


def _cmd_apply_upload(args) -> int:
    tex = svtmod.load_svtf(args.svt)
    buf = upload.load_upload(args.stream, max_atlas_extent=tex.config.max_atlas_extent)
    atlas = upload.apply_upload(buf, tex.config, tex.mips)
    match = np.array_equal(atlas.data, tex.atlas.data)
    print(f"tiles: {buf.tile_count}")
    print(f"atlas_match: {str(match).lower()}")
    if not match:
        print(
            "error: CorruptStream: reconstructed atlas differs from the container",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_probe(args) -> int:
    tex = svtmod.load_svtf(args.svt)
    if args.nearest:
        value = sample.sample_nearest(tex, args.pos, args.mip)
    else:
        value = sample.sample_trilinear(tex, args.pos, args.mip)
    print(f"value: {value!r}")
    return 0


def _cmd_render(args, threads: int) -> int:
    tex = svtmod.load_svtf(args.svt)
    tf = _transfer_function(args)
    params = _render_params(args)
    cache = render.build_illumination_cache(
        tex, tf, args.light, args.downsample, args.shadow_steps, threads=threads
    )
    image = render.raymarch(tex, cache, tf, params, threads=threads)
    render.write_image(image, args.output)
    print(f"wrote: {args.output}")
    return 0


def _cmd_chunk_compare(args, threads: int) -> int:
    if args.band_width < 0:
        raise ValueError(f"--band-width must be >= 0, got {args.band_width}")
    vol = volume.load_volume(args.input)
    split = chunks.ChunkSplit(axis=args.axis, count=args.count)
    tf = _transfer_function(args)
    params = _render_params(args)
    config = _svt_config(args)
    images = {}
    for mode in ("independent", "unified"):
        images[mode] = chunks.render_chunked(
            vol, split, mode, args.light, tf, params,
            config=config, downsample_factor=args.downsample, threads=threads,
        )
        out = f"{args.out_prefix}_{mode}.ppm"
        render.write_image(images[mode], out)
        print(f"wrote: {out}")
    metric = chunks.border_artifact_metric(
        images["independent"], images["unified"], split,
        args.band_width, params.camera, vol.dims,
    )
    print(f"band_width_px: {metric.band_width_px}")
    print(f"mean_abs_diff_border: {metric.mean_abs_diff_border:.6g}")
    print(f"mean_abs_diff_global: {metric.mean_abs_diff_global:.6g}")
    print(f"ratio: {metric.ratio:.6g}")
    return 0


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except DataError as exc:
        return _fail(exc, 2)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: Usage: a subcommand is required", file=sys.stderr)
        return 1
    try:
        threads = _thread_count(args.threads, "--threads")
    except DataError as exc:
        return _fail(exc, 2)

    handlers = {
        "import-segy": lambda: _cmd_import_segy(args),
        "import-raw": lambda: _cmd_import_raw(args),
        "normalize": lambda: _cmd_normalize(args),
        "build": lambda: _cmd_build(args),
        "plan": lambda: _cmd_plan(args),
        "inspect": lambda: _cmd_inspect(args),
        "dump-upload": lambda: _cmd_dump_upload(args),
        "apply-upload": lambda: _cmd_apply_upload(args),
        "probe": lambda: _cmd_probe(args),
        "render": lambda: _cmd_render(args, threads),
        "chunk-compare": lambda: _cmd_chunk_compare(args, threads),
    }
    try:
        return handlers[args.command]()
    except CapacityError as exc:
        return _fail(exc, 3)
    except (SvtfError, OSError, ValueError) as exc:
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
