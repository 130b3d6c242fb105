"""svtf benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload survey_u8 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

A run sets up its inputs in child processes (bench/gen.py), then repeats
sessions of the workload's pipeline until --seconds have passed, checks every
output, prints a table on stderr and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see bench/README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
SETUP_SECONDS = 3.0  # set-up repeats for at least this long ...
SETUP_MIN_REPEATS = 3  # ... and at least this often
STAGE_SECONDS = 1.0  # prepare and upload repeat within a session for this long
SAMPLE_POSITIONS = 2**18
SAMPLE_REPEATS = 3


def import_program():
    """Import svtf from this checkout's src/, or stop with exit code 2."""
    if not (ROOT / "src" / "svtf" / "__init__.py").is_file():
        print(f"error: no svtf sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import svtf

    return svtf


def repeat_for(fn, seconds: float, min_count: int = 1):
    """Call fn until it has run `seconds` in total and `min_count` times.

    Returns (wall time of each call, result of the last call). A call's
    result is dropped before the next call starts, so repeats do not add up
    in memory.
    """
    times, result = [], None
    while len(times) < min_count or sum(times) < seconds:
        result = None
        t = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t)
    return times, result


def image_digest(images) -> str:
    """sha256 of the frames quantized to 8 bits the way write_image stores them."""
    h = hashlib.sha256()
    for img in images:
        h.update(np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8).tobytes())
    return h.hexdigest()


class Run:
    def __init__(self, svtf, name: str, seed: int, trace: bool):
        self.svtf = svtf
        self.w = workloads.WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.tracer = spans.Tracer(trace)
        self.attempted = 0
        self.failures: list[str] = []
        threads = len(os.sched_getaffinity(0)) if self.w.threads_all else 1
        self.threads = max(1, threads)
        self.recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
        self.digest = None

    # --- set-up ---

    def setup(self) -> float:
        """Run the set-up child repeatedly (see repeat_for); median wall time."""

        def once():
            shutil.rmtree(self.dir, ignore_errors=True)
            subprocess.run(
                [sys.executable, str(HERE / "gen.py"), self.w.name, str(self.seed), str(self.dir)],
                check=True,
            )

        times, _ = repeat_for(once, SETUP_SECONDS, SETUP_MIN_REPEATS)
        self.expected = json.loads((self.dir / "expected.json").read_text())
        self.source = self.dir / ("input.sgy" if self.w.source == "segy" else "input.raw")
        return statistics.median(times)

    # --- checks ---

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    # --- one session of the pipeline ---

    def prepare(self):
        """Source file -> .svtf on disk; returns (volume, svt)."""
        sv, tr = self.svtf, self.tracer
        with tr.span("prepare"):
            if self.w.source == "segy":
                with tr.span("segy.parse_segy", malloc=True):
                    info, vol = sv.parse_segy(self.source)
                self.segy_traces = info.trace_count
            else:
                with tr.span("volume.load_volume"):
                    vol = sv.load_volume(self.source)
            with tr.span("svt.build_svt", malloc=True):
                tex = sv.build_svt(vol, sv.SvtConfig(tile_size=self.w.tile_size))
            with tr.span("svt.save_svtf"):
                sv.save_svtf(tex, self.dir / "volume.svtf")
        return vol, tex

    def upload(self):
        """.svtf on disk -> upload stream file -> atlas; returns (stream, atlas)."""
        sv, tr = self.svtf, self.tracer
        svtu_path = self.dir / "volume.svtu"
        with tr.span("upload"):
            with tr.span("svt.load_svtf"):
                tex = sv.load_svtf(self.dir / "volume.svtf")
            with tr.span("upload.serialize_upload"):
                buf = sv.serialize_upload(tex)
            with tr.span("upload.save_upload"):
                sv.upload.save_upload(buf, svtu_path)
            with tr.span("upload.load_upload"):
                buf = sv.upload.load_upload(svtu_path, max_atlas_extent=tex.config.max_atlas_extent)
            with tr.span("upload.apply_upload"):
                atlas = sv.apply_upload(buf, tex.config, tex.mips)
        return buf, atlas

    def session(self, index: int, traced: bool) -> dict:
        """Source file -> .svtf -> first image (-> orbit) -> upload round trip.

        Prepare and upload repeat until each has run STAGE_SECONDS, so that
        cheap stages still give enough samples. Returns the end-to-end times
        of this session; output checks run between timed segments.
        """
        sv, w, tr = self.svtf, self.w, self.tracer
        tr.enabled = traced
        tr.session = f"{w.name}:{self.seed}:{index}"
        failed_before = len(self.failures)

        with tr.span("session"):
            prepare, (vol, tex) = repeat_for(self.prepare, STAGE_SECONDS)
            self.check(
                workloads.volume_digest(vol.data) == self.expected["sha256"],
                "ingested volume differs from the generated values",
            )
            built = tex.atlas.data
            self.stats, self.dims = tex.stats, vol.dims
            del vol, tex

            tf, lights, frames = workloads.render_setup(w.name, self.dims, sv)
            t2 = time.perf_counter()
            with tr.span("time_to_image"):
                with tr.span("svt.load_svtf"):
                    tex = sv.load_svtf(self.dir / "volume.svtf")
                with tr.span("render.build_illumination_cache"):
                    cache = sv.build_illumination_cache(
                        tex, tf, lights, downsample_factor=w.downsample, shadow_steps=w.shadow_steps
                    )
                t3 = time.perf_counter()
                with tr.span("render.raymarch"):
                    images = [sv.raymarch(tex, cache, tf, frames[0], threads=self.threads)]
            t4 = time.perf_counter()
            frame_times = [t4 - t3]
            image = t4 - t2 + (prepare[-1] if w.image_from_source else 0.0)
            self.check(np.array_equal(tex.atlas.data, built), "reloaded .svtf atlas differs from the built atlas")
            for params in frames[1:]:
                t = time.perf_counter()
                with tr.span("render.raymarch"):
                    images.append(sv.raymarch(tex, cache, tf, params, threads=self.threads))
                frame_times.append(time.perf_counter() - t)
            self.digest = image_digest(images)
            if self.recorded is not None:
                self.check(self.digest == self.recorded, "image digest differs from the recorded one")
            if traced and self.threads > 1:
                with tr.span("render.raymarch_1t"):
                    single = sv.raymarch(tex, cache, tf, frames[0], threads=1)
                self.check(np.array_equal(single, images[0]), "image differs between 1 and N threads")
            self.cache_voxels = int(np.prod(cache.values.shape[:3]))
            self.frames, self.lights = frames, lights
            del tex, cache, images

            upload, (buf, atlas) = repeat_for(self.upload, STAGE_SECONDS)
            self.check(np.array_equal(atlas.data, built), "atlas after the upload round trip differs")
            self.upload_counts = {
                "upload.tiles": len(buf.tile_data_offsets),
                "upload.elements": buf.total_elements,
                "upload.windows": len(buf.windows),
                "upload.stream_bytes": buf.total_bytes,
            }
        self.attempted += 1  # the session itself
        if len(self.failures) > failed_before:
            self.failures.append(f"session {index}")
        return {
            "prepare_s": prepare,
            "time_to_image_s": image,
            "frame_s": frame_times[1:] if len(frame_times) > 1 else frame_times,
            "upload_s": upload,
            "busy": sum(prepare) + (t4 - t2) + sum(frame_times[1:]) + sum(upload),
        }

    def run_sessions(self, seconds: float):
        """Sessions until `seconds` pass; with tracing, untraced and traced alternate."""
        untraced, traced = [], []
        start = time.perf_counter()
        index = 0
        while True:
            is_traced = self.trace and index % 2 == 1
            try:
                (traced if is_traced else untraced).append(self.session(index, is_traced))
            except Exception:
                self.attempted += 1
                self.failures.append(f"session {index} raised")
                traceback.print_exc()
            index += 1
            done = time.perf_counter() - start >= seconds
            if done and (traced or not self.trace) or index >= 1000:
                return untraced, traced

    # --- once per run, after the sessions ---

    def sample_check(self, tex) -> float:
        """sample_trilinear_many against the dense oracle; returns the median time."""
        sv = self.svtf
        rng = np.random.default_rng(self.seed)
        px, py, pz = probe.position_batch(rng, tex.virtual_dims, tex.config.tile_size, SAMPLE_POSITIONS)
        times = []
        for _ in range(SAMPLE_REPEATS):
            t = time.perf_counter()
            with self.tracer.span("sample.sample_trilinear_many"):
                got = sv.sample.sample_trilinear_many(tex, px, py, pz)
            times.append(time.perf_counter() - t)
        voxel = workloads.voxel_reader(self.dir, self.w.source, self.expected["shape"], self.expected["dtype"])
        want = probe.dense_trilinear(voxel, self.expected["shape"], px, py, pz)
        self.check(np.array_equal(got, want), "sample_trilinear_many differs from the dense oracle")
        self.positions = (px, py, pz)
        return statistics.median(times)

    def layer_metrics(self, tex, traced, untraced, trilinear_s) -> dict:
        tr = self.tracer
        st = self.stats
        tiles = sum(st.nonempty_tile_count)
        raymarch = tr.median("render.raymarch")
        raymarch_1t = tr.median("render.raymarch_1t", raymarch)
        res = probe.Residency(tex)
        rays_hit, nominal, empty = probe.primary_counts(res, self.frames)
        cache_voxels, shadow, shadow_empty = probe.shadow_counts(
            res, self.lights, self.w.downsample, self.w.shadow_steps, self.svtf
        )
        base, fallback = res.base_and_fallback(*self.positions)
        segy = self.w.source == "segy"
        overhead = statistics.median(s["busy"] for s in traced) - statistics.median(
            s["busy"] for s in untraced
        )
        m = {
            "volume.load_s": tr.median("volume.load_volume"),
            "volume.bytes_read": 0 if segy else self.source.stat().st_size,
            "segy.parse_s": tr.median("segy.parse_segy"),
            "segy.traces": self.segy_traces if segy else 0,
            "segy.bytes_read": self.source.stat().st_size if segy else 0,
            "segy.parse_peak_traced_mb": tr.peak_mb("segy.parse_segy"),
            "svt.build_s": tr.median("svt.build_svt"),
            "svt.build_peak_traced_mb": tr.peak_mb("svt.build_svt"),
            "svt.tiles_total": tiles,
            "svt.tiles_mip0": st.nonempty_tile_count[0],
            "svt.mip_levels": len(st.nonempty_tile_count),
            "svt.padded_nonempty_voxels": st.padded_nonempty_voxel_count,
            "svt.atlas_voxels": int(tex.atlas.data.size),
            "svt.save_s": tr.median("svt.save_svtf"),
            "svt.load_s": tr.median("svt.load_svtf"),
            "svt.load_us_per_tile": tr.median("svt.load_svtf") / tiles * 1e6,
            "svt.container_bytes": (self.dir / "volume.svtf").stat().st_size,
            "upload.serialize_s": tr.median("upload.serialize_upload"),
            "upload.save_s": tr.median("upload.save_upload"),
            "upload.load_s": tr.median("upload.load_upload"),
            "upload.apply_s": tr.median("upload.apply_upload"),
            **self.upload_counts,
            "sample.trilinear_s": trilinear_s,
            "sample.positions": SAMPLE_POSITIONS,
            "sample.positions_per_s": SAMPLE_POSITIONS / trilinear_s,
            "sample.resident_share": float(base.mean()),
            "sample.fallback_share": float(fallback.mean()),
            "render.cache_s": tr.median("render.build_illumination_cache"),
            "render.cache_voxels": cache_voxels,
            "render.shadow_samples": shadow,
            "render.cache_empty_sample_share": shadow_empty / shadow,
            "render.frames": len(self.frames),
            "render.raymarch_s": raymarch,
            "render.raymarch_1t_s": raymarch_1t,
            "render.thread_speedup": raymarch_1t / raymarch,
            "render.threads": self.threads,
            "render.rays_hit": rays_hit,
            "render.nominal_samples": nominal,
            "render.nominal_samples_per_s": nominal / (raymarch * len(self.frames)),
            "render.empty_sample_share": empty / nominal,
            "trace.overhead_s": overhead,
        }
        self.check(cache_voxels == self.cache_voxels, "cache voxel count differs from the cache built")
        return m


def declared_units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(args) -> int:
    svtf = import_program()
    run = Run(svtf, args.workload, args.seed, bool(args.trace))
    try:
        setup_s = run.setup()
        untraced, traced = run.run_sessions(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not untraced:
            print("error: no session completed", file=sys.stderr)
            return 1
        tex = svtf.load_svtf(run.dir / "volume.svtf")
        run.tracer.enabled = run.trace
        trilinear_s = run.sample_check(tex)
        if run.trace:
            if not traced:
                print("error: no traced session completed", file=sys.stderr)
                return 1
            metrics = run.layer_metrics(tex, traced, untraced, trilinear_s)
            units = declared_units("per_layer")
            run.tracer.write(WORK / "traces" / f"{args.workload}-{args.seed}.json")
        else:
            metrics = {
                "setup_s": setup_s,
                "time_to_image_s": statistics.median(s["time_to_image_s"] for s in untraced),
                "frame_s": statistics.median(t for s in untraced for t in s["frame_s"]),
                "prepare_s": statistics.median(t for s in untraced for t in s["prepare_s"]),
                "upload_s": statistics.median(t for s in untraced for t in s["upload_s"]),
                "peak_rss_mb": peak_rss_mb,
            }
            units = declared_units("end_to_end")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {k: metrics[k] for k in units}
    failed = len(run.failures)
    frames = sum(len(s["frame_s"]) for s in untraced)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"sessions, {frames} untraced frame times, digest {run.digest}"
          + ("" if run.recorded else " (no recorded digest for this seed)"), file=sys.stderr)
    for k, v in metrics.items():
        print(f"  {k:32s} {v:>16.6g} {units[k]}", file=sys.stderr)
    print(f"  {'error_rate':32s} {failed / run.attempted:>16.6g} ratio "
          f"({failed} of {run.attempted} operations failed)", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def record(args) -> int:
    """Store the image digest of one session as the reference for (workload, seed)."""
    run = Run(import_program(), args.workload, args.seed, False)
    try:
        run.setup()
        run.session(0, False)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if run.failures:
        print(f"error: {run.failures}", file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text())
    table.setdefault(args.workload, {})[str(args.seed)] = run.digest
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"error: {name} exited with {out.returncode}", file=sys.stderr)
            return out.returncode
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    names = list(results)
    print(f"{'metric':32s} {'unit':>6s} " + " ".join(f"{n:>20s}" for n in names))
    for key in results[names[0]]["metrics"]:
        unit = results[names[0]]["metrics"][key]["unit"]
        row = " ".join(f"{results[n]['metrics'][key]['value']:>20.6g}" for n in names)
        print(f"{key:32s} {unit:>6s} {row}")
    row = " ".join(f"{results[n]['failed'] / results[n]['attempted']:>20.6g}" for n in names)
    print(f"{'error_rate':32s} {'ratio':>6s} {row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 7919 is held out for confirming claimed gains")
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true",
                   help="run one session and store its image digest for this seed")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.record:
        return record(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
