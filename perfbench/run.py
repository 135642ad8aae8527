#!/usr/bin/env python3
"""Layered benchmark for scurve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the library is imported from
``src/``.  Each workload is a closed loop with one client: the next
operation starts when the previous one has finished, one process at a
time, with the library's default FFT worker count.  Every timed output is
checked against its reference.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  The line before it records the provenance:
library versions, worker count, core count, seed and sample counts.  The
traced run also writes every span to ``.bench_out/``.  See README.md in
this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
# The checkout's sources come first, ahead of any installed scurve; main()
# refuses to run without them.
sys.path.insert(0, str(SRC))

# Acceptance criterion 1 of the test suite: a round trip returns every
# harmonic coefficient to within this absolute error.
TOLERANCE = 1e-10
LAM = 2.0
J_MIN = 2
# Fresh processes timed for setup_s, after one untimed warm-up process.
SETUP_REPEATS = 7
CHILD_TIMEOUT = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "roundtrip": in-process analyze + synthesize; "cli": two commands
    L: int
    spin: int


WORKLOADS = {
    w.name: w
    for w in (
        # The README quick start: complex path, so3 does ~99% of the work and
        # one scale cube (~133 MB) is larger than the last-level cache.
        Workload("roundtrip_L128_spin2", "roundtrip", 128, 2),
        # The command-line path: PGM in, 143 MB container written and read,
        # real (half-spectrum) transforms, one process per command.
        Workload("cli_image_L128", "cli", 128, 0),
        # Many small round trips with one tiling: cubes stay in cache, so
        # per-call overhead and per-degree Python loops dominate.
        Workload("small_L32", "roundtrip", 32, 0),
    )
}

END_TO_END = {
    "setup_s": "s",
    "analyze_min_s": "s",
    "synthesize_min_s": "s",
    "roundtrip_min_s": "s",
    "peak_rss_mb": "MiB",
    "max_err_digits": "digits",
    "ok_ratio": "ratio",
}

_SCALE_LIMITS = (8, 16, 32, 64, 128)

PER_LAYER = {
    "so3.inverse_curvelet.self_s": "s",
    **{f"so3.inverse_curvelet.L{n}.self_s": "s" for n in _SCALE_LIMITS},
    "so3.forward_curvelet.self_s": "s",
    **{f"so3.forward_curvelet.L{n}.self_s": "s" for n in _SCALE_LIMITS},
    "so3.inverse_curvelet_real.self_s": "s",
    "so3.forward_curvelet_real.self_s": "s",
    "fourier.weighted_convolve.calls": "count",
    "fourier.weighted_convolve.self_s": "s",
    "fourier.weighted_convolve.points_computed": "count",
    "so3.fft.calls": "count",
    "so3.fft.gflop_computed": "GFLOP",
    "sphere.fft.calls": "count",
    "sphere.fft.gflop_computed": "GFLOP",
    "fourier.fft.calls": "count",
    "fourier.fft.gflop_computed": "GFLOP",
    "sphere.sht_forward.self_s": "s",
    "sphere.sht_inverse.self_s": "s",
    "sphere.sht_forward_real.self_s": "s",
    "sphere.sht_inverse_real.self_s": "s",
    "transform.analyze.self_s": "s",
    "transform.synthesize.self_s": "s",
    "transform.analyze_real.self_s": "s",
    "transform.synthesize_real.self_s": "s",
    "container.write_coeffs.s": "s",
    "container.write_coeffs.mb": "MB",
    "container.read_coeffs.s": "s",
    "container.read_coeffs.mb": "MB",
    "container.write_sphere.s": "s",
    "container.read_pgm.s": "s",
    "container.resample_to_sphere.s": "s",
    "cli.analyze.self_s": "s",
    "cli.synthesize.self_s": "s",
    "cli.startup_s": "s",
    "wigner.halfpi_table.build_s": "s",
    "wigner.halfpi_table.mb_computed": "MB",
    "tiling.build_tiling.s": "s",
    "trace.roundtrip_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Sample:
    """One checked operation: an analysis and the synthesis of its result."""

    analyze_s: float
    synthesize_s: float
    err: float
    traced: bool = False
    records: list = field(default_factory=list)
    fft: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def roundtrip_s(self) -> float:
        return self.analyze_s + self.synthesize_s

    @property
    def ok(self) -> bool:
        return self.err <= TOLERANCE


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv) -> float:
    """Run one child process to completion; return its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(map(str, argv))} exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace').strip()}"
        )
    return wall


def records_from(spans, op=None) -> list:
    """Flatten spans to records with self time; op overrides the span's own."""
    out = []
    for span, own in zip(spans, self_times(spans)):
        rec = {k: v for k, v in span.items() if k not in ("id", "parent", "start", "end")}
        rec["dur"] = span["end"] - span["start"]
        rec["self"] = own
        if op is not None:
            rec["op"] = op
        out.append(rec)
    return out


def _load_child_trace(path: Path, op=None):
    with open(path) as fh:
        dump = json.load(fh)
    path.unlink()
    return records_from(dump["spans"], op), dump["fft"]


def measure_setup(w: Workload, trace: bool):
    """Wall times of fresh processes that import scurve and build the tables."""
    argv = [
        sys.executable, str(CHILD), "setup", "--L", str(w.L), "--spin", str(w.spin),
        "--lam", str(LAM), "--jmin", str(J_MIN),
    ]
    times, records = [], []
    for i in range(SETUP_REPEATS + 1):
        path = OUT / f"setup-{i}.json"
        wall = run_child(argv + (["--trace-out", str(path)] if trace else []))
        if i:
            times.append(wall)
        if trace:
            records += _load_child_trace(path)[0]
    return times, records


class RoundTripRun:
    """Random spin signals through scurve.analyze and scurve.synthesize."""

    def __init__(self, w: Workload, seed: int, tracer):
        import scurve

        self.w = w
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        if tracer is not None:
            tracer.install()
        try:
            scurve.halfpi_table(w.L)
            self.tiling = scurve.build_tiling(scurve.TilingParams(w.L, w.spin, LAM, J_MIN))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.setup_records = self._take_records()

    def _take_records(self) -> list:
        """Records of the spans traced since the last call, which are dropped."""
        if self.tracer is None:
            return []
        records = records_from(self.tracer.spans)
        self.tracer.spans.clear()
        return records

    def op(self, index: int, traced: bool) -> Sample:
        import scurve

        flm = scurve.random_coeffs(self.w.L, self.w.spin, self.rng)
        f = scurve.sht_inverse(flm)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.op = index
            before = tracer.fft_snapshot()
            tracer.install()
        try:
            t0 = time.perf_counter()
            c = scurve.analyze(f, self.tiling)
            t1 = time.perf_counter()
            g = scurve.synthesize(c, self.tiling)
            t2 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        del c
        err = float(np.abs(scurve.sht_forward(g).values - flm.values).max())
        s = Sample(t1 - t0, t2 - t1, err, traced)
        if tracer is not None:
            s.records = self._take_records()
            after = tracer.fft_snapshot()
            s.fft = {m: {k: after[m][k] - before[m][k] for k in after[m]} for m in after}
        return s


def write_filament_pgm(path: Path, L: int, rng) -> None:
    """A 16-bit equirectangular image of bright curved filaments."""
    H, W = 2 * L, 4 * L
    y = np.arange(H, dtype=float)[:, None]
    x = np.arange(W, dtype=float)[None, :]
    phase = rng.uniform(0.0, 2.0 * math.pi)
    img = 0.1 * (1.0 + np.cos(2.0 * math.pi * x / W + phase)) * np.sin(math.pi * (y + 0.5) / H)
    for _ in range(16):
        centre = rng.uniform(0.15 * H, 0.85 * H) + rng.uniform(0.02, 0.12) * H * np.sin(
            2.0 * math.pi * rng.integers(1, 5) * x / W + rng.uniform(0.0, 2.0 * math.pi)
        )
        width = rng.uniform(1.0, 3.0) * H / 256.0
        img = img + rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((y - centre) / width) ** 2)
    raster = np.round(img / img.max() * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n# scurve benchmark filaments\n%d %d\n65535\n" % (W, H))
        fh.write(raster.tobytes())


class CliRun:
    """A PGM image through `scurve analyze`, then `scurve synthesize`."""

    def __init__(self, w: Workload, seed: int, tracer):
        import scurve

        self.w = w
        self.image = OUT / "image.pgm"
        self.coeffs = OUT / "coeffs.scrv"
        self.sphere = OUT / "sphere.scrv"
        write_filament_pgm(self.image, w.L, np.random.default_rng(seed))
        resampled = scurve.resample_to_sphere(scurve.read_pgm(self.image), w.L)
        self.reference = scurve.sht_forward(resampled)
        self.setup_records = []

    def _command(self, args, trace_out):
        if trace_out is None:
            return [sys.executable, "-m", "scurve", *args]
        return [sys.executable, str(CHILD), "cli", "--trace-out", str(trace_out), "--", *args]

    def op(self, index: int, traced: bool) -> Sample:
        import scurve

        for path in (self.coeffs, self.sphere):
            path.unlink(missing_ok=True)
        analyze = [
            "analyze", str(self.image), "--L", str(self.w.L), "--lambda", str(LAM),
            "--jmin", str(J_MIN), "--out", str(self.coeffs),
        ]
        synthesize = ["synthesize", str(self.coeffs), "--out", str(self.sphere)]
        walls, records, fft = [], [], {}
        for stage, args in (("analyze", analyze), ("synthesize", synthesize)):
            trace_out = OUT / f"cli-{stage}.json" if traced else None
            walls.append(run_child(self._command(args, trace_out)))
            if traced:
                recs, counts = _load_child_trace(trace_out, op=index)
                records += recs
                for m, c in counts.items():
                    total = fft.setdefault(m, {"calls": 0, "flop": 0.0})
                    for k in total:
                        total[k] += c[k]
        g = scurve.read_sphere(self.sphere)
        err = float(np.abs(scurve.sht_forward(g).values - self.reference.values).max())
        s = Sample(walls[0], walls[1], err, traced, records, fft)
        if traced:
            commands = sum(r["dur"] for r in records if r["name"].startswith("cli."))
            s.extra["cli.startup_s"] = sum(walls) - commands
        return s

    def close(self) -> None:
        for path in (self.image, self.coeffs, self.sphere):
            path.unlink(missing_ok=True)


def timings(samples) -> dict:
    """Fastest, median and nearest-rank 90th percentile of each stage."""
    out = {}
    for stage in ("analyze", "synthesize", "roundtrip"):
        xs = sorted(getattr(s, f"{stage}_s") for s in samples)
        out[stage] = {
            "min": xs[0],
            "median": statistics.median(xs),
            "p90": xs[math.ceil(0.9 * len(xs)) - 1],
            "samples": len(xs),
        }
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _per_op_values(s: Sample) -> dict:
    """Per-layer totals of one traced operation, keyed by metric name."""
    out = dict(s.extra)

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for r in s.records:
        name = r["name"]
        add(f"{name}.self_s", r["self"])
        add(f"{name}.s", r["dur"])
        add(f"{name}.calls", 1)
        if "L" in r:
            add(f"{name}.L{r['L']}.self_s", r["self"])
        if "points" in r:
            add(f"{name}.points_computed", r["points"])
        if "bytes" in r:
            add(f"{name}.mb", r["bytes"] / 1e6)
    for m, c in s.fft.items():
        add(f"{m}.fft.calls", c["calls"])
        add(f"{m}.fft.gflop_computed", c["flop"] / 1e9)
    return out


def layer_metrics(samples, setup_records) -> dict:
    """Median over traced operations of each per-layer total.

    The half-pi table and the tiling are built once per process, so their
    metrics are medians per build, over the set-up probes and every
    traced process of the run.
    """
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    per_op = [_per_op_values(s) for s in traced]
    values = {
        name: statistics.median(v.get(name, 0.0) for v in per_op) for name in PER_LAYER
    }
    records = setup_records + [r for s in traced for r in s.records]

    def per_build(name, key, scale=1.0):
        xs = [r[key] * scale for r in records if r["name"] == name]
        return statistics.median(xs) if xs else 0.0

    values["wigner.halfpi_table.build_s"] = per_build("wigner.halfpi_table", "dur")
    values["wigner.halfpi_table.mb_computed"] = per_build("wigner.halfpi_table", "bytes", 1e-6)
    values["tiling.build_tiling.s"] = per_build("tiling.build_tiling", "dur")
    traced_rt = statistics.median(s.roundtrip_s for s in traced)
    values["trace.roundtrip_s"] = traced_rt
    values["trace.overhead_s"] = traced_rt - statistics.median(s.roundtrip_s for s in plain)
    return values


def max_abs_err(samples) -> float:
    """Worst harmonic error of any checked output; NaN counts as infinite."""
    return max(s.err if s.err == s.err else math.inf for s in samples)


def end_to_end_metrics(samples, setup_times, attempted, failed) -> dict:
    # This box's speed drifts by up to ~1.5x over 3-10 s, alike in CPU and
    # wall time.  Run medians then move by 15-40% from run to run, the
    # fastest operation of a run by 5-14%, so the gated times are
    # min-of-N; medians and the 90th percentile go to the provenance.
    t = timings(samples)
    return {
        "setup_s": statistics.median(setup_times),
        "analyze_min_s": t["analyze"]["min"],
        "synthesize_min_s": t["synthesize"]["min"],
        "roundtrip_min_s": t["roundtrip"]["min"],
        "peak_rss_mb": peak_rss_mb(),
        # Decimal digits the worst output keeps: the maximum of round-off
        # over ~10^4 coefficients varies by ~20% from seed to seed, its
        # logarithm by under 1%.
        "max_err_digits": -math.log10(max_abs_err(samples)),
        "ok_ratio": (attempted - failed) / attempted,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result object, provenance)."""
    import scipy
    import scurve.fourier

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    setup_times, setup_records = measure_setup(w, trace)
    runner = (CliRun if w.kind == "cli" else RoundTripRun)(w, seed, tracer)
    samples = []
    attempted = failed = 0
    try:
        deadline = time.perf_counter() + seconds
        # A traced run alternates untraced and traced operations, untraced
        # first so lazily filled caches are warm when the counts are taken.
        while attempted < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = trace and attempted % 2 == 1
            attempted += 1
            try:
                s = runner.op(attempted - 1, traced)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            failed += not s.ok
            samples.append(s)
    finally:
        if w.kind == "cli":
            runner.close()
    untraced = [s for s in samples if not s.traced]
    if not untraced or (trace and len(untraced) == len(samples)):
        raise RuntimeError("too few operations completed; see the errors above")
    if trace:
        metrics = layer_metrics(samples, setup_records + runner.setup_records)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(samples, setup_times, attempted, failed)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    provenance = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "L": w.L,
        "spin": w.spin,
        "lambda": LAM,
        "j_min": J_MIN,
        "loop": "closed, 1 client, 1 process at a time",
        "fft_workers": scurve.fourier.fft_workers(),
        "SCURVE_THREADS": os.environ.get("SCURVE_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tolerance": TOLERANCE,
        "max_abs_err": max_abs_err(samples),
        "setup_samples": len(setup_times),
        "checked_outputs": len(samples),
        "timings_s": timings(untraced),
    }
    if trace:
        path = OUT / f"trace-{w.name}-seed{seed}.json"
        with open(path, "w") as fh:
            json.dump(
                {
                    "provenance": provenance,
                    "metrics": metrics,
                    "setup_records": setup_records + runner.setup_records,
                    "records": [r for s in samples for r in s.records],
                    "fft_per_op": [s.fft for s in samples if s.traced],
                },
                fh,
            )
        provenance["trace_file"] = str(path.relative_to(ROOT))
    return result, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "scurve" / "__init__.py").is_file():
        print(f"run.py: no scurve sources under {SRC}", file=sys.stderr)
        return 2
    result, provenance = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
