"""Command-line interface: transform drivers, diagnostics and reports.

Subcommands
-----------
tiling      harmonic tiling profiles and diagnostics (CSV + JSON summary)
analyze     sphere container or PGM image -> coefficient container
synthesize  coefficient container -> sphere container
roundtrip   analysis/synthesis accuracy table over a list of band limits
bench       analysis/synthesis wall-clock table over a list of band limits
sparsity    per-scale coefficient-magnitude histograms and Gini indices
parabolic   ridge-width accuracy table over dyadic degrees

Exit codes: 0 success, 2 usage error, 3 file or data error.  CSV output
is RFC-4180 (CRLF line endings, header row first) and stable-ordered.
The SCURVE_THREADS environment variable sets the worker thread count of
the transforms (default: one per available core, at most 2); the JSON
notes of analyze, synthesize and bench --out report it as "workers";
those of analyze and synthesize also give the process's peak resident
memory as "peak_rss_mib", next to the estimate the command made of it
beforehand, "estimated_peak_mib".
analyze, synthesize and sparsity hold no whole scale signal: they stream
each scale's samples, one block of beta rows at a time, into or out of
the container, or reduce them to its histogram.  Before building the
tiling they estimate their peak memory from the band limit, the real
flag and the worker count, and take the larger of that and the build of
the tiling, which grows with the scale count (analyze and sparsity also
with the read of a PGM image, counted from its header before its raster
is read); roundtrip and bench, which hold every scale in memory, add the
scale cubes and their signals at their largest band limit.  tiling
estimates the build of its tiling alone.  When the estimate exceeds
what the process could reach (MemAvailable plus SwapFree, lowered by
the room left in its cgroup-v2 group, its cgroup-v1 memory group and
their ancestors), the command exits 3 with both numbers and writes
nothing.
Random test signals come from numpy's default PCG64 generator, seeded by
--seed, so every run is reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # not available on Windows
    resource = None

import numpy as np

from . import container
from .fourier import fft_workers
from .so3 import _curvelet_peak_parts
from .sphere import _sht_inverse_bytes, random_coeffs, sht_forward, sht_inverse
from .tiling import (
    QuadratureError,
    TilingError,
    TilingParams,
    admissibility_residual,
    build_tiling,
    parabolic_accuracy_table,
)
from .transform import _analysis_stream, _coeff_grids, analyze, scale_band_limit, synthesize

# analyze_real and synthesize_real are not called here.  They stay bound because
# perfbench/tracer.py wraps scurve.cli.analyze_real and
# scurve.cli.synthesize_real by name.
from .transform import analyze_real, synthesize_real  # noqa: F401

__all__ = ["gini_coefficient", "main"]

_RNG_ALGORITHM = "numpy-pcg64"


class UsageError(Exception):
    """Bad command-line arguments, reported through the parser (exit 2)."""


# Elements per block of the sparsity reductions, which bounds their
# temporaries to a fixed size whatever the scale.
_REDUCE_BLOCK = 1 << 16


def gini_coefficient(magnitudes: np.ndarray) -> float:
    """Concentration index of a non-negative sample: 0 flat, -> 1 peaked.

    Sorts its own copy of the sample, so it holds one sample-sized array
    besides the caller's.
    """
    x = np.array(magnitudes, dtype=float).reshape(-1)
    x.sort()
    return _gini_sorted(x)


def _gini_sorted(x: np.ndarray) -> float:
    """gini_coefficient of a flat sample already sorted in ascending order.

    Sums the rank weights 2r - n - 1 against it one block of ranks at a
    time, so it allocates nothing of the sample's size.
    """
    n = x.size
    if n and not math.isfinite(x[-1]):  # sorting puts any NaN or +inf last
        raise ValueError("Gini coefficient needs finite values")
    total = float(x.sum())
    if n == 0 or total == 0.0:
        raise ValueError("Gini coefficient needs a non-empty, non-zero sample")
    if x[0] < 0.0:
        raise ValueError("Gini coefficient needs non-negative values")
    weighted = 0.0
    for lo in range(0, n, _REDUCE_BLOCK):
        block = x[lo : lo + _REDUCE_BLOCK]
        ranks = np.arange(2 * lo + 1 - n, 2 * (lo + block.size) - n, 2, dtype=float)
        weighted += float(ranks @ block)
    return weighted / (n * total)


def _write_csv(stream, fields, rows) -> None:
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(fields)
    writer.writerows(rows)


def _emit_table(out, fields, rows, command, args, **extra) -> None:
    """CSV to stdout, or to a file plus a one-line JSON note on stdout."""
    if out is None:
        _write_csv(sys.stdout, fields, rows)
        return
    with open(out, "w", newline="") as fh:
        _write_csv(fh, fields, rows)
    note = {"command": command, "wrote": out, "rows": len(rows), **extra}
    if hasattr(args, "seed"):
        note["rng"] = {"algorithm": _RNG_ALGORITHM, "seed": args.seed}
    print(json.dumps(note))


def _make_params(args, band_limit: int, spin: int) -> TilingParams:
    if not 1.0 < args.lam < math.inf:
        raise UsageError("--lambda must be finite and exceed 1")
    if args.jmin < 0:
        raise UsageError("--jmin must be non-negative")
    return TilingParams(band_limit, spin, args.lam, args.jmin)


def _pgm_bytes(width: int, height: int, maxval: int, clip: bool, band_limit: int) -> int:
    """Peak bytes of reading a PGM image and resampling it at a band limit.

    read_pgm holds the raster's bytes beside the float image; --clip's
    percentile sorts a copy of the image, and --clip and --rescale
    otherwise work in place.  The resampling holds the image beside four
    arrays of the sphere's samples, counted as five.
    """
    pixels = width * height
    raster = pixels * (2 if maxval > 255 else 1)
    sphere = band_limit * (2 * band_limit - 1) * 8
    return max(raster + 8 * pixels, 16 * pixels if clip else 0) + 5 * sphere


def _load_sphere_input(path: str, args, magnitudes: bool = False):
    """(signal, tiling params, pre-flight note) of an SCRV1 sphere container or a binary PGM.

    The pre-flight (_preflight, given magnitudes, of a command that runs
    no forward transform) runs as soon as the band limit and the real
    flag are known.  A PGM is real and sampled at
    --L, so it runs once its header is read, before the raster is read
    and resampled; the image is freed before any transform starts, so
    its read (_pgm_bytes) is counted as a phase of its own.  A
    container's sphere is read first.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(container.MAGIC))
    if magic[:2] == b"P5":
        if args.L is None:
            raise UsageError("--L is required for PGM input")
        if args.spin not in (None, 0):
            raise UsageError("PGM input is real-valued and spin 0")
        if args.clip is not None and not 0.0 < args.clip <= 100.0:
            raise UsageError("--clip expects a percentile in (0, 100]")
        params = _make_params(args, args.L, 0)
        with open(path, "rb") as fh:
            header = container._pgm_header(fh, path)
        before = _pgm_bytes(*header, args.clip is not None, args.L)
        estimate = _preflight(params, True, magnitudes, before=before, forward=False)
        image = container.read_pgm(path)
        if args.clip is not None:
            np.minimum(image, np.percentile(image, args.clip), out=image)
        if args.rescale:
            lo, hi = float(image.min()), float(image.max())
            if hi > lo:
                image -= lo
                image /= hi - lo
            else:
                image.fill(0.0)
        return container.resample_to_sphere(image, args.L), params, estimate
    if magic != container.MAGIC:
        raise container.ContainerError(f"{path}: neither an SCRV1 container nor a P5 image")
    if args.clip is not None or args.rescale:
        raise UsageError("--clip and --rescale apply to PGM input only")
    f = container.read_sphere(path)
    if not np.isfinite(f.values).all():
        raise container.ContainerError(
            f"{path}: {np.count_nonzero(~np.isfinite(f.values))} sphere samples are not finite"
        )
    if args.L is not None and args.L != f.grid.band_limit:
        raise ValueError(
            f"--L {args.L} disagrees with the container band limit {f.grid.band_limit}"
        )
    if args.spin is not None and args.spin != f.spin:
        raise ValueError(f"--spin {args.spin} disagrees with the container spin {f.spin}")
    params = _make_params(args, f.grid.band_limit, f.spin)
    return f, params, _preflight(params, f.real, magnitudes, forward=False)


def cmd_tiling(args) -> int:
    params = _make_params(args, args.L, args.spin)
    _check_fits(_BASELINE_MIB + _tiling_bytes(params) / 2**20, params)
    t = build_tiling(params)
    lam = params.lam
    scales = []
    for j in range(params.j_min, params.j_max + 1):
        scales.append(
            {
                "scale": j,
                "band_limit": scale_band_limit(params, j),
                "support": [math.floor(lam ** (j - 1)), math.ceil(lam ** (j + 1))],
                "rotation_colatitude": float(t.angles[j - params.j_min]),
            }
        )
    summary = {
        "L": params.band_limit,
        "spin": params.spin,
        "lambda": lam,
        "j_min": params.j_min,
        "j_max": params.j_max,
        "admissibility_residual": admissibility_residual(t),
        "scales": scales,
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        rows = []
        for idx, j in enumerate(range(params.j_min, params.j_max + 1)):
            for ell in range(params.band_limit):
                rows.append(["kernel", j, ell, float(t.kernels[idx, ell])])
        for name, arr in (
            ("scaling", t.scaling),
            ("direction_pos", t.direction_pos),
            ("direction_neg", t.direction_neg),
        ):
            for ell in range(params.band_limit):
                rows.append([name, "", ell, float(arr[ell])])
        with open(f"{args.out}.csv", "w", newline="") as fh:
            _write_csv(fh, ("component", "scale", "ell", "value"), rows)
        with open(f"{args.out}.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def _peak_rss_note() -> dict:
    """{"peak_rss_mib": peak RSS of this process}, or {} without resource.

    ru_maxrss counts KiB on Linux and bytes on macOS.
    """
    if resource is None:
        return {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit = 1 if sys.platform == "darwin" else 1024
    return {"peak_rss_mib": round(peak * unit / 2**20, 1)}


# The interpreter with numpy and scurve imported (31 MiB) plus small arrays.
_BASELINE_MIB = 35.0


def _estimated_peak_mib(
    band_limit: int, real: bool, workers: int, magnitudes: bool = False, *, forward: bool
) -> float:
    """Estimated peak resident memory, in MiB, of one command at a band limit.

    The command runs its curvelet transforms one scale at a time and
    streams their samples by blocks, forward (holding a scale's
    spectrum) or inverse, so its peak is that of one block-streamed
    transform (the sum of so3._curvelet_peak_parts) over the interpreter.
    magnitudes adds the float array of the largest scale's sample
    magnitudes that `scurve sparsity` fills during that transform.
    """
    parts = _curvelet_peak_parts(band_limit, real, workers, forward)
    if magnitudes:
        K = 2 * band_limit - 1
        parts["magnitudes"] = K * band_limit * K * 8
    return sum(parts.values()) / 2**20 + _BASELINE_MIB


# A cgroup-v1 group without a limit reports a page-rounded number near
# 2**63 where cgroup v2 writes "max".
_UNLIMITED = 2**62

# (limit, usage, page-cache line of memory.stat) of each cgroup version.
_V2_FILES = ("memory.max", "memory.current", "file")
_V1_FILES = ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_cache")


def _read_number(path) -> int | None:
    """The integer in a cgroup file, or None for no limit ("max", or 2**62 and up)."""
    with open(path) as fh:
        raw = fh.read().strip()
    if raw == "max":
        return None
    value = int(raw)
    return None if value >= _UNLIMITED else value


def _cgroup_room(group: Path, swap_free: int, files=_V2_FILES) -> int | None:
    """Bytes a cgroup can still take, or None if it sets no limit.

    The limit less the usage (memory.max and memory.current in cgroup
    v2, memory.limit_in_bytes and memory.usage_in_bytes in v1), with the
    group's page cache from memory.stat counted as free, plus the swap the
    group may still use (memory.swap.max in v2; v1 swap limits are not
    read, so the host's SwapFree counts).
    """
    limit_file, usage_file, cache_key = files
    try:
        limit = _read_number(group / limit_file)
        if limit is None:
            return None
        used = _read_number(group / usage_file)
    except (OSError, ValueError):
        return None
    try:
        with open(group / "memory.stat") as fh:
            used -= next(int(line.split()[1]) for line in fh if line.startswith(cache_key + " "))
    except (OSError, ValueError, IndexError, StopIteration):
        pass
    swap = swap_free
    try:
        swap_max = _read_number(group / "memory.swap.max")
        if swap_max is not None:
            swap = min(swap, max(0, swap_max - _read_number(group / "memory.swap.current")))
    except (OSError, ValueError):
        pass
    return max(0, limit - used) + swap


def _memory_groups(proc: Path, cgroups: Path) -> list:
    """(group directory, cgroup files) of this process's memory groups and their ancestors.

    From /proc/self/cgroup: the cgroup-v2 group ("0::/path", under
    cgroups) and a cgroup-v1 memory group ("N:memory:/path", under
    cgroups/memory), each from the group itself up to its tree's root.
    """
    try:
        with open(proc / "self" / "cgroup") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    groups = []
    for line in lines:
        controllers, sep, path = line.partition(":")[2].partition(":")
        if not sep:
            continue
        if controllers == "":
            root, files = cgroups, _V2_FILES
        elif "memory" in controllers.split(","):
            root, files = cgroups / controllers, _V1_FILES
        else:
            continue
        parts = [part for part in path.split("/") if part]
        groups += [(root.joinpath(*parts[:depth]), files) for depth in range(len(parts), -1, -1)]
    return groups


def _available_memory(proc=Path("/proc"), cgroups=Path("/sys/fs/cgroup")) -> int | None:
    """Bytes this process's resident memory may grow to, or None when nothing says.

    Counted generously, so that only a command that clearly cannot fit
    is refused: the host's MemAvailable plus SwapFree, lowered by the room
    left in this process's cgroup-v2 group, its cgroup-v1 memory group
    and each of their ancestors that sets a limit, then raised by what the
    process already holds, since the estimate counts that too.
    """
    try:
        info = {}
        with open(proc / "meminfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                info[key] = int(value.split()[0]) * 1024
        swap_free = info.get("SwapFree", 0)
        room = [info["MemAvailable"] + swap_free]
        with open(proc / "self" / "statm") as fh:
            held = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, KeyError, ValueError, IndexError):
        return None
    for group, files in _memory_groups(proc, cgroups):
        group_room = _cgroup_room(group, swap_free, files)
        if group_room is not None:
            room.append(group_room)
    return min(room) + held


def _tiling_bytes(params: TilingParams) -> int:
    """Peak bytes of build_tiling(params), a phase that ends before any transform starts.

    57 per cell of its (scale_count + 1, L) grid of smooth steps, as traced at
    (L, lambda) = (64, 1.001), (64, 1.0001) and (128, 1.001).
    """
    return 57 * (params.scale_count + 1) * params.band_limit


def _check_fits(estimate: float, params: TilingParams) -> dict:
    """{"estimated_peak_mib": estimate}, or ValueError if that many MiB cannot fit."""
    available = _available_memory()
    if available is not None and estimate * 2**20 > available:
        raise ValueError(
            f"estimated peak memory {estimate:.0f} MiB at band limit {params.band_limit} "
            f"and {params.scale_count} scales exceeds the {available / 2**20:.0f} MiB available"
        )
    return {"estimated_peak_mib": round(estimate, 1)}


def _preflight(
    params: TilingParams,
    real: bool,
    magnitudes: bool = False,
    held: int = 0,
    before: int = 0,
    *,
    forward: bool,
) -> dict:
    """{"estimated_peak_mib": ...}, or ValueError if that cannot fit.

    Runs before the tiling, the half-pi table or any scale is built, so a
    refused command allocates nothing large and writes nothing.
    magnitudes and forward are passed on to _estimated_peak_mib: forward
    for a command that runs the forward curvelet transform (synthesize,
    roundtrip, bench), not for one that only synthesises scales (analyze,
    sparsity).  held adds the bytes a command keeps beside one streamed
    transform, the cubes of an in-memory round trip (_held_cube_bytes,
    _round_trip_bytes).  before is the peak bytes of a phase that ends
    before the transform starts, the read of a PGM input (_pgm_bytes);
    the build of the tiling (_tiling_bytes) is another: the estimate is
    the largest of the phases.
    """
    band_limit = params.band_limit
    transform = _estimated_peak_mib(band_limit, real, fft_workers(), magnitudes, forward=forward)
    transform += held / 2**20
    before = max(before, _tiling_bytes(params))
    return _check_fits(max(transform, _BASELINE_MIB + before / 2**20), params)


def cmd_analyze(args) -> int:
    f, params, estimate = _load_sphere_input(args.input, args)
    container.write_coeffs(args.out, _analysis_stream(f, build_tiling(params), True))
    print(
        json.dumps(
            {
                "wrote": args.out,
                "kind": "curvelet",
                "L": params.band_limit,
                "spin": params.spin,
                "lambda": params.lam,
                "j_min": params.j_min,
                "j_max": params.j_max,
                "real": f.real,
                "workers": fft_workers(),
                **estimate,
                **_peak_rss_note(),
            }
        )
    )
    return 0


def cmd_synthesize(args) -> int:
    with container._read_coeff_stream(args.input) as c:
        estimate = _preflight(c.params, c.real, forward=True)
        f = synthesize(c, build_tiling(c.params))
    container.write_sphere(args.out, f)
    print(
        json.dumps(
            {
                "wrote": args.out,
                "kind": "sphere",
                "L": f.grid.band_limit,
                "spin": f.spin,
                "real": f.real,
                "workers": fft_workers(),
                **estimate,
                **_peak_rss_note(),
            }
        )
    )
    return 0


def _check_repeats(args) -> None:
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")


def _check_spin_fits(args) -> None:
    if abs(args.spin) >= min(args.L):
        raise UsageError("--spin must be smaller than the smallest band limit")


def _held_cube_bytes(params: TilingParams) -> int:
    """Bytes of the complex scale cubes an in-memory analyze holds at once.

    One cube per scale, each at its own band limit.
    """
    return sum(16 * math.prod(grid.shape) for grid in _coeff_grids(params, True)[1])


# Resident memory of numpy's random generator, which roundtrip and bench
# import for their test signals: RSS grows by 5.8 MiB across
# np.random.default_rng and one random_coeffs in a fresh interpreter that
# has imported scurve.
_RANDOM_MIB = 6.0


def _round_trip_bytes(band_limit: int) -> int:
    """Bytes a round trip at a band limit holds beside its transforms and cubes.

    Its input and output sphere signals and harmonic coefficients, all
    complex, the closing sphere synthesis' buffers (_sht_inverse_bytes),
    built beside the scale cubes, and numpy's random generator.
    """
    L, K = band_limit, 2 * band_limit - 1
    return 2 * (L * K + L * L) * 16 + _sht_inverse_bytes(L) + int(_RANDOM_MIB * 2**20)


def _preflight_in_memory(args) -> None:
    """Pre-flight of roundtrip and bench, at their largest band limit.

    Their complex analyze and synthesize hold every scale cube beside the
    transform running on one of them, so a band limit that cannot fit
    exits 3 before any is built.
    """
    params = _make_params(args, max(args.L), args.spin)
    held = _held_cube_bytes(params) + _round_trip_bytes(params.band_limit)
    _preflight(params, False, held=held, forward=True)


def cmd_roundtrip(args) -> int:
    _check_repeats(args)
    _check_spin_fits(args)
    _preflight_in_memory(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for L in args.L:
        t = build_tiling(_make_params(args, L, args.spin))
        worst = 0.0
        err_sum = 0.0
        count = 0
        for _ in range(args.repeats):
            flm = random_coeffs(L, args.spin, rng)
            back = sht_forward(synthesize(analyze(sht_inverse(flm), t), t))
            err = np.abs(back.values - flm.values)
            worst = max(worst, float(err.max()))
            err_sum += float(err.sum())
            count += err.size
        rows.append([L, worst, err_sum / count])
    _emit_table(args.out, ("L", "max_error", "mean_error"), rows, "roundtrip", args)
    return 0


def cmd_bench(args) -> int:
    _check_repeats(args)
    _check_spin_fits(args)
    _preflight_in_memory(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for L in args.L:
        t = build_tiling(_make_params(args, L, args.spin))
        f = sht_inverse(random_coeffs(L, args.spin, rng))
        synthesize(analyze(f, t), t)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            synthesize(analyze(f, t), t)
            times.append(time.perf_counter() - start)
        rows.append([L, statistics.median(times), min(times)])
    _emit_table(
        args.out, ("L", "seconds", "min_seconds"), rows, "bench", args, workers=fft_workers()
    )
    return 0


def _scale_sparsity(j: int, mags: np.ndarray, bins: int, band_limit: int):
    """Summary note and CSV rows of one scale's coefficient magnitudes.

    mags, a flat float array, is sorted in place.
    """
    top = float(mags.max())
    note = {"scale": j, "coefficients": int(mags.size), "max_abs": top}
    if top == 0.0:
        print(f"scurve: warning: scale {j} is identically zero; no histogram", file=sys.stderr)
        note["gini"] = None
        return note, []
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    for lo in range(0, mags.size, _REDUCE_BLOCK):
        block = mags[lo : lo + _REDUCE_BLOCK] / top
        counts += np.histogram(block, bins=bins, range=(0.0, 1.0))[0]
    # The histogram is done, so the magnitudes may be sorted in place.
    mags.sort()
    note["gini"] = _gini_sorted(mags)
    rows = [
        [band_limit, j, b, float(edges[b]), float(edges[b + 1]), counts[b] / mags.size]
        for b in range(bins)
    ]
    return note, rows


def _magnitudes(pending) -> np.ndarray:
    """Flat |samples| of a pending scale signal, filled block by block.

    Each block of beta rows lands in a buffer of its own and only its
    magnitudes are kept, so the samples are never held beside them.
    """
    mags = np.empty(pending.grid.shape)

    def sink(rows, fill):
        block = np.empty(mags[rows].shape, float if pending.real else complex)
        fill(block)
        np.abs(block, out=mags[rows])

    pending.emit(sink=sink)
    return mags.ravel()


def cmd_sparsity(args) -> int:
    if args.bins < 1:
        raise UsageError("--bins must be at least 1")
    f, params, _ = _load_sphere_input(args.input, args, magnitudes=True)
    c = _analysis_stream(f, build_tiling(params), True)
    csv_rows = []
    scale_notes = []
    # Only the scales are histogrammed, each reduced to its note and rows
    # before the next is built.
    for j, pending in zip(range(params.j_min, params.j_max + 1), c.scales):
        note, rows = _scale_sparsity(j, _magnitudes(pending), args.bins, params.band_limit)
        scale_notes.append(note)
        csv_rows += rows
    summary = {
        "L": params.band_limit,
        "spin": params.spin,
        "lambda": params.lam,
        "j_min": params.j_min,
        "j_max": params.j_max,
        "bins": args.bins,
        "scales": scale_notes,
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        fields = ("L", "scale", "bin", "lower", "upper", "probability")
        with open(f"{args.out}.csv", "w", newline="") as fh:
            _write_csv(fh, fields, csv_rows)
        with open(f"{args.out}.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_parabolic(args) -> int:
    if not 1 <= args.pmax <= 8:
        raise UsageError("--pmax must lie in [1, 8]")
    rows = [
        [r.degree, r.spin, r.fwhm_theta, r.pct_diff]
        for r in parabolic_accuracy_table(args.pmax)
    ]
    _emit_table(args.out, ("ell", "spin", "fwhm_theta", "pct_error"), rows, "parabolic", args)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _band_limit_list(text: str) -> list:
    try:
        values = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad band-limit list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty band-limit list")
    if values[0] < 1:
        raise argparse.ArgumentTypeError("band limits must be positive")
    return values


def _add_tiling_flags(p, spin_default=0) -> None:
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=2.0,
        help="dilation between neighbouring scales (finite, must exceed 1)",
    )
    p.add_argument("--jmin", type=int, default=0, help="coarsest scale index")
    p.add_argument(
        "--spin",
        type=int,
        default=spin_default,
        help="signal spin" if spin_default is not None else "expected input spin",
    )


def _add_input_flags(p) -> None:
    """The sphere-or-PGM input, with the tiling and PGM preprocessing flags."""
    p.add_argument("input", help="SCRV1 sphere container or binary PGM image")
    p.add_argument(
        "--L", type=_positive_int, default=None, help="band limit (required for PGM input)"
    )
    _add_tiling_flags(p, spin_default=None)
    p.add_argument(
        "--clip", type=float, default=None, help="clip PGM intensities above this percentile"
    )
    p.add_argument(
        "--rescale", action="store_true", help="rescale PGM intensities to [0, 1] after clipping"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scurve",
        description="Exact directional multiscale transforms on the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("tiling", help="export tiling profiles and diagnostics")
    p.add_argument("--L", type=_positive_int, required=True, help="band limit")
    _add_tiling_flags(p)
    p.add_argument("--out", help="path prefix for OUT.csv and OUT.json")
    p.set_defaults(func=cmd_tiling)

    p = sub.add_parser("analyze", help="decompose a sphere file into coefficients")
    _add_input_flags(p)
    p.add_argument("--out", required=True, help="output coefficient container")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="reassemble a sphere signal from coefficients")
    p.add_argument("input", help="SCRV1 coefficient container")
    p.add_argument("--out", required=True, help="output sphere container")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("roundtrip", help="analysis/synthesis accuracy table")
    p.add_argument(
        "--L",
        type=_band_limit_list,
        required=True,
        help="comma-separated band limits, e.g. 4,8,16",
    )
    _add_tiling_flags(p)
    p.add_argument("--repeats", type=int, default=3, help="random signals per band limit")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bench", help="analysis/synthesis timing table")
    p.add_argument(
        "--L",
        type=_band_limit_list,
        required=True,
        help="comma-separated band limits, e.g. 32,64,128",
    )
    _add_tiling_flags(p)
    p.add_argument("--repeats", type=int, default=3, help="timed runs per band limit")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sparsity", help="coefficient-magnitude histograms and Gini indices")
    _add_input_flags(p)
    p.add_argument("--bins", type=int, default=64, help="histogram bins on [0, 1]")
    p.add_argument("--out", help="path prefix for OUT.csv and OUT.json")
    p.set_defaults(func=cmd_sparsity)

    p = sub.add_parser("parabolic", help="ridge-width accuracy table over dyadic degrees")
    p.add_argument("--pmax", type=int, default=8, help="largest dyadic exponent (1..8)")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_parabolic)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (container.ContainerError, TilingError, QuadratureError, ValueError, OSError) as exc:
        print(f"scurve: error: {exc}", file=sys.stderr)
        return 3
