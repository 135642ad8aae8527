"""Span recorder and FFT counter for the traced benchmark run.

The tracer wraps the entry points of each scurve layer where the calling
module binds them (``scurve.transform.so3_forward_curvelet``,
``scurve.cli.container.write_coeffs``, ...), so nothing inside the library
changes.  Spans stay in memory and are written out once, at the end.  A
span's self time is its duration minus the time its direct child spans
cover; calls are synchronous, so children never overlap.

Each module's ``sfft`` binding is replaced by a counting proxy that
records the call count and 5 N log2 N floating-point operations per
transform of N points, for complex and real transforms alike.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time


def _so3_in(args, kwargs):
    return {"L": args[0].band_limit}


def _so3_out(args, kwargs):
    return {"L": args[0].grid.L}


def _size(args, result):
    return {"points": int(result.size)}


def _table_bytes(args, result):
    return {"bytes": int(sum(p.nbytes for p in result.planes))}


def _file_bytes(args, *_):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, attributes from the arguments before the
# call, attributes from the arguments and result after it).  The "scurve"
# entries are the bindings the benchmark itself calls; the others are the
# library's internal call sites.
TARGETS = [
    ("scurve", "analyze", "transform.analyze", None, None),
    ("scurve", "synthesize", "transform.synthesize", None, None),
    ("scurve", "build_tiling", "tiling.build_tiling", None, None),
    ("scurve.transform", "sht_forward", "sphere.sht_forward", None, None),
    ("scurve.transform", "sht_inverse", "sphere.sht_inverse", None, None),
    ("scurve.transform", "sht_forward_real", "sphere.sht_forward_real", None, None),
    ("scurve.transform", "sht_inverse_real", "sphere.sht_inverse_real", None, None),
    ("scurve.transform", "so3_inverse_curvelet", "so3.inverse_curvelet", _so3_in, None),
    ("scurve.transform", "so3_forward_curvelet", "so3.forward_curvelet", _so3_out, None),
    ("scurve.transform", "so3_inverse_curvelet_real", "so3.inverse_curvelet_real", _so3_in, None),
    ("scurve.transform", "so3_forward_curvelet_real", "so3.forward_curvelet_real", _so3_out, None),
    ("scurve.so3", "weighted_convolve", "fourier.weighted_convolve", None, _size),
    ("scurve.sphere", "weighted_convolve", "fourier.weighted_convolve", None, _size),
    ("scurve.wigner", "build_halfpi_table", "wigner.halfpi_table", None, _table_bytes),
    ("scurve.cli", "cmd_analyze", "cli.analyze", None, None),
    ("scurve.cli", "cmd_synthesize", "cli.synthesize", None, None),
    ("scurve.cli", "build_tiling", "tiling.build_tiling", None, None),
    ("scurve.cli", "analyze", "transform.analyze", None, None),
    ("scurve.cli", "synthesize", "transform.synthesize", None, None),
    ("scurve.cli", "analyze_real", "transform.analyze_real", None, None),
    ("scurve.cli", "synthesize_real", "transform.synthesize_real", None, None),
    ("scurve.container", "read_pgm", "container.read_pgm", None, None),
    ("scurve.container", "resample_to_sphere", "container.resample_to_sphere", None, None),
    ("scurve.container", "read_coeffs", "container.read_coeffs", _file_bytes, None),
    ("scurve.container", "write_coeffs", "container.write_coeffs", None, _file_bytes),
    ("scurve.container", "write_sphere", "container.write_sphere", None, None),
]

FFT_MODULES = ("so3", "sphere", "fourier")

_FFT_NAMES = frozenset(
    "fft ifft rfft irfft hfft ihfft fft2 ifft2 rfft2 irfft2 fftn ifftn rfftn irfftn".split()
)


def _fft_work(name: str, x, args, kwargs):
    """(transforms in the batch, points per transform) of one scipy.fft call."""
    shape = getattr(x, "shape", ())
    if not shape:
        return 1, 1
    if name.endswith(("2", "n")):
        # (x, s, axes, ...)
        s = kwargs.get("s", args[1] if len(args) > 1 else None)
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = (-2, -1) if name.endswith("2") else range(len(shape))
        lengths = [shape[a] for a in axes]
        sizes = list(s) if s is not None else lengths
    else:
        # (x, n, axis, ...); a complex-to-real transform of m inputs has
        # 2(m - 1) outputs unless n says otherwise.
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        lengths = [shape[axis]]
        if n is None:
            n = 2 * (shape[axis] - 1) if name in ("irfft", "hfft") else shape[axis]
        sizes = [n]
    points = math.prod(sizes)
    batch = math.prod(shape) // max(1, math.prod(lengths))
    return batch, points


class _CountingFFT:
    """Stands in for a module's ``scipy.fft`` binding and counts transforms."""

    def __init__(self, real, counts):
        self._real = real
        self._counts = counts

    def __getattr__(self, name):
        fn = getattr(self._real, name)
        if name not in _FFT_NAMES:
            return fn
        counts = self._counts

        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            batch, points = _fft_work(name, x, (x,) + args, kwargs)
            counts["calls"] += 1
            if points > 1:
                counts["flop"] += batch * 5.0 * points * math.log2(points)
            return fn(x, *args, **kwargs)

        return counted


class Tracer:
    """Records spans around scurve's layer entry points while installed."""

    def __init__(self):
        self.spans = []
        self.fft = {m: {"calls": 0, "flop": 0.0} for m in FFT_MODULES}
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1] if tracer._stack else None,
                "op": tracer.op,
                "name": name,
            }
            if before is not None:
                span.update(before(args, kwargs))
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                span.update(after(args, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, before, after in TARGETS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, before, after))
        for modname in FFT_MODULES:
            module = importlib.import_module(f"scurve.{modname}")
            self._saved.append((module, "sfft", module.sfft))
            module.sfft = _CountingFFT(module.sfft, self.fft[modname])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def fft_snapshot(self) -> dict:
        return {m: dict(c) for m, c in self.fft.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "fft": self.fft}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    index = {s["id"]: i for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None and s["parent"] in index:
            covered[index[s["parent"]]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]
