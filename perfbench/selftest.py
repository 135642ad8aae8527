#!/usr/bin/env python3
"""Quick self-test of the benchmark, at band limit 16.

    python3 perfbench/selftest.py

Runs each workload's code path, untraced and traced, and checks that

- every metric named in BENCHMARK.json is emitted, and nothing else;
- the outputs pass the correctness check;
- the traced run reaches the workload's layers, and its FFT and
  convolution counts repeat exactly under another seed;
- a corrupted output makes every operation fail the correctness check.

Exits 0 when every check holds.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys

import run

TINY_L = 16

# Counts that depend only on the band limit and the code path.
EXACT = (
    "so3.fft.calls",
    "so3.fft.gflop_computed",
    "sphere.fft.calls",
    "sphere.fft.gflop_computed",
    "fourier.fft.calls",
    "fourier.fft.gflop_computed",
    "fourier.weighted_convolve.calls",
    "fourier.weighted_convolve.points_computed",
    "wigner.halfpi_table.mb_computed",
)

# Per-layer metrics each kind of workload must exercise, so that a tracer
# that silently stopped patching cannot pass as "counts repeat exactly".
EXERCISED = {
    "roundtrip": ("so3.forward_curvelet.self_s", "so3.inverse_curvelet.self_s", "so3.fft.calls"),
    "cli": (
        "so3.forward_curvelet_real.self_s",
        "container.write_coeffs.mb",
        "cli.analyze.self_s",
        "so3.fft.calls",
    ),
}


@contextlib.contextmanager
def corrupted_outputs():
    """Scale every sphere signal the benchmark checks by 1 + 1e-6."""
    import scurve

    def corrupt(fn):
        def wrapper(*args, **kwargs):
            sig = fn(*args, **kwargs)
            return dataclasses.replace(sig, values=sig.values * (1.0 + 1e-6))

        return wrapper

    saved = scurve.synthesize, scurve.read_sphere
    scurve.synthesize, scurve.read_sphere = map(corrupt, saved)
    try:
        yield
    finally:
        scurve.synthesize, scurve.read_sphere = saved


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    failures = []
    check(
        {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
        "BENCHMARK.json lists the workloads run.py knows",
        failures,
    )
    run.SETUP_REPEATS = 1
    for w in run.WORKLOADS.values():
        tiny = dataclasses.replace(w, L=TINY_L)
        traced = []
        for seed, trace in ((0, False), (0, True), (1, True)):
            result, _ = run.run(tiny, seed, 0.01, trace)
            label = f"{w.name} L={TINY_L} seed={seed} trace={int(trace)}"
            metrics = result["metrics"]
            check(set(metrics) == names[trace], f"{label}: metric names match", failures)
            check(
                all(isinstance(m["value"], (int, float)) for m in metrics.values()),
                f"{label}: every value is a number",
                failures,
            )
            check(result["correct"] and result["failed"] == 0, f"{label}: outputs correct",
                  failures)
            if trace:
                check(
                    all(metrics[k]["value"] > 0 for k in EXERCISED[w.kind]),
                    f"{label}: traced layers were exercised",
                    failures,
                )
                traced.append({k: metrics[k]["value"] for k in EXACT})
        check(traced[0] == traced[1], f"{w.name}: traced counts repeat exactly", failures)
        with corrupted_outputs():
            result, _ = run.run(tiny, 0, 0.01, False)
        check(
            not result["correct"] and result["failed"] == result["attempted"] >= 1,
            f"{w.name}: a corrupted output fails the check",
            failures,
        )
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
