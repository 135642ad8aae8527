#!/usr/bin/env python3
"""Peak memory of `scurve analyze`, `synthesize` and `sparsity` on a filament image.

    python3 scripts/cli_peaks.py --L 128 --L 256 [--seed 1] [--src DIR] [--workdir DIR]

For each band limit L the script writes a deterministic 16-bit PGM of
curved filaments (L x 2L pixels, the equiangular grid's aspect), then runs
`scurve analyze IMAGE --L L --lambda 2 --jmin 2`, `scurve synthesize` on
the result and `scurve sparsity` on the same image with the same tiling,
each as its own child process, twice:

- once plain, for the child's peak resident memory (ru_maxrss from
  os.wait4) and the "estimated_peak_mib" of its JSON note (sparsity
  prints none; its estimate is computed as the command makes it, with
  its magnitude array, and is null for a checkout that cannot);
- once under tracemalloc, for the peak of the memory Python allocates.

Beside the two peaks, "estimate_parts_mib" breaks the estimate into its
components, as the measured library computes them for that command (null
for a checkout without the breakdown): the gamma spectrum of the forward
transform, which only synthesize runs (its |m| <= |n| triangle where the
library keeps one; analyze and sparsity hold none where the library
evaluates each beta block's rows in closed form), the half-pi table, the
scale's Wigner coefficients, the workers and the interpreter baseline.
A forward worker is the largest of one block of a batch's bin planes and
one dense beta block beside its samples, an inverse worker one beta
block's samples beside its triangle rows and their exponents or dense
workspace (a checkout that holds a batch's planes whole splits them into
"planes" and "blocks"; an older one counts one block of a batch's beta
nodes as well).

glibc's heap placement alone can move resident memory by a few percent
from run to run, which is why the tracemalloc peak is printed beside it.
The library comes from DIR (default: this checkout's src/), so another
checkout's sources can be measured with the same image.  The last column
is the SHA-256 prefix of the file each command wrote, so outputs of two
checkouts can be compared (sparsity's is that of its CSV).
SCURVE_THREADS is passed through unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Runs one CLI command under tracemalloc and prints its peak in bytes last.
_TRACED = """
import sys, tracemalloc
tracemalloc.start()
from scurve.cli import main
code = main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
sys.exit(code)
"""

# Prints the components of the pre-flight estimate of one command, in MiB,
# and the estimate of `scurve sparsity`, as JSON.  Only synthesize runs the
# forward transform; a checkout whose model does not tell the two apart
# gets the one breakdown it has.
_PARTS = """
import json, sys
try:
    from scurve.cli import _BASELINE_MIB, _estimated_peak_mib
    from scurve.so3 import _curvelet_peak_parts
except ImportError:
    print("null")
    sys.exit()
L, real, workers = int(sys.argv[1]), sys.argv[2] == "1", int(sys.argv[3])
forward = sys.argv[4] == "synthesize"
try:
    parts = _curvelet_peak_parts(L, real, workers, forward)
    sparsity = _estimated_peak_mib(L, real, workers, magnitudes=True, forward=False)
except TypeError:
    parts = _curvelet_peak_parts(L, real, workers)
    try:
        sparsity = _estimated_peak_mib(L, real, workers, magnitudes=True)
    except TypeError:
        sparsity = None
parts = {k: round(v / 2**20, 1) for k, v in parts.items()}
sparsity = sparsity and round(sparsity, 1)
print(json.dumps({"parts": {**parts, "baseline": _BASELINE_MIB}, "sparsity": sparsity}))
"""


def write_filament_pgm(path: Path, L: int, seed: int) -> None:
    """A smooth background plus 16 Gaussian ridges along wavy latitude lines."""
    H, W = L, 2 * L
    rng = np.random.default_rng(seed)
    y = np.arange(H, dtype=float)[:, None]
    x = np.arange(W, dtype=float)[None, :]
    img = 0.1 * (1.0 + np.cos(2.0 * math.pi * x / W)) * np.sin(math.pi * (y + 0.5) / H)
    for _ in range(16):
        wave = rng.uniform(0.02, 0.12) * H * np.sin(
            2.0 * math.pi * rng.integers(1, 5) * x / W + rng.uniform(0.0, 2.0 * math.pi)
        )
        centre = rng.uniform(0.15 * H, 0.85 * H) + wave
        width = rng.uniform(1.0, 3.0) * H / 256.0
        img = img + rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((y - centre) / width) ** 2)
    raster = np.round(img / img.max() * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (W, H))
        fh.write(raster.tobytes())


def run_child(argv, env):
    """(exit code, stdout, peak RSS in MiB) of one child process."""
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(argv, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    return proc.returncode, text, usage.ru_maxrss / 1024.0


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def measure(L: int, seed: int, src: Path, workdir: Path) -> list:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    image = workdir / f"filaments_L{L}.pgm"
    coeffs = workdir / f"coeffs_L{L}.scrv"
    sphere = workdir / f"sphere_L{L}.scrv"
    table = workdir / f"sparsity_L{L}"
    write_filament_pgm(image, L, seed)
    tiling = [str(image), "--L", str(L), "--lambda", "2", "--jmin", "2"]
    commands = [
        ("analyze", [*tiling, "--out", str(coeffs)], coeffs),
        ("synthesize", [str(coeffs), "--out", str(sphere)], sphere),
        ("sparsity", [*tiling, "--out", str(table)], Path(f"{table}.csv")),
    ]
    rows = []
    for name, args, output in commands:
        code, text, rss = run_child([sys.executable, "-m", "scurve", name, *args], env)
        if code != 0:
            raise SystemExit(f"scurve {name} at L={L} exited {code}")
        if name != "sparsity":
            note = json.loads(text.strip().splitlines()[-1])
        sha = digest(output)
        code, text, _ = run_child([sys.executable, "-c", _TRACED, name, *args], env)
        if code != 0:
            raise SystemExit(f"traced scurve {name} at L={L} exited {code}")
        traced = int(text.strip().splitlines()[-1]) / 2**20
        real = "1" if note.get("real", True) else "0"
        code, text, _ = run_child(
            [sys.executable, "-c", _PARTS, str(L), real, str(note.get("workers")), name], env
        )
        model = json.loads(text) if code == 0 else None
        parts = model and model["parts"]
        if name == "sparsity":
            estimate = model and model["sparsity"]
        else:
            estimate = note.get("estimated_peak_mib")
        rows.append(
            {
                "command": name,
                "L": L,
                "workers": note.get("workers"),
                "peak_rss_mib": round(rss, 1),
                "tracemalloc_peak_mib": round(traced, 1),
                "estimated_peak_mib": estimate,
                "estimate_parts_mib": parts,
                "estimate_over_rss": None if estimate is None else round(estimate / rss, 3),
                "output_mib": round(output.stat().st_size / 2**20, 1),
                "sha256": sha,
            }
        )
    for path in (image, coeffs, sphere, Path(f"{table}.csv"), Path(f"{table}.json")):
        path.unlink(missing_ok=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--L", type=int, action="append", required=True, help="band limit (repeatable)"
    )
    parser.add_argument("--seed", type=int, default=1, help="seed of the filament image")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory holding the scurve package"
    )
    parser.add_argument("--workdir", type=Path, default=None, help="where the files go")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        for L in args.L:
            for row in measure(L, args.seed, args.src.resolve(), Path(tmp)):
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
