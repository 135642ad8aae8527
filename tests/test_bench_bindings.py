"""Checks that the benchmark tracer still finds every binding it wraps.

perfbench/tracer.py patches scurve's layer entry points by module and
name; a refactor that renames or drops one of them would otherwise only
show up when the traced benchmark crashes.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import numpy.fft
import pytest


def test_every_target_resolves(tracer):
    for modname, attr, *_ in tracer.TARGETS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


@pytest.mark.parametrize("modname", ["so3", "sphere", "fourier"])
def test_fft_modules_bind_sfft(modname):
    assert importlib.import_module(f"scurve.{modname}").sfft is numpy.fft


def test_import_loads_no_scipy():
    """scipy stays out of the runtime: importing it would cost the CLI ~0.25 s per process."""
    script = (
        "import sys, scurve, scurve.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "[]"


def test_install_and_uninstall_restore_bindings(tracer):
    bindings = [
        (importlib.import_module(modname), attr) for modname, attr, *_ in tracer.TARGETS
    ] + [(importlib.import_module(f"scurve.{m}"), "sfft") for m in tracer.FFT_MODULES]
    before = [getattr(module, attr) for module, attr in bindings]
    tr = tracer.Tracer()
    tr.install()
    try:
        during = [getattr(module, attr) for module, attr in bindings]
    finally:
        tr.uninstall()
    assert all(d is not b for d, b in zip(during, before))
    assert all(getattr(module, attr) is b for (module, attr), b in zip(bindings, before))


@pytest.mark.parametrize("layer", ["sphere", "so3"])
def test_round_trip_reaches_traced_bindings(tracer, layer):
    """A round trip records convolution spans and FFT calls.

    Moving a call behind a binding the tracer does not wrap would
    silently zero the benchmark's per-layer metrics; this catches it.
    """
    import numpy as np
    import oracles
    import scurve

    L = 4
    rng = np.random.default_rng(0)
    if layer == "sphere":
        flm = scurve.random_coeffs(L, 2, rng)

        def run():
            scurve.sht_forward(scurve.sht_inverse(flm))
    else:
        w = oracles.random_curvelet_wigner_coeffs(L, rng)

        def run():
            scurve.so3_forward_curvelet(scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L)))

    tr = tracer.Tracer()
    tr.install()
    try:
        run()
    finally:
        tr.uninstall()
    calls = {module: c["calls"] for module, c in tr.fft.items()}
    assert any(s["name"] == "fourier.weighted_convolve" for s in tr.spans)
    assert calls["fourier"] > 0
    assert calls["so3"] + calls["sphere"] > 0
