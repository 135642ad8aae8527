"""Checks that the benchmark tracer still finds every binding it wraps.

perfbench/tracer.py patches scurve's layer entry points by module and
name; a refactor that renames or drops one of them would otherwise only
show up when the traced benchmark crashes.
"""

import importlib
import importlib.util
import pathlib

import pytest
import scipy.fft

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for modname, attr, *_ in tracer.TARGETS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


@pytest.mark.parametrize("modname", ["so3", "sphere", "fourier"])
def test_fft_modules_bind_sfft(modname):
    assert importlib.import_module(f"scurve.{modname}").sfft is scipy.fft


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
    import scurve

    L = 4
    rng = np.random.default_rng(0)
    if layer == "sphere":
        flm = scurve.random_coeffs(L, 2, rng)

        def run():
            scurve.sht_forward(scurve.sht_inverse(flm))
    else:
        w = scurve.CurveletWignerCoeffs.random(L, rng)

        def run():
            scurve.so3_forward_curvelet(scurve.so3_inverse_curvelet(w, scurve.SO3Grid(L, L, L)))

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
