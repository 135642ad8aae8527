import importlib.util
import pathlib

import numpy as np
import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tracer():
    """The benchmark's span recorder and FFT counter, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
