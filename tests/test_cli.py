"""Checks for the scurve command-line interface."""

import itertools
import json
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import scurve
from scurve import cli, container, fourier, so3, transform
from test_container import rewrite_header


def run(argv):
    """Invoke the CLI in-process, mapping argparse exits to codes."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def write_sphere_file(path, L, spin, rng, real=False):
    if real:
        f = scurve.sht_inverse_real(scurve.random_coeffs(L, 0, rng, real=True))
    else:
        f = scurve.sht_inverse(scurve.random_coeffs(L, spin, rng))
    container.write_sphere(path, f)
    return f


def parse_csv(text):
    lines = text.split("\r\n")
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[:-1]]
    return rows[0], rows[1:]


class TestGini:
    def test_flat_sample_scores_zero(self):
        assert cli.gini_coefficient(np.ones(50)) == pytest.approx(0.0, abs=1e-12)

    def test_single_spike_approaches_one(self):
        x = np.zeros(100)
        x[7] = 5.0
        assert cli.gini_coefficient(x) == pytest.approx(0.99, abs=1e-12)

    def test_scale_invariant(self, rng):
        x = rng.uniform(0, 1, 200)
        assert cli.gini_coefficient(3.7 * x) == pytest.approx(
            cli.gini_coefficient(x), abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            cli.gini_coefficient(np.array([]))
        with pytest.raises(ValueError):
            cli.gini_coefficient(np.zeros(5))
        with pytest.raises(ValueError):
            cli.gini_coefficient(np.array([-1.0, 2.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                cli.gini_coefficient(np.array([bad, 1.0]))


class TestTiling:
    def test_summary_json(self, capsys):
        assert run(["tiling", "--L", "32"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["L"] == 32
        assert summary["lambda"] == 2.0
        assert summary["admissibility_residual"] <= 1e-8
        finest = summary["scales"][-1]
        assert finest["scale"] == summary["j_max"]
        assert finest["band_limit"] == 32
        j = finest["scale"]
        assert finest["support"] == [2 ** (j - 1), 2 ** (j + 1)]
        assert finest["rotation_colatitude"] == pytest.approx(np.pi / 2)

    def test_csv_export(self, tmp_path, capsys):
        prefix = str(tmp_path / "tiles")
        assert run(["tiling", "--L", "16", "--jmin", "1", "--out", prefix]) == 0
        capsys.readouterr()
        raw = (tmp_path / "tiles.csv").read_bytes().decode()
        header, rows = parse_csv(raw)
        assert header == ["component", "scale", "ell", "value"]
        summary = json.loads((tmp_path / "tiles.json").read_text())
        n_scales = summary["j_max"] - summary["j_min"] + 1
        assert len(rows) == (n_scales + 3) * 16
        kernel_rows = [r for r in rows if r[0] == "kernel"]
        assert len(kernel_rows) == n_scales * 16

    def test_spin_shifts_rotation_ring(self, capsys):
        assert run(["tiling", "--L", "16", "--spin", "2", "--jmin", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        coarsest = summary["scales"][0]
        assert coarsest["rotation_colatitude"] == pytest.approx(np.pi)

    def test_lambda_at_one_is_usage_error(self, capsys):
        assert run(["tiling", "--L", "16", "--lambda", "1.0"]) == 2

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lambda_is_usage_error(self, capsys, lam):
        assert run(["tiling", "--L", "8", "--lambda", lam]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["1e60", "1e200", "1e300"])
    def test_huge_lambda_is_data_error(self, capsys, lam):
        assert run(["tiling", "--L", "8", "--lambda", lam]) == 3
        err = capsys.readouterr().err
        assert err.startswith("scurve: error:") and err.count("\n") == 1

    def test_impossible_scale_range_is_data_error(self, capsys):
        assert run(["tiling", "--L", "8", "--jmin", "5"]) == 3
        assert "scurve: error:" in capsys.readouterr().err

    def test_spin_beyond_band_limit_is_data_error(self, capsys):
        assert run(["tiling", "--L", "4", "--spin", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spin 9 out of range for band limit 4" in captured.err


class TestAnalyzeSynthesize:
    def test_container_round_trip(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        f = write_sphere_file(src, 16, 2, rng)
        coeff_path = tmp_path / "c.scrv"
        assert (
            run(["analyze", str(src), "--jmin", "1", "--out", str(coeff_path)]) == 0
        )
        note = json.loads(capsys.readouterr().out)
        assert note["wrote"] == str(coeff_path)
        assert note["spin"] == 2
        assert note["workers"] == fourier.fft_workers()
        out_path = tmp_path / "g.scrv"
        assert run(["synthesize", str(coeff_path), "--out", str(out_path)]) == 0
        assert json.loads(capsys.readouterr().out)["workers"] == fourier.fft_workers()
        g = container.read_sphere(out_path)
        orig = scurve.sht_forward(f)
        back = scurve.sht_forward(g)
        assert np.abs(back.values - orig.values).max() <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["scale", "scale-pole-row", "scaling"])
    def test_non_finite_coefficient_sample_is_data_error(
        self, tmp_path, rng, capsys, monkeypatch, real, bad, where
    ):
        """synthesize refuses a container holding a non-finite sample: exit 3, nothing written.

        The sample sits in the finest scale, on an inner beta row or on
        the beta = pi row, whose odd planes the forward kernel does not
        read, or on the south-pole row of the scaling signal, whose odd
        planes the sphere kernel does not read.  The refusal raises no
        numpy warning on the way, whether the kernels run inline or on
        the pool's threads.
        """
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 16, 2, rng, real=real)
        coeff_path = tmp_path / "c.scrv"
        assert run(["analyze", str(src), "--jmin", "1", "--out", str(coeff_path)]) == 0
        c = container.read_coeffs(coeff_path)
        assert c.real == real
        j = c.params.j_max
        if where == "scaling":
            c.scaling.values[-1, 1] = bad
        else:
            c.scale(j).values[3, -1 if where == "scale-pole-row" else 5, 4] = bad
        container.write_coeffs(coeff_path, c)
        capsys.readouterr()
        out = tmp_path / "g.scrv"
        for threads in ("1", "2"):
            monkeypatch.setenv("SCURVE_THREADS", threads)
            assert run(["synthesize", str(coeff_path), "--out", str(out)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("scaling signal" if where == "scaling" else f"scale {j} ") in captured.err
            assert "non-finite" in captured.err
            assert not out.exists()

    def test_notes_report_peak_rss(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        coeff_path = tmp_path / "c.scrv"
        assert run(["analyze", str(src), "--jmin", "1", "--out", str(coeff_path)]) == 0
        analyzed = json.loads(capsys.readouterr().out)
        assert run(["synthesize", str(coeff_path), "--out", str(tmp_path / "g.scrv")]) == 0
        synthesized = json.loads(capsys.readouterr().out)
        for note in (analyzed, synthesized):
            assert isinstance(note["peak_rss_mib"], float)
            assert note["peak_rss_mib"] > 0.0
        # The peak of one process never falls.
        assert synthesized["peak_rss_mib"] >= analyzed["peak_rss_mib"]

    @pytest.mark.parametrize("platform, mib", [("linux", 3072.0), ("darwin", 3.0)])
    def test_peak_rss_units(self, monkeypatch, platform, mib):
        usage = types.SimpleNamespace(ru_maxrss=3 * 2**20)
        fake = types.SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)
        monkeypatch.setattr(cli, "resource", fake)
        monkeypatch.setattr(cli.sys, "platform", platform)
        assert cli._peak_rss_note() == {"peak_rss_mib": mib}

    def test_peak_rss_omitted_without_resource(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        assert run(["analyze", str(src), "--jmin", "1", "--out", str(tmp_path / "c")]) == 0
        note = json.loads(capsys.readouterr().out)
        assert "peak_rss_mib" not in note
        assert note["workers"] == fourier.fft_workers()

    def test_real_input_stays_real(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng, real=True)
        coeff_path = tmp_path / "c.scrv"
        assert run(["analyze", str(src), "--out", str(coeff_path)]) == 0
        assert json.loads(capsys.readouterr().out)["real"] is True
        out_path = tmp_path / "g.scrv"
        assert run(["synthesize", str(coeff_path), "--out", str(out_path)]) == 0
        assert container.read_sphere(out_path).real

    def test_band_limit_mismatch_is_data_error(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        code = run(["analyze", str(src), "--L", "16", "--out", str(tmp_path / "c.scrv")])
        assert code == 3
        assert "disagrees" in capsys.readouterr().err

    def test_spin_mismatch_is_data_error(self, tmp_path, rng):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 2, rng)
        assert (
            run(["analyze", str(src), "--spin", "0", "--out", str(tmp_path / "c.scrv")])
            == 3
        )

    def test_missing_input(self, tmp_path, capsys):
        assert run(["analyze", str(tmp_path / "nope.scrv"), "--out", "x"]) == 3

    def test_synthesize_rejects_sphere_container(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        assert run(["synthesize", str(src), "--out", str(tmp_path / "g.scrv")]) == 3

    @pytest.mark.parametrize("command", ["analyze", "sparsity"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_data_error(
        self, tmp_path, rng, capsys, monkeypatch, command, bad
    ):
        """Refused with exit 3 before the pre-flight and the tiling, writing nothing."""
        src = tmp_path / "f.scrv"
        f = write_sphere_file(src, 8, 2, rng)
        f.values[3, 5] = bad
        container.write_sphere(src, f)
        for name in ("_preflight", "build_tiling"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(name))
        out = tmp_path / "out"
        assert run([command, str(src), "--jmin", "1", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(src) in captured.err and "not finite" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.scrv"]

    def test_bad_thread_count_is_data_error(self, tmp_path, rng, capsys, monkeypatch):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        monkeypatch.setenv("SCURVE_THREADS", "lots")
        assert run(["analyze", str(src), "--out", str(tmp_path / "c.scrv")]) == 3
        assert "SCURVE_THREADS" in capsys.readouterr().err


class TestStreaming:
    """analyze and synthesize hold one scale at a time and write the library's bytes."""

    @staticmethod
    def assert_outputs_match(tmp_path, rng, L, spin, real):
        src = tmp_path / "f.scrv"
        f = write_sphere_file(src, L, spin, rng, real=real)
        t = scurve.build_tiling(scurve.TilingParams(L, spin, 2.0, 1))
        streamed, collected = tmp_path / "streamed.scrv", tmp_path / "collected.scrv"
        assert run(["analyze", str(src), "--jmin", "1", "--out", str(streamed)]) == 0
        container.write_coeffs(collected, scurve.analyze(f, t))
        assert streamed.read_bytes() == collected.read_bytes()
        g_streamed, g_collected = tmp_path / "g1.scrv", tmp_path / "g2.scrv"
        assert run(["synthesize", str(streamed), "--out", str(g_streamed)]) == 0
        container.write_sphere(g_collected, scurve.synthesize(container.read_coeffs(collected), t))
        assert g_streamed.read_bytes() == g_collected.read_bytes()

    @pytest.mark.parametrize("spin, real", [(0, True), (2, False)], ids=["real", "spin2"])
    def test_outputs_match_the_library(self, tmp_path, rng, capsys, spin, real):
        self.assert_outputs_match(tmp_path, rng, 16, spin, real)

    @pytest.mark.parametrize("spin, real", [(0, True), (2, False)], ids=["real", "spin2"])
    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_partial_last_block_matches_the_library(
        self, tmp_path, rng, capsys, monkeypatch, threads, spin, real
    ):
        """L = 20 is no multiple of the beta block, so every full-band-limit
        scale ends in a block of 4 rows, and the 4-row scale is one.  The
        blocks are read and written from the pool's threads, switched often."""
        assert 20 % so3._BETA_BLOCK != 0
        monkeypatch.setenv("SCURVE_THREADS", threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_outputs_match(tmp_path, rng, 20, spin, real)
        finally:
            sys.setswitchinterval(interval)

    def test_truncated_after_open_is_data_error(self, tmp_path, rng, capsys, monkeypatch):
        """A container cut short after its layout was checked fails the
        block read that reaches past its end, and nothing is written."""
        src, coeffs = tmp_path / "f.scrv", tmp_path / "c.scrv"
        write_sphere_file(src, 20, 2, rng)
        assert run(["analyze", str(src), "--jmin", "1", "--out", str(coeffs)]) == 0
        capsys.readouterr()
        size = coeffs.stat().st_size
        # Cut into the last scale section, a 20-row full-band-limit cube.
        with open(coeffs, "r+b") as fh:
            fh.truncate(size - 39 * 8 * 39 * 16)
        fstat = container.os.fstat
        monkeypatch.setattr(
            container.os, "fstat", lambda fd: types.SimpleNamespace(st_size=size)
        )
        out = tmp_path / "g.scrv"
        assert run(["synthesize", str(coeffs), "--out", str(out)]) == 3
        assert "file ended before its stated length" in capsys.readouterr().err
        monkeypatch.setattr(container.os, "fstat", fstat)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.scrv", "f.scrv"]

    def test_failing_block_write_leaves_nothing(self, tmp_path, rng, capsys, monkeypatch):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 20, 0, rng, real=True)
        calls = itertools.count()
        pwritev = container.os.pwritev

        def failing(fd, buffers, offset):
            # The header and the scaling section take the first two writes.
            if next(calls) == 40:
                raise OSError("device full")
            return pwritev(fd, buffers, offset)

        monkeypatch.setattr(container.os, "pwritev", failing)
        assert run(["analyze", str(src), "--jmin", "1", "--out", str(tmp_path / "c.scrv")]) == 3
        assert "device full" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.scrv"]

    def test_analyze_writes_through_write_coeffs(self, tmp_path, rng, capsys, monkeypatch):
        """The container write stays behind container.write_coeffs, which
        perfbench/tracer.py times; every scale arrives still pending."""
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng, real=True)
        seen = []
        write = container.write_coeffs

        def spy(path, coeffs):
            seen.append((type(coeffs), {type(s) for s in coeffs.scales}))
            write(path, coeffs)

        monkeypatch.setattr(container, "write_coeffs", spy)
        assert run(["analyze", str(src), "--out", str(tmp_path / "c.scrv")]) == 0
        assert seen == [(scurve.CurveletCoeffs, {transform._PendingSignal})]

    def test_full_resolution_container_synthesizes(self, tmp_path, rng, capsys):
        f = scurve.sht_inverse(scurve.random_coeffs(16, 2, rng))
        t = scurve.build_tiling(scurve.TilingParams(16, 2, 2.0, 1))
        c = scurve.analyze(f, t, multires=False)
        coeff_path, out_path = tmp_path / "c.scrv", tmp_path / "g.scrv"
        container.write_coeffs(coeff_path, c)
        assert run(["synthesize", str(coeff_path), "--out", str(out_path)]) == 0
        np.testing.assert_array_equal(
            container.read_sphere(out_path).values, scurve.synthesize(c, t).values
        )

    def test_north_frame_is_data_error(self, tmp_path, rng, capsys):
        f = scurve.sht_inverse(scurve.random_coeffs(8, 0, rng))
        t = scurve.build_tiling(scurve.TilingParams(8, 0, 2.0, 0))
        container.write_coeffs(tmp_path / "c.scrv", scurve.analyze(f, t))
        rewrite_header(tmp_path / "c.scrv", lambda h: h.__setitem__("frame", "north"))
        assert run(["synthesize", str(tmp_path / "c.scrv"), "--out", str(tmp_path / "g")]) == 3
        assert "unrotated" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_peaks_stay_below_the_in_memory_path(self, tmp_path, capsys, monkeypatch):
        """tracemalloc peaks at L=64, real, one worker.

        The in-memory path holds every scale at once; the commands hold
        one, so each must save at least most of the payload beyond its
        largest section.
        """
        monkeypatch.setenv("SCURVE_THREADS", "1")
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 64, 0, np.random.default_rng(0), real=True)
        params = scurve.TilingParams(64, 0, 2.0, 0)
        collected, streamed = tmp_path / "collected.scrv", tmp_path / "streamed.scrv"

        def library_analyze():
            f = container.read_sphere(src)
            container.write_coeffs(collected, scurve.analyze(f, scurve.build_tiling(params)))

        def library_synthesize():
            c = container.read_coeffs(collected)
            g = scurve.synthesize(c, scurve.build_tiling(params))
            container.write_sphere(tmp_path / "g1.scrv", g)

        def traced_peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Builds the shared half-pi table, so no traced run below pays for it.
        library_analyze()
        sizes = [a.nbytes for a in container.read_container(collected)[1].values()]
        saving = 0.8 * (sum(sizes) - max(sizes))
        assert saving > 4 * 2**20
        pairs = [
            (library_analyze, ["analyze", str(src), "--out", str(streamed)]),
            (library_synthesize, ["synthesize", str(streamed), "--out", str(tmp_path / "g2.scrv")]),
        ]
        for library, argv in pairs:
            in_memory = traced_peak(library)
            commanded = traced_peak(lambda: run(argv))
            assert in_memory - commanded >= saving, (argv[0], in_memory, commanded)
        capsys.readouterr()


    def test_peaks_stay_below_one_cube_and_its_spectrum(self, tmp_path, capsys, monkeypatch):
        """tracemalloc peaks at L=64, real, one worker.

        Each command streams the samples of its largest scale by beta
        blocks, so it never holds that scale's cube beside its half gamma
        spectrum, as a transform of a whole cube does.
        """
        monkeypatch.setenv("SCURVE_THREADS", "1")
        L = 64
        src, coeffs = tmp_path / "f.scrv", tmp_path / "c.scrv"
        write_sphere_file(src, L, 0, np.random.default_rng(0), real=True)
        # Builds the shared half-pi table, so no traced run below pays for it.
        assert run(["analyze", str(src), "--out", str(coeffs)]) == 0
        K = 2 * L - 1
        cube_and_spectrum = K * L * K * 8 + L * L * K * 16
        for argv in (
            ["analyze", str(src), "--out", str(coeffs)],
            ["synthesize", str(coeffs), "--out", str(tmp_path / "g.scrv")],
        ):
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cube_and_spectrum, (argv[0], peak, cube_and_spectrum)
        capsys.readouterr()


class TestPreflight:
    """The memory estimate runs before the tiling and refuses what cannot fit."""

    @pytest.fixture
    def inputs(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng, real=True)
        coeffs = tmp_path / "c.scrv"
        assert run(["analyze", str(src), "--out", str(coeffs)]) == 0
        capsys.readouterr()
        return src, coeffs

    @staticmethod
    def argv(command, inputs, out):
        src, coeffs = inputs
        return [command, str(coeffs if command == "synthesize" else src), "--out", str(out)]

    @pytest.mark.parametrize("command", ["analyze", "synthesize", "sparsity"])
    def test_refuses_what_cannot_fit(self, tmp_path, inputs, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_available_memory", lambda: 2**20)
        before = sorted(tmp_path.iterdir())
        assert run(self.argv(command, inputs, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "estimated peak memory" in err and "1 MiB available" in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["analyze", "synthesize", "sparsity"])
    def test_runs_when_memory_is_unknown(self, tmp_path, inputs, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_available_memory", lambda: None)
        assert run(self.argv(command, inputs, tmp_path / "out")) == 0

    @pytest.mark.parametrize("command", ["analyze", "synthesize", "sparsity"])
    def test_budget_at_the_estimate(self, tmp_path, inputs, capsys, monkeypatch, command):
        magnitudes = command == "sparsity"
        forward = command == "synthesize"
        estimate = cli._estimated_peak_mib(8, True, fourier.fft_workers(), magnitudes, forward=forward)
        estimate *= 2**20
        monkeypatch.setattr(cli, "_available_memory", lambda: int(estimate) - 1)
        assert run(self.argv(command, inputs, tmp_path / "out")) == 3
        assert "estimated peak memory" in capsys.readouterr().err
        monkeypatch.setattr(cli, "_available_memory", lambda: int(estimate) + 1)
        assert run(self.argv(command, inputs, tmp_path / "out")) == 0

    @pytest.mark.parametrize("command", ["analyze", "sparsity"])
    def test_pgm_is_refused_before_it_is_resampled(self, tmp_path, capsys, monkeypatch, command):
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n8 4\n255\n" + bytes(range(32)))
        resampled = []
        monkeypatch.setattr(container, "resample_to_sphere", lambda *a: resampled.append(a))
        monkeypatch.setattr(cli, "_available_memory", lambda: 2**20)
        before = sorted(tmp_path.iterdir())
        assert run([command, str(img), "--L", "8", "--out", str(tmp_path / "out")]) == 3
        assert "estimated peak memory" in capsys.readouterr().err
        assert resampled == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["analyze", "sparsity"])
    def test_pgm_header_is_counted_before_the_raster_is_read(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """A small file whose header claims a huge raster exits 3 unread."""
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n# huge\n100000 50000\n65535\n" + bytes(64))
        read = []
        monkeypatch.setattr(container, "read_pgm", lambda *a: read.append(a))
        monkeypatch.setattr(cli, "_available_memory", lambda: 2**34)
        before = sorted(tmp_path.iterdir())
        assert run([command, str(img), "--L", "8", "--out", str(tmp_path / "out")]) == 3
        assert "estimated peak memory" in capsys.readouterr().err
        assert read == []
        assert sorted(tmp_path.iterdir()) == before

    @staticmethod
    def write_pgm(path, width, height):
        pixels = np.arange(width * height, dtype=">u2").reshape(height, width)
        path.write_bytes(f"P5\n{width} {height}\n65535\n".encode() + pixels.tobytes())

    @pytest.mark.parametrize("flags", [[], ["--rescale"], ["--clip", "90", "--rescale"]])
    def test_small_pgm_note_is_the_transform_estimate(self, tmp_path, capsys, flags):
        """The image is freed before the transform starts, so it adds nothing to its peak."""
        img = tmp_path / "img.pgm"
        self.write_pgm(img, 40, 24)
        assert run(["analyze", str(img), "--L", "16", *flags, "--out", str(tmp_path / "c")]) == 0
        note = json.loads(capsys.readouterr().out)
        expected = cli._estimated_peak_mib(16, True, fourier.fft_workers(), forward=False)
        assert note["estimated_peak_mib"] == round(expected, 1)

    @pytest.mark.parametrize("flags", [[], ["--clip", "90", "--rescale"]])
    def test_large_pgm_note_is_its_read(self, tmp_path, capsys, flags):
        """An image whose read outgrows the transform sets the estimate.

        The raster's bytes beside its float image (--clip: the
        percentile's copy beside it instead) and five arrays of the
        sphere's samples for the resampling, over the interpreter.
        """
        img = tmp_path / "img.pgm"
        self.write_pgm(img, 1000, 600)
        assert run(["analyze", str(img), "--L", "8", *flags, "--out", str(tmp_path / "c")]) == 0
        note = json.loads(capsys.readouterr().out)
        clip = flags[:1] == ["--clip"]
        image = (16 if clip else 10) * 600_000 + 5 * 8 * 15 * 8
        assert cli._pgm_bytes(1000, 600, 65535, clip, 8) == image
        expected = cli._BASELINE_MIB + image / 2**20
        assert expected > cli._estimated_peak_mib(8, True, fourier.fft_workers(), forward=False)
        assert note["estimated_peak_mib"] == round(expected, 1)

    @pytest.mark.parametrize("command", ["roundtrip", "bench"])
    def test_in_memory_budget_counts_every_scale_cube(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """The estimate at the largest band limit adds one complex cube per scale.

        Beside them it counts the round trip's own signals
        (_round_trip_bytes).  A refused command writes nothing.
        """
        params = scurve.TilingParams(8, 1, 2.0, 1)
        cubes = sum(
            16 * (2 * Lj - 1) ** 2 * Lj
            for Lj in (scurve.scale_band_limit(params, j) for j in range(1, params.j_max + 1))
        )
        assert cli._held_cube_bytes(params) == cubes
        estimate = cli._estimated_peak_mib(8, False, fourier.fft_workers(), forward=True) * 2**20
        estimate += cubes
        estimate += cli._round_trip_bytes(8)
        out = tmp_path / "table.csv"
        argv = [command, "--L", "8,4", "--spin", "1", "--jmin", "1", "--repeats", "1"]
        argv += ["--out", str(out)]
        monkeypatch.setattr(cli, "_available_memory", lambda: int(estimate) - 1)
        assert run(argv) == 3
        assert "estimated peak memory" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "_available_memory", lambda: int(estimate) + 1)
        assert run(argv) == 0
        assert out.exists()

    def test_notes_report_the_estimate(self, tmp_path, inputs, capsys):
        assert run(self.argv("synthesize", inputs, tmp_path / "g.scrv")) == 0
        note = json.loads(capsys.readouterr().out)
        expected = cli._estimated_peak_mib(8, True, fourier.fft_workers(), forward=True)
        assert note["estimated_peak_mib"] == round(expected, 1)

    @pytest.mark.parametrize("command", ["tiling", "analyze", "sparsity"])
    def test_dilation_near_one_is_refused_before_the_tiling(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """41.6 million scales at L = 64 exit 3 on their tiling's build alone, unbuilt."""
        params = scurve.TilingParams(64, 0, 1.0000001)
        assert cli._tiling_bytes(params) == 57 * (params.scale_count + 1) * 64 > 2**37
        monkeypatch.setattr(cli, "_available_memory", lambda: 2**31)
        monkeypatch.setattr(cli, "build_tiling", lambda *a: pytest.fail("build_tiling"))
        argv = [command, "--L", "64", "--lambda", "1.0000001"]
        if command != "tiling":
            img = tmp_path / "img.pgm"
            self.write_pgm(img, 8, 4)
            argv[1:1] = [str(img)]
            argv += ["--out", str(tmp_path / "out")]
        before = sorted(tmp_path.iterdir())
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "estimated peak memory" in captured.err and "41588833 scales" in captured.err
        assert sorted(tmp_path.iterdir()) == before

    def test_estimate_grows_with_band_limit_and_workers(self):
        for forward in (True, False):
            def est(L, real, workers):
                return cli._estimated_peak_mib(L, real, workers, forward=forward)

            assert est(256, True, 2) > est(128, True, 2) > est(64, True, 2)
            assert est(128, False, 2) > est(128, True, 2)
            assert est(128, True, 2) > est(128, True, 1)

    @staticmethod
    def fake_host(root, meminfo, cgroup="0::/a/b\n", groups=()):
        """A /proc and a cgroup tree under root; groups maps a path to its files.

        The cgroup-v2 hierarchy is the tree's root, a cgroup-v1 memory
        hierarchy its "memory" directory.
        """
        proc = root / "proc"
        (proc / "self").mkdir(parents=True)
        (proc / "meminfo").write_text(
            "".join(f"{key}: {kib} kB\n" for key, kib in meminfo.items())
        )
        (proc / "self" / "statm").write_text("900 25 10 1 0 30 0\n")
        (proc / "self" / "cgroup").write_text(cgroup)
        cgroups = root / "cgroup"
        for group, files in dict(groups).items():
            (cgroups / group).mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (cgroups / group / name).write_text(text)
        return proc, cgroups

    def test_available_memory_counts_swap(self, tmp_path):
        proc, cgroups = self.fake_host(tmp_path, {"MemAvailable": 1000, "SwapFree": 500})
        held = 25 * cli.os.sysconf("SC_PAGE_SIZE")
        assert cli._available_memory(proc, cgroups) == 1500 * 1024 + held

    def test_available_memory_reads_ancestor_groups(self, tmp_path):
        mib = 2**20
        groups = {
            # The ancestor's limit binds: 800 MiB less 300 used, of which
            # 100 MiB page cache, and no swap for the group.
            "a": {
                "memory.max": f"{800 * mib}\n",
                "memory.current": f"{300 * mib}\n",
                "memory.stat": f"anon {200 * mib}\nfile {100 * mib}\n",
                "memory.swap.max": "0\n",
                "memory.swap.current": "0\n",
            },
            "a/b": {"memory.max": "max\n", "memory.current": f"{250 * mib}\n"},
        }
        proc, cgroups = self.fake_host(
            tmp_path, {"MemAvailable": 4096 * 1024, "SwapFree": 0}, groups=groups
        )
        held = 25 * cli.os.sysconf("SC_PAGE_SIZE")
        assert cli._available_memory(proc, cgroups) == 600 * mib + held

    def test_group_swap_raises_the_room(self, tmp_path):
        mib = 2**20
        groups = {"a/b": {"memory.max": f"{100 * mib}", "memory.current": f"{40 * mib}"}}
        proc, cgroups = self.fake_host(
            tmp_path, {"MemAvailable": 4096 * 1024, "SwapFree": 50 * 1024}, groups=groups
        )
        held = 25 * cli.os.sysconf("SC_PAGE_SIZE")
        assert cli._available_memory(proc, cgroups) == 110 * mib + held

    def test_hybrid_host_reads_a_v1_memory_limit(self, tmp_path):
        mib = 2**20
        groups = {
            # The v1 ancestor's limit binds: 800 MiB less 300 used, of
            # which 100 MiB page cache; the v1 group itself is unlimited.
            "memory/a": {
                "memory.limit_in_bytes": f"{800 * mib}\n",
                "memory.usage_in_bytes": f"{300 * mib}\n",
                "memory.stat": f"cache {60 * mib}\ntotal_cache {100 * mib}\n",
            },
            "memory/a/b": {
                "memory.limit_in_bytes": "9223372036854771712\n",
                "memory.usage_in_bytes": f"{250 * mib}\n",
            },
        }
        proc, cgroups = self.fake_host(
            tmp_path,
            {"MemAvailable": 4096 * 1024, "SwapFree": 0},
            cgroup="5:devices:/a\n4:memory:/a/b\n0::/\n",
            groups=groups,
        )
        held = 25 * cli.os.sysconf("SC_PAGE_SIZE")
        assert cli._available_memory(proc, cgroups) == 600 * mib + held

    def test_unlimited_v1_group_leaves_the_host_figure(self, tmp_path):
        unlimited = {
            "memory.limit_in_bytes": "9223372036854771712\n",
            "memory.usage_in_bytes": f"{2**30}\n",
        }
        proc, cgroups = self.fake_host(
            tmp_path,
            {"MemAvailable": 1000, "SwapFree": 500},
            cgroup="4:memory:/a\n",
            groups={"memory": unlimited, "memory/a": unlimited},
        )
        held = 25 * cli.os.sysconf("SC_PAGE_SIZE")
        assert cli._available_memory(proc, cgroups) == 1500 * 1024 + held

    def test_available_memory_unknown_without_meminfo(self, tmp_path):
        assert cli._available_memory(tmp_path / "absent", tmp_path) is None

    def test_available_memory_is_bytes_or_unknown(self):
        value = cli._available_memory()
        assert value is None or (isinstance(value, int) and value > 0)


class TestPgmIngestion:
    def write_gradient(self, path, lo=0, hi=255):
        pixels = np.linspace(lo, hi, 32 * 64, dtype=np.uint8).reshape(32, 64)
        path.write_bytes(b"P5\n64 32\n255\n" + pixels.tobytes())

    def test_constant_image_excites_scaling_only(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n8 4\n255\n" + bytes([128]) * 32)
        coeff_path = tmp_path / "c.scrv"
        assert run(["analyze", str(img), "--L", "8", "--out", str(coeff_path)]) == 0
        coeffs = container.read_coeffs(coeff_path)
        for sig in coeffs.scales:
            assert np.abs(sig.values).max() <= 1e-12
        assert np.abs(coeffs.scaling.values - 128.0 / 255.0).max() <= 1e-12

    def test_requires_band_limit(self, tmp_path):
        img = tmp_path / "img.pgm"
        self.write_gradient(img)
        assert run(["analyze", str(img), "--out", str(tmp_path / "c.scrv")]) == 2

    def test_rejects_nonzero_spin(self, tmp_path):
        img = tmp_path / "img.pgm"
        self.write_gradient(img)
        code = run(
            ["analyze", str(img), "--L", "8", "--spin", "1", "--out", str(tmp_path / "c")]
        )
        assert code == 2

    def test_rescale_spans_unit_interval(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        self.write_gradient(img, lo=100, hi=200)
        out = tmp_path / "c.scrv"
        assert run(
            ["analyze", str(img), "--L", "16", "--rescale", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        t = scurve.build_tiling(scurve.TilingParams(16, 0, 2.0, 0))
        g = scurve.synthesize_real(container.read_coeffs(out), t)
        assert g.values.min() <= 0.05 and g.values.max() >= 0.95

    def test_clip_caps_outliers(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        pixels = np.zeros((4, 8), dtype=np.uint8)
        pixels[0, 0] = 255
        img.write_bytes(b"P5\n8 4\n255\n" + pixels.tobytes())
        out = tmp_path / "c.scrv"
        assert run(
            ["analyze", str(img), "--L", "4", "--clip", "50", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        coeffs = container.read_coeffs(out)
        # the single bright pixel is clipped to the median, zero
        assert np.abs(coeffs.scaling.values).max() <= 1e-12

    def test_clip_validation(self, tmp_path):
        img = tmp_path / "img.pgm"
        self.write_gradient(img)
        code = run(
            ["analyze", str(img), "--L", "8", "--clip", "0", "--out", str(tmp_path / "c")]
        )
        assert code == 2

    def test_preprocessing_flags_need_pgm(self, tmp_path, rng):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        assert (
            run(["analyze", str(src), "--rescale", "--out", str(tmp_path / "c.scrv")])
            == 2
        )


class TestRoundtripCommand:
    def test_accuracy_table(self, capsys):
        assert run(["roundtrip", "--L", "8,4", "--repeats", "2"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["L", "max_error", "mean_error"]
        assert [r[0] for r in rows] == ["4", "8"]  # sorted even though given 8,4
        for row in rows:
            assert float(row[1]) <= 1e-10
            assert float(row[2]) <= float(row[1])

    def test_deterministic_given_seed(self, capsys):
        assert run(["roundtrip", "--L", "4,8", "--seed", "42", "--repeats", "1"]) == 0
        first = capsys.readouterr().out
        assert run(["roundtrip", "--L", "4,8", "--seed", "42", "--repeats", "1"]) == 0
        assert capsys.readouterr().out == first

    def test_file_output_with_provenance_note(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = run(
            ["roundtrip", "--L", "4", "--repeats", "1", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        note = json.loads(capsys.readouterr().out)
        assert note["rng"] == {"algorithm": "numpy-pcg64", "seed": 9}
        raw = out.read_bytes().decode()
        assert raw.count("\r\n") == 2

    def test_zero_repeats_is_usage_error(self):
        assert run(["roundtrip", "--L", "4", "--repeats", "0"]) == 2

    def test_oversized_spin_is_usage_error(self):
        assert run(["roundtrip", "--L", "4,8", "--spin", "4"]) == 2

    def test_bad_band_limit_lists(self):
        assert run(["roundtrip", "--L", "4,x"]) == 2
        assert run(["roundtrip", "--L", ","]) == 2
        assert run(["roundtrip", "--L", "0,4"]) == 2


class TestBenchCommand:
    def test_timings_grow_with_band_limit(self, capsys):
        assert run(["bench", "--L", "4,32", "--repeats", "1"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["L", "seconds", "min_seconds"]
        times = {int(r[0]): float(r[1]) for r in rows}
        assert times[4] > 0.0
        assert times[32] >= times[4]
        assert all(float(r[2]) <= float(r[1]) for r in rows)

    def test_note_reports_workers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCURVE_THREADS", "2")
        out = tmp_path / "bench.csv"
        assert run(["bench", "--L", "4", "--repeats", "1", "--out", str(out)]) == 0
        note = json.loads(capsys.readouterr().out)
        assert note["command"] == "bench"
        assert note["workers"] == 2

    def test_spin_barely_changes_cost(self, capsys):
        assert run(["bench", "--L", "64", "--repeats", "5", "--jmin", "2"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        scalar = float(rows[0][2])
        assert (
            run(["bench", "--L", "64", "--spin", "2", "--repeats", "5", "--jmin", "2"])
            == 0
        )
        _, rows = parse_csv(capsys.readouterr().out)
        spun = float(rows[0][2])
        assert abs(spun - scalar) <= 0.10 * scalar


class TestSparsityCommand:
    def test_histograms_are_probabilities(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 16, 0, rng)
        prefix = str(tmp_path / "sp")
        assert run(["sparsity", str(src), "--bins", "10", "--out", prefix]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bins"] == 10
        for note in summary["scales"]:
            assert 0.0 < note["gini"] < 1.0
        header, rows = parse_csv((tmp_path / "sp.csv").read_bytes().decode())
        assert header == ["L", "scale", "bin", "lower", "upper", "probability"]
        by_scale = {}
        for r in rows:
            by_scale.setdefault(int(r[1]), []).append(r)
        for j, scale_rows in by_scale.items():
            assert [int(r[2]) for r in scale_rows] == list(range(10))
            total = sum(float(r[5]) for r in scale_rows)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_stable_ordered(self, tmp_path, rng, capsys):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        assert run(["sparsity", str(src), "--bins", "4", "--out", str(tmp_path / "sp")]) == 0
        capsys.readouterr()
        _, rows = parse_csv((tmp_path / "sp.csv").read_bytes().decode())
        keys = [(int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_zero_map_warns_and_reports_empty(self, tmp_path, capsys):
        src = tmp_path / "f.scrv"
        g = scurve.SphereGrid(8)
        container.write_sphere(
            src, scurve.SphereSignal(g, 0, np.zeros(g.shape, complex))
        )
        assert run(["sparsity", str(src), "--out", str(tmp_path / "sp")]) == 0
        captured = capsys.readouterr()
        assert "identically zero" in captured.err
        summary = json.loads(captured.out)
        assert all(note["gini"] is None for note in summary["scales"])
        _, rows = parse_csv((tmp_path / "sp.csv").read_bytes().decode())
        assert rows == []

    def test_bins_validation(self, tmp_path, rng):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        assert run(["sparsity", str(src), "--bins", "0"]) == 2

    def test_blocked_reductions_match_whole_sample(self, rng, capsys):
        """Gini and histogram run by blocks; the results are those of the whole sample."""
        mags = np.abs(rng.standard_normal(3 * cli._REDUCE_BLOCK + 17)) ** 3
        n = mags.size
        x = np.sort(mags)
        whole = np.sum((2.0 * np.arange(1, n + 1) - n - 1.0) * x) / (n * x.sum())
        assert cli.gini_coefficient(mags) == pytest.approx(whole, rel=1e-12)
        note, rows = cli._scale_sparsity(3, mags, 7, 16)
        counts, _ = np.histogram(mags / mags.max(), bins=7, range=(0.0, 1.0))
        assert [r[5] for r in rows] == list(counts / n)
        assert note["gini"] == cli.gini_coefficient(mags)

    def test_peak_stays_within_the_estimate(self, tmp_path, capsys, monkeypatch):
        """tracemalloc peak at L=64, real, one worker.

        The magnitudes of the largest scale live beside its transform; the
        Gini index and the histogram then add one sorted copy and
        block-sized temporaries, so the command stays within its estimate
        less the interpreter baseline.
        """
        monkeypatch.setenv("SCURVE_THREADS", "1")
        L = 64
        src = tmp_path / "f.scrv"
        write_sphere_file(src, L, 0, np.random.default_rng(0), real=True)
        estimate = cli._estimated_peak_mib(L, True, 1, magnitudes=True, forward=False)
        estimate = (estimate - cli._BASELINE_MIB) * 2**20
        tracemalloc.start()
        try:
            assert run(["sparsity", str(src)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 1.2 * estimate, (peak, estimate)


class TestParabolicCommand:
    def test_table_shape_and_zero_rows(self, capsys):
        assert run(["parabolic", "--pmax", "3"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["ell", "spin", "fwhm_theta", "pct_error"]
        assert len(rows) == 3 + 5 + 9
        for row in rows:
            if row[1] == "0":
                assert float(row[3]) == 0.0

    def test_pmax_validation(self):
        assert run(["parabolic", "--pmax", "9"]) == 2
        assert run(["parabolic", "--pmax", "0"]) == 2


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scurve", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "tiling" in proc.stdout

    def test_unknown_command(self):
        assert run(["conjure"]) == 2

    def test_no_command(self):
        assert run([]) == 2
