"""Checks for the scurve command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

import scurve
from scurve import cli, container


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

    def test_impossible_scale_range_is_data_error(self, capsys):
        assert run(["tiling", "--L", "8", "--jmin", "5"]) == 3
        assert "scurve: error:" in capsys.readouterr().err


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
        out_path = tmp_path / "g.scrv"
        assert run(["synthesize", str(coeff_path), "--out", str(out_path)]) == 0
        g = container.read_sphere(out_path)
        orig = scurve.sht_forward(f)
        back = scurve.sht_forward(g)
        assert np.abs(back.values - orig.values).max() <= 1e-10

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

    def test_bad_thread_count_is_data_error(self, tmp_path, rng, capsys, monkeypatch):
        src = tmp_path / "f.scrv"
        write_sphere_file(src, 8, 0, rng)
        monkeypatch.setenv("SCURVE_THREADS", "lots")
        assert run(["analyze", str(src), "--out", str(tmp_path / "c.scrv")]) == 3
        assert "SCURVE_THREADS" in capsys.readouterr().err


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
        assert header == ["L", "seconds"]
        times = {int(r[0]): float(r[1]) for r in rows}
        assert times[4] > 0.0
        assert times[32] >= times[4]

    def test_spin_barely_changes_cost(self, capsys):
        assert run(["bench", "--L", "64", "--repeats", "5", "--jmin", "2"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        scalar = float(rows[0][1])
        assert (
            run(["bench", "--L", "64", "--spin", "2", "--repeats", "5", "--jmin", "2"])
            == 0
        )
        _, rows = parse_csv(capsys.readouterr().out)
        spun = float(rows[0][1])
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
