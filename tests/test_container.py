"""Checks for the binary container format and image ingestion."""

import json
import os
import struct

import numpy as np
import pytest

import scurve
from scurve import container


def make_signal(L, spin, rng, real=False):
    if real:
        return scurve.sht_inverse_real(scurve.random_coeffs(L, 0, rng, real=True))
    return scurve.sht_inverse(scurve.random_coeffs(L, spin, rng))


def make_coeffs(L, spin, rng, lam=2.0, j_min=1, real=False, multires=True):
    t = scurve.build_tiling(scurve.TilingParams(L, spin, lam, j_min))
    f = make_signal(L, spin, rng, real=real)
    if real:
        return scurve.analyze_real(f, t, multires=multires), t
    return scurve.analyze(f, t, multires=multires), t


class TestSphereContainer:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        f = make_signal(8, 2, rng)
        container.write_sphere(path, f)
        g = container.read_sphere(path)
        assert g.grid == f.grid
        assert g.spin == 2
        assert not g.real
        np.testing.assert_array_equal(g.values, f.values)

    def test_real_round_trip(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        f = make_signal(8, 0, rng, real=True)
        container.write_sphere(path, f)
        g = container.read_sphere(path)
        assert g.real
        assert not np.iscomplexobj(g.values)
        np.testing.assert_array_equal(g.values, f.values)

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        a, b = tmp_path / "a.scrv", tmp_path / "b.scrv"
        f = make_signal(4, 0, rng)
        container.write_sphere(a, f)
        container.write_sphere(b, container.read_sphere(a))
        assert a.read_bytes() == b.read_bytes()

    def test_extra_header_fields(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        extra = {"rng": {"algorithm": "numpy-pcg64", "seed": 3}}
        container.write_sphere(path, make_signal(4, 0, rng), extra=extra)
        header, _ = container.read_container(path)
        assert header["rng"] == extra["rng"]

    def test_extra_cannot_mask_core_fields(self, tmp_path, rng):
        with pytest.raises(ValueError):
            container.write_sphere(
                tmp_path / "f.scrv", make_signal(4, 0, rng), extra={"L": 99}
            )


class TestCoeffContainer:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "c.scrv"
        c, _ = make_coeffs(16, 2, rng)
        container.write_coeffs(path, c)
        d = container.read_coeffs(path)
        assert d.params == c.params
        assert d.frame == c.frame
        assert d.multires == c.multires
        assert d.real == c.real
        np.testing.assert_array_equal(d.scaling.values, c.scaling.values)
        for a, b in zip(d.scales, c.scales):
            assert a.grid == b.grid
            np.testing.assert_array_equal(a.values, b.values)

    def test_real_fullres_round_trip(self, tmp_path, rng):
        path = tmp_path / "c.scrv"
        c, _ = make_coeffs(8, 0, rng, j_min=0, real=True, multires=False)
        container.write_coeffs(path, c)
        d = container.read_coeffs(path)
        assert d.real and not d.multires
        for a, b in zip(d.scales, c.scales):
            assert not np.iscomplexobj(a.values)
            np.testing.assert_array_equal(a.values, b.values)

    def test_synthesis_after_reload(self, tmp_path, rng):
        path = tmp_path / "c.scrv"
        c, t = make_coeffs(16, 0, rng)
        container.write_coeffs(path, c)
        g = scurve.synthesize(container.read_coeffs(path), t)
        h = scurve.synthesize(c, t)
        np.testing.assert_array_equal(g.values, h.values)

    def test_wrong_kind_rejected(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        container.write_sphere(path, make_signal(4, 0, rng))
        with pytest.raises(container.ContainerError):
            container.read_coeffs(path)
        path2 = tmp_path / "c.scrv"
        c, _ = make_coeffs(8, 0, rng, j_min=0)
        container.write_coeffs(path2, c)
        with pytest.raises(container.ContainerError):
            container.read_sphere(path2)


class TestContainerHardening:
    def write_valid(self, path, rng):
        container.write_sphere(path, make_signal(4, 1, rng))

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        raw = bytearray(path.read_bytes())
        raw[:5] = b"BOGUS"
        path.write_bytes(raw)
        with pytest.raises(container.ContainerError, match="not an SCRV1"):
            container.read_sphere(path)

    def test_truncated_header(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(container.ContainerError):
            container.read_sphere(path)

    def test_header_length_past_eof(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        raw = bytearray(path.read_bytes())
        raw[5:9] = struct.pack("<I", 2**24 - 1)
        path.write_bytes(raw)
        with pytest.raises(container.ContainerError, match="header length"):
            container.read_sphere(path)

    def test_corrupt_header_json(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        raw = bytearray(path.read_bytes())
        raw[9] = ord("?")
        path.write_bytes(raw)
        with pytest.raises(container.ContainerError, match="bad header"):
            container.read_sphere(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(container.ContainerError, match="exceeds the payload"):
            container.read_sphere(path)

    def test_unknown_dtype(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        rewrite_header(path, lambda h: h["sections"][0].__setitem__("dtype", "<i4"))
        with pytest.raises(container.ContainerError, match="dtype"):
            container.read_sphere(path)

    def test_shape_length_mismatch(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        rewrite_header(path, lambda h: h["sections"][0].__setitem__("shape", [2, 2]))
        with pytest.raises(container.ContainerError, match="does not match its shape"):
            container.read_sphere(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {"shape": [-1, 2], "nbytes": -16},
            {"shape": [-1, -1]},
            {"shape": [-2, 3]},
            {"shape": [4.0, 7]},
            {"offset": 0.5},
            {"offset": -1},
            {"nbytes": 448.0},
        ],
    )
    def test_non_count_section_fields(self, tmp_path, rng, fields):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        rewrite_header(path, lambda h: h["sections"][0].update(fields))
        with pytest.raises(container.ContainerError, match="non-negative integers"):
            container.read_sphere(path)

    @pytest.mark.parametrize("field", ["name", "dtype"])
    def test_non_string_name_or_dtype(self, tmp_path, rng, field):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        rewrite_header(path, lambda h: h["sections"][0].__setitem__(field, ["values"]))
        with pytest.raises(container.ContainerError, match="must be strings"):
            container.read_sphere(path)

    def test_duplicate_sections(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        rewrite_header(path, lambda h: h["sections"].append(dict(h["sections"][0])))
        with pytest.raises(container.ContainerError, match="duplicate"):
            container.read_sphere(path)

    def test_real_flag_payload_mismatch(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        rewrite_header(path, lambda h: h.__setitem__("real", True))
        with pytest.raises(container.ContainerError, match="real-flagged"):
            container.read_sphere(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            container.read_sphere(tmp_path / "absent.scrv")

    def test_failed_replace_leaves_no_debris(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            container.write_sphere(path, make_signal(8, 0, rng))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.scrv"]


def rewrite_header(path, mutate):
    """Apply a mutation to the JSON header, leaving the payload alone."""
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[5:9])[0]
    header = json.loads(raw[9 : 9 + hlen])
    mutate(header)
    blob = json.dumps(header).encode()
    path.write_bytes(
        container.MAGIC + struct.pack("<I", len(blob)) + blob + raw[9 + hlen :]
    )


class TestPgm:
    def write_pgm(self, path, header, raster):
        path.write_bytes(header + raster)

    def test_eight_bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        pixels = np.arange(6, dtype=np.uint8).reshape(2, 3)
        self.write_pgm(path, b"P5\n3 2\n255\n", pixels.tobytes())
        img = container.read_pgm(path)
        assert img.dtype == np.float64
        np.testing.assert_allclose(img, pixels / 255.0)

    def test_sixteen_bit_big_endian(self, tmp_path):
        path = tmp_path / "img.pgm"
        pixels = np.array([[0, 1000], [40000, 65535]], dtype=">u2")
        self.write_pgm(path, b"P5\n2 2\n65535\n", pixels.tobytes())
        img = container.read_pgm(path)
        np.testing.assert_allclose(img, pixels.astype(float) / 65535.0)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "img.pgm"
        header = b"P5\n# a comment\n 2 # widths\n2\n# another\n255\n"
        self.write_pgm(path, header, bytes(4))
        img = container.read_pgm(path)
        assert img.shape == (2, 2)

    def test_rejects_ascii_variant(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(container.ContainerError, match="P5"):
            container.read_pgm(path)

    def test_rejects_bad_maxval(self, tmp_path):
        for maxval in (b"0", b"70000"):
            path = tmp_path / "img.pgm"
            path.write_bytes(b"P5\n1 1\n" + maxval + b"\n\x00")
            with pytest.raises(container.ContainerError):
                container.read_pgm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "img.pgm"
        self.write_pgm(path, b"P5\n4 4\n255\n", bytes(7))
        with pytest.raises(container.ContainerError, match="truncated"):
            container.read_pgm(path)

    def test_rejects_non_numeric_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\nwide tall\n255\n")
        with pytest.raises(container.ContainerError):
            container.read_pgm(path)


class TestResample:
    def test_constant_image(self):
        f = container.resample_to_sphere(np.full((5, 9), 0.25), 8)
        assert f.real
        assert f.grid.band_limit == 8
        np.testing.assert_allclose(f.values, 0.25)

    def test_linear_in_colatitude(self):
        H, W, L = 64, 4, 16
        image = np.repeat(np.arange(H, dtype=float)[:, None], W, axis=1)
        f = container.resample_to_sphere(image, L)
        rows = np.clip(scurve.SphereGrid(L).thetas * H / np.pi - 0.5, 0, H - 1)
        np.testing.assert_allclose(f.values, np.repeat(rows[:, None], 2 * L - 1, 1))

    def test_longitude_wraparound(self):
        image = np.array([[0.0, 1.0, 2.0, 3.0]])
        f = container.resample_to_sphere(image, 2)
        # phi = 0 sits half a pixel before the first centre: average of the
        # last and first columns
        assert f.values[0, 0] == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            container.resample_to_sphere(np.zeros(5), 4)
        with pytest.raises(ValueError):
            container.resample_to_sphere(np.zeros((2, 2)), 0)
