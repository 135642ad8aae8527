"""Checks for the binary container format and image ingestion."""

import json
import os
import struct
import tracemalloc
import types

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

    def test_read_container_returns_unknown_header_keys(self, tmp_path):
        path = tmp_path / "f.scrv"
        rng_note = {"algorithm": "numpy-pcg64", "seed": 3}
        container._write_container(path, {"kind": "note", "rng": rng_note}, [], [])
        header, sections = container.read_container(path)
        assert header["rng"] == rng_note
        assert sections == {}


    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_mode_follows_umask(self, tmp_path, rng, umask, mode):
        path = tmp_path / "f.scrv"
        old = os.umask(umask)
        try:
            container.write_sphere(path, make_signal(4, 0, rng))
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode


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

    def test_float_values_without_real_flag(self, tmp_path, rng):
        """Each section takes its array's dtype, whatever the real flag says."""
        path = tmp_path / "c.scrv"
        r, _ = make_coeffs(8, 0, rng, j_min=0, real=True)
        scaling = scurve.SphereSignal(r.scaling.grid, 0, r.scaling.values)
        scales = [scurve.SO3Signal(s.grid, s.values) for s in r.scales]
        c = scurve.CurveletCoeffs(r.params, r.frame, scaling, scales, r.multires)
        container.write_coeffs(path, c)
        header, _ = container.read_container(path)
        assert {sec["dtype"] for sec in header["sections"]} == {"<f8"}
        d = container.read_coeffs(path)
        assert not d.real
        for a, b in zip([d.scaling, *d.scales], [c.scaling, *c.scales]):
            assert a.values.dtype == b.values.dtype == np.float64
            np.testing.assert_array_equal(a.values, b.values)

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

    def test_overlapping_sections(self, tmp_path):
        path = tmp_path / "f.scrv"
        a, b = np.arange(4.0), np.arange(4.0, 8.0)
        table = container._layout([("a", "<f8", (4,)), ("b", "<f8", (4,))])
        container._write_container(path, {"kind": "note"}, table, [a, b])
        # b now starts inside a; the payload still covers b's stated end.
        rewrite_header(path, lambda h: h["sections"][1].__setitem__("offset", 16))
        with pytest.raises(container.ContainerError, match="overlaps"):
            container.read_container(path)

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "f.scrv"
        self.write_valid(path, rng)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(container.ContainerError, match="8 payload bytes belong to no section"):
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


class TestCopyFreeIO:
    def test_byte_layout(self, tmp_path):
        path = tmp_path / "f.scrv"
        a = np.arange(6, dtype="<f8").reshape(2, 3) / 7.0
        b = (np.arange(4) + 1j * np.arange(4, 8)).astype("<c16")
        c = np.zeros((0, 5))
        header = {"kind": "note", "L": 3}
        table = container._layout(
            [("a", "<f8", a.shape), ("b", "<c16", b.shape), ("c", "<f8", c.shape)]
        )
        container._write_container(path, header, table, [a, b, c])
        sections = [
            {"name": "a", "dtype": "<f8", "shape": [2, 3], "offset": 0, "nbytes": 48},
            {"name": "b", "dtype": "<c16", "shape": [4], "offset": 48, "nbytes": 64},
            {"name": "c", "dtype": "<f8", "shape": [0, 5], "offset": 112, "nbytes": 0},
        ]
        head = json.dumps(dict(header, sections=sections)).encode()
        expected = (
            container.MAGIC
            + struct.pack("<I", len(head))
            + head
            + a.tobytes()
            + b.tobytes()
            + c.tobytes()
        )
        assert path.read_bytes() == expected

    def test_noncontiguous_input_is_written_in_c_order(self, tmp_path):
        path = tmp_path / "f.scrv"
        a = np.arange(12.0).reshape(3, 4)
        container._write_container(
            path, {"kind": "note"}, container._layout([("t", "<f8", a.T.shape)]), [a.T]
        )
        _, sections = container.read_container(path)
        np.testing.assert_array_equal(sections["t"], a.T)

    def test_sections_are_owned_writable_and_disjoint(self, tmp_path, rng):
        path = tmp_path / "c.scrv"
        c, _ = make_coeffs(16, 2, rng)
        container.write_coeffs(path, c)
        _, sections = container.read_container(path)
        arrays = list(sections.values())
        assert len(arrays) == 1 + len(c.scales)
        for arr in arrays:
            assert arr.flags.owndata
            assert arr.flags.writeable
            assert arr.flags.c_contiguous
        for i, x in enumerate(arrays):
            for y in arrays[i + 1 :]:
                assert not np.shares_memory(x, y)

    def test_short_read(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "f.scrv"
        container.write_sphere(path, make_signal(4, 1, rng))
        path.write_bytes(path.read_bytes()[:-8])
        fstat = os.fstat

        def grown(fd):
            return types.SimpleNamespace(st_size=fstat(fd).st_size + 8)

        # The file looks as long as it was, as if truncated after the check.
        monkeypatch.setattr(container.os, "fstat", grown)
        with pytest.raises(container.ContainerError, match="ended before"):
            container.read_sphere(path)


class TestStreamedWrite:
    """A section stream that goes wrong leaves no file behind."""

    table = container._layout([("a", "<f8", (3,)), ("b", "<f8", (2, 2))])

    def write(self, path, arrays):
        container._write_container(path, {"kind": "note"}, self.table, arrays)

    @staticmethod
    def assert_nothing_written(tmp_path):
        assert list(tmp_path.iterdir()) == []

    def test_generator_is_written_in_order(self, tmp_path):
        path = tmp_path / "f.scrv"
        self.write(path, (np.full(shape, k, float) for k, shape in enumerate([(3,), (2, 2)])))
        _, sections = container.read_container(path)
        np.testing.assert_array_equal(sections["a"], np.zeros(3))
        np.testing.assert_array_equal(sections["b"], np.ones((2, 2)))

    @pytest.mark.parametrize(
        "second",
        [np.ones((4,)), np.ones((2, 2), complex)],
        ids=["wrong-shape", "wrong-dtype"],
    )
    def test_mismatched_array(self, tmp_path, second):
        with pytest.raises(container.ContainerError, match="'b' is declared"):
            self.write(tmp_path / "f.scrv", iter([np.zeros(3), second]))
        self.assert_nothing_written(tmp_path)

    def test_stream_raises_after_first_section(self, tmp_path):
        def arrays():
            yield np.zeros(3)
            raise RuntimeError("analysis failed")

        with pytest.raises(RuntimeError, match="analysis failed"):
            self.write(tmp_path / "f.scrv", arrays())
        self.assert_nothing_written(tmp_path)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_array_count(self, tmp_path, count):
        arrays = [np.zeros(3), np.zeros((2, 2)), np.zeros(1)][:count]
        with pytest.raises(container.ContainerError, match="no array|more arrays"):
            self.write(tmp_path / "f.scrv", arrays)
        self.assert_nothing_written(tmp_path)

    def test_write_coeffs_checks_layout(self, tmp_path, rng):
        c, _ = make_coeffs(8, 0, rng, j_min=0)
        c.scales[-1] = c.scales[0]
        with pytest.raises(container.ContainerError, match="is declared"):
            container.write_coeffs(tmp_path / "c.scrv", c)
        self.assert_nothing_written(tmp_path)


class TestContainerMemory:
    """Reading or writing holds at most one copy of the payload."""

    @pytest.fixture(scope="class")
    def coeffs(self):
        c, _ = make_coeffs(64, 0, np.random.default_rng(0), j_min=2, real=True)
        return c

    @staticmethod
    def payload_bytes(c):
        return c.scaling.values.nbytes + sum(s.values.nbytes for s in c.scales)

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, result

    @pytest.fixture(scope="class")
    def written(self, coeffs, tmp_path_factory):
        path = tmp_path_factory.mktemp("memory") / "c.scrv"
        container.write_coeffs(path, coeffs)
        return path

    def test_write_peak(self, tmp_path, coeffs):
        payload = self.payload_bytes(coeffs)
        assert payload > 16 * 2**20
        peak, _ = self.traced_peak(container.write_coeffs, tmp_path / "c.scrv", coeffs)
        assert peak <= 0.1 * payload

    def test_read_peak(self, written, coeffs):
        payload = self.payload_bytes(coeffs)
        peak, back = self.traced_peak(container.read_coeffs, written)
        assert peak <= 1.1 * payload + 2**20
        for a, b in zip(back.scales, coeffs.scales):
            np.testing.assert_array_equal(a.values, b.values)


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
