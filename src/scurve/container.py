"""SCRV1 binary containers and PGM image ingestion.

A container starts with the 5-byte magic ``SCRV1``, a little-endian
uint32 header length and a UTF-8 JSON header, followed by raw payload
sections.  The header carries the transform metadata (band limit, spin,
dilation, scale range, frame, flags) and a section table naming every
payload block with its dtype, shape and byte offset, so a reader can
validate the whole layout before touching the data.  Payload values are
little-endian 8-byte IEEE floats; complex values interleave (re, im).
Harmonic sections are flat over ell*ell + ell + m, rotation-group
sections run gamma-outer / beta-middle / alpha-inner, sphere sections
theta-major.

Writes land in a temporary file next to the target and are renamed into
place, so a reader never observes a half-written container.

The sections must tile the payload: a reader rejects sections that
overlap and payload bytes that belong to no section.

Reading or writing a container holds at most one copy of the payload:
sections are written straight from the arrays' buffers, and read
straight into their own arrays at the section offsets once the whole
layout has been checked against the file size.  A coefficient
container's section table follows from its TilingParams, its multires
flag and its dtypes, which the real flag sets for coefficients still
being computed, so the writer emits the header first and appends each
section as it arrives, and the reader hands out one section at a time.
The command line uses both to hold one section at a time: `scurve
analyze` writes each scale as the analysis yields it, and `scurve
synthesize` reads each scale as the synthesis asks for it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import os
import struct
import tempfile
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .so3 import SO3Grid, SO3Signal
from .sphere import SphereGrid, SphereSignal
from .tiling import TilingParams
from .transform import CurveletCoeffs, scale_band_limit, scaling_band_limit

__all__ = [
    "MAGIC",
    "ContainerError",
    "read_coeffs",
    "read_container",
    "read_pgm",
    "read_sphere",
    "resample_to_sphere",
    "write_coeffs",
    "write_sphere",
]

MAGIC = b"SCRV1"

_HEADER_CAP = 1 << 24
_DTYPES = {"<f8": np.dtype("<f8"), "<c16": np.dtype("<c16")}


class ContainerError(RuntimeError):
    """Malformed, truncated or inconsistent container data."""


def _payload_code(values: np.ndarray) -> str:
    return "<c16" if np.iscomplexobj(values) else "<f8"


def _byte_view(arr: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a C-contiguous array, sharing its memory."""
    return arr.reshape(-1).view(np.uint8)


def _layout(entries) -> list:
    """Section table of (name, dtype code, shape) entries packed in order."""
    sections = []
    offset = 0
    for name, code, shape in entries:
        nbytes = math.prod(shape) * _DTYPES[code].itemsize
        sections.append(
            {"name": name, "dtype": code, "shape": list(shape), "offset": offset, "nbytes": nbytes}
        )
        offset += nbytes
    return sections


def _section_data(path, sec: dict, arr) -> np.ndarray:
    """arr as the C-contiguous little-endian bytes of its declared section."""
    if arr is None:
        raise ContainerError(f"{path}: no array for section {sec['name']!r}")
    code = _payload_code(arr)
    if code != sec["dtype"] or list(arr.shape) != sec["shape"]:
        raise ContainerError(
            f"{path}: section {sec['name']!r} is declared {sec['dtype']} {tuple(sec['shape'])}, "
            f"got {code} {arr.shape}"
        )
    # Only an array that is not already C-contiguous little-endian is converted.
    return np.ascontiguousarray(arr, dtype=_DTYPES[code])


def _write_container(path, header: dict, sections: list, arrays) -> None:
    """Write header and its declared section table, then each array in turn.

    arrays may be a generator: the header goes out first, and each array
    is written straight from its buffer as it arrives, checked against its
    section's dtype and shape, and not referenced after.  A mismatch, a
    missing or extra array, or any error raised by arrays leaves neither
    the target nor a temporary file behind.
    """
    head = json.dumps(dict(header, sections=sections), allow_nan=False).encode()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scrv-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(head)))
            fh.write(head)
            arrays = iter(arrays)
            for sec in sections:
                fh.write(_byte_view(_section_data(path, sec, next(arrays, None))))
            if next(arrays, None) is not None:
                raise ContainerError(f"{path}: more arrays than declared sections")
            fh.flush()
            # mkstemp makes the file owner-only; give it the mode a plain
            # open() would, 0o666 less the umask (read by setting it back).
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_exact(fh, buf, path) -> None:
    """Fill the writable buffer buf from fh; ContainerError on a short read."""
    view = memoryview(buf)
    filled = 0
    while filled < len(view):
        got = fh.readinto(view[filled:])
        if not got:
            raise ContainerError(f"{path}: file ended before its stated length")
        filled += got


def _section_table(path, header: dict, payload_size: int) -> dict:
    """Validated {name: (dtype, shape, offset)} of every section, in table order.

    The sections must tile the payload: none may overlap another, and
    every payload byte must belong to one of them.
    """
    if not isinstance(header, dict) or not isinstance(header.get("sections"), list):
        raise ContainerError(f"{path}: header carries no section table")
    table = {}
    spans = []
    for sec in header["sections"]:
        try:
            name = sec["name"]
            code = sec["dtype"]
            shape = tuple(sec["shape"])
            offset = sec["offset"]
            nbytes = sec["nbytes"]
        except (TypeError, KeyError) as exc:
            raise ContainerError(f"{path}: malformed section entry: {exc}") from None
        if not (isinstance(name, str) and isinstance(code, str)):
            raise ContainerError(f"{path}: section name and dtype must be strings")
        if not all(type(v) is int and v >= 0 for v in (*shape, offset, nbytes)):
            raise ContainerError(
                f"{path}: section {name!r} shape, offset and nbytes must be non-negative integers"
            )
        if name in table:
            raise ContainerError(f"{path}: duplicate section {name!r}")
        if code not in _DTYPES:
            raise ContainerError(f"{path}: unknown payload dtype {code!r}")
        dt = _DTYPES[code]
        if nbytes != math.prod(shape) * dt.itemsize:
            raise ContainerError(f"{path}: section {name!r} length does not match its shape")
        if offset + nbytes > payload_size:
            raise ContainerError(f"{path}: section {name!r} exceeds the payload")
        table[name] = (dt, shape, offset)
        if nbytes:
            spans.append((offset, nbytes, name))
    end = 0
    for offset, nbytes, name in sorted(spans):
        if offset < end:
            raise ContainerError(f"{path}: section {name!r} overlaps another section")
        end = offset + nbytes
    stray = payload_size - sum(nbytes for _, nbytes, _ in spans)
    if stray:
        raise ContainerError(f"{path}: {stray} payload bytes belong to no section")
    return table


@contextlib.contextmanager
def _open_container(path):
    """Open a container and yield (header, table, read) until the block ends.

    The magic, the header and the whole section table are checked against
    the file size before any array is allocated.  read(name) then reads
    that one section straight into a new array, so a caller that drops
    each section before reading the next holds one at a time.  The file
    is closed when the block exits.
    """
    start = len(MAGIC) + 4
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(start)
        if len(lead) < start or lead[: len(MAGIC)] != MAGIC:
            raise ContainerError(f"{path}: not an SCRV1 container")
        (hlen,) = struct.unpack_from("<I", lead, len(MAGIC))
        if hlen > _HEADER_CAP or start + hlen > size:
            raise ContainerError(f"{path}: header length {hlen} exceeds file size")
        raw = bytearray(hlen)
        _read_exact(fh, raw, path)
        try:
            header = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"{path}: bad header: {exc}") from None
        base = start + hlen
        table = _section_table(path, header, size - base)

        def read(name: str) -> np.ndarray:
            if name not in table:
                raise ContainerError(f"{path}: no section {name!r}")
            dt, shape, offset = table[name]
            arr = np.empty(shape, dt)
            fh.seek(base + offset)
            _read_exact(fh, _byte_view(arr), path)
            return arr

        yield header, table, read


def read_container(path):
    """Return (header, {section name: array}) after validating the layout.

    Each section is read straight into its own array, so the payload is
    held once.
    """
    with _open_container(path) as (header, table, read):
        return header, {name: read(name) for name in table}


def write_sphere(path, signal: SphereSignal) -> None:
    """Write one sphere signal."""
    header = {
        "kind": "sphere",
        "L": signal.grid.band_limit,
        "spin": signal.spin,
        "lambda": None,
        "J0": None,
        "J": None,
        "frame": None,
        "multires": None,
        "real": signal.real,
    }
    values = signal.values
    sections = _layout([("values", _payload_code(values), values.shape)])
    _write_container(path, header, sections, [values])


def read_sphere(path) -> SphereSignal:
    with _open_container(path) as (header, _, read):
        if header.get("kind") != "sphere":
            raise ContainerError(f"{path}: not a sphere container")
        try:
            L = int(header["L"])
            spin = int(header["spin"])
            real = bool(header["real"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ContainerError(f"{path}: incomplete sphere header: {exc}") from None
        values = read("values")
    if real and np.iscomplexobj(values):
        raise ContainerError(f"{path}: real-flagged payload stored as complex")
    try:
        return SphereSignal(SphereGrid(L), spin, values, real=real)
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from None


def _coeff_sections(params: TilingParams, multires: bool) -> list:
    """(section name, grid) of the scaling signal, then of each scale from j_min up."""
    L = params.band_limit
    sections = [("scaling", SphereGrid(scaling_band_limit(params) if multires else L))]
    for j in range(params.j_min, params.j_max + 1):
        Lj = scale_band_limit(params, j) if multires else L
        sections.append((f"scale_{j}", SO3Grid(Lj, Lj, Lj)))
    return sections


class _CoeffStream(NamedTuple):
    """An analysis still running: its parameters and flags, and its signals.

    signals yields the scaling signal, then each scale signal from j_min
    up, as the analysis stream does; write_coeffs writes each one as it
    arrives, so the whole result never exists at once.
    """

    params: TilingParams
    frame: str
    multires: bool
    real: bool
    signals: Iterator


def write_coeffs(path, coeffs: CurveletCoeffs) -> None:
    """Write an analysis result: the scaling part plus every scale signal.

    The section table follows from the parameters and the flags, so the
    header goes out first.  Each section takes its array's own dtype; for
    a _CoeffStream, whose arrays do not exist yet, the real flag sets it.
    """
    if isinstance(coeffs, _CoeffStream):
        signals = coeffs.signals
        codes = itertools.repeat("<f8" if coeffs.real else "<c16")
    else:
        signals = [coeffs.scaling, *coeffs.scales]
        codes = [_payload_code(sig.values) for sig in signals]
    params = coeffs.params
    header = {
        "kind": "curvelet",
        "L": params.band_limit,
        "spin": params.spin,
        "lambda": params.lam,
        "J0": params.j_min,
        "J": params.j_max,
        "frame": coeffs.frame,
        "multires": coeffs.multires,
        "real": coeffs.real,
    }
    entries = [
        (name, code, grid.shape)
        for (name, grid), code in zip(_coeff_sections(params, coeffs.multires), codes)
    ]
    # map keeps no reference to a signal once its values are handed on.
    arrays = map(operator.attrgetter("values"), signals)
    _write_container(path, header, _layout(entries), arrays)


@contextlib.contextmanager
def _read_coeff_stream(path):
    """Open a coefficient container and yield (params, frame, multires, real, signals).

    signals yields the scaling signal, then each scale signal from j_min
    up, reading one section per step; the file closes when the block ends.
    """
    with _open_container(path) as (header, _, read):
        if header.get("kind") != "curvelet":
            raise ContainerError(f"{path}: not a curvelet-coefficient container")
        try:
            params = TilingParams(
                int(header["L"]),
                int(header["spin"]),
                float(header["lambda"]),
                int(header["J0"]),
                int(header["J"]),
            )
            frame = header["frame"]
            multires = bool(header["multires"])
            real = bool(header["real"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ContainerError(f"{path}: incomplete coefficient header: {exc}") from None

        def signals():
            try:
                for name, grid in _coeff_sections(params, multires):
                    if isinstance(grid, SphereGrid):
                        yield SphereSignal(grid, 0, read(name), real=real)
                    else:
                        yield SO3Signal(grid, read(name), real=real)
            except ValueError as exc:
                raise ContainerError(f"{path}: {exc}") from None

        yield params, frame, multires, real, signals()


def read_coeffs(path) -> CurveletCoeffs:
    with _read_coeff_stream(path) as (params, frame, multires, real, signals):
        scaling, *scales = signals
    try:
        return CurveletCoeffs(params, frame, scaling, scales, multires, real)
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from None


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) grayscale image, scaled to floats in [0, 1].

    Comments, multi-byte samples (maxval up to 65535, big-endian) and
    arbitrary header whitespace are handled; ASCII (P2) images are not.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            c = raw[pos : pos + 1]
            if c == b"#":
                nl = raw.find(b"\n", pos)
                pos = len(raw) if nl < 0 else nl + 1
            elif c.isspace():
                pos += 1
            else:
                break
        begin = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if begin == pos:
            raise ContainerError(f"{path}: truncated PGM header")
        return raw[begin:pos]

    if token() != b"P5":
        raise ContainerError(f"{path}: only binary (P5) PGM images are supported")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise ContainerError(f"{path}: non-numeric PGM header field") from None
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ContainerError(
            f"{path}: bad PGM geometry {width}x{height} with maxval {maxval}"
        )
    pos += 1
    dt = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dt.itemsize
    if len(raw) - pos < need:
        raise ContainerError(f"{path}: PGM raster truncated")
    img = np.frombuffer(raw, dt, width * height, pos).reshape(height, width)
    return img.astype(float) / float(maxval)


def resample_to_sphere(image: np.ndarray, band_limit: int) -> SphereSignal:
    """Bilinear lift of an equirectangular image onto the sphere grid.

    Pixel (r, c) sits at colatitude pi*(r + 1/2)/H and longitude
    2*pi*(c + 1/2)/W; longitude wraps around, colatitude clamps at the
    poles.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d grayscale image, got shape {image.shape}")
    H, W = image.shape
    grid = SphereGrid(band_limit)
    rows = np.clip(grid.thetas * (H / math.pi) - 0.5, 0.0, H - 1.0)
    cols = grid.phis * (W / (2.0 * math.pi)) - 0.5
    r0 = np.floor(rows).astype(int)
    r1 = np.minimum(r0 + 1, H - 1)
    fr = (rows - r0)[:, None]
    base = np.floor(cols)
    fc = (cols - base)[None, :]
    c0 = base.astype(int) % W
    c1 = (c0 + 1) % W
    top = (1.0 - fc) * image[r0[:, None], c0] + fc * image[r0[:, None], c1]
    bottom = (1.0 - fc) * image[r1[:, None], c0] + fc * image[r1[:, None], c1]
    return SphereSignal(grid, 0, (1.0 - fr) * top + fr * bottom, real=True)
