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

Reading or writing a container holds one copy of the payload: sections
are written straight from the arrays' buffers, and read straight into
their own arrays at the section offsets once the whole layout has been
checked against the file size.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

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


def _write_container(path, header: dict, arrays) -> None:
    """arrays is a list of (name, ndarray); the section table is derived.

    Each section is written straight from its array's buffer; only an
    array that is not already C-contiguous little-endian is converted.
    """
    sections = []
    payload = []
    offset = 0
    for name, arr in arrays:
        code = _payload_code(arr)
        data = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        sections.append(
            {
                "name": name,
                "dtype": code,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": data.nbytes,
            }
        )
        payload.append(data)
        offset += data.nbytes
    head = json.dumps(dict(header, sections=sections), allow_nan=False).encode()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scrv-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(head)))
            fh.write(head)
            for data in payload:
                fh.write(_byte_view(data))
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


def _section_table(path, header: dict, payload_size: int) -> list:
    """Validated (name, dtype, shape, offset) of every section."""
    if not isinstance(header, dict) or not isinstance(header.get("sections"), list):
        raise ContainerError(f"{path}: header carries no section table")
    table = []
    names = set()
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
        if name in names:
            raise ContainerError(f"{path}: duplicate section {name!r}")
        if code not in _DTYPES:
            raise ContainerError(f"{path}: unknown payload dtype {code!r}")
        dt = _DTYPES[code]
        if nbytes != math.prod(shape) * dt.itemsize:
            raise ContainerError(f"{path}: section {name!r} length does not match its shape")
        if offset + nbytes > payload_size:
            raise ContainerError(f"{path}: section {name!r} exceeds the payload")
        names.add(name)
        table.append((name, dt, shape, offset))
    return table


def read_container(path):
    """Return (header, {section name: array}) after validating the layout.

    The magic, the header and the whole section table are checked against
    the file size before any array is allocated; each section is then read
    straight into its own array, so the payload is held once.
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
        out = {}
        for name, dt, shape, offset in _section_table(path, header, size - start - hlen):
            arr = np.empty(shape, dt)
            fh.seek(start + hlen + offset)
            _read_exact(fh, _byte_view(arr), path)
            out[name] = arr
    return header, out


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
    _write_container(path, header, [("values", signal.values)])


def read_sphere(path) -> SphereSignal:
    header, sections = read_container(path)
    if header.get("kind") != "sphere":
        raise ContainerError(f"{path}: not a sphere container")
    try:
        L = int(header["L"])
        spin = int(header["spin"])
        real = bool(header["real"])
        values = sections["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: incomplete sphere header: {exc}") from None
    if real and np.iscomplexobj(values):
        raise ContainerError(f"{path}: real-flagged payload stored as complex")
    try:
        return SphereSignal(SphereGrid(L), spin, values, real=real)
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from None


def write_coeffs(path, coeffs: CurveletCoeffs) -> None:
    """Write an analysis result: the scaling part plus every scale signal."""
    p = coeffs.params
    header = {
        "kind": "curvelet",
        "L": p.band_limit,
        "spin": p.spin,
        "lambda": p.lam,
        "J0": p.j_min,
        "J": p.j_max,
        "frame": coeffs.frame,
        "multires": coeffs.multires,
        "real": coeffs.real,
    }
    arrays = [("scaling", coeffs.scaling.values)]
    for j in range(p.j_min, p.j_max + 1):
        arrays.append((f"scale_{j}", coeffs.scale(j).values))
    _write_container(path, header, arrays)


def read_coeffs(path) -> CurveletCoeffs:
    header, sections = read_container(path)
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
    L = params.band_limit
    try:
        low = scaling_band_limit(params) if multires else L
        scaling = SphereSignal(SphereGrid(low), 0, sections["scaling"], real=real)
        scales = []
        for j in range(params.j_min, params.j_max + 1):
            Lj = scale_band_limit(params, j) if multires else L
            scales.append(SO3Signal(SO3Grid(Lj, Lj, Lj), sections[f"scale_{j}"], real=real))
        return CurveletCoeffs(params, frame, scaling, scales, multires, real)
    except (KeyError, ValueError) as exc:
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
