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
being computed, so the writer emits the header first and writes each
section at its offset as it arrives.

A scale section need not exist in memory at all.  Its samples run
gamma-major, so one block of beta rows is one contiguous run of bytes
per gamma row.  The writer takes a pending synthesis in place of an
array and writes each beta block at its place as the inverse transform
finishes it (one os.pwritev per gamma row); the reader hands out a
scale as a stored section that a forward transform reads block by block
(one os.preadv per gamma row).  The command line holds one beta block
of a section at a time this way, not one section: `scurve analyze`
writes each scale's blocks as the synthesis finishes them, and `scurve
synthesize` reads each scale's blocks as the analysis asks for them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
from typing import NamedTuple

import numpy as np

from .so3 import SO3Grid, SO3Signal
from .sphere import SphereGrid, SphereSignal
from .tiling import TilingParams
from .transform import CurveletCoeffs, _coeff_grids, _PendingSignal

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


# The type of each scalar header field: int an integer (not a bool),
# bool true or false, float a finite number (an integer included).
_SCALARS = {
    "L": int, "spin": int, "J0": int, "J": int, "lambda": float, "real": bool, "multires": bool,
}
_TYPE_NAMES = {int: "an integer", bool: "true or false", float: "a finite number"}


def _header_scalars(path, header: dict, kind: str, keys) -> list:
    """The header's values of keys, each of its _SCALARS type; ContainerError otherwise.

    Only an integer lambda is converted (to float); nothing else is
    coerced: "spin": 2.9, "spin": true and "L": 4.0 are refused, not read
    as 2, 1 and 4.
    """
    values = []
    for key in keys:
        if key not in header:
            raise ContainerError(f"{path}: incomplete {kind} header: no {key!r}")
        value, want = header[key], _SCALARS[key]
        if want is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
        if not (type(value) is want and (want is not float or math.isfinite(value))):
            raise ContainerError(
                f"{path}: header field {key!r} must be {_TYPE_NAMES[want]}, got {value!r}"
            )
        values.append(value)
    return values


def _payload_code(values: np.ndarray) -> str:
    return "<c16" if np.iscomplexobj(values) else "<f8"


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


def _declared(data) -> tuple:
    """(dtype code, shape) of an array or of a _PendingSignal's samples."""
    if isinstance(data, _PendingSignal):
        return ("<f8" if data.real else "<c16"), data.grid.shape
    return _payload_code(data), data.shape


def _write_at(fd: int, arr: np.ndarray, offset: int) -> None:
    """Write all of the C-contiguous array arr at offset, retrying short writes."""
    done = 0
    while done < arr.nbytes:
        part = arr if done == 0 else memoryview(arr).cast("B")[done:]
        wrote = os.pwritev(fd, [part], offset + done)
        if wrote <= 0:
            raise OSError(f"write at offset {offset + done} made no progress")
        done += wrote


def _read_at(fd: int, arr: np.ndarray, offset: int, path) -> None:
    """Fill the C-contiguous array arr from offset; ContainerError on a short read."""
    done = 0
    while done < arr.nbytes:
        part = arr if done == 0 else memoryview(arr).cast("B")[done:]
        got = os.preadv(fd, [part], offset + done)
        if not got:
            raise ContainerError(f"{path}: file ended before its stated length")
        done += got


def _block_rows(shape, rows) -> tuple:
    """(gamma rows, first beta row, beta rows, alpha samples) of a beta block.

    rows is one slice of so3._beta_blocks; the block runs over every gamma
    row, and within each one its beta rows are contiguous bytes of a
    gamma-major section.
    """
    G, L, K = shape
    lo, hi, _ = rows[1].indices(L)
    return G, lo, hi - lo, K


def _section_sink(fd: int, sec: dict, start: int):
    """A block sink that writes each beta block into its slot of section sec.

    The block is computed into a buffer of its own, then written with one
    os.pwritev per gamma row, so the section is never held whole.
    """
    shape = tuple(sec["shape"])
    dt = _DTYPES[sec["dtype"]]
    row = shape[1] * shape[2] * dt.itemsize

    def sink(rows, fill):
        G, lo, n, K = _block_rows(shape, rows)
        # The transform writes native floats; the file holds little-endian ones.
        block = np.empty((G, n, K), dt.newbyteorder("="))
        fill(block)
        block = np.ascontiguousarray(block, dtype=dt)
        for g in range(G):
            _write_at(fd, block[g], start + g * row + lo * K * dt.itemsize)

    return sink


def _write_section(fd: int, path, sec: dict, start: int, data) -> None:
    """Write one declared section from an array or a _PendingSignal.

    An array goes out straight from its buffer; a pending signal is run
    with a sink that writes each beta block as it is finished.
    """
    if data is None:
        raise ContainerError(f"{path}: no array for section {sec['name']!r}")
    code, shape = _declared(data)
    if code != sec["dtype"] or list(shape) != sec["shape"]:
        raise ContainerError(
            f"{path}: section {sec['name']!r} is declared {sec['dtype']} {tuple(sec['shape'])}, "
            f"got {code} {tuple(shape)}"
        )
    if isinstance(data, _PendingSignal):
        data.emit(sink=_section_sink(fd, sec, start))
    else:
        # Only an array that is not already C-contiguous little-endian is converted.
        _write_at(fd, np.ascontiguousarray(data, dtype=_DTYPES[code]), start)


def _write_container(path, header: dict, sections: list, arrays) -> None:
    """Write header and its declared section table, then each array in turn.

    arrays may be a generator, and an item may be a _PendingSignal in
    place of an array: the header goes out first, and each section is
    written at its offset as it arrives, checked against its declared
    dtype and shape, and not referenced after.  A mismatch, a missing or
    extra array, or any error raised by arrays or a pending synthesis
    leaves neither the target nor a temporary file behind.
    """
    head = json.dumps(dict(header, sections=sections), allow_nan=False).encode()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scrv-")
    try:
        try:
            lead = MAGIC + struct.pack("<I", len(head)) + head
            _write_at(fd, np.frombuffer(lead, np.uint8), 0)
            arrays = iter(arrays)
            for sec in sections:
                _write_section(fd, path, sec, len(lead) + sec["offset"], next(arrays, None))
            if next(arrays, None) is not None:
                raise ContainerError(f"{path}: more arrays than declared sections")
            # mkstemp makes the file owner-only; give it the mode a plain
            # open() would, 0o666 less the umask (read by setting it back).
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
    each section before reading the next holds one at a time.
    read(name, rows) reads only the beta rows of one slice of
    so3._beta_blocks from a gamma-major section, with one os.preadv per
    gamma row.  The file is closed when the block exits.
    """
    start = len(MAGIC) + 4
    with open(path, "rb", buffering=0) as fh:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        lead = fh.read(start)
        if len(lead) < start or lead[: len(MAGIC)] != MAGIC:
            raise ContainerError(f"{path}: not an SCRV1 container")
        (hlen,) = struct.unpack_from("<I", lead, len(MAGIC))
        if hlen > _HEADER_CAP or start + hlen > size:
            raise ContainerError(f"{path}: header length {hlen} exceeds file size")
        raw = np.empty(hlen, np.uint8)
        _read_at(fd, raw, start, path)
        try:
            header = json.loads(raw.tobytes().decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"{path}: bad header: {exc}") from None
        base = start + hlen
        table = _section_table(path, header, size - base)

        def read(name: str, rows=None) -> np.ndarray:
            if name not in table:
                raise ContainerError(f"{path}: no section {name!r}")
            dt, shape, offset = table[name]
            if rows is None:
                arr = np.empty(shape, dt)
                _read_at(fd, arr, base + offset, path)
                return arr
            G, lo, n, K = _block_rows(shape, rows)
            row = shape[1] * K * dt.itemsize
            block = np.empty((G, n, K), dt)
            for g in range(G):
                at = base + offset + g * row + lo * K * dt.itemsize
                _read_at(fd, block[g], at, path)
            return block

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
        L, spin, real = _header_scalars(path, header, "sphere", ("L", "spin", "real"))
        values = read("values")
    if real and np.iscomplexobj(values):
        raise ContainerError(f"{path}: real-flagged payload stored as complex")
    try:
        return SphereSignal(SphereGrid(L), spin, values, real=real)
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from None


def _coeff_sections(params: TilingParams, multires: bool) -> list:
    """(section name, grid) of the scaling signal, then of each scale from j_min up."""
    Ls, grids = _coeff_grids(params, multires)
    names = [f"scale_{j}" for j in range(params.j_min, params.j_max + 1)]
    return [("scaling", SphereGrid(Ls)), *zip(names, grids)]


def _payload(signal):
    """What the writer takes for a signal: its values, or a pending synthesis whole."""
    return signal if isinstance(signal, _PendingSignal) else signal.values


def write_coeffs(path, coeffs: CurveletCoeffs) -> None:
    """Write an analysis result: the scaling part plus every scale signal.

    The section table follows from the parameters and the flags, and each
    section takes the dtype of its signal's samples (_declared), so the
    header goes out first.  A pending scale is written block by block as
    it is synthesised, so it is never held whole.
    """
    params = coeffs.params
    header = {
        "kind": "curvelet",
        "L": params.band_limit,
        "spin": params.spin,
        "lambda": params.lam,
        "J0": params.j_min,
        "J": params.j_max,
        "frame": "unrotated",
        "multires": coeffs.multires,
        "real": coeffs.real,
    }
    payloads = [_payload(sig) for sig in (coeffs.scaling, *coeffs.scales)]
    entries = [
        (name, _declared(data)[0], grid.shape)
        for (name, grid), data in zip(_coeff_sections(params, coeffs.multires), payloads)
    ]
    _write_container(path, header, _layout(entries), payloads)


class _StoredCube:
    """The samples of a scale section, read one beta block at a time.

    Stands where SO3Signal.values would for a forward transform, which
    reads its samples only as values.shape and values[rows]
    (so3._analysis_spectrum): each block is read from the open container
    when asked for, so the cube is never held.  load() reads it whole.
    """

    def __init__(self, read, name: str, shape: tuple):
        self._read = read
        self._name = name
        self.shape = shape

    def __getitem__(self, rows) -> np.ndarray:
        return self._read(self._name, rows)

    def load(self) -> np.ndarray:
        return self._read(self._name)


class _StoredSignal(NamedTuple):
    """A scale signal left in its container, read by blocks through values."""

    grid: SO3Grid
    values: _StoredCube
    real: bool


@contextlib.contextmanager
def _read_coeff_stream(path):
    """Open a coefficient container and yield its CurveletCoeffs until the block ends.

    The scaling signal is read whole; each scale is a _StoredSignal whose
    samples stay in the file until a transform reads them block by block.
    The file closes when the block ends.
    """
    with _open_container(path) as (header, table, read):
        if header.get("kind") != "curvelet":
            raise ContainerError(f"{path}: not a curvelet-coefficient container")
        *fields, multires, real = _header_scalars(
            path, header, "coefficient", ("L", "spin", "lambda", "J0", "J", "multires", "real")
        )
        if header.get("frame") != "unrotated":
            raise ContainerError(
                f"{path}: coefficient frame {header.get('frame')!r} is not 'unrotated'"
            )
        try:
            params = TilingParams(*fields)
        except ValueError as exc:
            raise ContainerError(f"{path}: {exc}") from None

        def stored(name: str, grid: SO3Grid) -> _StoredSignal:
            if name not in table:
                raise ContainerError(f"{path}: no section {name!r}")
            dt, shape, _ = table[name]
            if shape != grid.shape:
                raise ContainerError(
                    f"{path}: values shape {shape} does not match grid {grid.shape}"
                )
            if real and dt.kind == "c":
                raise ContainerError(f"{path}: real signal carries complex values")
            return _StoredSignal(grid, _StoredCube(read, name, shape), real)

        (_, scaling_grid), *sections = _coeff_sections(params, multires)
        try:
            scaling = SphereSignal(scaling_grid, 0, read("scaling"), real=real)
        except ValueError as exc:
            raise ContainerError(f"{path}: {exc}") from None
        scales = [stored(name, grid) for name, grid in sections]
        yield CurveletCoeffs(params, scaling, scales, multires, real)


def read_coeffs(path) -> CurveletCoeffs:
    with _read_coeff_stream(path) as c:
        c.scales = [SO3Signal(s.grid, s.values.load(), real=c.real) for s in c.scales]
    return c


# Bytes of the longest PGM header field read: the magic and three decimal
# numbers, so a raster with no whitespace is refused, not read byte by byte.
_PGM_FIELD_CAP = 32


def _pgm_header(fh, path) -> tuple:
    """(width, height, maxval) of a binary (P5) PGM, read from fh up to its raster.

    Comments and arbitrary header whitespace are skipped; fh is left at
    the first raster byte, one whitespace byte past maxval.
    """

    def token() -> bytes:
        c = fh.read(1)
        while c == b"#" or c.isspace():
            if c == b"#":
                fh.readline()
            c = fh.read(1)
        tok = b""
        while c and not c.isspace():
            if len(tok) == _PGM_FIELD_CAP:
                raise ContainerError(f"{path}: PGM header field over {_PGM_FIELD_CAP} bytes")
            tok += c
            c = fh.read(1)
        if not tok:
            raise ContainerError(f"{path}: truncated PGM header")
        return tok

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
    return width, height, maxval


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) grayscale image, scaled to floats in [0, 1].

    Comments, multi-byte samples (maxval up to 65535, big-endian) and
    arbitrary header whitespace are handled; ASCII (P2) images are not.
    Only the raster's bytes and one float image are held at once.
    """
    with open(path, "rb") as fh:
        width, height, maxval = _pgm_header(fh, path)
        dt = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = width * height * dt.itemsize
        if os.fstat(fh.fileno()).st_size - fh.tell() < need:
            raise ContainerError(f"{path}: PGM raster truncated")
        raw = fh.read(need)
    img = np.frombuffer(raw, dt).reshape(height, width).astype(float)
    img /= float(maxval)
    return img


def resample_to_sphere(image: np.ndarray, band_limit: int) -> SphereSignal:
    """Bilinear lift of an equirectangular image onto the sphere grid.

    Pixel (r, c) sits at colatitude pi*(r + 1/2)/H and longitude
    2*pi*(c + 1/2)/W; longitude wraps around, colatitude clamps at the
    poles.  The grid's last row, colatitude pi, is one point, the south
    pole: it takes the mean of its samples over longitude.
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
    values = (1.0 - fr) * top + fr * bottom
    values[-1] = values[-1].mean()
    return SphereSignal(grid, 0, values, real=True)
