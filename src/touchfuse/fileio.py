"""File formats used by the pipeline: PFM rasters, PGM/PPM images, PLY point
sets, camera lists, sparse depth tables and key=value manifests.

Touch files are binary little-endian PLY of float64 properties; datasets
written before that are ASCII PLY, and the reader takes either encoding.
Splat PLYs (`init.ply`, `splats.ply`) stay ASCII, because the benchmark's
own checker reads them as text; they hold the whole cloud, background too.
Every number of a text file or header is ASCII decimal (`number`).

Every write goes through a temp-file + rename so partially written artifacts
never appear under their final name. Every reader raises FormatError (a
ValueError) on a malformed file.
"""

import io
import os
import re
import tempfile

import numpy as np

from .align import SparseDepth
from .errors import reads_format
from .gpis import TouchReading
from .sdfrender import CameraModel
from .splat import SplatCloud


def atomic_write_bytes(path, data: bytes):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


# A float may also be NaN or infinity, which each reader keeps or rejects.
_DECIMAL = {int: re.compile(r"[+-]?[0-9]+"), float: re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|nan|inf|infinity)", re.IGNORECASE)}


def number(text, kind=float):
    """`text` as an ASCII decimal `kind`, int or float (`kind` alone takes `6_4` and `١`)."""
    if not _DECIMAL[kind].fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal {kind.__name__}")
    return kind(text)


def _raster_data(fh, width, height, pixel_bytes):
    """The rest of a raster file: exactly the header's width x height pixels."""
    data = fh.read()
    if len(data) != width * height * pixel_bytes:
        raise ValueError(f"header declares a {width}x{height} image, {width * height * pixel_bytes}"
                         f" bytes; the data holds {len(data)} bytes")
    return data


# ---------------------------------------------------------------------------
# PFM (single-channel float), bottom-up rows, little-endian via scale -1.0
# ---------------------------------------------------------------------------

def write_pfm(path, image):
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 2:
        raise ValueError("PFM writer expects a single-channel image")
    header = f"Pf\n{image.shape[1]} {image.shape[0]}\n-1.0\n".encode("ascii")
    atomic_write_bytes(path, header + image[::-1].astype("<f4").tobytes())


@reads_format
def read_pfm(path):
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"Pf":
            raise ValueError("not a grayscale PFM file")
        width, height = (number(x, int) for x in fh.readline().decode("ascii", "replace").split())
        text = fh.readline().decode("ascii", "replace").strip()
        scale = number(text)
        # The scale's sign gives the byte order, so 0, -0 and NaN give none.
        if not (np.isfinite(scale) and scale != 0.0):
            raise ValueError(f"PFM scale {text!r} is not a finite nonzero number")
        dtype = "<f4" if scale < 0 else ">f4"
        data = _raster_data(fh, width, height, 4)
    return np.frombuffer(data, dtype=dtype).reshape(height, width)[::-1].astype(np.float64)


# ---------------------------------------------------------------------------
# PGM (P5) and PPM (P6), 8-bit binary
# ---------------------------------------------------------------------------

def _write_pnm(path, magic, pixels):
    header = f"{magic}\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())


def _pnm_tokens(fh, count):
    """The next `count` whitespace-separated PNM header tokens. A `#` starts
    a comment that runs to the end of its line. Reading stops after the
    one whitespace byte that ends the last token."""
    tokens, token = [], b""
    while len(tokens) < count:
        byte = fh.read(1)
        if byte == b"#":
            fh.readline()
            byte = b"\n"
        if not byte:
            raise ValueError("header ends before the pixel data")
        if not byte.isspace():
            token += byte
        elif token:
            tokens.append(token.decode("ascii", "replace"))
            token = b""
    return tokens


def _read_pnm(path, magic, kind, channels):
    """The (height, width, channels) uint8 pixels of a binary 8-bit PNM file."""
    with open(path, "rb") as fh:
        if _pnm_tokens(fh, 1) != [magic]:
            raise ValueError(f"not a binary {kind} file")
        width, height, maxval = (number(x, int) for x in _pnm_tokens(fh, 3))
        if maxval != 255:
            raise ValueError(f"maxval {maxval}: only 8-bit {kind} files (maxval 255) are read")
        data = _raster_data(fh, width, height, channels)
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, channels)


def write_pgm(path, image):
    """Write a 2-D uint8 image as binary P5."""
    _write_pnm(path, "P5", np.asarray(image))


@reads_format
def read_pgm(path):
    return _read_pnm(path, "P5", "PGM", 1)[:, :, 0].copy()


def write_ppm(path, image):
    """Write an HxWx3 float image in [0, 1] as binary P6."""
    image = np.asarray(image, dtype=np.float64)
    _write_pnm(path, "P6", np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8))


@reads_format
def read_ppm(path):
    return _read_pnm(path, "P6", "PPM", 3).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# PLY: touch files binary little-endian, splat clouds ASCII (the benchmark's
# checker reads those as text); the reader takes either encoding
# ---------------------------------------------------------------------------

_TOUCH_PROPS = ("x", "y", "z", "nx", "ny", "nz")
_SPLAT_PROPS = ("x", "y", "z", "r", "g", "b", "opacity_logit", "radius")
_PLY_FORMATS = ("ascii 1.0", "binary_little_endian 1.0")
# Open3D names the type `double`.
_PLY_FLOAT64 = ("float64", "double")


def _ply_header(fmt, props, count, info=()):
    lines = ["ply", f"format {fmt}", *info, f"element vertex {count}"]
    lines += [f"property float64 {name}" for name in props]
    return ("\n".join(lines) + "\nend_header\n").encode("ascii")


def _write_ply_rows(path, props, rows, info=()):
    """Write one float64 vertex property per column of `rows` as ASCII, under a header
    holding the lines `info`, each value %.17g so that _read_ply_rows gets the same bits."""
    text = "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in rows.tolist())
    atomic_write_bytes(path, _ply_header("ascii 1.0", props, len(rows), info) + text.encode())


def write_touch_ply(path, points, normals):
    """Write one touch as binary little-endian PLY: the header, then 48
    bytes (six <f8 values) per point."""
    rows = np.hstack([np.atleast_2d(points), np.atleast_2d(normals)])
    atomic_write_bytes(path, _ply_header("binary_little_endian 1.0", _TOUCH_PROPS, len(rows))
                       + rows.astype("<f8").tobytes())


def _read_ply_rows(path, expected_props):
    """The (N, k) float64 vertex rows of a PLY file whose vertex properties
    are `expected_props`, in ASCII or binary little-endian float64 (exactly
    the header's N × k values), and the tokens of each `obj_info` line."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise ValueError("not a PLY file")
        fmt, count, props, types, info = None, None, [], [], []
        for line in fh:
            token = line.decode("ascii").split()
            if token == ["end_header"]:
                break
            if token[:1] == ["format"]:
                fmt = " ".join(token[1:])
            elif token[:2] == ["element", "vertex"]:
                count = number(token[-1], int)
            elif token[:1] == ["property"]:
                if len(token) < 3:
                    raise ValueError(f"PLY property line {' '.join(token)!r} names no type and name")
                types.append(token[1])
                props.append(token[-1])
            elif token[:1] == ["obj_info"]:
                info.append(token[1:])
        else:
            raise ValueError("PLY header has no end_header line")
        body = fh.read()
    if fmt is None:
        raise ValueError("PLY header has no format line")
    if fmt not in _PLY_FORMATS:
        raise ValueError(f"PLY format {fmt!r} is not read: only {' and '.join(_PLY_FORMATS)}")
    if count is None:
        raise ValueError("PLY header missing vertex element")
    if props != list(expected_props):
        raise ValueError(f"PLY properties {props} do not match {list(expected_props)}")
    k = len(props)
    declared = f"PLY header declares {count} vertices of {k} properties"
    if fmt == "ascii 1.0":
        rows = (np.loadtxt(io.BytesIO(body), dtype=np.float64, ndmin=2) if body.strip()
                else np.empty((0, k)))
        if rows.size != count * k:
            raise ValueError(f"{declared}, {count * k} values; the data holds {rows.size}")
        if rows.shape[1] != k:
            raise ValueError(f"PLY rows have {rows.shape[1]} values for {k} properties")
        return rows, info
    bad = [t for t in types if t not in _PLY_FLOAT64]
    if bad:
        raise ValueError(f"PLY property type {bad[0]!r}: binary properties must be float64")
    if len(body) != count * k * 8:
        raise ValueError(f"{declared}, {count * k * 8} bytes of float64; "
                         f"the data holds {len(body)} bytes")
    return np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(count, k), info


@reads_format
def read_touch_ply(path) -> TouchReading:
    """Read one touch file: finite points with unit normals."""
    rows, _ = _read_ply_rows(path, _TOUCH_PROPS)
    return TouchReading(rows[:, :3], rows[:, 3:6])


def write_splat_ply(path, cloud: SplatCloud):
    """Write a splat cloud, its background on an `obj_info` header line."""
    _write_ply_rows(path, _SPLAT_PROPS, np.column_stack(
        [cloud.positions, cloud.colors, cloud.opacity_logits, cloud.radii]),
        ["obj_info background " + " ".join(f"{x:.17g}" for x in cloud.background)])


@reads_format
def read_splat_ply(path) -> SplatCloud:
    """Read a splat cloud of one splat or more, every value finite."""
    rows, info = _read_ply_rows(path, _SPLAT_PROPS)
    lines = [values[1:] for values in info if values[:1] == ["background"]]
    if [len(values) for values in lines] != [3]:
        raise ValueError("the header needs one 'obj_info background r g b' line")
    background = np.array([number(x) for x in lines[0]])
    if not np.isfinite(background).all():
        raise ValueError(f"background {' '.join(lines[0])} is not finite")
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        i, column = bad[0]
        raise ValueError(f"vertex {i}: {_SPLAT_PROPS[column]} {rows[i, column]} is not finite")
    if not len(rows):
        raise ValueError("the cloud holds no splat")
    return SplatCloud(rows[:, :3], rows[:, 3:6], rows[:, 6], rows[:, 7], background)


# ---------------------------------------------------------------------------
# Camera list: per view a name, image size, intrinsics and a 4x4 pose
# ---------------------------------------------------------------------------

def write_cameras(path, views):
    """Write an ordered list of (name, CameraModel) pairs."""
    lines = []
    for name, cam in views:
        lines.append(f"view {name}")
        lines.append(f"size {cam.width} {cam.height}")
        lines.append(f"intrinsics {cam.fx:.17g} {cam.fy:.17g} {cam.cx:.17g} {cam.cy:.17g}")
        for row in cam.pose:
            lines.append("pose " + " ".join(f"{x:.17g}" for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _numbers(lineno, tokens, kind=float):
    """The values of line `lineno` of a text table, its `tokens` parsed by `kind`."""
    try:
        return [number(x, kind) for x in tokens]
    except ValueError:
        raise ValueError(f"line {lineno}: values must be {'integers' if kind is int else 'numbers'}"
                         f", found {' '.join(tokens)}") from None


_CAMERA_TOKENS = {"view": 2, "size": 3, "intrinsics": 5, "pose": 5}
# A view name becomes part of file names and of the patterns a stage matches.
_VIEW_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


@reads_format
def read_cameras(path):
    views, pose_rows = [], []
    name = size = intr = view_line = None

    def flush():
        if name is None:
            return
        if size is None or intr is None or len(pose_rows) != 4:
            raise ValueError(f"line {view_line}: camera block {name!r} is incomplete")
        try:
            views.append((name, CameraModel(*intr, *size, np.array(pose_rows))))
        except ValueError as exc:
            raise ValueError(f"line {view_line}: camera block {name!r}: {exc}") from exc

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            token = raw.split()
            if not token:
                continue
            if token[0] in _CAMERA_TOKENS and len(token) != _CAMERA_TOKENS[token[0]]:
                raise ValueError(f"line {lineno}: {token[0]!r} line needs "
                                 f"{_CAMERA_TOKENS[token[0]] - 1} values, found {len(token) - 1}")
            if token[0] in ("size", "intrinsics", "pose") and name is None:
                raise ValueError(f"line {lineno}: {token[0]!r} line before the first 'view' line")
            if {"size": size, "intrinsics": intr}.get(token[0]) is not None:
                raise ValueError(f"line {lineno}: second {token[0]!r} line in camera block "
                                 f"{name!r}")
            if token[0] == "pose" and len(pose_rows) == 4:
                raise ValueError(f"line {lineno}: fifth 'pose' line in camera block {name!r}")
            if token[0] == "view":
                flush()
                name, size, intr, pose_rows, view_line = token[1], None, None, [], lineno
                if not _VIEW_NAME.fullmatch(name):
                    raise ValueError(f"line {lineno}: view name {name!r} is not letters, "
                                     "digits, '_', '-' and '.' that do not start with '.'")
                if any(name == seen for seen, _ in views):
                    raise ValueError(f"line {lineno}: view name {name!r} names an earlier view")
            elif token[0] == "size":
                size = tuple(_numbers(lineno, token[1:], int))
            elif token[0] == "intrinsics":
                intr = tuple(_numbers(lineno, token[1:]))
            elif token[0] == "pose":
                pose_rows.append(_numbers(lineno, token[1:]))
            else:
                raise ValueError(f"line {lineno}: unknown camera-file directive {token[0]!r}")
    flush()
    if not views:
        raise ValueError("no 'view' block: a camera list needs at least one view")
    return views


# ---------------------------------------------------------------------------
# Sparse depth tables ("u v depth" rows) and key=value manifests
# ---------------------------------------------------------------------------

def write_sparse_depth(path, sparse: SparseDepth):
    lines = [
        f"{int(u)} {int(v)} {d:.17g}" for (u, v), d in zip(sparse.pixels, sparse.depths)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


@reads_format
def read_sparse_depth(path) -> SparseDepth:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, values) for no, line in enumerate(fh, 1)
                 if (values := line.split("#", 1)[0].split())]
    if not lines:
        raise ValueError("no depth rows")
    for no, values in lines:
        if len(values) != 3:
            raise ValueError(f"line {no}: rows need 3 columns (u v depth), found {len(values)}")
    rows = np.array([_numbers(no, values) for no, values in lines])
    # A float holds every integer exactly only below 2**53.
    pixels = rows[:, :2]
    whole = ((np.abs(pixels) < 2.0 ** 53) & (pixels == np.round(pixels))).all(axis=1)
    if not whole.all():
        no, (u, v, _) = lines[int(np.argmin(whole))]
        raise ValueError(f"line {no}: pixel coordinates must be integers, found {u} {v}")
    return SparseDepth(pixels.astype(np.int64), rows[:, 2])


def write_keyvalues(path, mapping):
    lines = [f"{key} = {value}" for key, value in mapping.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


@reads_format
def read_keyvalues(path):
    out, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise ValueError(f"line {lineno}: duplicate key '{key}' "
                                 f"(first set on line {lines[key]})")
            lines[key] = lineno
            out[key] = value
    return out
