import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from touchfuse import fileio
from touchfuse.align import SparseDepth
from touchfuse.errors import FormatError
from touchfuse.geometry import look_at, make_transform
from touchfuse.sdfrender import CameraModel
from touchfuse.splat import SplatCloud

from oracles import rotation_about_axis


class TestPFM:
    def test_round_trip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.uniform(0.0, 10.0, size=(12, 17)).astype(np.float32).astype(np.float64)
        path = tmp_path / "depth.pfm"
        fileio.write_pfm(path, image)
        back = fileio.read_pfm(path)
        np.testing.assert_array_equal(back, image)

    def test_header_is_bottom_up_little_endian(self, tmp_path):
        image = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "tiny.pfm"
        fileio.write_pfm(path, image)
        blob = path.read_bytes()
        assert blob.startswith(b"Pf\n3 2\n-1.0\n")
        # first stored row is the bottom image row
        first = np.frombuffer(blob.split(b"-1.0\n", 1)[1], dtype="<f4", count=3)
        np.testing.assert_array_equal(first, image[1].astype(np.float32))

    def test_rejects_color_input(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_pfm(tmp_path / "x.pfm", np.zeros((4, 4, 3)))


class TestPGMAndPPM:
    def test_pgm_round_trip(self, tmp_path):
        data = np.array([[0, 85], [170, 255]], dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        fileio.write_pgm(path, data)
        np.testing.assert_array_equal(fileio.read_pgm(path), data)
        assert path.read_bytes().startswith(b"P5\n2 2\n255\n")

    def test_16_bit_pgm_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + np.array([1, 2, 3, 4], dtype=">u2").tobytes())
        with pytest.raises(FormatError, match="maxval 65535"):
            fileio.read_pgm(path)

    def test_pgm_header_comments_skipped(self, tmp_path):
        path = tmp_path / "commented.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 # width\n2\n#\n255\n" + bytes([0, 85, 170, 255]))
        np.testing.assert_array_equal(fileio.read_pgm(path), [[0, 85], [170, 255]])

    def test_ppm_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(1)
        rgb = rng.uniform(size=(5, 7, 3))
        path = tmp_path / "img.ppm"
        fileio.write_ppm(path, rgb)
        back = fileio.read_ppm(path)
        assert back.shape == (5, 7, 3)
        assert np.max(np.abs(back - rgb)) <= 0.5 / 255.0 + 1e-12

    def test_exact_eighths_survive(self, tmp_path):
        rgb = np.full((2, 2, 3), 0.2)
        path = tmp_path / "flat.ppm"
        fileio.write_ppm(path, rgb)
        np.testing.assert_array_equal(fileio.read_ppm(path), rgb)


class TestSplatPly:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        cloud = SplatCloud(
            rng.normal(size=(9, 3)),
            rng.uniform(size=(9, 3)),
            rng.uniform(-2, 2, size=9),
            rng.uniform(0.01, 0.2, size=9),
            np.array([0.1, 0.2, 0.3]),
        )
        path = tmp_path / "cloud.ply"
        fileio.write_splat_ply(path, cloud)
        back = fileio.read_splat_ply(path)
        for name in ("positions", "colors", "opacity_logits", "radii", "background"):
            np.testing.assert_array_equal(getattr(back, name), getattr(cloud, name))

    def test_header_properties(self, tmp_path):
        cloud = SplatCloud([[0, 0, 1]], [[1, 0, 0]], [0.0], [0.1], [0.25, 0.5, 1.0])
        path = tmp_path / "one.ply"
        fileio.write_splat_ply(path, cloud)
        header = path.read_text().partition("end_header")[0].splitlines()
        assert header[2] == "obj_info background 0.25 0.5 1"
        assert [line for line in header if line.startswith("property")] == [
            f"property float64 {prop}"
            for prop in ("x", "y", "z", "r", "g", "b", "opacity_logit", "radius")]

    def test_empty_cloud_rejected(self, tmp_path):
        empty = SplatCloud(np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0))
        path = tmp_path / "empty.ply"
        fileio.write_splat_ply(path, empty)
        with pytest.raises(FormatError, match="the cloud holds no splat"):
            fileio.read_splat_ply(path)

    def test_rows_beyond_the_declared_count_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        fileio.write_splat_ply(path, SplatCloud([[0, 0, 1]], [[1, 0, 0]], [0.0], [0.1]))
        path.write_text(path.read_text() + "0 0 1 1 0 0 0.5 0.1\n")
        with pytest.raises(FormatError, match="declares 1 vertices of 8 properties, 8 values; "
                                              "the data holds 16"):
            fileio.read_splat_ply(path)

    def test_wrong_properties_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float64 x\nproperty float64 y\nproperty float64 z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(ValueError):
            fileio.read_splat_ply(path)


class TestTouchPly:
    def test_binary_file_size(self, tmp_path):
        """A 182-byte header (for a two-digit point count), then 48 bytes per point."""
        for n in (10, 64, 99):
            path = tmp_path / f"touch{n}.ply"
            fileio.write_touch_ply(path, np.zeros((n, 3)), np.tile([0.0, 0.0, 1.0], (n, 1)))
            assert path.stat().st_size == 182 + 48 * n
            assert path.read_bytes().startswith(b"ply\nformat binary_little_endian 1.0\n")

    def test_ascii_and_binary_read_to_the_same_bits(self, tmp_path):
        """A touch file of a dataset written before binary touch files (the
        ASCII writer's %.17g rows) reads as its binary twin does."""
        big = 1.7976931348623157e308
        rows = np.array([[-0.0, 5e-324, big, 5e-324, 0.0, 1.0],
                         [-big, big, -0.0, -0.0, -1.0, 0.0],
                         [0.1, -5e-324, 1.0 / 3.0, 0.6, 0.8, -0.0]])
        fileio._write_ply_rows(tmp_path / "ascii.ply", fileio._TOUCH_PROPS, rows)
        fileio.write_touch_ply(tmp_path / "binary.ply", rows[:, :3], rows[:, 3:])
        assert b"format ascii 1.0" in (tmp_path / "ascii.ply").read_bytes()
        for name in ("ascii.ply", "binary.ply"):
            touch = fileio.read_touch_ply(tmp_path / name)
            back = np.hstack([touch.points, touch.normals])
            np.testing.assert_array_equal(back.view(np.uint64), rows.view(np.uint64))

    @pytest.mark.parametrize("header, body, message", [
        ("format ascii 1.0\nelement vertex 2", "0 0 0 0 0 1\n" * 3,
         "declares 2 vertices of 6 properties, 12 values; the data holds 18"),
        ("format ascii 1.0\nelement vertex 2", "0 0 0 0 0 1\n",
         "declares 2 vertices of 6 properties, 12 values; the data holds 6"),
        ("format binary_little_endian 1.0\nelement vertex 1", "0 0 0 0 0 1\n",
         "declares 1 vertices of 6 properties, 48 bytes of float64; the data holds 12 bytes"),
        ("format binary_big_endian 1.0\nelement vertex 0", "",
         "PLY format 'binary_big_endian 1.0' is not read"),
        ("format ascii 2.0\nelement vertex 0", "", "PLY format 'ascii 2.0' is not read"),
        ("element vertex 0", "", "PLY header has no format line"),
    ], ids=["ascii-extra-row", "ascii-missing-row", "binary-header-text-body", "big-endian",
            "other-version", "no-format"])
    def test_malformed_file_rejected(self, tmp_path, header, body, message):
        path = tmp_path / "touch.ply"
        props = "".join(f"property float64 {name}\n" for name in fileio._TOUCH_PROPS)
        path.write_text(f"ply\n{header}\n{props}end_header\n{body}")
        with pytest.raises(FormatError, match=re.escape(message)):
            fileio.read_touch_ply(path)

    def test_double_is_float64(self, tmp_path):
        path = tmp_path / "touch.ply"
        fileio.write_touch_ply(path, [[1.0, 2.0, 3.0]], [[0.0, 1.0, 0.0]])
        path.write_bytes(path.read_bytes().replace(b"float64", b"double"))
        np.testing.assert_array_equal(fileio.read_touch_ply(path).points, [[1.0, 2.0, 3.0]])


class TestNumberGrammar:
    """Every number of a text file or header is ASCII decimal: `int` and
    `float` alone also take `1_0` and non-ASCII digits."""

    @pytest.mark.parametrize("text", ["7", "-7", "+0.5", ".5", "5.", "1e-3", "2.5E+10", "nan",
                                      "-inf", "Infinity"])
    def test_decimal_reads_as_float_reads_it(self, text):
        assert str(fileio.number(text)) == str(float(text))

    @pytest.mark.parametrize("text", ["1_0", "\u0661", "\uff11", "0x10", "1e", "e1", ".", "",
                                      " 1", "infinit"])
    def test_other_forms_rejected(self, text):
        with pytest.raises(ValueError, match="is not a decimal float"):
            fileio.number(text)

    @pytest.mark.parametrize("read, blob", [
        (fileio.read_pfm, b"Pf\n1_0 1\n-1.0\n" + bytes(40)),
        (fileio.read_pgm, b"P5\n1_0 1\n255\n" + bytes(10)),
        (fileio.read_ppm, b"P6\n1 1\n1_0\n" + bytes(3)),
        (fileio.read_touch_ply, b"ply\nformat ascii 1.0\nelement vertex 1_0\n" + b"".join(
            b"property float64 %s\n" % name.encode() for name in fileio._TOUCH_PROPS)
         + b"end_header\n" + b"0 0 0 0 0 1\n" * 10),
    ], ids=["pfm-size", "pgm-size", "ppm-maxval", "ply-vertex-count"])
    def test_header_integer_that_is_not_decimal(self, tmp_path, read, blob):
        path = tmp_path / "file"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="'1_0' is not a decimal int"):
            read(path)


SQUARE_CAMERA = CameraModel(24.0, 24.0, 15.5, 15.5, 32, 32, np.eye(4))


class TestCameraFile:
    def test_round_trip(self, tmp_path):
        cams = [
            ("view000", CameraModel(48.0, 47.5, 31.5, 30.5, 64, 60,
                                    look_at([0, 0, -3], [0, 0, 0]))),
            ("view001", CameraModel(24.0, 24.0, 15.5, 15.5, 32, 32,
                                    look_at([3, 0.5, 0.2], [0, 0, 0]))),
        ]
        path = tmp_path / "cameras.txt"
        fileio.write_cameras(path, cams)
        back = fileio.read_cameras(path)
        assert [name for name, _ in back] == ["view000", "view001"]
        for (_, a), (_, b) in zip(cams, back):
            assert (a.fx, a.fy, a.cx, a.cy, a.width, a.height) == \
                (b.fx, b.fy, b.cx, b.cy, b.width, b.height)
            np.testing.assert_array_equal(a.pose, b.pose)

    def test_incomplete_block_rejected(self, tmp_path):
        path = tmp_path / "cameras.txt"
        path.write_text("view broken\nsize 4 4\n")
        with pytest.raises(ValueError, match="incomplete"):
            fileio.read_cameras(path)

    def test_no_view_rejected(self, tmp_path):
        path = tmp_path / "cameras.txt"
        for text in ("", "\n\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="no 'view' block"):
                fileio.read_cameras(path)

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "..", ".hidden", "view*", "view?",
                                      "view[0]", "v\u00efew"])
    def test_name_that_is_not_a_plain_file_name_rejected(self, tmp_path, name):
        path = tmp_path / "cameras.txt"
        fileio.write_cameras(path, [(name, SQUARE_CAMERA)])
        with pytest.raises(FormatError, match=re.escape(f"line 1: view name {name!r}")):
            fileio.read_cameras(path)

    @pytest.mark.parametrize("name", ["view000", "view_0-1.a", "V0", "0", "-x"])
    def test_plain_file_name_accepted(self, tmp_path, name):
        path = tmp_path / "cameras.txt"
        fileio.write_cameras(path, [(name, SQUARE_CAMERA)])
        assert [view for view, _ in fileio.read_cameras(path)] == [name]

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "cameras.txt"
        fileio.write_cameras(path, [(name, SQUARE_CAMERA) for name in ("v0", "v1", "v0")])
        with pytest.raises(FormatError, match="line 15: view name 'v0' names an earlier view"):
            fileio.read_cameras(path)


class TestSparseAndKeyValues:
    def test_sparse_round_trip(self, tmp_path):
        sparse = SparseDepth([[3, 4], [10, 2]], [1.25, 3.5])
        path = tmp_path / "sparse.txt"
        fileio.write_sparse_depth(path, sparse)
        back = fileio.read_sparse_depth(path)
        np.testing.assert_array_equal(back.pixels, sparse.pixels)
        np.testing.assert_array_equal(back.depths, sparse.depths)

    @pytest.mark.parametrize("row", ["3.7 2 1.5", "3 nan 1.5", "inf 2 1.5",
                                     "9007199254740993 2 1.5"],
                             ids=["fractional", "nan", "inf", "past-2**53"])
    def test_pixel_that_is_not_an_integer_rejected(self, tmp_path, row):
        path = tmp_path / "sparse.txt"
        path.write_text(f"# u v depth\n4 5 1.25\n\n{row}\n")
        with pytest.raises(FormatError) as info:
            fileio.read_sparse_depth(path)
        u, v = row.split()[:2]
        assert str(info.value) == (f"{path}: line 4: pixel coordinates must be integers, "
                                   f"found {u} {v}")

    def test_pixel_written_as_a_whole_float_accepted(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("3.0 2e0 1.5\n")
        np.testing.assert_array_equal(fileio.read_sparse_depth(path).pixels, [[3, 2]])

    def test_keyvalues_round_trip(self, tmp_path):
        path = tmp_path / "scene.cfg"
        fileio.write_keyvalues(path, {"shape": "sphere", "size": "1 2 3", "seed": "7"})
        assert fileio.read_keyvalues(path) == {"shape": "sphere", "size": "1 2 3", "seed": "7"}

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("shape = torus\nsize = 1 0.35\n# a comment\n\nshape = sphere\nsize = 1\n")
        with pytest.raises(FormatError) as info:
            fileio.read_keyvalues(path)
        assert str(info.value) == f"{path}: line 5: duplicate key 'shape' (first set on line 1)"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("shape sphere\n")
        with pytest.raises(ValueError):
            fileio.read_keyvalues(path)


def round_trip(write, read, *values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        write(path, *values)
        return read(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
IMAGE_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=8)


def rows(n, elements=FINITE):
    return hnp.arrays(np.float64, (n, 3), elements=elements)


def unit_rows(n):
    return rows(n, st.floats(0.1, 1.0)).map(
        lambda a: a / np.linalg.norm(a, axis=1, keepdims=True))


@st.composite
def camera_lists(draw):
    views = []
    for i in range(draw(st.integers(1, 3))):
        width, height = draw(st.integers(1, 4096)), draw(st.integers(1, 4096))
        axis = draw(rows(1, st.floats(0.1, 1.0)))[0]
        pose = make_transform(rotation_about_axis(axis, draw(st.floats(-np.pi, np.pi))),
                              draw(rows(1, st.floats(-1e6, 1e6)))[0])
        views.append((f"view{i}", CameraModel(
            draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6)),
            draw(st.floats(0.0, width, exclude_max=True)),
            draw(st.floats(0.0, height, exclude_max=True)), width, height, pose)))
    return views


class TestRoundTripProperties:
    """Each reader returns exactly what its writer was given, over the
    values the format represents: float32 for PFM, 8-bit levels for PGM and
    PPM (the 1/255 grid), any finite float64 for PLY and camera files
    (touch normals: unit rows)."""

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float32, IMAGE_SHAPES, elements=st.floats(width=32, allow_nan=False)))
    def test_pfm(self, image):
        np.testing.assert_array_equal(round_trip(fileio.write_pfm, fileio.read_pfm, image), image)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.uint8, IMAGE_SHAPES))
    def test_pgm(self, image):
        back = round_trip(fileio.write_pgm, fileio.read_pgm, image)
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, image)

    @settings(max_examples=40, deadline=None)
    @given(IMAGE_SHAPES.flatmap(lambda shape: hnp.arrays(np.uint8, shape + (3,))))
    def test_ppm_on_the_255_grid(self, levels):
        image = levels / 255.0
        np.testing.assert_array_equal(round_trip(fileio.write_ppm, fileio.read_ppm, image), image)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(rows(n), unit_rows(n))))
    def test_touch_ply(self, touch):
        points, normals = touch
        back = round_trip(fileio.write_touch_ply, fileio.read_touch_ply, points, normals)
        np.testing.assert_array_equal(back.points, points)
        np.testing.assert_array_equal(back.normals, normals)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        rows(n), rows(n), hnp.arrays(np.float64, n, elements=st.floats(-40.0, 40.0)),
        hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e300, exclude_min=True)))),
        rows(1, st.floats(0.0, 1.0)))
    def test_splat_ply(self, columns, background):
        cloud = SplatCloud(*columns, background[0])
        back = round_trip(fileio.write_splat_ply, fileio.read_splat_ply, cloud)
        for name in ("positions", "colors", "opacity_logits", "radii", "background"):
            np.testing.assert_array_equal(getattr(back, name), getattr(cloud, name))

    @settings(max_examples=40, deadline=None)
    @given(camera_lists())
    def test_cameras(self, views):
        back = round_trip(fileio.write_cameras, fileio.read_cameras, views)
        assert [name for name, _ in back] == [name for name, _ in views]
        for (_, a), (_, b) in zip(views, back):
            assert (a.fx, a.fy, a.cx, a.cy, a.width, a.height) == \
                (b.fx, b.fy, b.cx, b.cy, b.width, b.height)
            np.testing.assert_array_equal(a.pose, b.pose)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "blob.bin"
    fileio.atomic_write_bytes(target, b"hello")
    assert target.read_bytes() == b"hello"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
