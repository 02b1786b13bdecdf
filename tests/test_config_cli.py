import contextlib
import fcntl
import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from touchfuse import fileio, fuse, gpis, pipeline
from touchfuse.cli import (EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_FORMAT, EXIT_LOCKED,
                           EXIT_NUMERICAL, EXIT_OK, FAILURES, build_parser, main)
from touchfuse.config import SCHEMA, parse_config_text, validate_config
from touchfuse.errors import ConfigError, DependencyError, FormatError
from touchfuse.extensions import scipy_extension
from touchfuse.pipeline import STAGE_ORDER, STAGES, StageIO, run_pipeline
from touchfuse.sdfrender import MISS_VAR

MINIMAL = """
[scene]
dataset = data
out = out
"""


def write_config(tmp_path, text=MINIMAL, make_dataset=True):
    path = tmp_path / "scene.cfg"
    path.write_text(text)
    if make_dataset:
        os.makedirs(tmp_path / "data", exist_ok=True)
    return path


class TestConfigParsing:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = validate_config(write_config(tmp_path))
        assert cfg.get("sim", "shape") == "sphere"
        assert cfg.get("march", "max_steps") == 200
        assert cfg.get("loss", "depth_weight") == 1.0
        assert cfg.get("conditioning", "voxel") == 0.1
        assert cfg.seed == 0

    def test_bundled_config_sets_only_what_differs_from_the_schema(self):
        path = pathlib.Path(__file__).parents[1] / "configs" / "sphere_scene.cfg"
        cfg = validate_config(path, require_dataset=False)
        restated = [f"line {line}: [{section}] {key}" for (section, key), line in cfg.lines.items()
                    if cfg.get(section, key) == SCHEMA[section][key][1]]
        assert not restated, f"the bundled config restates schema defaults: {restated}"

    def test_unknown_key_line_numbered(self):
        with pytest.raises(ConfigError, match="line 4.*frobnicate"):
            parse_config_text("\n[scene]\ndataset = d\nfrobnicate = 1\nout = o\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 2.*\[sorcery\]"):
            parse_config_text("\n[sorcery]\nx = 1\n")

    def test_duplicate_key_names_key(self):
        text = "[scene]\ndataset = a\nout = b\n[march]\nmax_steps = 5\nmax_steps = 9\n"
        with pytest.raises(ConfigError, match="duplicate key 'max_steps'"):
            parse_config_text(text)

    def test_out_of_range_fraction(self):
        text = "[scene]\ndataset = a\nout = b\n[loss]\ndecay = 1.5\n"
        with pytest.raises(ConfigError, match="decay.*out of range"):
            parse_config_text(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'out'"):
            parse_config_text("[scene]\ndataset = a\n")

    def test_bad_number(self):
        text = "[scene]\ndataset = a\nout = b\nseed = seven\n"
        with pytest.raises(ConfigError, match="line 4"):
            parse_config_text(text)

    def test_removed_keys_are_unknown(self):
        for section, key in (
            ("march", "t_max"), ("loss", "base_weight"),
            ("sim", "normal_noise"), ("sim", "object_color"), ("sim", "background_color"),
            ("kernel", "length_scale"), ("conditioning", "surface_offset"),
            ("conditioning", "interior_offset"), ("conditioning", "slices"),
            ("march", "min_step"), ("march", "hit_tol"), ("march", "margin"),
            ("align", "uncertainty_slope"), ("align", "uncertainty_floor"),
            ("train", "splat_radius"), ("train", "opacity"), ("eval", "icp_iters"),
            ("kernel", "prior_mean"), ("sim", "dome_radius"), ("sim", "orbit_radius"),
            ("sim", "orbit_height"), ("sim", "touch_noise"), ("sim", "sparse_noise"),
            ("sim", "vision_bias"), ("march", "step_fraction"), ("align", "max_gap"),
        ):
            text = f"[scene]\ndataset = a\nout = b\n[{section}]\n{key} = 1.0\n"
            message = (r"line 4: unknown section \[align\]" if section == "align"
                       else f"line 5: unknown key '{key}'")
            with pytest.raises(ConfigError, match=message):
                parse_config_text(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([f"[{name}]" for name in SCHEMA] + ["[bogus]", "[]", "", "# note"]),
        st.builds("{} = {}".format,
                  st.sampled_from([key for keys in SCHEMA.values() for key in keys] + ["x"]),
                  st.one_of(st.text(max_size=12), st.floats().map(repr),
                            st.integers().map(str),
                            st.sampled_from(["auto", "torus", "box", "1 2", "0.3, -0.3",
                                             "1 2 3", "0", "-1", "nan", "inf", "1e999"]))),
        st.text(max_size=20),
    ), max_size=30))
    def test_parser_raises_only_config_errors(self, lines):
        try:
            parse_config_text("\n".join(lines))
        except ConfigError:
            pass

    def test_override_passes_the_same_check(self):
        cfg = parse_config_text("[scene]\ndataset = a\nout = b\n[loss]\ndecay = 0.5\n")
        cfg.override("loss", "decay", 0.25)
        assert cfg.get("loss", "decay") == 0.25
        with pytest.raises(ConfigError, match=r"^key 'decay': value '1.5' out of range$"):
            cfg.override("loss", "decay", 1.5)
        with pytest.raises(ConfigError, match="^key 'patch_radius': value 'nan' is not finite$"):
            cfg.override("sim", "patch_radius", float("nan"))

    @pytest.mark.parametrize("sim, key, value, message", [
        ("", "shape", "torus", "^key 'size': torus takes"),
        ("shape = torus\nsize = 1.0 0.3\n", "size", "1.0", "^line 5: key 'size': torus takes"),
        ("size = 0.5\n", "size", "0.5 0.2", "^key 'size': sphere takes a single radius"),
    ], ids=["shape", "torus-size", "sphere-size"])
    def test_override_checks_the_size_against_the_shape(self, sim, key, value, message):
        cfg = parse_config_text("[scene]\ndataset = a\nout = b\n[sim]\n" + sim)
        before = (cfg.get("sim", key), dict(cfg.lines))
        with pytest.raises(ConfigError, match=message):
            cfg.override("sim", key, value)
        assert (cfg.get("sim", key), cfg.lines) == before

    def test_missing_dataset_directory(self, tmp_path):
        path = write_config(tmp_path, make_dataset=False)
        with pytest.raises(ConfigError, match="does not exist"):
            validate_config(path)

    def test_missing_dataset_ok_when_simulating(self, tmp_path):
        path = write_config(tmp_path, make_dataset=False)
        cfg = validate_config(path, require_dataset=False)
        assert cfg.dataset.endswith("data")

    def test_relative_paths_resolve_against_config(self, tmp_path):
        cfg = validate_config(write_config(tmp_path))
        assert cfg.dataset == str(tmp_path / "data")
        assert cfg.out == str(tmp_path / "out")


class TestPipelineOrchestration:
    def test_dependency_error_names_missing_stage(self, tmp_path):
        cfg = validate_config(write_config(tmp_path))
        with pytest.raises(DependencyError, match="simulate"):
            run_pipeline(cfg, ["fuse"])

    def test_unknown_stage_rejected(self, tmp_path):
        cfg = validate_config(write_config(tmp_path))
        with pytest.raises(ValueError, match="unknown stages"):
            run_pipeline(cfg, ["transmogrify"])

    def test_lock_conflict(self, tmp_path):
        cfg = validate_config(write_config(tmp_path))
        os.makedirs(cfg.out, exist_ok=True)
        fd = os.open(cfg.out, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(RuntimeError, match="locked"):
                run_pipeline(cfg, ["simulate"])
        finally:
            os.close(fd)

    def test_stage_writes_only_what_its_table_entry_makes(self, tmp_path):
        cfg = validate_config(write_config(tmp_path))
        io = StageIO(cfg, STAGES[STAGE_ORDER.index("fuse")], {}, {})
        with pytest.raises(ValueError, match="does not make out:init.ply"):
            io.write(fileio.write_keyvalues, "out:init.ply", {})

    def test_a_star_in_a_stage_pattern_stays_within_one_name_part(self, tmp_path):
        cfg = validate_config(write_config(tmp_path))
        io = StageIO(cfg, STAGES[STAGE_ORDER.index("gpis-render")], {}, {})
        name = "out:../escaped_gpis_depth.pfm"
        with pytest.raises(ValueError, match=re.escape(f"does not make {name}")):
            io.write(fileio.write_pfm, name, np.zeros((2, 2)))
        assert not (tmp_path / "escaped_gpis_depth.pfm").exists()
        assert io.stage.produces("out:view000_gpis_depth.pfm")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["_", ".", "-", "a", "0", "gpis", "vision", "fused", "align",
                                     "provenance", "eval_report", "depth", "var", "pfm", "txt",
                                     "pgm", "csv"]), min_size=1, max_size=8)
           .map("".join).filter(fileio._VIEW_NAME.fullmatch))
    @example("v_fused_0")
    @example("eval_report.x")
    def test_each_file_of_a_view_has_one_maker(self, view):
        """Each pattern ends in its kind's whole suffix and no suffix ends
        another, so whatever a view's name, each of its `out:` files has
        one maker in the stage table."""
        makers = {f"out:{view}_align.txt": "align", f"out:{view}_provenance.pgm": "fuse"}
        for kind, maker in (("gpis", "gpis-render"), ("vision", "align"), ("fused", "fuse")):
            for image in ("depth", "var"):
                makers[f"out:{view}_{kind}_{image}.pfm"] = maker
        for name, maker in makers.items():
            assert [stage.name for stage in STAGES if stage.produces(name)] == [maker], name

    def test_view_names_that_end_like_a_stage_file_run(self, built, tmp_path, capsys):
        """`v_fused_0` ends like a fused image and `eval_report.x` starts
        like the eval report: both views run end to end, a rerun skips
        every stage, and out/ holds each view's files and no other's."""
        renames = {"view000": "eval_report.x", "view001": "v_fused_0"}
        cameras = tmp_path / "data/cameras.txt"
        text = cameras.read_text()
        for old, new in renames.items():
            text = text.replace(f"view {old}\n", f"view {new}\n")
            for directory, ext in (("gt_depth", "pfm"), ("rgb", "ppm"), ("mono_depth", "pfm"),
                                   ("sparse", "txt")):
                os.rename(tmp_path / "data" / directory / f"{old}.{ext}",
                          tmp_path / "data" / directory / f"{new}.{ext}")
        cameras.write_text(text)
        # simulate would write the dataset it records back over the renamed one
        run = ["pipeline", "--config", str(tmp_path / "scene.cfg"),
               "--stages", ",".join(STAGE_ORDER[1:])]
        assert main(run) == EXIT_OK
        capsys.readouterr()
        assert main(run) == EXIT_OK
        assert capsys.readouterr().out == "".join(f"{stage}: skipped\n"
                                                  for stage in STAGE_ORDER[1:])
        view_files = [f"{view}_{suffix}" for view in renames.values() for suffix in [
            "align.txt", "provenance.pgm", *(f"{kind}_{image}.pfm" for kind in (
                "gpis", "vision", "fused") for image in ("depth", "var"))]]
        assert sorted(os.listdir(tmp_path / "out")) == sorted(view_files + [
            "eval_report.csv", "gpis.model", "init.ply", "manifest.json", "splats.ply",
            "train_log.csv"])

    def test_leftover_lock_file_does_not_block(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, ".lock"), "w") as fh:
            fh.write("1")
        assert run_pipeline(cfg, ["simulate"]) == {"simulate": "ran"}

    def test_gpis_render_takes_the_model_gpis_fit_left(self, tmp_path, monkeypatch):
        """With one run_pipeline call per stage, gpis-render uses the model
        gpis-fit fitted in this process; a refit of the file renders the
        same bytes."""
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        run_pipeline(cfg, ["simulate"])
        run_pipeline(cfg, ["gpis-fit"])
        refits = []
        condition = gpis.fit
        monkeypatch.setattr(gpis, "fit", lambda *a: refits.append(a) or condition(*a))
        run_pipeline(cfg, ["gpis-render"])
        assert refits == []

        def rendered():
            names = sorted(f for f in os.listdir(cfg.out) if "_gpis_" in f)
            return {f: (tmp_path / "out" / f).read_bytes() for f in names}

        handed_off = rendered()
        for name in handed_off:
            os.unlink(os.path.join(cfg.out, name))
        # The first gpis-render emptied the slot, so this one refits.
        assert run_pipeline(cfg, ["gpis-render"]) == {"gpis-render": "ran"}
        assert len(refits) == 1
        assert rendered() == handed_off

    def test_fewer_touches_removes_stale_touch_files(self, tmp_path):
        """The touch file of a smaller scene holds its touches alone."""
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        run_pipeline(cfg, ["simulate"])
        first = fileio.read_touch_ply(os.path.join(cfg.dataset, "touches.ply"))
        cfg.override("sim", "touches", 6)
        run_pipeline(cfg, ["simulate"])
        touches = fileio.read_touch_ply(os.path.join(cfg.dataset, "touches.ply"))
        assert len(touches.points) == 6 * cfg.get("sim", "points_per_touch")
        assert touches.points.tobytes() == first.points[:len(touches.points)].tobytes()


@pytest.mark.parametrize("shape", [(1,), (6,), (7,), (6, 3), (7, 3)],
                         ids=["one", "even", "odd", "even-rows", "odd-rows"])
def test_median_is_numpys_to_the_bit(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    for values in (rng.normal(size=shape), rng.integers(0, 3, size=shape) / 7.0):
        assert pipeline._median(values).tobytes() == np.median(values, axis=0).tobytes()


class TestBackgroundColor:
    """The splat background: the median color of the pixels GPIS missed."""

    def test_median_over_the_missed_pixels_of_every_view(self):
        rgbs = [np.full((2, 2, 3), 0.9), np.full((1, 3, 3), 0.9)]
        depths = [np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[0.0, 1.0, 3.0]])]
        rgbs[0][0, 1] = [0.1, 0.5, 0.2]
        rgbs[0][1, 0] = [0.3, 0.4, 0.2]
        rgbs[1][0, 0] = [0.2, 0.6, 0.7]
        np.testing.assert_array_equal(pipeline._background_color(rgbs, depths), [0.2, 0.5, 0.2])

    def test_black_when_gpis_hit_every_pixel(self):
        rgbs = [np.full((2, 2, 3), 0.9), np.full((1, 3, 3), 0.4)]
        depths = [np.full((2, 2), 1.0), np.full((1, 3), 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(pipeline._background_color(rgbs, depths), np.zeros(3))


SMALL_SCENE = """
[scene]
dataset = data
out = out
seed = 3

[sim]
views = 2
width = 24
height = 24
focal = 18.0
touches = 12
points_per_touch = 16
patch_radius = 0.3

[conditioning]
voxel = 0.25

[train]
iters = 3
max_points = 200
"""


class TestCLI:
    def test_help_lists_every_exit_code_with_its_label(self):
        text = build_parser().format_help()
        for code, label in FAILURES.values():
            assert re.search(rf"(?m)^{code} {label}: ", text), (code, label)

    def test_exit_code_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[loss]\ndecay = 2.0\n")
        assert main(["pipeline", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_exit_code_missing_config(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/x.cfg"]) == EXIT_CONFIG

    def test_exit_code_dependency(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["train", "--config", str(path)]) == EXIT_DEPENDENCY
        assert "dependency error" in capsys.readouterr().err

    def test_unknown_stage_flag(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["pipeline", "--config", str(path), "--stages", "bogus"]) == EXIT_CONFIG

    def test_unknown_stage_is_named_before_a_missing_dataset(self, tmp_path, capsys):
        path = write_config(tmp_path, make_dataset=False)
        assert main(["pipeline", "--config", str(path), "--stages", "fuse,bogus"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: unknown stages: ['bogus']\n"

    @pytest.mark.parametrize("stages", [",", " ", " , ,"])
    def test_empty_stage_list_is_a_config_error(self, tmp_path, capsys, stages):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(path), "--stages", stages,
                     "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: no stage named")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("seed, message", [
        ("-1", "key 'seed': value '-1' out of range"),
        ("seven", "key 'seed': expected an integer, got 'seven'"),
    ], ids=["negative", "not-a-number"])
    def test_flag_value_passes_the_config_check(self, tmp_path, capsys, seed, message):
        path = write_config(tmp_path, MINIMAL + "seed = 3\n", make_dataset=False)
        assert main(["simulate", "--config", str(path), "--seed", seed]) == EXIT_CONFIG
        err = capsys.readouterr().err
        # The flag set the value, so the message names no line of the file.
        assert "config error" in err and message in err and "line" not in err

    def test_small_scene_runs_and_skips(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_SCENE, make_dataset=False)
        assert main(["pipeline", "--config", str(path)]) == EXIT_OK
        first = capsys.readouterr().out
        assert first.count("ran") == 8
        out_dir = tmp_path / "out"
        for artifact in ("gpis.model", "init.ply", "splats.ply", "train_log.csv",
                         "eval_report.csv", "manifest.json"):
            assert (out_dir / artifact).exists()
        # rerun: everything skipped, exit 0
        assert main(["pipeline", "--config", str(path)]) == EXIT_OK
        second = capsys.readouterr().out
        assert second.count("skipped") == 8
        assert not (out_dir / ".lock").exists()

    def test_single_stage_rerun_after_pipeline(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_SCENE, make_dataset=False)
        assert main(["pipeline", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["gpis-fit", "--config", str(path)]) == EXIT_OK
        assert "gpis-fit: skipped" in capsys.readouterr().out

    def test_seed_override_changes_params_hash(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_SCENE, make_dataset=False)
        assert main(["simulate", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--seed", "9"]) == EXIT_OK
        assert "simulate: ran" in capsys.readouterr().out

    def test_fuse_without_align_names_align_stage(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_SCENE, make_dataset=False)
        assert main(["pipeline", "--config", str(path),
                     "--stages", "simulate,gpis-fit,gpis-render"]) == EXIT_OK
        capsys.readouterr()
        assert main(["fuse", "--config", str(path)]) == EXIT_DEPENDENCY
        assert "align" in capsys.readouterr().err

    def test_exit_code_numerical_failure(self, tmp_path, capsys):
        text = SMALL_SCENE + "\n[conditioning]\ncap = 5\n"
        path = write_config(tmp_path, text, make_dataset=False)
        assert main(["pipeline", "--config", str(path),
                     "--stages", "simulate,gpis-fit"]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "cap is 5" in err

    def test_over_cap_set_with_grid_names_the_cap(self, tmp_path, capsys):
        text = SMALL_SCENE + "\n[conditioning]\ncap = 5\n\n[kernel]\nrho_grid = 0.3 0.5\n"
        path = write_config(tmp_path, text, make_dataset=False)
        assert main(["pipeline", "--config", str(path),
                     "--stages", "simulate,gpis-fit"]) == EXIT_NUMERICAL
        assert "cap is 5" in capsys.readouterr().err

    def test_default_config_fits_under_the_cap(self, tmp_path):
        """A config holding only [scene] takes every default, the voxel pitch too."""
        path = write_config(tmp_path, make_dataset=False)
        assert main(["pipeline", "--config", str(path), "--stages", "simulate,gpis-fit"]) == EXIT_OK
        model = gpis.load_model(str(tmp_path / "out" / "gpis.model"))
        assert len(model.conditioning) <= SCHEMA["conditioning"]["cap"][1]

    def test_init_points_without_gpis_hits_exits_numerical(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_SCENE + "\n[march]\nmax_steps = 1\n",
                            make_dataset=False)
        with pytest.warns(RuntimeWarning, match="ran out of max_steps=1"):
            assert main(["pipeline", "--config", str(path),
                         "--stages", "simulate,gpis-fit,gpis-render"]) == EXIT_OK
        assert main(["init-points", "--config", str(path)]) == EXIT_NUMERICAL
        assert "no GPIS ray hit" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    cfg = validate_config(write_config(root, SMALL_SCENE, make_dataset=False),
                          require_dataset=False)
    assert set(run_pipeline(cfg).values()) == {"ran"}
    return root


@pytest.fixture
def built(pristine, tmp_path):
    """A copy of one finished run; its manifest holds no absolute path."""
    for name in ("data", "out"):
        shutil.copytree(pristine / name, tmp_path / name)
    cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False))
    assert set(run_pipeline(cfg).values()) == {"skipped"}
    return cfg


def drop_last_ply_value(text):
    header, end, rows = text.partition("end_header\n")
    return header + end + re.sub(r"(?m) \S+$", "", rows)


def edit_first_ply_row(edit):
    """A text edit that replaces the first PLY row's values with edit(values)."""
    def apply(text):
        header, end, rows = text.partition("end_header\n")
        first, rest = rows.split("\n", 1)
        return header + end + " ".join(edit(first.split())) + "\n" + rest
    return apply


def text_of(target):
    """The text of `target`. The touch file is first rewritten in ASCII, the
    form a dataset written before binary touch files holds."""
    if target.name == "touches.ply":
        touch = fileio.read_touch_ply(target)
        fileio._write_ply_rows(target, fileio._TOUCH_PROPS,
                               np.hstack([touch.points, touch.normals]))
    return target.read_text()


def touch_values(edit):
    """A byte edit of the binary touch file that replaces its (N, 6) float64
    values with edit(values), in place after the header."""
    def apply(blob):
        header, end, data = blob.partition(b"end_header\n")
        return header + end + edit(np.frombuffer(data, "<f8").reshape(-1, 6).copy()).tobytes()
    return apply


def first_touch_row(edit):
    """touch_values, with the first point's values replaced by edit(values)."""
    def apply(values):
        values[0] = edit(values[0].tolist())
        return values
    return touch_values(apply)


def split_touches(data):
    """Rewrite the dataset `data` in the older layout of one touch file per
    touch under `touches/`, named as simulate once named them."""
    touches = fileio.read_touch_ply(data / "touches.ply")
    (data / "touches").mkdir()
    for i, rows in enumerate(np.split(np.arange(len(touches.points)), 12)):
        fileio.write_touch_ply(data / f"touches/touch{i:03d}.ply", touches.points[rows],
                               touches.normals[rows])
    (data / "touches.ply").unlink()


def scale_image(factor):
    """An edit of the PFM image at a path that multiplies its values by `factor`."""
    return lambda path: fileio.write_pfm(path, fileio.read_pfm(path) * factor)


def no_ply_rows(text):
    header = text.partition("end_header\n")[0]
    return re.sub(r"element vertex \d+", "element vertex 0", header) + "end_header\n"


def model_without_points(blob):
    """A GPIS model file of no point with the kernel parameters of `blob`."""
    n = int.from_bytes(blob[8:12], "little")
    return blob[:8] + bytes(4) + blob[12 + 32 * n:12 + 32 * n + 32]


def model_with_surface_targets(blob, keep):
    """`blob`, a GPIS model file, with every target of 0 but the first
    `keep` (the first surface points) set to -1."""
    n = int.from_bytes(blob[8:12], "little")
    targets = np.frombuffer(blob, "<f8", n, 12 + 24 * n).copy()
    targets[np.flatnonzero(targets == 0.0)[keep:]] = -1.0
    return blob[:12 + 24 * n] + targets.astype("<f8").tobytes() + blob[12 + 32 * n:]


def model_without_surface_points(blob):
    """`blob`, a GPIS model file, with no target of 0."""
    return model_with_surface_targets(blob, 0)


def model_with_one_surface_point(blob):
    """`blob`, a GPIS model file, with one target of 0."""
    return model_with_surface_targets(blob, 1)


def edit_manifest(edit):
    """A text edit that loads a manifest, applies edit(manifest) and dumps it."""
    def apply(text):
        manifest = json.loads(text)
        edit(manifest)
        return json.dumps(manifest)
    return apply


class TestImports:
    """What a process loads: scipy's compiled LAPACK module at import, its
    KD-tree module only where eval's nearest-neighbour code runs, and never
    the scipy.linalg or scipy.spatial package, whose imports pull in
    scipy's array-API layer and numpy.f2py."""

    PROBE = ("import sys\n"
             "import touchfuse.pipeline\n"
             "from touchfuse.config import validate_config\n"
             "validate_config('configs/sphere_scene.cfg', require_dataset=False)\n"
             "{extra}"
             "print(' '.join(m for m in {modules!r} if m in sys.modules))\n")

    def run(self, code):
        repo = pathlib.Path(__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        return subprocess.run([sys.executable, "-c", code], cwd=repo, env=env,
                              capture_output=True, text=True, check=True).stdout.split()

    def loaded(self, modules, extra=""):
        return self.run(self.PROBE.format(extra=extra, modules=modules))

    def test_pipeline_and_config_check_load_no_kd_tree(self):
        assert self.loaded(("scipy.spatial", "scipy.special")) == []

    def test_pipeline_and_config_check_run_no_scipy_subpackage(self):
        assert self.loaded(("scipy.linalg", "scipy.spatial", "scipy._lib._array_api",
                            "numpy.f2py")) == []

    def test_init_points_loads_no_masked_arrays(self, built, tmp_path):
        """np.median's NaN check imports numpy.ma, which no stage uses."""
        os.unlink(os.path.join(built.out, "init.ply"))
        extra = ("from touchfuse.pipeline import run_pipeline\n"
                 f"cfg = validate_config({str(tmp_path / 'scene.cfg')!r})\n"
                 "assert run_pipeline(cfg, ['init-points']) == {'init-points': 'ran'}\n")
        assert self.loaded(("numpy.ma",), extra) == []

    def test_chamfer_loads_the_kd_tree(self):
        extra = ("import numpy as np\n"
                 "from touchfuse import metrics\n"
                 "metrics.chamfer(np.zeros((1, 3)), np.ones((2, 3)))\n")
        assert "scipy.spatial._ckdtree" in self.loaded(("scipy.spatial._ckdtree",), extra)

    @pytest.mark.parametrize("scipy_first", [False, True], ids=["touchfuse-first", "scipy-first"])
    def test_loaded_objects_are_scipys_own(self, scipy_first):
        code = ("import scipy.linalg.lapack, scipy.spatial\n" * scipy_first
                + "from touchfuse import gpis, metrics\n"
                  "kd_tree = metrics._kd_tree()\n"
                  "import scipy.linalg.lapack as lapack, scipy.spatial as spatial\n"
                  "print(gpis.dpftrf is lapack.dpftrf, gpis.dpftrs is lapack.dpftrs,\n"
                  "      gpis.dtfsm is lapack.dtfsm, kd_tree is spatial.cKDTree)\n")
        assert self.run(code) == ["True"] * 4

    def test_missing_extension_module_names_the_path(self):
        import scipy

        path = os.path.join(scipy.__path__[0], "linalg", "_no_such_module")
        with pytest.raises(ImportError, match=re.escape(path)):
            scipy_extension("linalg._no_such_module")


class TestExitCodes:
    """Failures that used to escape main() as tracebacks with exit code 1."""

    @pytest.mark.parametrize("extra, message", [
        ("[kernel]\nrho_grid = 0.3 -0.3\n", "line 6: key 'rho_grid'"),
        ("[kernel]\nrho_grid = 0.2 0.3 0.20\n", "line 6: key 'rho_grid': repeats a value"),
        ("[kernel]\nrho_grid =\n", "line 6: key 'rho_grid': expected numbers, got ''"),
        ("[sim]\nshape = torus\nsize = 1.0\n", "line 7: key 'size'"),
        ("[sim]\nshape = torus\n", "line 6: key 'size'"),
        ("[sim]\nsize = 0.0\n", "line 6: key 'size'"),
        ("[sim]\nvision_bias = nan\n", "line 6: unknown key 'vision_bias' in section [sim]"),
        ("[sim]\npatch_radius = nan\n", "line 6: key 'patch_radius': value 'nan' is not finite"),
        ("[kernel]\nprior_mean = nan\n", "line 6: unknown key 'prior_mean' in section [kernel]"),
        ("[conditioning]\nvoxel = auto\n", "line 6: key 'voxel': expected a number, got 'auto'"),
        ("[sim]\norbit_height = inf\n", "line 6: unknown key 'orbit_height' in section [sim]"),
        ("[sim]\ntouch_noise = inf\n", "line 6: unknown key 'touch_noise' in section [sim]"),
        ("[align]\nmax_gap = inf\n", "line 5: unknown section [align]"),
        ("[sim]\nfocal = inf\n", "line 6: key 'focal': value 'inf' is not finite"),
        ("[kernel]\nnoise = inf\n", "line 6: key 'noise': value 'inf' is not finite"),
        ("[kernel]\noutput_scale = inf\n", "line 6: key 'output_scale': value 'inf' is not finite"),
        ("[march]\nstep_fraction = 0.9\n",
         "line 6: unknown key 'step_fraction' in section [march]"),
        ("[sim]\nsparse_fraction = 0.0003\n",
         "line 6: key 'sparse_fraction': view000: fraction 0.0003 yields 1 samples"),
        ("[loss]\ndecay = \u0662\n", "line 6: key 'decay': expected a number, got '\u0662'"),
    ], ids=["negative-rho", "repeated-rho", "empty-rho", "torus-one-radius",
            "torus-default-size", "zero-size", "nan-vision-bias", "nan-patch-radius",
            "nan-prior-mean", "auto-voxel",
            "inf-orbit-height", "inf-touch-noise", "inf-max-gap", "inf-focal", "inf-noise",
            "inf-output-scale", "old-step-fraction", "too-few-sparse-samples",
            "non-ascii-digit"])
    def test_value_that_fails_a_stage_is_a_config_error(self, tmp_path, capsys, extra, message):
        path = write_config(tmp_path, MINIMAL + extra, make_dataset=False)
        assert main(["pipeline", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_voxel_pitch_too_fine_to_index_is_a_numerical_failure(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_SCENE.replace("voxel = 0.25", "voxel = 1e-300"),
                            make_dataset=False)
        assert main(["pipeline", "--config", str(path),
                     "--stages", "simulate,gpis-fit"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "voxel cells from the origin at pitch 1e-300, too many to index" in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "scene.cfg"
        path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
        assert main(["pipeline", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 5" in err and "UTF-8" in err

    @pytest.mark.parametrize("key, line, stage", [
        ("out", 4, "pipeline"), ("dataset", 3, "simulate"), ("dataset", 3, "gpis-fit"),
    ], ids=["out-is-a-file", "dataset-is-a-file", "dataset-is-a-file-unsimulated"])
    def test_scene_path_that_is_a_file(self, tmp_path, capsys, key, line, stage):
        path = write_config(tmp_path, re.sub(rf"(?m)^{key} = .*$", f"{key} = afile", MINIMAL),
                            make_dataset=False)
        (tmp_path / "afile").write_text("")
        assert main([stage, "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: line {line}: key '{key}': "
                                           f"{tmp_path / 'afile'} is a file, not a directory\n")
        assert sorted(os.listdir(tmp_path)) == ["afile", "scene.cfg"]

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_locked_output_directory(self, built, tmp_path, capsys):
        fd = os.open(built.out, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(["eval", "--config", str(tmp_path / "scene.cfg")]) == EXIT_LOCKED
        finally:
            os.close(fd)
        assert "locked" in capsys.readouterr().err

    def test_corrupt_manifest(self, built, tmp_path, capsys):
        with open(os.path.join(built.out, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write('{"version": 2, "stages": {')
        assert main(["pipeline", "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        edit_manifest(lambda m: m["stages"].update({"gpis-fit": {}})),
        edit_manifest(lambda m: m.update(stages=[])),
        edit_manifest(lambda m: m["stages"]["align"].update(inputs=None)),
        edit_manifest(lambda m: m["stages"].update({"gpis-fiu": m["stages"].pop("gpis-fit")})),
        edit_manifest(lambda m: m.update(note="x")),
        edit_manifest(lambda m: m["stages"]["fuse"]["outputs"].update(
            {"out:view000_provenance.pgm": 5})),
        edit_manifest(lambda m: m["stages"]["align"]["inputs"].update(
            {"cameras.txt": m["stages"]["align"]["inputs"].pop("dataset:cameras.txt")})),
        # align's inputs would keep view001's digest under view000's name alone
        lambda text: text.replace('"out:view000_gpis_depth.pfm"', '"out:view001_gpis_depth.pfm"', 1),
        lambda text: "[]",
        edit_manifest(lambda m: m["stages"]["gpis-render"]["outputs"].update(
            {"out:../escaped_gpis_depth.pfm": "0123456789abcdef"})),
    ], ids=["empty-record", "stages-list", "null-inputs", "unknown-stage", "extra-key",
            "number-digest", "name-of-no-stage", "repeated-key", "not-an-object",
            "name-outside-its-directory"])
    def test_manifest_of_another_shape(self, built, tmp_path, capsys, edit):
        path = os.path.join(built.out, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            text = edit(fh.read())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["pipeline", "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "manifest.json: corrupt manifest" in err and "delete it" in err

    def test_output_of_an_unrecorded_stage_is_missing(self, built, tmp_path, capsys):
        # A manifest of another version is ignored, so gpis.model on disk
        # is vouched for by no gpis-fit record (it may be in an old format).
        path = os.path.join(built.out, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["version"] = 2
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        config = str(tmp_path / "scene.cfg")
        assert main(["gpis-render", "--config", config]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "gpis.model" in err and "gpis-fit" in err
        # dataset inputs need no simulate record: a real dataset has none
        assert main(["gpis-fit", "--config", config]) == EXIT_OK
        assert main(["gpis-render", "--config", config]) == EXIT_OK

    @staticmethod
    def stops_before_reading(tmp_path, capsys, stage, path, message=None):
        """Run `stage` alone after the `out:` file at `path` was edited: the
        stage exits 3 naming the file and the stage that makes it, and
        writes and removes no file, manifest.json included. The file's
        reader, called on it directly, still raises `message` when given."""
        name = path.replace("out/", "out:", 1)
        maker = next(s.name for s in STAGES if s.produces(name))
        files = tree_bytes(tmp_path)
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_DEPENDENCY
        assert capsys.readouterr().err == (f"dependency error: {name} is not the file the "
                                           f"{maker} stage wrote; run the {maker} stage first\n")
        assert tree_bytes(tmp_path) == files
        if message is not None:
            reader = {".model": gpis.load_model, ".pfm": fileio.read_pfm,
                      ".ply": fileio.read_splat_ply}[os.path.splitext(path)[1]]
            with pytest.raises(FormatError, match=re.escape(f"{tmp_path / path}: {message}")):
                reader(tmp_path / path)

    @pytest.mark.parametrize("path, stage, edit", [
        # the lowest mantissa bit of the first location's x
        ("out/gpis.model", "gpis-render",
         lambda path: path.write_bytes(flip_a_bit(path.read_bytes(), 8 * 12))),
        ("out/view000_gpis_depth.pfm", "align", scale_image(1.01)),
        ("out/view000_vision_var.pfm", "fuse", scale_image(2.0)),
        ("out/view000_fused_depth.pfm", "train", scale_image(0.99)),
        ("out/init.ply", "train", lambda path: path.write_text(
            edit_first_ply_row(lambda row: ["0.25"] + row[1:])(path.read_text()))),
        ("out/splats.ply", "eval", lambda path: path.write_text(
            edit_first_ply_row(lambda row: row[:7] + ["0.05"])(path.read_text()))),
    ], ids=["model-location-bit", "gpis-depth-scaled", "vision-variance-doubled",
            "fused-depth-scaled", "init-position-moved", "splats-radius-changed"])
    def test_out_file_its_maker_did_not_write(self, built, tmp_path, capsys, path, stage, edit):
        """A hand edit that every rule of the file's reader lets through: a
        location moved by one ulp, a depth scaled, a variance doubled, a
        splat moved or resized. The stage runs alone and stops before it
        reads the file."""
        target = tmp_path / path
        blob = target.read_bytes()
        edit(target)
        assert target.read_bytes() != blob
        self.stops_before_reading(tmp_path, capsys, stage, path)

    def test_edited_init_ply_is_neither_trained_on_nor_skipped(self, built, tmp_path, capsys):
        """A hand-edited init.ply once trained with exit 0, and a later
        `--stages train,eval` then skipped train on it. Now both runs stop
        at it, and a run with init-points restores the clean tree."""
        clean = tree_bytes(tmp_path)
        target = tmp_path / "out/init.ply"
        target.write_text(edit_first_ply_row(lambda row: ["0.25"] + row[1:])(target.read_text()))
        config = str(tmp_path / "scene.cfg")
        for stages in ("train", "train,eval"):
            assert main(["pipeline", "--config", config, "--stages", stages]) == EXIT_DEPENDENCY
            captured = capsys.readouterr()
            assert "train: skipped" not in captured.out
            assert "out:init.ply is not the file the init-points stage wrote" in captured.err
        assert main(["pipeline", "--config", config]) == EXIT_OK
        assert "init-points: ran\ntrain: skipped\n" in capsys.readouterr().out
        assert tree_bytes(tmp_path) == clean

    @pytest.mark.parametrize("path, stage", [
        ("data/touches.ply", "gpis-fit"),
        ("out/gpis.model", "gpis-render"),
        ("out/view000_gpis_depth.pfm", "fuse"),
    ])
    def test_malformed_input_file(self, built, tmp_path, capsys, path, stage):
        """A file cut in half. A dataset file is malformed; an `out:` file is
        not the one its maker wrote, so the stage stops before its reader,
        which would find it malformed."""
        blob = (tmp_path / path).read_bytes()
        (tmp_path / path).write_bytes(blob[: len(blob) // 2])
        if path.startswith("out/"):
            self.stops_before_reading(tmp_path, capsys, stage, path, "")
            return
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err

    @pytest.mark.parametrize("path, stage, edit", [
        ("data/cameras.txt", "align",
         lambda text: re.sub(r"(?m)^size .*$", "size 64", text, count=1)),
        ("data/cameras.txt", "align",
         lambda text: re.sub(r"(?m)^intrinsics .*$", "intrinsics 48 48", text, count=1)),
        ("data/cameras.txt", "align", lambda text: re.sub(r"(?m)^view .*$", "view", text, count=1)),
        ("data/sparse/view000.txt", "align",
         lambda text: "".join(" ".join(line.split()[:2]) + "\n" for line in text.splitlines())),
        ("data/sparse/view000.txt", "align", lambda text: ""),
        ("data/touches.ply", "gpis-fit", drop_last_ply_value),
        ("data/cameras.txt", "init-points", lambda text: ""),
        ("data/cameras.txt", "gpis-render", lambda text: ""),
    ], ids=["camera-size", "camera-intrinsics", "bare-view", "sparse-two-columns",
            "sparse-empty", "ply-short-rows", "cameras-empty-init-points",
            "cameras-empty-gpis-render"])
    def test_short_line_in_a_text_file(self, built, tmp_path, capsys, path, stage, edit):
        target = tmp_path / path
        target.write_text(edit(text_of(target)))
        made = sorted(os.listdir(built.out))
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err
        # A stage that stops on a malformed input removes none of its files,
        # such as the GPIS images of a camera list with no view.
        assert sorted(os.listdir(built.out)) == made

    @pytest.mark.parametrize("path, stage, edit, message", [
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"^\S+", "1000", text, count=1), "outside the 24x24 image"),
        ("data/sparse/view000.txt", "align",
         lambda text: text.splitlines(keepends=True)[0], "needs at least 2"),
        ("data/sparse/view000.txt", "align",
         lambda text: text.splitlines(keepends=True)[0] * 2, "lies on one raw mono depth"),
        ("data/touches.ply", "gpis-fit",
         edit_first_ply_row(lambda row: row[:3] + ["2", "0", "0"]), "not unit length"),
        ("data/touches.ply", "gpis-fit",
         edit_first_ply_row(lambda row: row[:3] + ["nan"] * 3), "not unit length"),
        ("data/touches.ply", "gpis-fit",
         edit_first_ply_row(lambda row: ["inf"] + row[1:]), "must be finite"),
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"\S+\n", "nan\n", text, count=1), "must be finite"),
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"\S+\n", "inf\n", text, count=1), "must be finite"),
        ("data/sparse/view000.txt", "align", lambda text: re.sub(r"^\S+", "3.7", text, count=1),
         "line 1: pixel coordinates must be integers, found 3.7"),
        ("data/sparse/view000.txt", "align", lambda text: re.sub(r"^\S+", "nan", text, count=1),
         "line 1: pixel coordinates must be integers, found nan"),
        ("data/scene.cfg", "eval", lambda text: "", "key 'shape' is missing"),
        ("data/scene.cfg", "eval", lambda text: text[:len(text) // 2],
         "key 'shape': must be one of"),
        ("data/scene.cfg", "eval", lambda text: text.replace("size = 1", "size = 1,5"),
         "key 'size': sphere takes a single radius"),
        ("out/init.ply", "train", edit_first_ply_row(lambda row: row[:6] + ["nan"] + row[7:]),
         "vertex 0: opacity_logit nan is not finite"),
        ("out/init.ply", "train", edit_first_ply_row(lambda row: row[:3] + ["nan"] + row[4:]),
         "vertex 0: r nan is not finite"),
        ("out/init.ply", "train", edit_first_ply_row(lambda row: ["nan"] + row[1:]),
         "vertex 0: x nan is not finite"),
        ("out/init.ply", "train", lambda text: re.sub(r"obj_info background .*\n", "", text),
         "the header needs one 'obj_info background r g b' line"),
        ("out/init.ply", "train", lambda text: re.sub(r"(obj_info background .*\n)", r"\1\1", text),
         "the header needs one 'obj_info background r g b' line"),
        ("out/init.ply", "train",
         lambda text: re.sub(r"(obj_info background) \S+", r"\1 nan", text),
         "background nan 0.20000000000000001 0.20000000000000001 is not finite"),
        ("out/splats.ply", "eval", lambda text: text.replace(" opacity_logit\n", " opacity\n"),
         "PLY properties ['x', 'y', 'z', 'r', 'g', 'b', 'opacity', 'radius'] do not match"),
        ("out/splats.ply", "eval", edit_first_ply_row(lambda row: row[:7] + ["inf"]),
         "vertex 0: radius inf is not finite"),
        ("out/init.ply", "train", no_ply_rows, "the cloud holds no splat"),
        ("out/splats.ply", "eval", no_ply_rows, "the cloud holds no splat"),
        # a view whose files the dataset lacks is no missing simulate run
        ("data/cameras.txt", "align", lambda text: text.replace("view view000", "view view100"),
         "mono_depth/view100.pfm missing, but"),
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"(?m)\A(.*\n).*\n", r"\g<1>4 5 x\n", text),
         "line 2: values must be numbers, found 4 5 x"),
        ("data/sparse/view000.txt", "align", lambda text: re.sub(r"^.*\n", "1_0 2 3.5\n", text),
         "line 1: values must be numbers, found 1_0 2 3.5"),
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"(?m)\A(.*\n)(\S+ \S+) \S+\n", r"\1\2\n", text),
         "line 2: rows need 3 columns (u v depth), found 2"),
    ], ids=["sparse-outside-image", "sparse-one-row", "sparse-one-row-twice", "ply-long-normal",
            "ply-nan-normal", "ply-infinite-point", "sparse-nan-depth", "sparse-inf-depth",
            "sparse-fractional-pixel", "sparse-nan-pixel", "scene-empty-eval",
            "scene-halved-eval", "scene-comma-eval", "init-nan-opacity", "init-nan-color",
            "init-nan-position", "init-no-background", "init-two-backgrounds",
            "init-nan-background", "splats-old-opacity-property",
            "splats-infinite-radius", "init-no-splat", "splats-no-splat",
            "cameras-view-without-files", "sparse-word-on-line-2", "sparse-underscore-pixel",
            "sparse-short-row-on-line-2"])
    def test_value_a_stage_cannot_use(self, built, tmp_path, capsys, path, stage, edit,
                                      message):
        """A dataset file makes the stage exit 6. A splat file edited in
        out/ is not the one its maker wrote, so the stage stops before
        reading it, and its reader gives the message."""
        target = tmp_path / path
        target.write_text(edit(text_of(target)))
        if path.startswith("out/"):
            self.stops_before_reading(tmp_path, capsys, stage, path, message)
            return
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err and message in err
        # simulate would overwrite the dataset
        assert "simulate" not in err

    @pytest.mark.parametrize("path, stage, edit, message", [
        ("data/cameras.txt", "gpis-render",
         lambda text: text.replace("view view000", "view ../escaped"),
         "line 1: view name '../escaped' is not letters, digits"),
        ("data/cameras.txt", "gpis-render",
         lambda text: text.replace("view view001", "view view000"),
         "view name 'view000' names an earlier view"),
        ("data/cameras.txt", "gpis-render",
         lambda text: text.replace("view view000", "view view*"),
         "line 1: view name 'view*' is not letters, digits"),
        ("data/scene.cfg", "eval", lambda text: text + "shape = torus\nsize = 1 0.35\n",
         "line 3: duplicate key 'shape' (first set on line 1)"),
        # the view's vision image would be a name too long for a file
        ("data/cameras.txt", "gpis-render",
         lambda text: text.replace("view view000", "view " + "v" * 250),
         f"line 1: view name '{'v' * 250}' is not letters, digits, '_', '-' and '.' that do "
         "not start with '.', at most 200 of them"),
        # names that end like a fused image or start like the eval report are usable
        ("data/cameras.txt", "gpis-render",
         lambda text: text.replace("view view001", "view v_fused_0"), None),
        ("data/cameras.txt", "gpis-render",
         lambda text: text.replace("view view000", "view eval_report.x"), None),
    ], ids=["view-name-escaping-out", "view-name-repeated", "view-name-pattern",
            "scene-key-repeated", "view-name-too-long", "view-name-of-two-stages",
            "view-name-of-eval"])
    def test_name_or_key_a_stage_cannot_use(self, built, tmp_path, capsys, path, stage, edit,
                                            message):
        """A view name becomes part of file paths and patterns, and a
        repeated record key would leave a stage to pick one value: each
        makes its file malformed, and the stage writes no file anywhere.
        A name that only looks like another stage's file (no message) is
        not one of them: the stage writes the renamed view's files, with
        the bytes it wrote under the old name, and each has it as its one
        maker."""
        target = tmp_path / path
        before = target.read_text()
        target.write_text(edit(before))
        files = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
        if message is None:
            views_before, views_after = (set(re.findall(r"(?m)^view (\S+)$", text))
                                         for text in (before, target.read_text()))
            (old,), (new,) = views_before - views_after, views_after - views_before
            assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_OK

            def makers(f):
                return [s.name for s in STAGES if s.produces(f"out:{f.name}")]

            def split(tree):
                """The stage's files by name, and every other file but the manifest."""
                return ({f.name: data for f, data in tree.items()
                         if f.parent == tmp_path / "out" and stage in makers(f)},
                        {f: data for f, data in tree.items()
                         if f.name != "manifest.json" and stage not in makers(f)})
            made, others = split({f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()})
            made_before, others_before = split(files)
            assert made == {name.replace(old, new, 1) if name.startswith(f"{old}_") else name:
                            data for name, data in made_before.items()}
            assert others == others_before
            assert all(makers(tmp_path / "out" / name) == [stage] for name in made)
            return
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err and message in err
        assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == files

    @pytest.mark.parametrize("edit, message", [
        (lambda text: re.sub(r"(?m)^(pose \S+ \S+ \S+) \S+$", r"\1 nan", text, count=1),
         "line 1: camera block 'view000': pose must be a finite rigid transform"),
        (lambda text: re.sub(r"(?m)^(pose \S+ \S+ \S+) \S+$", r"\1 inf", text, count=1),
         "line 1: camera block 'view000': pose must be a finite rigid transform"),
        (lambda text: re.sub(r"(?m)^intrinsics \S+", "intrinsics nan", text, count=1),
         "line 1: camera block 'view000': focal lengths nan and 18.0 must be positive"),
        (lambda text: "size 999 999\n" + text, "line 1: 'size' line before the first 'view' line"),
        (lambda text: text.replace("size 24 24\n", "size 24 24\nsize 30 28\n", 1),
         "line 3: second 'size' line in camera block 'view000'"),
        (lambda text: re.sub(r"(view view001\n(?:.*\n){2}pose \S+ \S+ \S+) \S+", r"\1 nan", text),
         "line 8: camera block 'view001': pose must be a finite rigid transform"),
        (lambda text: re.sub(r"(?m)^(pose .*\n)(view view001)", r"\1\1\2", text, count=1),
         "line 8: fifth 'pose' line in camera block 'view000'"),
        (lambda text: text.replace("size 24 24", "size 64.0 64", 1),
         "line 2: values must be integers, found 64.0 64"),
        (lambda text: text.replace("size 24 24", "size 6_4 64", 1),
         "line 2: values must be integers, found 6_4 64"),
        (lambda text: re.sub(r"(?m)^intrinsics \S+ \S+", "intrinsics 48 abc", text, count=1),
         "line 3: values must be numbers, found 48 abc"),
        (lambda text: text.replace("size 24 24", "size 24", 1),
         "line 2: 'size' line needs 2 values, found 1"),
        (lambda text: text.replace("size 24 24", "focal 18", 1),
         "line 2: unknown camera-file directive 'focal'"),
        (lambda text: text.rstrip("\n").rpartition("\n")[0] + "\n",
         "line 8: camera block 'view001' is incomplete"),
    ], ids=["nan-pose", "inf-pose", "nan-fx", "directive-before-first-view", "repeated-size",
            "nan-pose-second-view", "fifth-pose", "fractional-size", "underscore-size",
            "word-in-intrinsics",
            "short-size", "unknown-directive", "incomplete-last-block"])
    def test_camera_list_a_stage_cannot_use(self, built, tmp_path, capsys, edit, message):
        """Non-finite camera values and misplaced or repeated directives
        make the camera list malformed at the first stage that reads it,
        which writes no file anywhere."""
        target = tmp_path / "data/cameras.txt"
        target.write_text(edit(target.read_text()))
        files = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
        assert main(["gpis-render", "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and "cameras.txt" in err and message in err
        assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == files

    @pytest.mark.parametrize("edit, message", [
        (touch_values(lambda values: values[:, :5]), "the data holds"),
        (first_touch_row(lambda row: row[:3] + [2.0, 0.0, 0.0]), "not unit length"),
        (first_touch_row(lambda row: row[:3] + [np.nan] * 3), "not unit length"),
        (first_touch_row(lambda row: [np.inf] + row[1:]), "must be finite"),
        (lambda blob: blob[:-1], "the data holds"),
        (lambda blob: blob + b"\0", "the data holds"),
        (lambda blob: blob.replace(b"binary_little_endian", b"binary_big_endian", 1),
         "PLY format 'binary_big_endian 1.0' is not read"),
        (lambda blob: blob.replace(b"float64 nz", b"float32 nz", 1),
         "PLY property type 'float32'"),
    ], ids=["ply-short-rows-binary", "ply-long-normal-binary", "ply-nan-normal-binary",
            "ply-infinite-point-binary", "ply-byte-short", "ply-byte-extra", "ply-big-endian",
            "ply-float32"])
    def test_binary_touch_file_a_stage_cannot_use(self, built, tmp_path, capsys, edit, message):
        target = tmp_path / "data/touches.ply"
        target.write_bytes(edit(target.read_bytes()))
        made = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        assert main(["gpis-fit", "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and "touches.ply" in err and message in err
        assert "simulate" not in err
        assert {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()} == made

    @pytest.mark.parametrize("path, stage, edit, message", [
        ("data/gt_depth/view000.pfm", "eval", lambda blob: blob + b"\0",
         "header declares a 24x24 image, 2304 bytes; the data holds 2305 bytes"),
        ("data/rgb/view000.ppm", "train", lambda blob: blob[:-1],
         "header declares a 24x24 image, 1728 bytes; the data holds 1727 bytes"),
        *[("data/mono_depth/view000.pfm", "align",
           lambda blob, scale=scale: blob.replace(b"\n-1.0\n", b"\n%s\n" % scale, 1),
           f"PFM scale '{scale.decode()}' is not a finite nonzero number")
          for scale in (b"0", b"-0.0", b"nan")],
    ], ids=["pfm-byte-extra", "ppm-byte-short", "pfm-scale-zero", "pfm-scale-minus-zero",
            "pfm-scale-nan"])
    def test_raster_of_another_length(self, built, tmp_path, capsys, path, stage, edit, message):
        target = tmp_path / path
        target.write_bytes(edit(target.read_bytes()))
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err and message in err
        assert "simulate" not in err

    def test_scene_record_with_keys_nothing_reads(self, built, tmp_path):
        """An older run's record, or a real dataset's, may hold more keys."""
        record = tmp_path / "data/scene.cfg"
        record.write_text("seed = 3\n" + record.read_text() + "object_color = 0.8 0.4 0.2\n"
                          "background_color = 0.2 0.2 0.2\n")
        assert main(["pipeline", "--config", str(tmp_path / "scene.cfg"),
                     "--stages", "train,eval"]) == EXIT_OK

    def test_eval_without_scene_record(self, built, tmp_path, capsys):
        """A dataset with a camera list is there, so a missing scene record
        is a malformed dataset, not a missing simulate run."""
        os.unlink(tmp_path / "data/scene.cfg")
        assert main(["eval", "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and "scene.cfg missing" in err
        assert "simulate" not in err

    @pytest.mark.parametrize("remove, code, message", [
        (lambda data: (data / "touches.ply").unlink(), EXIT_FORMAT, "missing, but"),
        (lambda data: (data / "touches.ply").write_bytes(b""), EXIT_FORMAT, "not a PLY file"),
        (lambda data: [shutil.rmtree(data), data.mkdir()], EXIT_DEPENDENCY,
         "run the simulate stage first"),
        (split_touches, EXIT_FORMAT, "missing, but"),
    ], ids=["touches-deleted", "touches-emptied", "empty-dataset", "one-file-per-touch"])
    def test_gpis_fit_without_touch_files(self, built, tmp_path, capsys, remove, code, message):
        """A touch file missing or empty beside a camera list is missing from
        a dataset that is there, which a simulate run would overwrite; so is
        one of a dataset in the older layout of one file per touch under
        `touches/`, which gpis-fit no longer reads. An empty dataset
        directory is one that simulate has yet to fill. gpis-fit writes
        nothing either way."""
        remove(tmp_path / "data")
        files = tree_bytes(tmp_path)
        assert main(["gpis-fit", "--config", str(tmp_path / "scene.cfg")]) == code
        err = capsys.readouterr().err
        assert message in err
        if code == EXIT_FORMAT:
            assert "malformed file" in err and str(tmp_path / "data" / "touches.ply") in err
            named = err.replace(str(tmp_path), "")
            assert "simulate" not in named and "view" not in named
        else:
            assert "dependency error" in err and "dataset:touches.ply missing" in err
        assert tree_bytes(tmp_path) == files

    def test_training_needs_no_scene_record(self, pristine, tmp_path):
        """Train takes its background from init.ply, so a dataset without
        scene.cfg trains the same cloud."""
        shutil.copytree(pristine / "data", tmp_path / "data")
        os.unlink(tmp_path / "data/scene.cfg")
        config = str(write_config(tmp_path, SMALL_SCENE, make_dataset=False))
        stages = ",".join(STAGE_ORDER[1:STAGE_ORDER.index("train") + 1])
        assert main(["pipeline", "--config", config, "--stages", stages]) == EXIT_OK
        for name in ("splats.ply", "train_log.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (pristine / "out" / name).read_bytes()

    @pytest.mark.parametrize("copies, offsets", [
        (12, []),
        (12, [[0.0, 0.0, 0.0]]),
        (1, [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-3]]),
    ], ids=["touches-no-point", "touches-one-shared-point", "touches-thinned-to-one-point"])
    def test_touches_that_give_no_surface(self, built, tmp_path, capsys, copies, offsets):
        """The touch file holding the first touch point moved by each of
        `offsets`, `copies` times over, as every touch or only the first
        would give it. Two points 1 mm apart are distinct, but the 0.25
        voxel pitch thins them to one: gpis-fit stops on the set it would
        fit and writes no model for gpis-render to refuse."""
        path = tmp_path / "data/touches.ply"
        touch = fileio.read_touch_ply(path)
        model = (tmp_path / "out/gpis.model").read_bytes()
        fileio.write_touch_ply(path, np.tile(touch.points[0] + np.reshape(offsets, (-1, 3)),
                                             (copies, 1)),
                               touch.normals[[0] * len(offsets) * copies])
        assert main(["gpis-fit", "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        points = len(offsets) * copies
        assert "malformed file" in err and f"{path}: {points} touch points" in err
        assert (f"{points} touch points, thinned at voxel pitch 0.25, leave "
                f"{min(points, 1)} and no two distinct ones; a surface needs at least 2") in err
        assert (tmp_path / "out/gpis.model").read_bytes() == model

    @pytest.mark.parametrize("under_sample, code", [(True, EXIT_FORMAT), (False, EXIT_OK)],
                             ids=["mono-nan-under-sample", "mono-nan-elsewhere"])
    def test_mono_depth_that_is_not_finite(self, built, tmp_path, capsys, under_sample, code):
        # A PFM is binary, so this edits the image, not the text as above.
        sparse = fileio.read_sparse_depth(tmp_path / "data/sparse/view000.txt")
        path = tmp_path / "data/mono_depth/view000.pfm"
        raw = fileio.read_pfm(path)
        sampled = np.zeros(raw.shape, dtype=bool)
        sampled[sparse.pixels[:, 1], sparse.pixels[:, 0]] = True
        v, u = sparse.pixels[1, ::-1] if under_sample else np.argwhere(~sampled)[0]
        raw[v, u] = np.nan
        fileio.write_pfm(path, raw)
        assert main(["pipeline", "--config", str(tmp_path / "scene.cfg"),
                     "--stages", "align,fuse"]) == code
        err = capsys.readouterr().err
        if under_sample:
            assert "malformed file" in err and "mono_depth/view000.pfm" in err
            assert f"under sparse sample 1 at (u, v) = ({u}, {v})" in err
        else:
            provenance = fileio.read_pgm(tmp_path / "out/view000_provenance.pgm")
            assert provenance[v, u] in (fuse.PROVENANCE_NONE, fuse.PROVENANCE_TOUCH)

    @pytest.mark.parametrize("path, stage", [
        ("out/view000_gpis_depth.pfm", "fuse"),
        ("out/view000_gpis_var.pfm", "fuse"),
        ("out/view000_fused_depth.pfm", "train"),
    ])
    def test_gpis_or_fused_value_that_is_not_finite(self, built, tmp_path, capsys, path, stage):
        """A NaN at the first pixel a GPIS ray hit is no image its maker
        wrote, so it never becomes a NaN fused depth or a diverged
        training run."""
        v, u = np.argwhere(fileio.read_pfm(tmp_path / "out/view000_gpis_depth.pfm") > 0.0)[0]
        image = fileio.read_pfm(tmp_path / path)
        image[v, u] = np.nan
        fileio.write_pfm(tmp_path / path, image)
        self.stops_before_reading(tmp_path, capsys, stage, path)

    @pytest.mark.parametrize("path, stage, value", [
        ("out/view000_gpis_depth.pfm", "align", -1.0),
        ("out/view000_gpis_var.pfm", "fuse", 2e10),
        ("out/view000_gpis_var.pfm", "fuse", 0.0),
        ("out/view000_vision_var.pfm", "fuse", 0.0),
        ("out/view000_vision_var.pfm", "fuse", -1.0),
        ("out/view000_fused_var.pfm", "train", -1.0),
    ], ids=["negative-gpis-depth", "gpis-hit-at-miss-variance", "zero-gpis-variance",
            "zero-vision-variance", "negative-vision-variance", "negative-fused-variance"])
    def test_supervision_value_that_breaks_its_rule(self, built, tmp_path, capsys, path, stage,
                                                    value):
        """A value its maker never writes (test_makers_meet_the_image_rules),
        at the first pixel a GPIS ray hit: the file is not its maker's, so
        the value reaches no stage."""
        v, u = np.argwhere(fileio.read_pfm(tmp_path / "out/view000_gpis_depth.pfm") > 0.0)[0]
        image = fileio.read_pfm(tmp_path / path)
        image[v, u] = value
        fileio.write_pfm(tmp_path / path, image)
        self.stops_before_reading(tmp_path, capsys, stage, path)

    def test_edited_gpis_variance_stops_only_fuse(self, built, tmp_path, capsys):
        """align and init-points read the GPIS depths alone, so a hand-edited
        GPIS variance leaves both skipped; fuse stops before reading it."""
        path = tmp_path / "out/view000_gpis_var.pfm"
        fileio.write_pfm(path, fileio.read_pfm(path) * 2.0)
        for stage in ("align", "init-points"):
            assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_OK
            assert capsys.readouterr().out == f"{stage}: skipped\n"
        self.stops_before_reading(tmp_path, capsys, "fuse", "out/view000_gpis_var.pfm")

    @pytest.mark.parametrize("path, stage", [
        ("data/mono_depth/view000.pfm", "align"),
        ("out/view000_gpis_var.pfm", "fuse"),
        ("out/view000_gpis_depth.pfm", "init-points"),
        ("data/rgb/view000.ppm", "train"),
        ("out/view000_fused_depth.pfm", "train"),
        ("data/gt_depth/view000.pfm", "eval"),
    ])
    def test_view_image_of_another_size(self, built, tmp_path, capsys, path, stage):
        """A dataset image cropped to 12x12 is malformed. A cropped `out:`
        image is not its maker's; test_out_image_of_a_shrunk_camera brings
        one of another size to the stage."""
        read, write = {".pfm": (fileio.read_pfm, fileio.write_pfm),
                       ".ppm": (fileio.read_ppm, fileio.write_ppm),
                       ".pgm": (fileio.read_pgm, fileio.write_pgm)}[os.path.splitext(path)[1]]
        target = tmp_path / path
        write(target, read(target)[:12, :12])
        if path.startswith("out/"):
            self.stops_before_reading(tmp_path, capsys, stage, path)
            return
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err
        assert "12x12 image, but its camera is 24x24" in err

    @pytest.mark.parametrize("path, stage", [
        ("out/view000_vision_depth.pfm", "fuse"),
        ("out/view000_gpis_depth.pfm", "init-points"),
        ("out/view000_fused_depth.pfm", "train"),
    ])
    def test_out_image_of_a_shrunk_camera(self, built, tmp_path, capsys, path, stage):
        """A camera list edited after the stage that wrote a view's images:
        the images are their maker's, but no longer their camera's size.
        `size 12 12` still holds the principal point (11.5, 11.5); the
        view's RGB image shrinks with it, so train reaches its fused
        depth."""
        cameras = tmp_path / "data/cameras.txt"
        cameras.write_text(cameras.read_text().replace("size 24 24", "size 12 12", 1))
        rgb = tmp_path / "data/rgb/view000.ppm"
        fileio.write_ppm(rgb, fileio.read_ppm(rgb)[:12, :12])
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err
        assert "24x24 image, but its camera is 12x12" in err

    @pytest.mark.parametrize("edit, message", [
        (model_without_points, "conditioning set is empty"),
        (model_without_surface_points, None),
        (model_with_one_surface_point, None),
    ], ids=["no-point", "no-surface-point", "one-surface-point"])
    def test_model_file_without_surface_points(self, built, tmp_path, capsys, edit, message):
        """gpis-fit writes no model of fewer than two distinct surface
        points (test_touches_that_give_no_surface), so gpis-render stops
        before reading such a file; its reader finds a model of no point
        malformed."""
        path = tmp_path / "out" / "gpis.model"
        path.write_bytes(edit(path.read_bytes()))
        self.stops_before_reading(tmp_path, capsys, "gpis-render", "out/gpis.model", message)


def test_makers_meet_the_image_rules(bundled_run, torus_run):
    """The value rules that align, fuse, init-points and train no longer
    check, since each reads an `out:` image only as its maker wrote it, hold
    for what gpis-render, align and fuse write: every variance is positive,
    a vision one NaN only where its depth is; GPIS and fused images are
    finite, with no negative depth, and a hit's variance is below MISS_VAR."""
    for root in (os.path.dirname(bundled_run["config_path"]), torus_run):
        out = os.path.join(root, "out")
        for name, _ in fileio.read_cameras(os.path.join(root, "data", "cameras.txt")):
            for kind in ("gpis", "vision", "fused"):
                depth, var = (fileio.read_pfm(os.path.join(out, f"{name}_{kind}_{image}.pfm"))
                              for image in ("depth", "var"))
                assert np.all((var > 0.0) | (np.isnan(var) & np.isnan(depth))), (root, name, kind)
                if kind != "vision":
                    assert np.all(np.isfinite(depth) & np.isfinite(var) & (depth >= 0.0))
                    assert (depth > 0.0).any() and np.all(var[depth > 0.0] < MISS_VAR)


class TestSkipRules:
    """What a rerun re-executes after one input, parameter or output changes."""

    @staticmethod
    def ran(status):
        return [stage for stage, state in status.items() if state == "ran"]

    def test_edited_mono_depth_reruns_its_consumers(self, built):
        path = os.path.join(built.dataset, "mono_depth", "view000.pfm")
        fileio.write_pfm(path, fileio.read_pfm(path) * 1.05)
        status = run_pipeline(built, STAGE_ORDER[1:])
        assert self.ran(status) == ["align", "fuse", "train", "eval"]

    def test_edited_simulate_output_reruns_simulate(self, built):
        path = os.path.join(built.dataset, "mono_depth", "view000.pfm")
        with open(path, "rb") as fh:
            original = fh.read()
        fileio.write_pfm(path, fileio.read_pfm(path) * 1.05)
        assert self.ran(run_pipeline(built)) == ["simulate"]
        with open(path, "rb") as fh:
            assert fh.read() == original

    def test_deleted_init_ply_reruns_init_points(self, built):
        os.unlink(os.path.join(built.out, "init.ply"))
        assert self.ran(run_pipeline(built)) == ["init-points"]

    def test_train_and_eval_record_no_gpis_image(self, built):
        """The splat files carry the background, so only init-points, align
        and fuse of the later stages read a GPIS image, and only fuse reads
        a GPIS variance."""
        with open(os.path.join(built.out, "manifest.json"), encoding="utf-8") as fh:
            stages = json.load(fh)["stages"]
        depths = sorted(f"out:{name}_gpis_depth.pfm" for name, _ in
                        fileio.read_cameras(os.path.join(built.dataset, "cameras.txt")))
        for stage, record in stages.items():
            read = {image: sorted(name for name in record["inputs"]
                                  if pipeline._RULES[f"out:*_gpis_{image}.pfm"].fullmatch(name))
                    for image in ("depth", "var")}
            assert read["depth"] == (depths if stage in ("align", "fuse", "init-points") else [])
            assert bool(read["var"]) == (stage == "fuse"), (stage, read)

    def test_march_max_steps_reruns_gpis_render_only(self, built):
        built.override("march", "max_steps", 199)
        status = run_pipeline(built)
        assert status["gpis-fit"] == "skipped"
        assert status["gpis-render"] == "ran"

    # Without simulate: a run with it rewrites the edited touch file, as it
    # rewrites any other file it made.
    def test_added_touch_file_reruns_gpis_fit(self, built):
        """The first touch's points appended to the touch file again."""
        path = os.path.join(built.dataset, "touches.ply")
        touches = fileio.read_touch_ply(path)
        per_touch = built.get("sim", "points_per_touch")
        fileio.write_touch_ply(path, np.concatenate([touches.points, touches.points[:per_touch]]),
                               np.concatenate([touches.normals, touches.normals[:per_touch]]))
        status = run_pipeline(built, STAGE_ORDER[1:])
        assert status["gpis-fit"] == "ran"

    def test_removed_touch_file_reruns_gpis_fit(self, built):
        """The last touch's points dropped from the touch file."""
        path = os.path.join(built.dataset, "touches.ply")
        touches = fileio.read_touch_ply(path)
        kept = len(touches.points) - built.get("sim", "points_per_touch")
        fileio.write_touch_ply(path, touches.points[:kept], touches.normals[:kept])
        status = run_pipeline(built, STAGE_ORDER[1:])
        assert status["gpis-fit"] == "ran"

    def test_manifest_of_another_version_reruns_every_stage(self, built):
        path = os.path.join(built.out, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["version"] = 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert set(run_pipeline(built).values()) == {"ran"}


# Every key a stage hashes into its parameters, each once.
STAGE_KEYS = list(dict.fromkeys((section, key) for stage in STAGES
                                for section in stage.param_sections for key in SCHEMA[section]))


def another_value(cfg, section, key):
    """Config text of a valid value of the key other than the one `cfg` holds."""
    kind = SCHEMA[section][key][0]
    value = cfg.get(section, key)
    if isinstance(kind, tuple):
        return next(word for word in kind if word != value)
    if kind == "int":
        return str(value - 1 if value > 1 else value + 1)
    if kind == "float":
        return repr(0.9 * value)
    return " ".join(repr(0.9 * v) for v in value)


class TestRerunProperty:
    """A rerun after one damaged file or one edited key runs only the stages
    it must, and leaves every file, manifest.json included, as a clean run
    makes it."""

    @staticmethod
    def copy_of(pristine, root):
        for name in ("data", "out"):
            shutil.copytree(pristine / name, root / name)
        return validate_config(write_config(root, SMALL_SCENE))

    @staticmethod
    def flip_a_byte(data, blob):
        blob = bytearray(blob)
        blob[data.draw(st.integers(0, len(blob) - 1), label="byte")] ^= data.draw(
            st.integers(1, 255), label="flip")
        return bytes(blob)

    def damage(self, data, root, rel, clean):
        """Delete the file, or flip one of its bytes; returns the stage that makes it."""
        if data.draw(st.booleans(), label="delete"):
            os.unlink(root / rel)
        else:
            (root / rel).write_bytes(self.flip_a_byte(data, clean[rel]))
        name = rel.replace("data/", "dataset:", 1).replace("out/", "out:", 1)
        return next(stage.name for stage in STAGES if stage.produces(name))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_damaged_file_reruns_only_the_stage_that_makes_it(self, pristine, data):
        self.damaged_files_rerun_only_their_makers(pristine, data, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_two_damaged_files_rerun_only_the_stages_that_make_them(self, pristine, data):
        self.damaged_files_rerun_only_their_makers(pristine, data, 2)

    def damaged_files_rerun_only_their_makers(self, pristine, data, count):
        clean = tree_bytes(pristine)
        rels = data.draw(st.lists(st.sampled_from(sorted(set(clean) - {"out/manifest.json"})),
                                  min_size=count, max_size=count, unique=True), label="files")
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            cfg = self.copy_of(pristine, root)
            makers = {self.damage(data, root, rel, clean) for rel in rels}
            status = run_pipeline(cfg)
            assert [stage for stage, state in status.items() if state == "ran"] == \
                [stage.name for stage in STAGES if stage.name in makers]
            assert tree_bytes(root) == clean

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_damaged_manifest_is_corrupt_or_reruns_to_a_clean_tree(self, pristine, data):
        # A flip can leave valid JSON of the same object (a whitespace byte)
        # that nothing rewrites, or another valid manifest that a rerun
        # replaces; anything else is a corrupt manifest.
        clean = tree_bytes(pristine)
        manifest = clean.pop("out/manifest.json")
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            self.copy_of(pristine, root)
            (root / "out/manifest.json").write_bytes(self.flip_a_byte(data, manifest))
            err = StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
                code = main(["pipeline", "--config", str(root / "scene.cfg")])
            if code == EXIT_FORMAT:
                assert "manifest.json: corrupt manifest" in err.getvalue()
                return
            assert code == EXIT_OK
            after = tree_bytes(root)
            assert json.loads(after.pop("out/manifest.json")) == json.loads(manifest)
            assert after == clean

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(STAGE_KEYS))
    @example(("sim", "views"))  # fewer views once left the extra views' files behind
    def test_edited_key_reruns_from_the_first_stage_that_hashes_it(self, pristine, section_key):
        section, key = section_key
        first = next(i for i, stage in enumerate(STAGES) if section in stage.param_sections)
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            edited = self.copy_of(pristine, root / "edited")
            value = another_value(edited, section, key)
            os.makedirs(root / "cold")
            cold = validate_config(write_config(root / "cold", SMALL_SCENE, make_dataset=False),
                                   require_dataset=False)
            for cfg in (edited, cold):
                cfg.override(section, key, value)
            status = run_pipeline(edited)
            assert [status[stage.name] for stage in STAGES[:first + 1]] == \
                ["skipped"] * first + ["ran"]
            run_pipeline(cold)
            assert tree_bytes(root / "edited") == tree_bytes(root / "cold")


# Every dataset file of SMALL_SCENE, which a run on a real dataset reads
# without simulate.
DATASET_FILES = sorted(["cameras.txt", "scene.cfg", "touches.ply",
                        *(f"{kind}/view{v:03d}.{ext}" for v in range(2) for kind, ext in (
                            ("sparse", "txt"), ("gt_depth", "pfm"), ("rgb", "ppm"),
                            ("mono_depth", "pfm")))])


def flip_a_bit(blob, at):
    i = at // 8 % len(blob)
    return blob[:i] + bytes([blob[i] ^ 1 << at % 8]) + blob[i + 1:]


def edit_a_digit(blob, at):
    """`blob` with one of its ASCII digits made another digit."""
    digits = [i for i, byte in enumerate(blob) if byte in b"0123456789"]
    i = digits[at % len(digits)]
    digit = ord("0") + (blob[i] - ord("0") + 1 + at % 9) % 10
    return blob[:i] + bytes([digit]) + blob[i + 1:]


# damage -> its edit of a file's bytes, at a place `at` picks
DAMAGES = {
    "emptied": lambda blob, at: b"",
    "cut in half": lambda blob, at: blob[:len(blob) // 2],
    "flipped bit": flip_a_bit,
    "edited digit": edit_a_digit,
    "last row appended": lambda blob, at: blob + blob.rstrip(b"\n").rsplit(b"\n", 1)[-1] + b"\n",
    "first row twice": lambda blob, at: (blob.split(b"\n", 1)[0] + b"\n") * 2,
}


class TestDamagedDatasetProperty:
    """A run without simulate, as on a real dataset, ends in exit 0 or a
    documented exit code, not a traceback, whichever dataset file is damaged
    and however. A warning is no failure: the CLI prints it and goes on."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(DATASET_FILES), st.sampled_from(sorted(DAMAGES)),
           st.integers(0, 2 ** 20))
    @example("sparse/view000.txt", "first row twice", 0)  # once ended align in a ValueError
    def test_damaged_file_ends_in_a_documented_exit_code(self, pristine, rel, damage, at):
        assert sorted(name[len("data/"):] for name in tree_bytes(pristine)
                      if name.startswith("data/")) == DATASET_FILES
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            TestRerunProperty.copy_of(pristine, root)
            path = root / "data" / rel
            path.write_bytes(DAMAGES[damage](path.read_bytes(), at))
            with contextlib.redirect_stderr(StringIO()), contextlib.redirect_stdout(StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["pipeline", "--config", str(root / "scene.cfg"),
                             "--stages", ",".join(STAGE_ORDER[1:])])
            assert code in {EXIT_OK} | {documented for documented, _ in FAILURES.values()}


class WriteCrash(Exception):
    """Stands in for a process that dies between two writes."""


def tree_bytes(root):
    """{path relative to root: bytes} of every file under data/ and out/."""
    files = {}
    for top in ("data", "out"):
        for directory, _, names in os.walk(root / top):
            for name in names:
                path = os.path.join(directory, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, root)] = fh.read()
    return files


# The stages that make at least 3 files of SMALL_SCENE.
MANY_WRITES = ("simulate", "gpis-render", "align", "fuse")


class TestCrashAfterWrite:
    """A run that dies right after a completed write, then a clean rerun,
    leave every file byte-identical to one clean run's."""

    @staticmethod
    def crash_run(cfg, monkeypatch, crashes):
        """Run the pipeline with atomic_write_bytes raising WriteCrash at the
        first write for whose name (`dataset:` or `out:` plus a path)
        crashes(name, write) returns True; `write` completes the write."""
        real_write = fileio.atomic_write_bytes

        def name_of(path):
            for tag, root in (("out", cfg.out), ("dataset", cfg.dataset)):
                rel = os.path.relpath(path, root)
                if not rel.startswith(".."):
                    return f"{tag}:{rel}"

        def write(path, data):
            if crashes(name_of(path), lambda: real_write(path, data)):
                raise WriteCrash(path)
            real_write(path, data)

        with monkeypatch.context() as patch:
            patch.setattr(fileio, "atomic_write_bytes", write)
            with pytest.raises(WriteCrash):
                run_pipeline(cfg)

    def rerun_matches_a_clean_run(self, cfg, pristine, tmp_path):
        run_pipeline(cfg)
        assert tree_bytes(tmp_path) == tree_bytes(pristine)

    @pytest.mark.parametrize("stage", STAGES, ids=STAGE_ORDER)
    def test_crash_after_a_stages_first_write(self, pristine, tmp_path, monkeypatch, stage):
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)

        def crashes(name, write):
            if stage.produces(name):
                write()
                return True
            return False

        self.crash_run(cfg, monkeypatch, crashes)
        self.rerun_matches_a_clean_run(cfg, pristine, tmp_path)

    @staticmethod
    def file_count(pristine, stage):
        """How many files the stage makes in the clean run. It writes each
        of them once, so its last write is the one that reaches this count."""
        names = [path.replace("data/", "dataset:", 1).replace("out/", "out:", 1)
                 for path in tree_bytes(pristine)]
        return sum(map(stage.produces, names))

    def crash_after_write(self, pristine, tmp_path, monkeypatch, stage, count):
        """Crash right after the stage's count-th write, then rerun."""
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        writes = []

        def crashes(name, write):
            if not stage.produces(name):
                return False
            writes.append(name)
            if len(writes) < count:
                return False
            write()
            return True

        self.crash_run(cfg, monkeypatch, crashes)
        assert len(set(writes)) == len(writes) == count
        self.rerun_matches_a_clean_run(cfg, pristine, tmp_path)

    @pytest.mark.parametrize("stage", STAGES, ids=STAGE_ORDER)
    def test_crash_after_a_stages_last_write(self, pristine, tmp_path, monkeypatch, stage):
        self.crash_after_write(pristine, tmp_path, monkeypatch, stage,
                               self.file_count(pristine, stage))

    @pytest.mark.parametrize("name", MANY_WRITES)
    def test_crash_after_a_stages_middle_write(self, pristine, tmp_path, monkeypatch, name):
        """The crash comes after write ceil(last / 2) of a stage that makes
        at least 3 files, so that the stage leaves some written and some not."""
        stage = STAGES[STAGE_ORDER.index(name)]
        last = self.file_count(pristine, stage)
        assert last >= 3
        self.crash_after_write(pristine, tmp_path, monkeypatch, stage, -(-last // 2))

    def test_crash_in_a_rerender_leaves_align_no_mix_of_two_renders(self, built, tmp_path,
                                                                     monkeypatch, capsys):
        """gpis-render at another max_steps dies right after writing
        view000's GPIS depth, so out/ holds that image beside the last
        complete render's other images, and the manifest still holds that
        render's record. align, run alone, stops at the new image instead
        of aligning against the mix."""
        built.override("march", "max_steps", 3)
        render = STAGES[STAGE_ORDER.index("gpis-render")]

        def crashes(name, write):
            if render.produces(name):
                write()
                return True
            return False

        with pytest.warns(RuntimeWarning, match="ran out of max_steps=3"):
            self.crash_run(built, monkeypatch, crashes)
        assert main(["align", "--config", str(tmp_path / "scene.cfg")]) == EXIT_DEPENDENCY
        assert capsys.readouterr().err == (
            "dependency error: out:view000_gpis_depth.pfm is not the file the gpis-render stage "
            "wrote; run the gpis-render stage first\n")

    @pytest.mark.parametrize("completed", [True, False], ids=["after", "instead-of"])
    @pytest.mark.parametrize("stage", STAGE_ORDER)
    def test_crash_at_the_manifest_write_after_a_stage(self, pristine, tmp_path, monkeypatch,
                                                       stage, completed):
        """The crash comes after the manifest write that records `stage`,
        or in its place, so that the stage's files are on disk unrecorded."""
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        manifest_writes = []

        def crashes(name, write):
            if name != "out:manifest.json":
                return False
            manifest_writes.append(name)
            if len(manifest_writes) <= STAGE_ORDER.index(stage):
                return False
            if completed:
                write()
            return True

        self.crash_run(cfg, monkeypatch, crashes)
        self.rerun_matches_a_clean_run(cfg, pristine, tmp_path)


class TestKilledWriter:
    """A process killed between a temp write and its rename leaves a temp
    file; the rerun removes it and ends byte-identical to a clean run."""

    @pytest.mark.parametrize("target", ["out/view000_align.txt", "data/rgb/view000.ppm"])
    def test_killed_before_rename(self, pristine, tmp_path, target):
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        pid = os.fork()
        if pid == 0:
            try:
                replace = os.replace

                def killed_at_target(src, dst):
                    if os.path.relpath(dst, tmp_path) == target:
                        os.kill(os.getpid(), signal.SIGKILL)
                    replace(src, dst)

                os.replace = killed_at_target
                run_pipeline(cfg)
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        left = [name for name in tree_bytes(tmp_path) if os.path.basename(name).startswith(".tmp-")]
        assert [os.path.dirname(name) for name in left] == [os.path.dirname(target)]
        run_pipeline(cfg)
        assert tree_bytes(tmp_path) == tree_bytes(pristine)
