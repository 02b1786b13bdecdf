import fcntl
import json
import os
import re
import shutil
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchfuse import fileio, fuse, gpis
from touchfuse.cli import (EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_FORMAT, EXIT_LOCKED,
                           EXIT_NUMERICAL, EXIT_OK, main)
from touchfuse.config import SCHEMA, parse_config_text, validate_config
from touchfuse.errors import ConfigError, DependencyError
from touchfuse.pipeline import STAGE_ORDER, STAGES, StageIO, run_pipeline

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
        assert cfg.get("march", "step_fraction") == 0.9
        assert cfg.get("loss", "depth_weight") == 1.0
        assert cfg.get("kernel", "prior_mean") == "auto"
        assert cfg.seed == 0

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

    def test_out_of_range_step_fraction(self):
        text = "[scene]\ndataset = a\nout = b\n[march]\nstep_fraction = 1.5\n"
        with pytest.raises(ConfigError, match="step_fraction.*out of range"):
            parse_config_text(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'out'"):
            parse_config_text("[scene]\ndataset = a\n")

    def test_bad_number(self):
        text = "[scene]\ndataset = a\nout = b\nseed = seven\n"
        with pytest.raises(ConfigError, match="line 4"):
            parse_config_text(text)

    def test_color_needs_three_components(self):
        text = "[scene]\ndataset = a\nout = b\n[sim]\nobject_color = 0.5 0.5\n"
        with pytest.raises(ConfigError, match="three color components"):
            parse_config_text(text)
        text = "[scene]\ndataset = a\nout = b\n[sim]\nbackground_color = 0.5 0.5 1.5\n"
        with pytest.raises(ConfigError, match="three color components"):
            parse_config_text(text)

    def test_removed_keys_are_unknown(self):
        for section, key in (("march", "t_max"), ("loss", "base_weight")):
            text = f"[scene]\ndataset = a\nout = b\n[{section}]\n{key} = 1.0\n"
            with pytest.raises(ConfigError, match=f"line 5: unknown key '{key}'"):
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
        cfg = parse_config_text("[scene]\ndataset = a\nout = b\n[march]\nstep_fraction = 0.5\n")
        cfg.override("march", "step_fraction", 0.25)
        assert cfg.get("march", "step_fraction") == 0.25
        with pytest.raises(ConfigError, match=r"^key 'step_fraction': value '1.5' out of range$"):
            cfg.override("march", "step_fraction", 1.5)
        with pytest.raises(ConfigError, match="^key 'vision_bias': value 'nan' is not finite$"):
            cfg.override("sim", "vision_bias", float("nan"))

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
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        run_pipeline(cfg, ["simulate"])
        cfg.override("sim", "touches", 6)
        run_pipeline(cfg, ["simulate"])
        assert sorted(os.listdir(os.path.join(cfg.dataset, "touches"))) == [
            f"touch{i:03d}.ply" for i in range(6)]


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
    def test_exit_code_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[march]\nstep_fraction = 2.0\n")
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
                         "eval_report.txt", "manifest.json"):
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


def model_without_points(blob):
    """A GPIS model file of no point with the kernel parameters of `blob`."""
    n = int.from_bytes(blob[8:12], "little")
    return blob[:8] + bytes(4) + blob[12 + 32 * n:12 + 32 * n + 32]


def model_without_surface_points(blob):
    """`blob`, a GPIS model file, with every point labelled interior."""
    n = int.from_bytes(blob[8:12], "little")
    return blob[:-n] + bytes([gpis.LABEL_INTERIOR]) * n


class TestExitCodes:
    """Failures that used to escape main() as tracebacks with exit code 1."""

    @pytest.mark.parametrize("extra, message", [
        ("[kernel]\nrho_grid = 0.3 -0.3\n", "line 6: key 'rho_grid'"),
        ("[kernel]\nrho_grid = 0.2 0.3 0.20\n", "line 6: key 'rho_grid': repeats a value"),
        ("[sim]\nshape = torus\nsize = 1.0\n", "line 7: key 'size'"),
        ("[sim]\nshape = torus\n", "line 6: key 'size'"),
        ("[sim]\nsize = 0.0\n", "line 6: key 'size'"),
        ("[sim]\nvision_bias = nan\n", "line 6: key 'vision_bias': value 'nan' is not finite"),
        ("[kernel]\nprior_mean = nan\n", "line 6: key 'prior_mean'"),
        ("[sim]\norbit_height = inf\n", "line 6: key 'orbit_height'"),
        ("[sim]\ntouch_noise = inf\n", "line 6: key 'touch_noise'"),
        ("[align]\nmax_gap = inf\n", "line 6: key 'max_gap'"),
        ("[sim]\nsparse_fraction = 0.0003\n",
         "line 6: key 'sparse_fraction': view000: fraction 0.0003 yields 1 samples"),
    ], ids=["negative-rho", "repeated-rho", "torus-one-radius", "torus-default-size", "zero-size",
            "nan-vision-bias", "nan-prior-mean", "inf-orbit-height", "inf-touch-noise",
            "inf-max-gap", "too-few-sparse-samples"])
    def test_value_that_fails_a_stage_is_a_config_error(self, tmp_path, capsys, extra, message):
        path = write_config(tmp_path, MINIMAL + extra, make_dataset=False)
        assert main(["pipeline", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "scene.cfg"
        path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
        assert main(["pipeline", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 5" in err and "UTF-8" in err

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

    @pytest.mark.parametrize("path, stage", [
        ("data/touches/touch000.ply", "gpis-fit"),
        ("out/gpis.model", "gpis-render"),
        ("out/view000_gpis_depth.pfm", "fuse"),
    ])
    def test_malformed_input_file(self, built, tmp_path, capsys, path, stage):
        blob = (tmp_path / path).read_bytes()
        (tmp_path / path).write_bytes(blob[: len(blob) // 2])
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
        ("data/touches/touch000.ply", "gpis-fit", drop_last_ply_value),
    ], ids=["camera-size", "camera-intrinsics", "bare-view", "sparse-two-columns",
            "sparse-empty", "ply-short-rows"])
    def test_short_line_in_a_text_file(self, built, tmp_path, capsys, path, stage, edit):
        target = tmp_path / path
        target.write_text(edit(target.read_text()))
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err

    @pytest.mark.parametrize("path, stage, edit, message", [
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"^\S+", "1000", text, count=1), "outside the 24x24 image"),
        ("data/sparse/view000.txt", "align",
         lambda text: text.splitlines(keepends=True)[0], "needs at least 2"),
        ("data/touches/touch000.ply", "gpis-fit",
         edit_first_ply_row(lambda row: row[:3] + ["2", "0", "0"]), "not unit length"),
        ("data/touches/touch000.ply", "gpis-fit",
         edit_first_ply_row(lambda row: row[:3] + ["nan"] * 3), "not unit length"),
        ("data/touches/touch000.ply", "gpis-fit",
         edit_first_ply_row(lambda row: ["inf"] + row[1:]), "must be finite"),
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"\S+\n", "nan\n", text, count=1), "must be finite"),
        ("data/sparse/view000.txt", "align",
         lambda text: re.sub(r"\S+\n", "inf\n", text, count=1), "must be finite"),
        ("data/sparse/view000.txt", "align", lambda text: re.sub(r"^\S+", "3.7", text, count=1),
         "line 1: pixel coordinates must be integers, found 3.7"),
        ("data/sparse/view000.txt", "align", lambda text: re.sub(r"^\S+", "nan", text, count=1),
         "line 1: pixel coordinates must be integers, found nan"),
    ], ids=["sparse-outside-image", "sparse-one-row", "ply-long-normal", "ply-nan-normal",
            "ply-infinite-point", "sparse-nan-depth", "sparse-inf-depth", "sparse-fractional-pixel",
            "sparse-nan-pixel"])
    def test_value_a_stage_cannot_use(self, built, tmp_path, capsys, path, stage, edit,
                                      message):
        target = tmp_path / path
        target.write_text(edit(target.read_text()))
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err and message in err

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
        ("data/mono_depth/view000.pfm", "align"),
        ("out/view000_gpis_var.pfm", "fuse"),
        ("out/view000_gpis_depth.pfm", "init-points"),
        ("data/rgb/view000.ppm", "train"),
        ("out/view000_provenance.pgm", "train"),
        ("out/view000_fused_depth.pfm", "train"),
        ("data/gt_depth/view000.pfm", "eval"),
    ])
    def test_view_image_of_another_size(self, built, tmp_path, capsys, path, stage):
        read, write = {".pfm": (fileio.read_pfm, fileio.write_pfm),
                       ".ppm": (fileio.read_ppm, fileio.write_ppm),
                       ".pgm": (fileio.read_pgm, fileio.write_pgm)}[os.path.splitext(path)[1]]
        target = tmp_path / path
        write(target, read(target)[:12, :12])
        assert main([stage, "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and os.path.basename(path) in err
        assert "12x12 image, but its camera is 24x24" in err

    @pytest.mark.parametrize("edit, message", [
        (model_without_points, "conditioning set is empty"),
        (model_without_surface_points, "no surface point"),
    ], ids=["no-point", "no-surface-point"])
    def test_model_file_without_surface_points(self, built, tmp_path, capsys, edit, message):
        path = tmp_path / "out" / "gpis.model"
        path.write_bytes(edit(path.read_bytes()))
        assert main(["gpis-render", "--config", str(tmp_path / "scene.cfg")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "malformed file" in err and "gpis.model" in err and message in err


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

    def test_march_max_steps_reruns_gpis_render_only(self, built):
        built.override("march", "max_steps", 199)
        status = run_pipeline(built)
        assert status["gpis-fit"] == "skipped"
        assert status["gpis-render"] == "ran"

    def test_added_touch_file_reruns_gpis_fit(self, built):
        touches = os.path.join(built.dataset, "touches")
        shutil.copy(os.path.join(touches, "touch000.ply"), os.path.join(touches, "extra.ply"))
        status = run_pipeline(built)
        assert status["simulate"] == "skipped"
        assert status["gpis-fit"] == "ran"

    def test_removed_touch_file_reruns_gpis_fit(self, built):
        os.unlink(os.path.join(built.dataset, "touches", "touch011.ply"))
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

    @pytest.mark.parametrize("stage", STAGES, ids=STAGE_ORDER)
    def test_crash_after_a_stages_last_write(self, pristine, tmp_path, monkeypatch, stage):
        """A stage writes each of its files once, so its last write is the
        one that brings it to the count of its files in the clean run."""
        cfg = validate_config(write_config(tmp_path, SMALL_SCENE, make_dataset=False),
                              require_dataset=False)
        names = [path.replace("data/", "dataset:", 1).replace("out/", "out:", 1)
                 for path in tree_bytes(pristine)]
        last = sum(map(stage.produces, names))
        writes = []

        def crashes(name, write):
            if not stage.produces(name):
                return False
            writes.append(name)
            if len(writes) < last:
                return False
            write()
            return True

        self.crash_run(cfg, monkeypatch, crashes)
        assert len(set(writes)) == len(writes) == last
        self.rerun_matches_a_clean_run(cfg, pristine, tmp_path)

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
