"""Each output check passes on a real tiny-scene run and fails on a copy of
its artifacts corrupted in one specific way."""

import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import scenes  # noqa: E402

TINY = scenes.WORKLOADS["tiny"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from touchfuse.config import validate_config
    from touchfuse.pipeline import run_pipeline

    work = str(tmp_path_factory.mktemp("tiny"))
    cfg = validate_config(scenes.config_path(TINY, BENCH, work, seed=1), require_dataset=False)
    status = run_pipeline(cfg)
    assert set(status.values()) == {"ran"}
    return cfg.dataset, cfg.out


@pytest.fixture
def run_copy(tiny_run, tmp_path):
    dataset, out = (shutil.copytree(src, tmp_path / name)
                    for src, name in zip(tiny_run, ("data", "out")))
    return str(dataset), str(out)


def write_pfm(path, image):
    header = f"Pf\n{image.shape[1]} {image.shape[0]}\n-1.0\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + np.asarray(image, "<f4")[::-1].tobytes())


def write_pgm(path, image):
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii") + image.tobytes())


def first_view(dataset):
    return checks.read_cameras(os.path.join(dataset, "cameras.txt"))[0][0]


def test_clean_run_passes_every_gating_check(tiny_run):
    dataset, out = tiny_run
    assert checks.check_touch_surface(dataset, out, TINY.shape, TINY.surface_bound) == []
    assert checks.check_alignment(dataset, out) == []
    assert checks.check_fusion(dataset, out) == []
    assert checks.check_train_log(out, 3) == []
    assert checks.check_eval(checks.read_eval(out)) == []


def test_shape_sdf_matches_known_distances():
    assert checks.shape_sdf("sphere", (1.0,), [[0, 0, 2.0]])[0] == pytest.approx(1.0)
    assert checks.shape_sdf("box", (0.8,), [[0, 0, 0]])[0] == pytest.approx(-0.8)
    assert checks.shape_sdf("box", (0.8,), [[1.8, 1.8, 0]])[0] == pytest.approx(2 ** 0.5)
    assert checks.shape_sdf("torus", (1.0, 0.35), [[1.0, 0, 0]])[0] == pytest.approx(-0.35)
    assert checks.shape_sdf("torus", (1.0, 0.35), [[0, 0, 0]])[0] == pytest.approx(0.65)


def test_scaled_gpis_depth_fails_surface_check(run_copy):
    dataset, out = run_copy
    path = os.path.join(out, f"{first_view(dataset)}_gpis_depth.pfm")
    write_pfm(path, checks.read_pfm(path) * 1.1)
    assert checks.check_touch_surface(dataset, out, TINY.shape, TINY.surface_bound)


def test_perturbed_scale_fails_alignment_check(run_copy):
    dataset, out = run_copy
    path = os.path.join(out, f"{first_view(dataset)}_align.txt")
    record = checks.read_keyvalues(path)
    record["s_star"] = repr(float(record["s_star"]) * 1.001)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in record.items()))
    assert any("s*" in msg for msg in checks.check_alignment(dataset, out))


def test_shifted_fused_depth_fails_fusion_check(run_copy):
    dataset, out = run_copy
    name = first_view(dataset)
    path = os.path.join(out, f"{name}_fused_depth.pfm")
    prov = checks.read_pgm(os.path.join(out, f"{name}_provenance.pgm"))
    depth = checks.read_pfm(path)
    depth[prov == checks.PROVENANCE_FUSED] += 0.01
    write_pfm(path, depth)
    assert any("weighted mean" in msg for msg in checks.check_fusion(dataset, out))


def test_fused_depth_outside_inputs_fails_fusion_check(run_copy):
    dataset, out = run_copy
    name = first_view(dataset)
    path = os.path.join(out, f"{name}_fused_depth.pfm")
    prov = checks.read_pgm(os.path.join(out, f"{name}_provenance.pgm"))
    depth = checks.read_pfm(path)
    depth[prov == checks.PROVENANCE_FUSED] += 100.0
    write_pfm(path, depth)
    assert any("outside its two inputs" in msg for msg in checks.check_fusion(dataset, out))


def test_inflated_fused_variance_fails_fusion_check(run_copy):
    dataset, out = run_copy
    path = os.path.join(out, f"{first_view(dataset)}_fused_var.pfm")
    write_pfm(path, checks.read_pfm(path) * 2.0)
    assert any("precision additivity" in msg for msg in checks.check_fusion(dataset, out))


def test_flipped_provenance_pixel_fails_fusion_check(run_copy):
    dataset, out = run_copy
    path = os.path.join(out, f"{first_view(dataset)}_provenance.pgm")
    prov = checks.read_pgm(path).copy()
    ys, xs = np.nonzero(prov == checks.PROVENANCE_FUSED)
    prov[ys[0], xs[0]] = checks.PROVENANCE_TOUCH
    write_pgm(path, prov)
    assert any("provenance" in msg for msg in checks.check_fusion(dataset, out))


def test_single_source_pixels_must_equal_their_source():
    vision = (np.array([[2.0, 0.0, 0.0]]), np.array([[0.5, 1e10, 1e10]]))
    touch = (np.array([[0.0, 3.0, 0.0]]), np.array([[1e10, 1e-4, 1e10]]))
    prov = np.array([[checks.PROVENANCE_VISION, checks.PROVENANCE_TOUCH,
                      checks.PROVENANCE_NONE]], dtype=np.uint8)
    fused = (np.array([[2.0, 3.0, 0.0]]), np.array([[0.5, 1e-4, 1e10]]))
    assert checks.check_fusion_view(vision, touch, fused, prov) == []
    for row, col, label in ((0, 0, "VISION"), (0, 1, "TOUCH"), (0, 2, "NONE")):
        bad = (fused[0].copy(), fused[1].copy())
        bad[0][row, col] += 0.5
        assert any(label in msg for msg in checks.check_fusion_view(vision, touch, bad, prov))


def test_missing_log_row_fails_train_log_check(run_copy):
    _, out = run_copy
    path = os.path.join(out, "train_log.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert checks.check_train_log(out, 3)


def test_train_surface_check_compares_trained_with_init(run_copy):
    _, out = run_copy
    shutil.copy(os.path.join(out, "init.ply"), os.path.join(out, "splats.ply"))
    assert checks.check_train_surface(out, TINY.shape) == []
    with open(os.path.join(out, "init.ply"), "r", encoding="ascii") as fh:
        text = fh.read()
    head, body = text.split("end_header\n")
    rows = np.loadtxt(body.splitlines(), ndmin=2)
    rows[:, :3] *= 1.2
    with open(os.path.join(out, "splats.ply"), "w", encoding="ascii") as fh:
        fh.write(head + "end_header\n" + "\n".join(" ".join(f"{x:.17g}" for x in r) for r in rows) + "\n")
    assert checks.check_train_surface(out, TINY.shape)


def test_nan_chamfer_fails_eval_check(run_copy):
    _, out = run_copy
    report = checks.read_eval(out)
    report["chamfer"] = float("nan")
    assert checks.check_eval(report)


def test_rerun_check_catches_a_stage_that_ran_or_a_changed_byte(run_copy):
    dataset, out = run_copy
    before = checks.snapshot(dataset, out)
    assert checks.check_rerun([{"simulate": "skipped"}], before,
                              checks.snapshot(dataset, out)) == []
    assert checks.check_rerun([{"simulate": "skipped"}, {"simulate": "ran"}], before, before)
    with open(os.path.join(out, "eval_report.txt"), "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert checks.check_rerun([{"simulate": "skipped"}], before, checks.snapshot(dataset, out))
