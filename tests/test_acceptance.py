"""Acceptance suite: one test per release criterion, each printing a PASS
line at its stated tolerance (run with -s to see them live).

The bundled sphere scene (five orbit views, 200 simulated touches) is built
once per session through the real pipeline and shared by the scene-level
criteria.
"""

import math
import os
import time

import numpy as np
import pytest

from touchfuse import fileio, fuse, metrics, pipeline
from touchfuse.align import SparseDepth, align_object_offset, align_scale_offset
from touchfuse.config import validate_config
from touchfuse.fuse import PROVENANCE_FUSED, PROVENANCE_NONE, PROVENANCE_VISION, FusedSupervision
from touchfuse.geometry import look_at
from touchfuse.gpis import KernelParams, TouchReading, build_conditioning_set, fit
from touchfuse.sdfrender import (
    MISS_VAR,
    CameraModel,
    DepthVarImage,
    MarchParams,
    bounding_sphere,
    render_depth_variance,
)
from touchfuse.splat import LossConfig, SplatCloud, optimize, render
from touchfuse.touchsim import AnalyticShape, NoiseModel, ShapeSDFModel, render_gt_depth, sample_touches

from oracles import Ray, composite_ray, fuse_pixel, grad_check, matern32

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED_CONFIG = os.path.join(REPO_ROOT, "configs", "sphere_scene.cfg")


def report(number, text):
    print(f"\nACCEPTANCE {number:02d} {text}: PASS")


def make_scene_config(root, subdir="run"):
    """Copy the bundled scene config into `root` with local data/out dirs."""
    os.makedirs(os.path.join(root, subdir), exist_ok=True)
    with open(BUNDLED_CONFIG, "r", encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("../data/sphere", "data").replace("../out/sphere", "out")
    path = os.path.join(root, subdir, "scene.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """Full pipeline run on the bundled sphere scene, shared by scene tests."""
    root = str(tmp_path_factory.mktemp("acceptance"))
    cfg_path = make_scene_config(root)
    cfg = validate_config(cfg_path, require_dataset=False)
    started = time.perf_counter()
    status = pipeline.run_pipeline(cfg)
    elapsed = time.perf_counter() - started
    assert all(v == "ran" for v in status.values())
    return {"root": root, "config_path": cfg_path, "cfg": cfg, "build_seconds": elapsed}


def unit_sphere_conditioning(n_surface, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_surface, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return build_conditioning_set([TouchReading(dirs, dirs)], 0.05, 0.02, n_slices=2)


def test_criterion_01_gp_interpolation():
    cset = unit_sphere_conditioning(16, seed=1)
    assert len(cset) == 50
    params = KernelParams(0.6, 1.0, 0.0, prior_mean=0.0)
    started = time.perf_counter()
    model = fit(cset, params)
    mean, _ = model.query(cset.locations)
    elapsed = time.perf_counter() - started

    # independent dense-solve oracle
    d = np.linalg.norm(cset.locations[:, None, :] - cset.locations[None, :, :], axis=2)
    s = math.sqrt(3.0) * d / params.length_scale
    gram = params.output_scale ** 2 * (1.0 + s) * np.exp(-s)
    oracle = gram @ np.linalg.solve(gram, cset.targets)

    assert np.max(np.abs(mean - cset.targets)) < 1e-5
    assert np.max(np.abs(mean - oracle)) < 1e-5
    assert elapsed < 1.0
    report(1, f"GP interpolation (max err {np.max(np.abs(mean - cset.targets)):.2e}, "
              f"{elapsed * 1e3:.0f} ms)")


def test_criterion_02_kernel_closed_form():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        dist = rng.uniform(0.0, 5.0)
        rho = rng.uniform(0.05, 2.0)
        sigma = rng.uniform(0.1, 3.0)
        got = matern32(dist, KernelParams(rho, sigma))
        arg = math.sqrt(3.0) * dist / rho
        expected = sigma * sigma * (1.0 + arg) * math.exp(-arg)
        worst = max(worst, abs(got - expected) / abs(expected))
    assert worst < 1e-12
    report(2, f"Matern-3/2 closed form (worst rel err {worst:.2e})")


def test_criterion_03_sphere_tracing_halving():
    model = ShapeSDFModel(AnalyticShape("sphere", (1.0,)))
    ray = Ray(np.array([0.0, 0.0, -3.0]), np.array([0.0, 0.0, 1.0]))
    params = MarchParams(step_fraction=0.5, min_step=1e-6, hit_tol=1e-9, max_steps=300)
    t = 0.0
    distances = []
    while True:
        sdf = float(model.query_mean(ray.point_at(t)[None, :])[0])
        if params.step_fraction * sdf < params.min_step:
            break  # entering the min-step regime
        distances.append(sdf)
        t += max(params.step_fraction * sdf, params.min_step)
    distances = np.asarray(distances)
    assert distances.size > 15
    ratios = distances[1:] / distances[:-1]
    assert np.max(np.abs(ratios - 0.5)) < 1e-9
    assert np.max(np.abs(distances - 2.0 * 0.5 ** np.arange(distances.size))) < 1e-9
    report(3, f"sphere-tracing halving over {distances.size} steps "
              f"(max ratio err {np.max(np.abs(ratios - 0.5)):.1e})")


def test_criterion_04_gpis_reconstruction():
    started = time.perf_counter()
    shape = AnalyticShape("sphere", (1.0,))
    touches = sample_touches(shape, 200, 0.15, 64, NoiseModel(point_sigma=1e-3), seed=4)
    cset = build_conditioning_set(touches, 0.03, 0.01, n_slices=8, voxel=0.1)
    model = fit(cset, KernelParams(0.3, 0.5, 1e-6, prior_mean=0.5))
    cam = CameraModel(48.0, 48.0, 31.5, 31.5, 64, 64, look_at([0, 0, -3], [0, 0, 0]))
    params = MarchParams(0.9, 1e-3, 1e-4, 200)
    sphere = bounding_sphere(model.conditioning, 0.1, min_radius=params.min_step)
    image = render_depth_variance(model, cam, params, sphere)
    analytic = render_gt_depth(shape, cam)
    both = image.hit_mask & analytic.hit_mask
    assert both.sum() > 300
    median_err = float(np.median(np.abs(image.depth[both] - analytic.depth[both])))
    elapsed = time.perf_counter() - started
    assert median_err < 5e-3
    assert elapsed < 60.0
    report(4, f"GPIS reconstruction (median err {median_err:.2e} m, {elapsed:.1f} s)")


def test_criterion_05_alignment_recovery():
    rng = np.random.default_rng(5)
    raw = rng.uniform(1.0, 5.0, size=(48, 48))
    metric = 2.5 * raw + 0.3
    ys = rng.integers(0, 48, size=60)
    xs = rng.integers(0, 48, size=60)
    sparse = SparseDepth(np.stack([xs, ys], axis=1), metric[ys, xs])
    s, t, aligned = align_scale_offset(raw, sparse)
    assert abs(s - 2.5) < 1e-9 and abs(t - 0.3) < 1e-9

    wins = 0
    for seed in range(10):
        r = np.random.default_rng(seed)
        raw_n = r.uniform(1.0, 5.0, size=(64, 64))
        met = 2.5 * raw_n + 0.3
        ys = r.integers(0, 64, size=500)
        xs = r.integers(0, 64, size=500)
        noisy = met[ys, xs] + r.normal(scale=0.01, size=500)
        s_n, _, _ = align_scale_offset(raw_n, SparseDepth(np.stack([xs, ys], axis=1), noisy))
        wins += abs(s_n - 2.5) < 0.01
    assert wins >= 9

    cam = CameraModel(30.0, 30.0, 15.5, 15.5, 32, 32, np.eye(4))
    touch_depth = np.zeros((32, 32))
    touch_depth[8:24, 8:24] = 2.0
    touch = DepthVarImage(touch_depth, np.where(touch_depth > 0, 1e-4, MISS_VAR), cam)
    shifted = np.full((32, 32), 6.0)
    shifted[8:24, 8:24] = touch_depth[8:24, 8:24] + 0.05
    t_obj, updated = align_object_offset(shifted, touch, max_gap=3.0)
    assert abs(t_obj + 0.05) < 1e-12
    assert np.max(np.abs(updated[8:24, 8:24] - 2.0)) < 1e-12
    report(5, f"alignment recovery (noisy seeds {wins}/10, object offset {-t_obj:.3f})")


def test_criterion_06_fusion_exactness():
    rng = np.random.default_rng(6)
    cam = CameraModel(12.0, 12.0, 7.5, 7.5, 16, 16, np.eye(4))
    from touchfuse.align import AlignedVision

    vision = AlignedVision(rng.uniform(0.5, 6.0, size=(16, 16)),
                           rng.uniform(0.05, 2.0, size=(16, 16)), 1.0, 0.0)
    touch = DepthVarImage(rng.uniform(0.5, 6.0, size=(16, 16)),
                          rng.uniform(1e-4, 0.5, size=(16, 16)), cam)
    fused = fuse.fuse_images(vision, touch)
    for y in range(16):
        for x in range(16):
            mu, var = fuse_pixel(vision.depth[y, x], vision.variance[y, x],
                                 touch.depth[y, x], touch.variance[y, x])
            assert fused.depth[y, x] == mu
            assert fused.variance[y, x] == var
    np.testing.assert_allclose(1.0 / fused.variance,
                               1.0 / vision.variance + 1.0 / touch.variance, rtol=1e-10)
    assert np.all(fused.variance <= np.minimum(vision.variance, touch.variance))
    report(6, "fusion bit-exactness, precision additivity, variance bound")


def test_criterion_07_gradient_validity():
    rng = np.random.default_rng(712)
    n = 10
    positions = np.column_stack([
        rng.uniform(-0.6, 0.6, size=n),
        rng.uniform(-0.6, 0.6, size=n),
        rng.uniform(1.6, 2.4, size=n),
    ])
    cloud = SplatCloud(positions, rng.uniform(0.1, 0.9, size=(n, 3)),
                       rng.uniform(-1.0, 1.5, size=n), np.full(n, 0.22),
                       np.array([0.3, 0.3, 0.35]))
    cam = CameraModel(12.0, 12.0, 7.5, 7.5, 16, 16, np.eye(4))
    gt_rgb = rng.uniform(size=(16, 16, 3))
    depth = rng.uniform(1.5, 2.5, size=(16, 16))
    var = rng.uniform(0.01, 1.0, size=(16, 16))
    prov = np.full((16, 16), PROVENANCE_FUSED, dtype=np.uint8)
    prov[rng.uniform(size=(16, 16)) < 0.2] = PROVENANCE_NONE
    view = (gt_rgb, FusedSupervision(depth, var, prov), cam)
    cfg = LossConfig(depth_weight=0.8, sharpness=1.2, decay=1.0)
    err = grad_check(cloud, view, cfg, h=1e-5)
    assert err < 1e-4
    report(7, f"analytic gradients vs central differences (max rel err {err:.2e})")


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(100, 3))
    b = rng.normal(size=(100, 3)) + 0.25
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    ab, ba = d.min(axis=1), d.min(axis=0)
    assert metrics.chamfer(a, b) == 0.5 * (float(np.mean(ab)) + float(np.mean(ba)))
    assert metrics.hausdorff(a, b) == max(float(np.max(ab)), float(np.max(ba)))

    gt = rng.uniform(1.0, 3.0, size=(12, 12))
    pred = rng.uniform(1.0, 3.0, size=(12, 12))
    total = 0.0
    for y in range(12):
        for x in range(12):
            total += (pred[y, x] - gt[y, x]) ** 2
    got = float(np.mean(metrics.depth_sq_errors(pred, gt)))
    assert got == pytest.approx(total / 144.0, rel=1e-12)

    img1 = rng.uniform(size=(9, 9, 3))
    img2 = rng.uniform(size=(9, 9, 3))
    loop = 0.0
    for y in range(9):
        for x in range(9):
            for c in range(3):
                loop += (img1[y, x, c] - img2[y, x, c]) ** 2
    expected = 10.0 * math.log10(1.0 / (loop / (9 * 9 * 3)))
    assert metrics.psnr(img1, img2) == pytest.approx(expected, rel=1e-12)
    report(8, "chamfer/hausdorff exact vs brute force; depth MSE and PSNR vs loops")


def _load_scene_products(run):
    cfg = run["cfg"]
    record = fileio.read_keyvalues(pipeline._path(cfg, "dataset:scene.cfg"))
    shape = pipeline._shape_from_record(record)
    background = tuple(float(t) for t in record["background_color"].split())
    views = fileio.read_cameras(pipeline._path(cfg, "dataset:cameras.txt"))
    products = {"shape": shape, "background": background, "views": views,
                "gt_depth": {}, "gt_rgb": {}, "obj_mask": {},
                "fused_views": [], "vision_views": []}
    for name, cam in views:
        products["gt_depth"][name] = fileio.read_pfm(
            pipeline._path(cfg, f"dataset:gt_depth/{name}.pfm"))
        products["gt_rgb"][name] = fileio.read_ppm(
            pipeline._path(cfg, f"dataset:rgb/{name}.ppm"))
        products["obj_mask"][name] = render_gt_depth(shape, cam).hit_mask
        fd = fileio.read_pfm(pipeline._path(cfg, f"out:{name}_fused_depth.pfm"))
        fv = fileio.read_pfm(pipeline._path(cfg, f"out:{name}_fused_var.pfm"))
        pr = fileio.read_pgm(pipeline._path(cfg, f"out:{name}_provenance.pgm"))
        products["fused_views"].append(
            (products["gt_rgb"][name], FusedSupervision(fd, fv, pr), cam))
        vd = fileio.read_pfm(pipeline._path(cfg, f"out:{name}_vision_depth.pfm"))
        vv = fileio.read_pfm(pipeline._path(cfg, f"out:{name}_vision_var.pfm"))
        vision_prov = np.full(vd.shape, PROVENANCE_VISION, dtype=np.uint8)
        products["vision_views"].append(
            (products["gt_rgb"][name], FusedSupervision(vd, vv, vision_prov), cam))
    products["init"] = fileio.read_splat_ply(
        pipeline._path(cfg, "out:init.ply"), background=background)
    return products


def _depth_metrics(products, cloud):
    err_all, err_obj = [], []
    for name, cam in products["views"]:
        _, depth = render(cloud, cam)
        gt = products["gt_depth"][name]
        valid = (gt > 0) & (depth > 0)
        err_all.append((depth[valid] - gt[valid]) ** 2)
        obj = valid & products["obj_mask"][name]
        err_obj.append((depth[obj] - gt[obj]) ** 2)
    return (float(np.mean(np.concatenate(err_all))),
            float(np.mean(np.concatenate(err_obj))))


def test_criterion_09_directional_trend(bundled_run):
    started = time.perf_counter()
    products = _load_scene_products(bundled_run)
    init = products["init"]
    background = np.asarray(products["background"])
    iters, step = 150, 5e-3
    fused_cfg = LossConfig(depth_weight=1.0, sharpness=3.0, decay=0.99)
    color_cfg = LossConfig(depth_weight=0.0, sharpness=3.0, decay=1.0)

    ours = optimize(init, products["fused_views"], fused_cfg, iters, step=step)
    ours_metrics = _depth_metrics(products, ours)

    wins = 0
    rows = []
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        n = 800
        positions = rng.uniform(-1.5, 1.5, size=(n, 3))
        colors = rng.uniform(0.0, 1.0, size=(n, 3))
        base = SplatCloud(positions, colors, np.full(n, math.log(0.7 / 0.3)),
                          np.full(n, init.radii[0]), background)
        color_arm = optimize(base, products["fused_views"], color_cfg, iters, step=step)
        vision_arm = optimize(base, products["vision_views"], fused_cfg, iters, step=step)
        cm = _depth_metrics(products, color_arm)
        vm = _depth_metrics(products, vision_arm)
        won = (ours_metrics[0] < cm[0] and ours_metrics[1] < cm[1]
               and ours_metrics[0] < vm[0] and ours_metrics[1] < vm[1])
        wins += won
        rows.append((seed, cm, vm, won))

    elapsed = time.perf_counter() - started + bundled_run["build_seconds"]
    assert wins >= 9, rows
    assert elapsed < 600.0
    report(9, f"directional trend: fused+init D-MSE {ours_metrics[0]:.3f} / "
              f"D-MSE-O {ours_metrics[1]:.4f} beats color-only and vision-only "
              f"in {wins}/10 seeds ({elapsed:.0f} s)")


def test_criterion_10_compositing_conservation():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 14))
        alphas = rng.uniform(1e-5, 1.0 - 1e-5, size=n)
        depths = np.sort(rng.uniform(0.1, 8.0, size=n))
        items = [(a, (1.0, 1.0, 1.0), d) for a, d in zip(alphas, depths)]
        color, _, trans = composite_ray(items)
        worst = max(worst, abs(color[0] + trans - 1.0))
    assert worst < 1e-12
    report(10, f"compositing weight conservation over 10k rays (worst {worst:.1e})")


def test_criterion_11_pipeline_determinism(bundled_run, tmp_path):
    cfg_path_2 = make_scene_config(str(tmp_path), "repeat")
    cfg2 = validate_config(cfg_path_2, require_dataset=False)
    status = pipeline.run_pipeline(cfg2)
    assert all(v == "ran" for v in status.values())

    cfg1 = bundled_run["cfg"]
    mismatches = []
    total = 0
    for root1, root2 in ((cfg1.dataset, cfg2.dataset), (cfg1.out, cfg2.out)):
        files1 = sorted(
            os.path.relpath(os.path.join(dirpath, f), root1)
            for dirpath, _, fs in os.walk(root1) for f in fs
        )
        files2 = sorted(
            os.path.relpath(os.path.join(dirpath, f), root2)
            for dirpath, _, fs in os.walk(root2) for f in fs
        )
        assert files1 == files2
        for rel in files1:
            total += 1
            with open(os.path.join(root1, rel), "rb") as fa:
                blob1 = fa.read()
            with open(os.path.join(root2, rel), "rb") as fb:
                blob2 = fb.read()
            if blob1 != blob2:
                mismatches.append(rel)
    assert not mismatches, mismatches
    report(11, f"byte-identical artifacts across two runs ({total} files compared)")
