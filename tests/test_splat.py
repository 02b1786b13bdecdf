import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from touchfuse.errors import NumericalError
from touchfuse.fuse import PROVENANCE_FUSED, PROVENANCE_NONE, FusedSupervision
from touchfuse.geometry import identity_transform, look_at
from touchfuse.sdfrender import MISS_VAR, CameraModel, DepthVarImage
from touchfuse.splat import (
    FOOTPRINT_CAP_PX,
    Z_NEAR,
    LossConfig,
    SplatCloud,
    backproject_init,
    color_loss,
    depth_loss,
    footprint_pairs,
    optimize,
    render,
    total_loss,
    _project,
)
from touchfuse.touchsim import AnalyticShape, render_gt_depth

from oracles import composite_ray, grad_check


def camera(w=16, h=16, fx=12.0, pose=None):
    pose = identity_transform() if pose is None else pose
    return CameraModel(fx, fx, (w - 1) / 2, (h - 1) / 2, w, h, pose)


def logit(alpha):
    return math.log(alpha / (1.0 - alpha))


def random_cloud(rng, n, spread=0.6, depth_range=(1.6, 2.4), radius=0.22):
    pts = np.column_stack([
        rng.uniform(-spread, spread, size=n),
        rng.uniform(-spread, spread, size=n),
        rng.uniform(*depth_range, size=n),
    ])
    colors = rng.uniform(0.1, 0.9, size=(n, 3))
    logits = rng.uniform(-1.0, 1.5, size=n)
    return SplatCloud(pts, colors, logits, np.full(n, radius), np.array([0.3, 0.3, 0.35]))


def random_supervision(rng, w=16, h=16, none_frac=0.2):
    depth = rng.uniform(1.5, 2.5, size=(h, w))
    var = rng.uniform(0.01, 1.0, size=(h, w))
    prov = np.full((h, w), PROVENANCE_FUSED, dtype=np.uint8)
    none = rng.uniform(size=(h, w)) < none_frac
    prov[none] = PROVENANCE_NONE
    return FusedSupervision(depth, var, prov)


class TestCompositeRay:
    def test_single_almost_opaque_splat(self):
        color, depth, trans = composite_ray([(1.0 - 1e-6, (1.0, 0.0, 0.0), 2.0)])
        np.testing.assert_allclose(color, [1.0, 0.0, 0.0], atol=1e-5)
        assert depth == pytest.approx(2.0, abs=1e-5)
        assert trans == pytest.approx(0.0, abs=1e-5)

    def test_two_half_opacity_splats(self):
        color, depth, trans = composite_ray(
            [(0.5, (1.0, 0.0, 0.0), 1.0), (0.5, (0.0, 1.0, 0.0), 2.0)]
        )
        np.testing.assert_allclose(color, [0.5, 0.25, 0.0], atol=1e-15)
        assert depth == pytest.approx(1.0, abs=1e-15)
        assert trans == pytest.approx(0.25, abs=1e-15)

    def test_empty_list(self):
        color, depth, trans = composite_ray([])
        np.testing.assert_array_equal(color, [0.0, 0.0, 0.0])
        assert depth == 0.0
        assert trans == 1.0

    def test_unordered_input_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            composite_ray([(0.5, (1, 0, 0), 2.0), (0.5, (0, 1, 0), 1.0)])

    def test_weights_plus_transmittance_conserve(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = rng.integers(1, 12)
            alphas = rng.uniform(1e-4, 1.0 - 1e-4, size=n)
            depths = np.sort(rng.uniform(0.1, 5.0, size=n))
            items = [(a, (1.0, 1.0, 1.0), d) for a, d in zip(alphas, depths)]
            color, _, trans = composite_ray(items)
            # unit colors turn the blended color into the weight sum
            assert abs(color[0] + trans - 1.0) < 1e-12


class TestCompositingProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-4, 1.0 - 1e-4), st.floats(0.5, 6.0)),
                    min_size=1, max_size=12))
    def test_weights_and_transmittance_sum_to_one(self, splats):
        """Splats on the optical axis, in drawn (unsorted) depth order: at
        the centre pixel the blend weights plus the residual transmittance
        are 1, for the scalar blend and for the renderer alike."""
        alphas = np.array([a for a, _ in splats])
        depths = np.array([d for _, d in splats])
        n = len(splats)
        cam = camera(9, 9, fx=6.0)
        positions = np.column_stack([np.zeros(n), np.zeros(n), depths])
        logits = np.log(alphas / (1.0 - alphas))
        # Unit colors on black render the weight sum; black on white, the transmittance.
        weights = SplatCloud(positions, np.ones((n, 3)), logits, np.full(n, 0.3), np.zeros(3))
        clear = SplatCloud(positions, np.zeros((n, 3)), logits, np.full(n, 0.3), np.ones(3))
        rgb_w, _ = render(weights, cam)
        rgb_t, _ = render(clear, cam)

        order = np.lexsort((np.arange(n), depths))
        color, _, trans = composite_ray(
            [(weights.opacities[i], (1.0, 1.0, 1.0), depths[i]) for i in order])
        assert abs(color[0] + trans - 1.0) < 1e-12
        assert abs(rgb_w[4, 4, 0] + rgb_t[4, 4, 0] - 1.0) < 1e-12
        assert rgb_w[4, 4, 0] == color[0] and rgb_t[4, 4, 0] == trans


class TestRender:
    def test_empty_cloud_is_background(self):
        cloud = SplatCloud(np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0),
                           np.array([0.2, 0.4, 0.6]))
        rgb, depth = render(cloud, camera())
        np.testing.assert_allclose(rgb, np.broadcast_to([0.2, 0.4, 0.6], (16, 16, 3)))
        np.testing.assert_array_equal(depth, np.zeros((16, 16)))

    def test_center_splat_depth(self):
        cloud = SplatCloud([[0.0, 0.0, 2.0]], [[1.0, 0.0, 0.0]], [logit(1 - 1e-6)], [0.3],
                           np.zeros(3))
        cam = camera()
        rgb, depth = render(cloud, cam)
        cyx = (int(cam.cy), int(cam.cx))
        assert depth[cyx] == pytest.approx(2.0, abs=1e-5)
        np.testing.assert_allclose(rgb[cyx], [1.0, 0.0, 0.0], atol=1e-5)

    def test_matches_composite_ray_exactly(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 30)
        cam = camera()
        rgb, depth = render(cloud, cam)
        pix, sid, z = footprint_pairs(cloud, cam)
        alphas = cloud.opacities
        for p in np.unique(pix):
            sel = pix == p
            items = [(alphas[s], cloud.colors[s], zz) for s, zz in zip(sid[sel], z[sel])]
            color, d, trans = composite_ray(items)
            y, x = divmod(int(p), cam.width)
            expected_rgb = color + trans * cloud.background
            assert np.array_equal(rgb[y, x], expected_rgb)
            assert depth[y, x] == d

    def test_normalized_depth_is_convex_combination(self):
        # excluding the transmittance residual, the blend weights normalize
        # to a convex combination, so depth/weight-sum sits inside the span
        rng = np.random.default_rng(21)
        cloud = random_cloud(rng, 25)
        cam = camera()
        _, depth = render(cloud, cam)
        pix, sid, z = footprint_pairs(cloud, cam)
        alphas = cloud.opacities
        for p in np.unique(pix):
            sel = pix == p
            _, _, trans = composite_ray(
                [(alphas[s], cloud.colors[s], zz) for s, zz in zip(sid[sel], z[sel])]
            )
            weight_sum = 1.0 - trans
            y, x = divmod(int(p), cam.width)
            normalized = depth[y, x] / weight_sum
            assert z[sel].min() - 1e-9 <= normalized <= z[sel].max() + 1e-9

    def test_uncovered_pixels_show_background(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, 5)
        cam = camera()
        rgb, depth = render(cloud, cam)
        pix, _, _ = footprint_pairs(cloud, cam)
        covered = np.zeros(cam.width * cam.height, bool)
        covered[pix] = True
        covered = covered.reshape(cam.height, cam.width)
        np.testing.assert_allclose(
            rgb[~covered], np.broadcast_to(cloud.background, ((~covered).sum(), 3))
        )
        np.testing.assert_array_equal(depth[~covered], np.zeros((~covered).sum()))


def footprint_oracle(cloud, cam):
    """Brute-force footprint_pairs: the same coverage test on every
    (valid splat, image pixel), ordered by pixel, depth, then splat."""
    u, v, z, rx, ry, valid = _project(cloud, cam)
    idx = np.flatnonzero(valid)
    iy, ix = np.divmod(np.arange(cam.width * cam.height), cam.width)
    fx_ratio = (ix[None, :] - u[idx, None]) / rx[idx, None]
    fy_ratio = (iy[None, :] - v[idx, None]) / ry[idx, None]
    covered = fx_ratio ** 2 + fy_ratio ** 2 <= 1.0
    sid = np.broadcast_to(idx[:, None], covered.shape)[covered]
    pix = np.broadcast_to(np.arange(ix.size)[None, :], covered.shape)[covered]
    order = np.lexsort((sid, z[sid], pix))
    return pix[order], sid[order], z[sid][order]


def assert_pairs_equal(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)


# Camera-frame splats (x/z, y/z, z, radius). Depths include values at and
# behind Z_NEAR and a small shared set (ties); radii include ones whose
# footprint hits FOOTPRINT_CAP_PX; x/z and y/z reach past the image edges.
SPLAT = st.tuples(
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.one_of(st.sampled_from([-1.0, 0.0, Z_NEAR, 0.3, 1.0, 2.0]), st.floats(0.01, 4.0)),
    st.one_of(st.sampled_from([0.01, 0.05, 0.2, 5.0]), st.floats(0.002, 0.6)),
)


def camera_frame_cloud(splats):
    xr, yr, z, r = (np.array(col, dtype=np.float64) for col in zip(*splats))
    n = z.size
    return SplatCloud(np.column_stack([xr * z, yr * z, z]), np.full((n, 3), 0.5),
                      np.zeros(n), r)


class TestFootprintPairs:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(SPLAT, min_size=1, max_size=12))
    def test_equals_brute_force_oracle(self, splats):
        cloud = camera_frame_cloud(splats)
        cam = camera(w=17, h=13)
        assert_pairs_equal(footprint_pairs(cloud, cam), footprint_oracle(cloud, cam))

    def test_fixed_cloud_covers_every_case(self):
        splats = [
            (0.0, 0.0, 2.0, 0.05),      # reach 1
            (0.05, 0.0, 2.0, 0.2),      # reach 2, depth tie with the first
            (-0.2, 0.3, 1.0, 0.2),      # reach 3
            (0.0, 0.1, 0.3, 5.0),       # footprint capped
            (0.62, -0.55, 1.5, 0.3),    # clipped at the image corner
            (0.3, 0.2, Z_NEAR, 0.2),    # at the near plane: skipped
            (0.0, 0.0, -1.0, 0.2),      # behind the camera: skipped
            (0.0, 0.0, 2.0, 0.1),       # a third splat in the tie
        ]
        cloud = camera_frame_cloud(splats)
        cam = camera(w=17, h=13)
        u, v, z, rx, ry, valid = _project(cloud, cam)
        reach = np.ceil(np.maximum(rx, ry)[valid] + 0.5)
        assert np.unique(reach).size >= 4
        assert np.max(rx[valid]) == FOOTPRINT_CAP_PX
        assert valid.sum() == 6
        pix, sid, zz = footprint_pairs(cloud, cam)
        assert_pairs_equal((pix, sid, zz), footprint_oracle(cloud, cam))
        assert u[4] + rx[4] > cam.width - 1 and v[4] - ry[4] < 0
        assert np.any(sid == 4)
        centre = 6 * cam.width + 8
        at_centre = pix == centre
        assert list(sid[at_centre & (zz == 2.0)]) == [0, 1, 7]
        assert sid[at_centre][0] == 3

    def test_bincount_adds_in_pair_order_like_add_at(self):
        # What the gradient accumulation relies on: bincount(weights=...)
        # and np.add.at both add in index order starting from zero, so the
        # sums agree bit for bit even where the order changes the result.
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 7, size=4000)
        vals = rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-8, 8, size=(4000, 1))
        expected = np.zeros((9, 3))
        np.add.at(expected, idx, vals)
        got = np.column_stack(
            [np.bincount(idx, weights=vals[:, c], minlength=9) for c in range(3)]
        )
        assert got.tobytes() == expected.tobytes()
        reversed_sum = np.bincount(idx[::-1], weights=vals[::-1, 0], minlength=9)
        assert reversed_sum.tobytes() != expected[:, 0].tobytes()


class TestLosses:
    def test_color_loss_identical_images(self):
        img = np.random.default_rng(0).uniform(size=(8, 8, 3))
        assert color_loss(img, img) == 0.0

    def test_color_loss_single_term(self):
        gt = np.zeros((4, 4, 3))
        pred = gt.copy()
        pred[1, 2, 0] = 0.1
        assert color_loss(pred, gt) == pytest.approx(0.01, rel=1e-12)

    def test_color_loss_matches_loop(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(8, 8, 3))
        b = rng.uniform(size=(8, 8, 3))
        loop = 0.0
        for y in range(8):
            for x in range(8):
                for c in range(3):
                    loop += (a[y, x, c] - b[y, x, c]) ** 2
        assert color_loss(a, b) == pytest.approx(loop, rel=1e-12)

    def test_depth_loss_flat_weight_limit(self):
        rng = np.random.default_rng(6)
        sup = random_supervision(rng, none_frac=0.0)
        pred = rng.uniform(1.5, 2.5, size=(16, 16))
        cfg = LossConfig(1.0, 0.0, 1.0)
        expected = np.sum((pred - sup.depth) ** 2)
        assert depth_loss(pred, sup, cfg) == pytest.approx(expected, rel=1e-12)

    def test_depth_loss_hand_value(self):
        depth = np.array([[1.0]])
        sup = FusedSupervision(np.array([[1.5]]), np.array([[4.0]]),
                               np.array([[PROVENANCE_FUSED]], dtype=np.uint8))
        cfg = LossConfig(1.0, 1.0, 1.0)
        assert depth_loss(depth, sup, cfg) == pytest.approx(math.exp(-2.0) * 0.25, rel=1e-9)

    def test_depth_loss_skips_unsupervised(self):
        sup = FusedSupervision(np.zeros((4, 4)), np.full((4, 4), MISS_VAR),
                               np.full((4, 4), PROVENANCE_NONE, dtype=np.uint8))
        assert depth_loss(np.ones((4, 4)), sup, LossConfig()) == 0.0

    def test_depth_loss_monotone_in_sharpness(self):
        rng = np.random.default_rng(7)
        sup = random_supervision(rng, none_frac=0.0)
        pred = rng.uniform(1.0, 3.0, size=(16, 16))
        values = [depth_loss(pred, sup, LossConfig(1.0, w, 1.0))
                  for w in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_decay_weight(self):
        assert LossConfig(decay=0.9).decay == 0.9
        assert LossConfig(decay=1.0).decay == 1.0
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="decay"):
                LossConfig(decay=bad)


class TestBackprojection:
    def test_sphere_depths_lift_to_unit_norm(self):
        shape = AnalyticShape("sphere", (1.0,))
        images = []
        for angle in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            eye = [3.0 * math.cos(angle), 3.0 * math.sin(angle), 0.4]
            cam = camera(32, 32, fx=24.0, pose=look_at(eye, [0, 0, 0]))
            images.append(render_gt_depth(shape, cam))
        cloud = backproject_init(images)
        assert cloud.shape[0] > 500
        norms = np.linalg.norm(cloud, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 0.02

    def test_all_miss_warns_and_returns_empty(self):
        cam = camera(8, 8)
        img = DepthVarImage(np.zeros((8, 8)), np.full((8, 8), MISS_VAR), cam)
        with pytest.warns(UserWarning):
            cloud = backproject_init([img])
        assert cloud.shape == (0, 3)

    def test_round_trip_recovers_splat_positions(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 12, spread=0.5, radius=0.12)
        cloud.opacity_logits[:] = logit(1 - 1e-9)
        cam = camera(32, 32, fx=24.0)
        _, depth = render(cloud, cam)
        img = DepthVarImage(depth, np.where(depth > 0, 1e-6, MISS_VAR), cam)
        lifted = backproject_init([img])
        # every splat position should have a lifted point within one pixel footprint
        pixel_world = 2.4 / 24.0  # depth / fx
        for p in cloud.positions:
            dist = np.min(np.linalg.norm(lifted - p, axis=1))
            assert dist < cloud.radii[0] + pixel_world


def small_view(rng, cam=None):
    cam = cam or camera()
    gt_rgb = rng.uniform(size=(cam.height, cam.width, 3))
    return (gt_rgb, random_supervision(rng, cam.width, cam.height), cam)


class TestGradients:
    def test_grad_check_full_loss(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 10)
        view = small_view(rng)
        cfg = LossConfig(depth_weight=0.7, sharpness=1.3, decay=1.0)
        assert grad_check(cloud, view, cfg) < 1e-4

    def test_transparent_cloud_gradients(self):
        from touchfuse.splat import loss_gradients

        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 6)
        cloud.opacity_logits[:] = -30.0  # alpha ~ 1e-13: nothing rendered
        view = small_view(rng)
        cfg = LossConfig(0.5, 1.0, 1.0)
        loss, _, _, grads = loss_gradients(cloud, [view], cfg)
        # a fully transparent cloud reduces to the background-only scene:
        # same loss, vanishing gradients for every splat parameter
        empty = cloud.copy()
        empty.positions = np.empty((0, 3))
        empty.colors = np.empty((0, 3))
        empty.opacity_logits = np.empty(0)
        empty.radii = np.empty(0)
        assert loss == pytest.approx(total_loss(empty, [view], cfg), rel=1e-9)
        for grad in grads:
            assert np.max(np.abs(grad)) < 1e-8

    def test_richardson_consistency(self):
        # halving the step should shrink the central-difference error ~4x,
        # so both step sizes must agree with the analytic gradient
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, 5)
        view = small_view(rng)
        cfg = LossConfig(1.0, 1.0, 1.0)
        e1 = grad_check(cloud, view, cfg, h=1e-5)
        e2 = grad_check(cloud, view, cfg, h=2e-5)
        assert e1 < 1e-4 and e2 < 2e-4


class TestOptimize:
    def test_zero_iters_returns_input(self):
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 8)
        view = small_view(rng)
        out = optimize(cloud, [view], LossConfig(), 0)
        np.testing.assert_array_equal(out.positions, cloud.positions)
        np.testing.assert_array_equal(out.colors, cloud.colors)

    def test_self_consistency_recovery(self):
        rng = np.random.default_rng(16)
        target = random_cloud(rng, 20)
        cams = [camera(), camera(pose=look_at([0.4, 0.1, -0.3], [0, 0, 2.0]))]
        views = []
        for cam in cams:
            rgb, _ = render(target, cam)
            sup = FusedSupervision(
                np.zeros((cam.height, cam.width)),
                np.full((cam.height, cam.width), MISS_VAR),
                np.full((cam.height, cam.width), PROVENANCE_NONE, dtype=np.uint8),
            )
            views.append((rgb, sup, cam))
        start = target.copy()
        start.colors = target.colors + rng.normal(scale=0.25, size=(20, 3))
        cfg = LossConfig(depth_weight=0.0, decay=1.0)
        initial = total_loss(start, views, cfg)
        fitted = optimize(start, views, cfg, 1000, step=0.02)
        final = total_loss(fitted, views, cfg)
        assert final < 1e-3 * initial

    def test_final_loss_never_exceeds_initial(self):
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 15)
        views = [small_view(rng)]
        cfg = LossConfig(1.0, 1.0, 0.99)
        initial = total_loss(cloud, views, cfg)
        out = optimize(cloud, views, cfg, 50, step=5e-3)
        assert total_loss(out, views, cfg, depth_weight=cfg.depth_weight * cfg.decay ** 50) \
            <= initial + 1e-9

    def test_lambda_zero_ignores_supervision(self):
        rng = np.random.default_rng(18)
        cloud = random_cloud(rng, 10)
        cam = camera()
        gt_rgb = rng.uniform(size=(16, 16, 3))
        sup_a = random_supervision(np.random.default_rng(1))
        sup_b = random_supervision(np.random.default_rng(2))
        cfg = LossConfig(depth_weight=0.0, decay=1.0)
        out_a = optimize(cloud, [(gt_rgb, sup_a, cam)], cfg, 20, step=5e-3)
        out_b = optimize(cloud, [(gt_rgb, sup_b, cam)], cfg, 20, step=5e-3)
        np.testing.assert_array_equal(out_a.positions, out_b.positions)
        np.testing.assert_array_equal(out_a.colors, out_b.colors)
        np.testing.assert_array_equal(out_a.opacity_logits, out_b.opacity_logits)

    def test_divergence_raises_with_iteration(self):
        rng = np.random.default_rng(19)
        cloud = random_cloud(rng, 10)
        views = [small_view(rng)]
        # step far beyond the stability limit of the color quadratic
        # (positions and opacities frozen so saturation cannot rescue it)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="iteration"):
                optimize(cloud, views, LossConfig(0.0, 0.0, 1.0), 500,
                         step=5.0, group_scales=(0.0, 1.0, 0.0))

    def test_callback_rows(self):
        rng = np.random.default_rng(20)
        cloud = random_cloud(rng, 6)
        views = [small_view(rng)]
        rows = []
        optimize(cloud, views, LossConfig(decay=0.9), 5, step=1e-3,
                 callback=lambda row: rows.append(row))
        assert [r["iter"] for r in rows] == [0, 1, 2, 3, 4]
        lams = [r["lam"] for r in rows]
        assert lams[1] == pytest.approx(0.9 * lams[0])
