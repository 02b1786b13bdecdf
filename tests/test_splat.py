import math
import os
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from touchfuse import splat, workers
from touchfuse.errors import NumericalError
from touchfuse.geometry import look_at
from touchfuse.sdfrender import MISS_VAR, CameraModel
from touchfuse.splat import (
    FOOTPRINT_CAP_PX,
    Z_NEAR,
    LossConfig,
    SplatCloud,
    backproject_init,
    footprint_pairs,
    loss_gradients,
    optimize,
    render,
    _project,
)
from touchfuse.touchsim import AnalyticShape, render_gt_depth
from touchfuse.workers import PART_SECONDS

from oracles import (
    color_loss, composite_ray, depth_loss, grad_check, total_loss, view_loss_and_grads,
)


def camera(w=16, h=16, fx=12.0, pose=None):
    pose = np.eye(4) if pose is None else pose
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
    """Fused (depth, variance) images; about none_frac of the pixels have
    no supervision (depth 0)."""
    depth = rng.uniform(1.5, 2.5, size=(h, w))
    var = rng.uniform(0.01, 1.0, size=(h, w))
    depth[rng.uniform(size=(h, w)) < none_frac] = 0.0
    return depth, var


DECAYING = LossConfig(depth_weight=1.0, sharpness=1.0, decay=0.9)


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


# 32 splats on the centre pixel of a 17 x 13 image, the deepest column of
# the compositing table, and one disc that also covers its neighbours.
DEEP_PIXEL = [(0.0, 0.0, 1.0 + 0.1 * k, 0.001) for k in range(30)] + [
    (0.0, 0.0, 1.55, 0.1), (0.0, 0.0, 2.05, 0.2)]
# Splats whose discs cross each edge and corner of a 17 x 13 image from
# outside, at the image edge, and from inside.
EDGES = [(x, y, 1.0, 0.3) for x in (-0.75, -0.66, 0.0, 0.66, 0.75)
         for y in (-0.6, -0.5, 0.0, 0.5, 0.6) if (x, y) != (0.0, 0.0)]


class TestFootprintPairs:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(SPLAT, min_size=1, max_size=12))
    @example(DEEP_PIXEL)
    @example(EDGES)
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
        expected = np.sum((pred - sup[0]) ** 2)
        assert depth_loss(pred, *sup, cfg) == pytest.approx(expected, rel=1e-12)

    def test_depth_loss_hand_value(self):
        depth = np.array([[1.0]])
        sup = (np.array([[1.5]]), np.array([[4.0]]))
        cfg = LossConfig(1.0, 1.0, 1.0)
        assert depth_loss(depth, *sup, cfg) == pytest.approx(math.exp(-2.0) * 0.25, rel=1e-9)

    def test_depth_loss_skips_unsupervised(self):
        sup = (np.zeros((4, 4)), np.full((4, 4), MISS_VAR))
        assert depth_loss(np.ones((4, 4)), *sup, LossConfig(1.0, 1.0, 1.0)) == 0.0

    def test_depth_loss_monotone_in_sharpness(self):
        rng = np.random.default_rng(7)
        sup = random_supervision(rng, none_frac=0.0)
        pred = rng.uniform(1.0, 3.0, size=(16, 16))
        values = [depth_loss(pred, *sup, LossConfig(1.0, w, 1.0))
                  for w in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("depth_weight, sharpness", [
        (1.0, 3.0), (0.37, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0),
    ])
    def test_loss_gradients_terms_equal_oracle(self, depth_weight, sharpness):
        rng = np.random.default_rng(22)
        cloud = random_cloud(rng, 25)
        cfg = LossConfig(depth_weight, sharpness, 1.0)
        unsupervised = random_supervision(rng, none_frac=1.0)
        assert not np.any(unsupervised[0] > 0.0)
        views = [small_view(rng), small_view(rng, camera(12, 10)),
                 (rng.uniform(size=(16, 16, 3)), *unsupervised, camera())]
        for view in views:
            rgb_gt, fused_depth, fused_var, cam = view
            rgb, depth = render(cloud, cam)
            loss, c_loss, d_loss, _ = loss_gradients(cloud, [view], cfg)
            assert c_loss == color_loss(rgb, rgb_gt)
            assert d_loss == depth_loss(depth, fused_depth, fused_var, cfg)
            assert loss == total_loss(cloud, [view], cfg)

    def test_decay_weight(self):
        assert LossConfig(1.0, 1.0, decay=0.9).decay == 0.9
        assert LossConfig(1.0, 1.0, decay=1.0).decay == 1.0


class TestBackprojection:
    def test_sphere_depths_lift_to_unit_norm(self):
        shape = AnalyticShape("sphere", (1.0,))
        views = []
        for angle in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            eye = [3.0 * math.cos(angle), 3.0 * math.sin(angle), 0.4]
            cam = camera(32, 32, fx=24.0, pose=look_at(eye, [0, 0, 0]))
            views.append((render_gt_depth(shape, cam), cam))
        cloud = backproject_init(views)
        assert cloud.shape[0] > 500
        norms = np.linalg.norm(cloud, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 0.02

    def test_all_miss_raises(self):
        cam = camera(8, 8)
        view = (np.zeros((8, 8)), cam)
        with pytest.raises(NumericalError, match="no GPIS ray hit"):
            backproject_init([view, view])

    def test_round_trip_recovers_splat_positions(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 12, spread=0.5, radius=0.12)
        cloud.opacity_logits[:] = logit(1 - 1e-9)
        cam = camera(32, 32, fx=24.0)
        _, depth = render(cloud, cam)
        lifted = backproject_init([(depth, cam)])
        # every splat position should have a lifted point within one pixel footprint
        pixel_world = 2.4 / 24.0  # depth / fx
        for p in cloud.positions:
            dist = np.min(np.linalg.norm(lifted - p, axis=1))
            assert dist < cloud.radii[0] + pixel_world


def small_view(rng, cam=None):
    cam = cam or camera()
    gt_rgb = rng.uniform(size=(cam.height, cam.width, 3))
    return (gt_rgb, *random_supervision(rng, cam.width, cam.height), cam)


# Camera-frame splats (x/z, y/z, z, radius, r, g, b, alpha) for the
# gradient oracle: colors include signed zeros and negative values, and
# alphas reach 1 - 1e-12.
SHADED_SPLAT = st.tuples(
    st.floats(-0.6, 0.6),
    st.floats(-0.6, 0.6),
    st.floats(0.5, 3.0),
    st.one_of(st.sampled_from([0.001, 0.05, 0.2]), st.floats(0.002, 0.4)),
    *[st.one_of(st.sampled_from([-0.0, 0.0, -1.0]), st.floats(-1.0, 1.0))] * 3,
    st.one_of(st.sampled_from([1e-6, 0.5, 1.0 - 1e-12]), st.floats(1e-3, 0.999)),
)
# All splats on the one pixel of the image centre (ranks 0..7), one of
# them nearly opaque.
ONE_PIXEL = [(0.0, 0.0, 1.0 + 0.25 * k, 0.001, 0.1 * k, -0.2, 0.3, 0.6) for k in range(8)]
ONE_PIXEL[5] = ONE_PIXEL[5][:7] + (1.0 - 1e-12,)
# 32 splats on the image centre, the deepest column of the compositing
# table, one of whose discs also covers its neighbours, and splats whose
# discs cross each edge and corner of the 9 x 7 image.
DEEP_SHADED = [(0.0, 0.0, 1.0 + 0.05 * k, 0.001 if k % 11 else 0.1,
                0.03 * k - 0.5, -0.2, 0.3, 0.2 + 0.02 * k) for k in range(32)]
EDGE_SHADED = [(x, y, 1.0 + 0.02 * i, 0.2, 0.5, -0.04 * i, 0.9, 0.7)
               for i, (x, y) in enumerate((x, y) for x in (-0.42, -0.33, 0.0, 0.33, 0.42)
                                          for y in (-0.3, -0.25, 0.0, 0.25, 0.3))]


def shaded_cloud(splats, background):
    if not splats:
        return SplatCloud(np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0),
                          background)
    xr, yr, z, r, cr, cg, cb, a = (np.array(col, dtype=np.float64) for col in zip(*splats))
    return SplatCloud(np.column_stack([xr * z, yr * z, z]), np.column_stack([cr, cg, cb]),
                      np.log(a) - np.log1p(-a), r, background)


class TestGradientOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(SHADED_SPLAT, max_size=10), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 0.37, 1.0]), st.sampled_from([0.0, 1.3]),
           st.sampled_from([(0.3, 0.3, 0.35), (-0.0, 0.0, -0.5)]))
    @example([], 0, 1.0, 1.3, (0.3, 0.3, 0.35))
    @example(ONE_PIXEL, 1, 1.0, 1.3, (0.3, 0.3, 0.35))
    @example(ONE_PIXEL, 2, 0.0, 1.3, (-0.0, 0.0, -0.5))
    @example([s[:4] + (-0.0, 0.0, -0.0) + s[7:] for s in ONE_PIXEL], 3, 0.37, 0.0,
             (-0.0, 0.0, -0.5))
    @example(DEEP_SHADED, 4, 1.0, 1.3, (0.3, 0.3, 0.35))
    @example(EDGE_SHADED, 5, 0.37, 1.3, (-0.0, 0.0, -0.5))
    def test_view_terms_equal_per_pixel_oracle(self, splats, seed, depth_weight, sharpness,
                                               background):
        # All six outputs, signed zeros included, equal the scalar
        # per-pixel back-to-front reference bit for bit.
        cloud = shaded_cloud(splats, np.array(background))
        cam = camera(9, 7)
        rng = np.random.default_rng(seed)
        rgb_gt = rng.uniform(-0.5, 1.0, size=(cam.height, cam.width, 3))
        fused = random_supervision(rng, cam.width, cam.height, none_frac=0.3)
        cfg = LossConfig(depth_weight, sharpness, 1.0)
        got = splat._view_loss_and_grads(cloud, splat._view_target(rgb_gt, *fused, cam, cfg),
                                         depth_weight)
        expected = view_loss_and_grads(cloud, rgb_gt, *fused, cam, cfg, depth_weight)
        for g, e in zip(got, expected):
            assert np.asarray(g).tobytes() == np.asarray(e).tobytes()

    def test_one_pixel_case_ranks_every_splat(self):
        pix, _, _ = footprint_pairs(shaded_cloud(ONE_PIXEL, np.zeros(3)), camera(9, 7))
        assert pix.size == len(ONE_PIXEL) and np.unique(pix).size == 1


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
        out = optimize(cloud, [view], LossConfig(1.0, 1.0, 1.0), 0, step=1e-2)
        np.testing.assert_array_equal(out.positions, cloud.positions)
        np.testing.assert_array_equal(out.colors, cloud.colors)

    @pytest.mark.parametrize("iters", [0, 1, 4])
    def test_scores_every_iterate_without_rendering(self, monkeypatch, iters):
        calls = {"loss_gradients": 0, "render": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(splat, name, counted(name, getattr(splat, name)))
        rng = np.random.default_rng(24)
        rows = []
        optimize(random_cloud(rng, 8), [small_view(rng)], LossConfig(1.0, 1.0, 1.0), iters,
                 step=1e-3, callback=rows.append)
        assert calls == {"loss_gradients": iters, "render": 0}
        assert len(rows) == iters

    def test_returns_the_last_iterate(self):
        """A step past the color term's stability limit: the loss climbs
        above its initial value, and the last iterate is still returned."""
        rng = np.random.default_rng(41)
        cloud, views = random_cloud(rng, 8), [small_view(rng)]
        cfg, iters, step = LossConfig(1.0, 1.0, 0.99), 4, 0.4
        current, lam, losses = cloud.copy(), cfg.depth_weight, []
        for _ in range(iters):
            loss, _, _, (g_pos, g_col, g_logit) = loss_gradients(current, views, cfg, lam)
            losses.append(loss)
            current.positions -= step * g_pos
            current.colors -= step * g_col
            current.opacity_logits -= step * g_logit
            lam *= cfg.decay
        losses.append(loss_gradients(current, views, cfg, lam)[0])
        assert losses[-1] > min(losses)
        out = optimize(cloud, views, cfg, iters, step)
        for name in ("positions", "colors", "opacity_logits", "radii", "background"):
            assert getattr(out, name).tobytes() == getattr(current, name).tobytes()

    def test_self_consistency_recovery(self):
        rng = np.random.default_rng(16)
        target = random_cloud(rng, 20)
        cams = [camera(), camera(pose=look_at([0.4, 0.1, -0.3], [0, 0, 2.0]))]
        views = []
        for cam in cams:
            rgb, _ = render(target, cam)
            views.append((rgb, np.zeros((cam.height, cam.width)),
                          np.full((cam.height, cam.width), MISS_VAR), cam))
        start = target.copy()
        start.colors = target.colors + rng.normal(scale=0.25, size=(20, 3))
        cfg = LossConfig(depth_weight=0.0, sharpness=1.0, decay=1.0)
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
        cfg = LossConfig(depth_weight=0.0, sharpness=1.0, decay=1.0)
        out_a = optimize(cloud, [(gt_rgb, *sup_a, cam)], cfg, 20, step=5e-3)
        out_b = optimize(cloud, [(gt_rgb, *sup_b, cam)], cfg, 20, step=5e-3)
        np.testing.assert_array_equal(out_a.positions, out_b.positions)
        np.testing.assert_array_equal(out_a.colors, out_b.colors)
        np.testing.assert_array_equal(out_a.opacity_logits, out_b.opacity_logits)

    def test_divergence_raises_with_iteration(self):
        rng = np.random.default_rng(19)
        cloud = random_cloud(rng, 10)
        views = [small_view(rng)]
        # step far beyond the stability limit of the color quadratic
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="iteration"):
                optimize(cloud, views, LossConfig(0.0, 0.0, 1.0), 500, step=50.0)

    def test_callback_rows(self):
        rng = np.random.default_rng(20)
        cloud = random_cloud(rng, 6)
        views = [small_view(rng)]
        rows = []
        optimize(cloud, views, DECAYING, 5, step=1e-3,
                 callback=lambda row: rows.append(row))
        assert [r["iter"] for r in rows] == [0, 1, 2, 3, 4]
        lams = [r["lam"] for r in rows]
        assert lams[1] == pytest.approx(0.9 * lams[0])


def four_views(rng):
    eyes = [[0.4, 0.1, -0.3], [-0.3, 0.2, -0.2], [0.1, -0.4, -0.1]]
    cams = [camera()] + [camera(pose=look_at(eye, [0.0, 0.0, 2.0])) for eye in eyes]
    return [small_view(rng, cam) for cam in cams]


def bits(cloud, rows):
    return ([a.tobytes() for a in (cloud.positions, cloud.colors, cloud.opacity_logits)],
            repr(rows))


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                    reason="needs os.fork and /proc/self/fd")
class TestSplitTrain:
    @pytest.mark.parametrize("cpus", [1, 2, 3, "views + 1"])
    def test_any_cpu_count_gives_the_one_process_bits(self, on_cpus, cpus):
        rng = np.random.default_rng(30)
        cloud, views = random_cloud(rng, 12), four_views(rng)
        one_rows, rows = [], []
        one, forks = on_cpus(1, optimize, cloud, views, DECAYING, 4, step=1e-3,
                             callback=one_rows.append)
        assert forks == 0 and len(one_rows) == 4
        cpus = len(views) + 1 if cpus == "views + 1" else cpus
        split, forks = on_cpus(cpus, optimize, cloud, views, DECAYING, 4, step=1e-3,
                               callback=rows.append)
        assert forks == min(cpus, len(views)) - 1
        assert bits(split, rows) == bits(one, one_rows)

    def test_worker_exception_is_raised_in_the_parent(self, on_cpus, in_workers, monkeypatch):
        def fail():
            raise ValueError("view failed in the worker")

        monkeypatch.setattr(splat, "_view_loss_and_grads",
                            in_workers(fail, splat._view_loss_and_grads))
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError, match="^view failed in the worker$"):
            on_cpus(3, optimize, random_cloud(rng, 8), four_views(rng), DECAYING, 4, step=1e-2)

    @pytest.mark.parametrize("end, status", [(lambda: os._exit(3), "3"),
                                             (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")])
    def test_worker_ending_without_a_result_is_an_error(self, on_cpus, in_workers, monkeypatch,
                                                        end, status):
        monkeypatch.setattr(splat, "_view_loss_and_grads",
                            in_workers(end, splat._view_loss_and_grads))
        rng = np.random.default_rng(32)
        with pytest.raises(RuntimeError, match=f"exited with status {status} without"):
            on_cpus(2, optimize, random_cloud(rng, 8), four_views(rng), DECAYING, 4, step=1e-2)

    def test_failing_callback_reaps_the_workers(self, on_cpus):
        def callback(row):
            if row["iter"] == 2:
                raise KeyError("callback failed")

        rng = np.random.default_rng(33)
        with pytest.raises(KeyError, match="callback failed"):
            on_cpus(3, optimize, random_cloud(rng, 8), four_views(rng), DECAYING, 4,
                    step=1e-2, callback=callback)

    def test_divergence_raises_as_in_one_process(self, on_cpus):
        rng = np.random.default_rng(19)
        cloud, views = random_cloud(rng, 10), four_views(rng)
        messages = []
        for cpus in (1, 3):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalError, match="iteration") as info:
                    on_cpus(cpus, optimize, cloud, views, LossConfig(0.0, 0.0, 1.0), 500,
                            step=50.0)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_other_threads_keep_training_in_process(self, on_cpus, other_thread):
        rng = np.random.default_rng(34)
        cloud, views = random_cloud(rng, 8), four_views(rng)
        assert on_cpus(3, optimize, cloud, views, DECAYING, 4, step=1e-2)[1] == 0

    def test_one_view_or_a_part_under_the_floor_never_forks(self, on_cpus, monkeypatch):
        rng = np.random.default_rng(35)
        cloud, views = random_cloud(rng, 8), four_views(rng)

        def forks(views):
            return on_cpus(3, optimize, cloud, views, DECAYING, 4, step=1e-2)[1]

        assert forks(views[:1]) == 0
        # Training's estimate; three parts would need a quarter of it each.
        pixels = sum(cam.width * cam.height for *_, cam in views)
        seconds = len(cloud) * pixels * 4 * splat.PASS_SECONDS
        monkeypatch.setattr(workers, "PART_SECONDS", np.nextafter(seconds / 2, np.inf))
        assert forks(views) == 0
        monkeypatch.setattr(workers, "PART_SECONDS", seconds / 2)
        assert forks(views) == 1
        monkeypatch.setattr(workers, "PART_SECONDS", PART_SECONDS)
        assert PART_SECONDS > seconds and forks(views) == 0
