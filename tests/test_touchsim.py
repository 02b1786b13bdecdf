import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from touchfuse.geometry import look_at
from touchfuse.sdfrender import CameraModel
from touchfuse.touchsim import (
    SHAPE_KINDS,
    AnalyticShape,
    analytic_sdf,
    make_sparse_depth,
    render_gt_depth,
    sample_touches,
    sdf_gradient,
    surface_points,
)

from oracles import random_surface_point, sample_touches as sample_touches_one_at_a_time


def orbit_camera(eye, w=64, h=64, fx=48.0):
    return CameraModel(fx, fx, (w - 1) / 2, (h - 1) / 2, w, h, look_at(eye, [0, 0, 0]))


class TestAnalyticSDF:
    def test_sphere_values(self):
        sphere = AnalyticShape("sphere", (1.0,))
        assert analytic_sdf(sphere, [[0.0, 0.0, 2.0]]) == pytest.approx(1.0, abs=1e-15)
        assert analytic_sdf(sphere, [[0.0, 0.0, 0.0]]) == pytest.approx(-1.0, abs=1e-15)

    def test_box_corner_distance(self):
        box = AnalyticShape("box", (1.0, 1.0, 1.0))
        assert analytic_sdf(box, [[2.0, 2.0, 0.0]]) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert analytic_sdf(box, [[0.0, 0.0, 0.0]]) == pytest.approx(-1.0, abs=1e-15)

    def test_torus_values(self):
        torus = AnalyticShape("torus", (1.0, 0.25))
        assert analytic_sdf(torus, [[1.0, 0.0, 0.0]]) == pytest.approx(-0.25, abs=1e-15)
        assert analytic_sdf(torus, [[0.0, 0.0, 0.0]]) == pytest.approx(0.75, abs=1e-15)

    def test_gradient_unit_norm_off_medial_axis(self):
        rng = np.random.default_rng(0)
        for shape in (
            AnalyticShape("sphere", (1.0,)),
            AnalyticShape("box", (0.8, 0.6, 0.4)),
            AnalyticShape("torus", (1.0, 0.3)),
        ):
            pts = rng.uniform(-2.0, 2.0, size=(300, 3))
            sdf = analytic_sdf(shape, pts)
            keep = np.abs(sdf) > 0.05  # stay away from the surface-free skeleton
            grads = sdf_gradient(shape, pts[keep])
            norms = np.linalg.norm(grads, axis=1)
            medial = np.abs(norms - 1.0) > 1e-4
            # medial-axis points exist inside boxes/tori; they must be rare
            assert medial.mean() < 0.1
            assert np.all(np.abs(norms[~medial] - 1.0) <= 1e-4)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            AnalyticShape("cone", (1.0,))
        with pytest.raises(ValueError):
            AnalyticShape("sphere", (-1.0,))


class TestSampleTouches:
    def test_noiseless_points_on_surface_with_radial_normals(self):
        sphere = AnalyticShape("sphere", (1.0,))
        touches = sample_touches(sphere, 10, 0.1, 32, seed=0)
        for touch in touches:
            sdf = analytic_sdf(sphere, touch.points)
            assert np.max(np.abs(sdf)) < 1e-6
            radial = touch.points / np.linalg.norm(touch.points, axis=1, keepdims=True)
            assert np.max(np.linalg.norm(touch.normals - radial, axis=1)) < 1e-6

    def test_same_seed_identical(self):
        sphere = AnalyticShape("sphere", (1.0,))
        a = sample_touches(sphere, 5, 0.1, 16, 0.01, seed=9)
        b = sample_touches(sphere, 5, 0.1, 16, 0.01, seed=9)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.points, tb.points)
            np.testing.assert_array_equal(ta.normals, tb.normals)

    def test_symmetric_coverage_centroid(self):
        sphere = AnalyticShape("sphere", (1.0,))
        touches = sample_touches(sphere, 200, 0.1, 64, seed=1)
        pts = np.concatenate([t.points for t in touches])
        assert pts.shape == (200 * 64, 3)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.05

    def test_points_stay_within_patch(self):
        sphere = AnalyticShape("sphere", (1.0,))
        sigma = 0.002
        touches = sample_touches(sphere, 20, 0.08, 32, sigma, seed=3)
        for touch in touches:
            gaps = np.linalg.norm(touch.points[:, None] - touch.points[None, :], axis=2)
            assert np.max(gaps) < 2 * (0.08 * 1.05 + 4 * sigma)


SHAPE_SIZES = {
    "sphere": st.tuples(st.floats(0.2, 2.0)),
    "box": st.tuples(*[st.floats(0.2, 1.5)] * 3),
    "torus": st.tuples(st.floats(0.5, 1.5), st.floats(0.1, 0.4)),
}


class TestSampleTouchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SHAPE_KINDS).flatmap(
               lambda kind: SHAPE_SIZES[kind].map(lambda size: AnalyticShape(kind, size))),
           st.integers(1, 50), st.floats(0.01, 0.3), st.integers(1, 64),
           st.sampled_from([0.0, 0.001]), st.integers(0, 2 ** 32 - 1))
    def test_equals_one_touch_at_a_time(self, shape, n_touches, patch_radius,
                                        points_per_touch, point_sigma, seed):
        got = sample_touches(shape, n_touches, patch_radius, points_per_touch, point_sigma,
                             seed=seed)
        expected = sample_touches_one_at_a_time(shape, n_touches, patch_radius,
                                                points_per_touch, point_sigma, seed=seed)
        assert len(got) == len(expected) == n_touches
        for g, e in zip(got, expected):
            assert g.points.tobytes() == e.points.tobytes()
            assert g.normals.tobytes() == e.normals.tobytes()


class TestRenderGTDepth:
    def test_center_pixel_depth(self):
        sphere = AnalyticShape("sphere", (1.0,))
        cam = orbit_camera([0.0, 0.0, -3.0])
        depth = render_gt_depth(sphere, cam)
        cy, cx = int(cam.cy), int(cam.cx)
        # the principal point sits half a pixel away from this pixel center
        assert abs(depth[cy, cx] - 2.0) < 2e-3

    def test_exact_center_ray(self):
        sphere = AnalyticShape("sphere", (1.0,))
        cam = CameraModel(48.0, 48.0, 32.0, 32.0, 65, 65, look_at([0, 0, -3], [0, 0, 0]))
        depth = render_gt_depth(sphere, cam)
        assert abs(depth[32, 32] - 2.0) < 1e-5

    def test_grazing_rays_hit_as_in_closed_form(self):
        # Rays that graze the silhouette crawl at the minimum step; none may
        # run out of steps and be drawn as a miss.
        sphere = AnalyticShape("sphere", (1.0,))
        cam = CameraModel(48.0, 48.0, 32.0, 32.0, 65, 65, look_at([0, 0, -3], [0, 0, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            depth = render_gt_depth(sphere, cam)
        dirs, _ = cam.pixel_rays()
        b = dirs @ cam.position
        analytic = (b * b - (cam.position @ cam.position - 1.0) >= 0.0).reshape(65, 65)
        assert np.count_nonzero(depth > 0) == np.count_nonzero(analytic)
        np.testing.assert_array_equal(depth > 0, analytic)

    def test_facing_away_all_miss(self):
        sphere = AnalyticShape("sphere", (1.0,))
        cam = CameraModel(48.0, 48.0, 31.5, 31.5, 64, 64, look_at([0, 0, -3], [0, 0, -9]))
        assert not render_gt_depth(sphere, cam).any()

    def test_box_symmetric_columns(self):
        box = AnalyticShape("box", (0.5, 0.5, 0.5))
        cam = CameraModel(48.0, 48.0, 32.0, 32.0, 65, 65, look_at([0, 0, -3], [0, 0, 0]))
        depth = render_gt_depth(box, cam)
        mirrored = depth[:, ::-1]
        both = (depth > 0) & (mirrored > 0)
        assert both.sum() > 100
        np.testing.assert_allclose(depth[both], mirrored[both], atol=1e-6)


class TestSparseDepth:
    def make_gt(self, seed=0):
        sphere = AnalyticShape("sphere", (1.0,))
        cam = orbit_camera([0.0, 0.0, -3.0], w=96, h=96, fx=72.0)
        return render_gt_depth(sphere, cam)

    def test_zero_noise_matches_gt(self):
        gt = self.make_gt()
        sparse = make_sparse_depth(gt, 0.01, seed=0)
        for (u, v), d in zip(sparse.pixels, sparse.depths):
            assert d == gt[v, u]

    def test_sample_count_contract(self):
        gt = self.make_gt()
        hits = int(np.count_nonzero(gt))
        sparse = make_sparse_depth(gt, 0.008, seed=1)
        assert len(sparse) == int(round(0.008 * hits))

    def test_noise_std_scales_quadratically(self):
        # Monte-Carlo oracle over repeated draws at two depths
        coeff = 0.01
        rng_draws = {1.0: [], 2.0: []}
        for depth_val in rng_draws:
            base = np.full((16, 16), depth_val)
            for seed in range(80):
                sparse = make_sparse_depth(base, 0.01, coeff, seed=seed)
                rng_draws[depth_val].extend(sparse.depths - depth_val)
        std1 = np.std(rng_draws[1.0])
        std2 = np.std(rng_draws[2.0])
        assert std2 / std1 == pytest.approx(4.0, rel=0.2)

    def test_no_hits_rejected(self):
        with pytest.raises(ValueError, match="yields 0 samples"):
            make_sparse_depth(np.zeros((8, 8)), 0.01, seed=0)


def test_surface_points_on_surface():
    torus = AnalyticShape("torus", (1.0, 0.3))
    pts = surface_points(torus, 200, seed=2)
    sdf = analytic_sdf(torus, pts)
    assert np.max(np.abs(sdf)) < 1e-6


@pytest.mark.parametrize("shape", [
    AnalyticShape("sphere", (1.0,)),
    AnalyticShape("box", (0.5, 0.3, 0.2)),
    AnalyticShape("torus", (1.0, 0.35)),
], ids=lambda s: s.kind)
def test_surface_points_match_one_point_at_a_time(shape):
    # Oracle: one direction draw and eight projections per point, in turn.
    rng = np.random.default_rng(5)
    expected = np.array([random_surface_point(shape, rng) for _ in range(300)])
    np.testing.assert_array_equal(surface_points(shape, 300, seed=5), expected)
