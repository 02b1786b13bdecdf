import math
import os
import re
import signal
import warnings

import numpy as np
import pytest

from touchfuse import sdfrender
from touchfuse.geometry import look_at, rotation_about_axis, make_transform
from touchfuse.gpis import ConditioningSet, KernelParams, LABEL_SURFACE, fit
from touchfuse.sdfrender import (
    MISS_VAR,
    BoundingSphere,
    CameraModel,
    DepthVarImage,
    MarchParams,
    bounding_sphere,
    render_depth_variance,
    sphere_entry_exit,
)
from touchfuse.touchsim import AnalyticShape, NoiseModel, render_gt_depth, sample_touches
from touchfuse.gpis import build_conditioning_set

from oracles import Ray, generate_ray, march, sphere_prefilter


def render(model, camera, params):
    """Render inside the conditioning set's bounding sphere at a 0.1 margin."""
    sphere = bounding_sphere(model.conditioning, 0.1, min_radius=params.min_step)
    return render_depth_variance(model, camera, params, sphere)


def simple_camera(width=64, height=64, fx=48.0, pose=None):
    pose = np.eye(4) if pose is None else pose
    return CameraModel(fx, fx, (width - 1) / 2.0, (height - 1) / 2.0, width, height, pose)


def ray_sphere_depth(origin, direction, center, radius):
    """Closed-form first intersection parameter, or None."""
    off = np.asarray(origin, float) - np.asarray(center, float)
    b = float(np.dot(direction, off))
    c = float(np.dot(off, off)) - radius ** 2
    disc = b * b - c
    if disc < 0:
        return None
    t = -b - math.sqrt(disc)
    return t if t >= 0 else None


class TestCameraAndRays:
    def test_principal_point_ray_is_forward(self):
        cam = simple_camera()
        ray = generate_ray(cam, (cam.cx, cam.cy))
        np.testing.assert_allclose(ray.direction, [0, 0, 1], atol=1e-15)
        np.testing.assert_array_equal(ray.origin, [0, 0, 0])

    def test_one_focal_length_offset(self):
        cam = simple_camera(width=128, fx=20.0)
        ray = generate_ray(cam, (cam.cx + cam.fx, cam.cy))
        np.testing.assert_allclose(ray.direction, np.array([1, 0, 1]) / math.sqrt(2), atol=1e-15)

    def test_rotated_pose_rotates_direction(self):
        rot = rotation_about_axis([0.2, 0.9, -0.1], 0.7)
        cam_id = simple_camera()
        cam_rot = simple_camera(pose=make_transform(rot, [0.0, 0.0, 0.0]))
        for px in [(3.0, 10.0), (40.0, 22.0), (63.0, 63.0)]:
            base = generate_ray(cam_id, px).direction
            moved = generate_ray(cam_rot, px).direction
            np.testing.assert_allclose(moved, rot @ base, atol=1e-12)

    def test_pixel_rays_and_backproject_match_scalar_rays(self):
        rot = rotation_about_axis([0.2, 0.9, -0.1], 0.7)
        cam = simple_camera(width=9, height=7, fx=6.0, pose=make_transform(rot, [0.3, -0.2, 1.0]))
        dirs, axis_cos = cam.pixel_rays()
        assert dirs.shape == (63, 3) and axis_cos.shape == (63,)
        for y in range(cam.height):
            for x in range(cam.width):
                ray = generate_ray(cam, (float(x), float(y)))
                i = y * cam.width + x
                np.testing.assert_allclose(dirs[i], ray.direction, atol=1e-15)
                lifted = cam.backproject(np.array([x]), np.array([y]), 2.0 * axis_cos[i:i + 1])
                np.testing.assert_allclose(lifted[0], ray.point_at(2.0), atol=1e-12)

    def test_out_of_bounds_pixel_rejected(self):
        cam = simple_camera()
        with pytest.raises(ValueError):
            generate_ray(cam, (64.0, 0.0))
        with pytest.raises(ValueError):
            generate_ray(cam, (0.0, -1.0))

    def test_bad_rotation_rejected(self):
        pose = np.eye(4)
        pose[0, 0] = 1.5
        with pytest.raises(ValueError):
            simple_camera(pose=pose)

    def test_non_unit_ray_rejected(self):
        with pytest.raises(ValueError):
            Ray(np.zeros(3), np.array([0.0, 0.0, 2.0]))


def surface_set(points):
    n = len(points)
    return ConditioningSet(points, np.zeros(n), np.full(n, LABEL_SURFACE, np.int8))


class TestBoundingSphere:
    def test_unit_sphere_points(self):
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(5000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sphere = bounding_sphere(surface_set(dirs), margin_frac=0.1)
        assert np.linalg.norm(sphere.center) < 0.05
        # brute-force: radius must cover the farthest point with the margin
        spread = np.max(np.linalg.norm(dirs - sphere.center, axis=1))
        assert sphere.radius == pytest.approx(1.1 * spread)
        assert 1.0 <= sphere.radius <= 1.15

    def test_single_point_floors_at_min_radius(self):
        sphere = bounding_sphere(surface_set([[1.0, 2.0, 3.0]]), 0.1, min_radius=1e-3)
        assert sphere.radius == 1e-3
        np.testing.assert_array_equal(sphere.center, [1.0, 2.0, 3.0])

    def test_antipodal_points(self):
        sphere = bounding_sphere(surface_set([[1, 0, 0], [-1, 0, 0]]), 0.1)
        np.testing.assert_allclose(sphere.center, [0, 0, 0], atol=1e-12)
        assert sphere.radius == pytest.approx(1.1)


class TestPrefilter:
    def test_origin_inside_sphere(self):
        ray = Ray(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        window = sphere_prefilter(ray, BoundingSphere(np.zeros(3), 2.0))
        assert window == (0.0, 2.0)

    def test_miss_returns_none(self):
        ray = Ray(np.array([0.0, 5.0, -10.0]), np.array([0.0, 0.0, 1.0]))
        assert sphere_prefilter(ray, BoundingSphere(np.zeros(3), 2.0)) is None

    def test_head_on_from_distance(self):
        r = 1.5
        ray = Ray(np.array([0.0, 0.0, -2.0 * r]), np.array([0.0, 0.0, 1.0]))
        window = sphere_prefilter(ray, BoundingSphere(np.zeros(3), r))
        assert window[0] == pytest.approx(r)
        assert window[1] == pytest.approx(3.0 * r)

    def test_behind_origin_rejected(self):
        ray = Ray(np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 1.0]))
        assert sphere_prefilter(ray, BoundingSphere(np.zeros(3), 1.0)) is None

    def test_vectorized_entry_exit_matches_scalar(self):
        cam = simple_camera(width=16, height=12, fx=6.0,
                            pose=look_at([0.3, -0.2, -2.5], [0, 0, 0]))
        sphere = BoundingSphere(np.array([0.1, 0.0, 0.2]), 0.9)
        dirs, _ = cam.pixel_rays()
        t_enter, t_exit, meets = sphere_entry_exit(cam.position - sphere.center, dirs,
                                                   sphere.radius)
        assert 0 < np.count_nonzero(meets) < dirs.shape[0]
        for i, direction in enumerate(dirs):
            window = sphere_prefilter(Ray(cam.position, direction), sphere)
            if window is None:
                assert not meets[i] or t_exit[i] < 0.0
            else:
                assert meets[i] and window == (max(t_enter[i], 0.0), t_exit[i])


class TestMarch:
    def setup_method(self):
        self.model = AnalyticShape("sphere", (1.0,))
        self.ray = Ray(np.array([0.0, 0.0, -3.0]), np.array([0.0, 0.0, 1.0]))

    def test_each_step_halves_distance(self):
        params = MarchParams(0.5, 1e-6, 1e-7, 200)
        t = 0.0
        distances = []
        for _ in range(40):
            sdf = self.model.query_mean(self.ray.point_at(t)[None, :])[0]
            if sdf < params.hit_tol:
                break
            distances.append(sdf)
            step = max(params.step_fraction * sdf, params.min_step)
            if params.step_fraction * sdf < params.min_step:
                break
            t += step
        ratios = np.array(distances[1:]) / np.array(distances[:-1])
        assert np.all(np.abs(ratios - 0.5) < 1e-9)

    def test_hit_matches_closed_form(self):
        params = MarchParams(0.9, 1e-4, 1e-5, 200)
        res = march(self.model, self.ray, params, (0.0, 6.0))
        assert res is not None
        t_hit, variance, steps = res
        assert abs(t_hit - 2.0) <= params.hit_tol + params.min_step
        assert variance == 0.0
        assert steps <= params.max_steps

    def test_grazing_ray_terminates(self):
        ray = Ray(np.array([1.0, 0.0, -3.0]), np.array([0.0, 0.0, 1.0]))
        params = MarchParams(0.9, 1e-4, 1e-4, 200)
        res = march(self.model, ray, params, sphere_prefilter(ray, BoundingSphere(np.zeros(3), 1.2)))
        if res is not None:
            # tangent point is (1, 0, 0) at t = 3
            assert abs(res[0] - 3.0) < 10 * params.hit_tol + 0.1

    def test_window_none_is_miss(self):
        assert march(self.model, self.ray, MarchParams(), None) is None

    def test_never_exceeds_max_steps(self):
        params = MarchParams(0.9, 1e-9, 1e-12, max_steps=25)
        res = march(self.model, self.ray, params, (0.0, 6.0))
        if res is not None:
            assert res[2] <= 25

    def test_exact_sdf_never_oversteps_first_crossing(self):
        # conservatism: on an exact SDF the hit parameter can exceed the
        # true root only by the minimum step
        rng = np.random.default_rng(2)
        params = MarchParams(1.0, 1e-4, 1e-5, 500)
        for _ in range(50):
            origin = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), -3.0])
            ray = Ray(origin, np.array([0.0, 0.0, 1.0]))
            true_t = ray_sphere_depth(origin, ray.direction, np.zeros(3), 1.0)
            res = march(self.model, ray, params, (0.0, 8.0))
            if true_t is None:
                continue
            assert res is not None
            assert res[0] <= true_t + params.min_step + 1e-12


class TestDepthVarImage:
    def test_sentinel_pairing_enforced(self):
        cam = simple_camera(width=8, height=8)
        depth = np.zeros((8, 8))
        var = np.ones((8, 8))
        img = DepthVarImage(depth, var, cam)
        assert np.all(img.variance == MISS_VAR)

    def test_negative_depth_rejected(self):
        cam = simple_camera(width=4, height=4)
        with pytest.raises(ValueError):
            DepthVarImage(-np.ones((4, 4)), np.ones((4, 4)), cam)


@pytest.fixture(scope="module")
def sphere_gpis():
    shape = AnalyticShape("sphere", (1.0,))
    touches = sample_touches(shape, 60, 0.25, 32, NoiseModel(), seed=4)
    cset = build_conditioning_set(touches, 0.03, 0.01, n_slices=6, voxel=0.12)
    return fit(cset, KernelParams(0.3, 0.5, 1e-6, prior_mean=0.5))


class TestRender:
    def test_facing_away_all_miss(self, sphere_gpis):
        pose = look_at([0.0, 0.0, -3.0], [0.0, 0.0, -9.0])
        cam = simple_camera(width=16, height=16, pose=pose)
        image = render(sphere_gpis, cam, MarchParams(0.9, 1e-3, 1e-4, 100))
        assert not image.hit_mask.any()
        assert np.all(image.variance == MISS_VAR)

    def test_gpis_depth_matches_analytic_sphere(self, sphere_gpis):
        cam = simple_camera(pose=look_at([0.0, 0.0, -3.0], [0.0, 0.0, 0.0]))
        image = render(sphere_gpis, cam, MarchParams(0.9, 1e-3, 1e-4, 200))
        errs = []
        for y in range(64):
            for x in range(64):
                if not image.hit_mask[y, x]:
                    continue
                ray = generate_ray(cam, (float(x), float(y)))
                t = ray_sphere_depth(ray.origin, ray.direction, np.zeros(3), 1.0)
                if t is None:
                    continue
                d_cam = np.array([(x - cam.cx) / cam.fx, (y - cam.cy) / cam.fy, 1.0])
                errs.append(abs(image.depth[y, x] - t / np.linalg.norm(d_cam)))
        assert len(errs) > 200
        assert np.median(errs) < 5e-3

    def test_repeat_render_bit_identical(self, sphere_gpis):
        cam = simple_camera(width=32, height=32, pose=look_at([0, 0, -3], [0, 0, 0]))
        params = MarchParams(0.9, 1e-3, 1e-4, 200)
        a = render(sphere_gpis, cam, params)
        b = render(sphere_gpis, cam, params)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_rays_out_of_steps_are_counted_in_a_warning(self, sphere_gpis):
        cam = simple_camera(width=16, height=16, pose=look_at([0, 0, -3], [0, 0, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = render(sphere_gpis, cam, MarchParams(0.9, 1e-3, 1e-4, 200))
        with pytest.warns(RuntimeWarning, match="max_steps=2") as record:
            short = render(sphere_gpis, cam, MarchParams(0.9, 1e-3, 1e-4, 2))
        exhausted, candidates = map(int, re.match(r"(\d+) of (\d+) candidate",
                                                  str(record[0].message)).groups())
        assert 0 < exhausted <= candidates - np.count_nonzero(short.hit_mask)
        assert np.count_nonzero(full.hit_mask & ~short.hit_mask) <= exhausted

    def test_batch_render_matches_scalar_march(self, sphere_gpis):
        cam = simple_camera(width=32, height=32, pose=look_at([0, 0, -3], [0, 0, 0]))
        params = MarchParams(0.9, 1e-3, 1e-4, 200)
        image = render(sphere_gpis, cam, params)
        sphere = bounding_sphere(sphere_gpis.conditioning, 0.1, min_radius=params.min_step)
        rng = np.random.default_rng(0)
        ys, xs = np.nonzero(image.hit_mask)
        pick = rng.choice(len(xs), size=min(10, len(xs)), replace=False)
        for i in pick:
            ray = generate_ray(cam, (float(xs[i]), float(ys[i])))
            res = march(sphere_gpis, ray, params, sphere_prefilter(ray, sphere))
            d_cam = np.array([(xs[i] - cam.cx) / cam.fx, (ys[i] - cam.cy) / cam.fy, 1.0])
            axis_cos = 1.0 / np.linalg.norm(d_cam)
            assert res[0] * axis_cos == image.depth[ys[i], xs[i]]
            assert res[1] == image.variance[ys[i], xs[i]]

    def test_prefilter_soundness_against_analytic_hits(self, sphere_gpis):
        cam = simple_camera(width=32, height=32, pose=look_at([0.2, -0.1, -3.0], [0, 0, 0]))
        params = MarchParams(0.9, 1e-3, 1e-4, 200)
        sphere = bounding_sphere(sphere_gpis.conditioning, 0.1, min_radius=params.min_step)
        for y in range(32):
            for x in range(32):
                ray = generate_ray(cam, (float(x), float(y)))
                t = ray_sphere_depth(ray.origin, ray.direction, np.zeros(3), 0.95)
                if t is None:
                    continue
                hit_point = ray.point_at(t)
                if np.linalg.norm(hit_point - sphere.center) <= sphere.radius:
                    assert sphere_prefilter(ray, sphere) is not None

    def test_ray_length_bounds_axis_depth(self, sphere_gpis):
        cam = simple_camera(pose=look_at([0, 0, -3], [0, 0, 0]))
        params = MarchParams(0.9, 1e-3, 1e-4, 200)
        image = render(sphere_gpis, cam, params)
        sphere = bounding_sphere(sphere_gpis.conditioning, 0.1, min_radius=params.min_step)
        ys, xs = np.nonzero(image.hit_mask)
        for y, x in list(zip(ys, xs))[::37]:
            ray = generate_ray(cam, (float(x), float(y)))
            res = march(sphere_gpis, ray, params, sphere_prefilter(ray, sphere))
            assert res[0] >= image.depth[y, x] - 1e-12


def candidate_count(model, camera, params):
    sphere = bounding_sphere(model.conditioning, 0.1, min_radius=params.min_step)
    dirs, _ = camera.pixel_rays()
    _, t_exit, meets = sphere_entry_exit(camera.position - sphere.center, dirs, sphere.radius)
    return int(np.count_nonzero(meets & (t_exit >= 0.0)))


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                    reason="needs os.fork and /proc/self/fd")
class TestSplitRender:
    cam = simple_camera(width=10, height=10, fx=8.0, pose=look_at([0.3, -0.2, -3.0], [0, 0, 0]))
    params = MarchParams(0.9, 1e-3, 1e-4, 200)

    @pytest.mark.parametrize("cpus", [1, 2, 3, "candidates + 1"])
    def test_any_cpu_count_gives_the_one_part_bits(self, sphere_gpis, on_cpus, cpus):
        one, forks = on_cpus(1, render, sphere_gpis, self.cam, self.params)
        assert forks == 0 and one.hit_mask.any()
        n = candidate_count(sphere_gpis, self.cam, self.params)
        cpus = n + 1 if cpus == "candidates + 1" else cpus
        split, forks = on_cpus(cpus, render, sphere_gpis, self.cam, self.params)
        assert forks == min(cpus, n) - 1
        np.testing.assert_array_equal(split.depth, one.depth)
        np.testing.assert_array_equal(split.variance, one.variance)

    def test_exhausted_rays_warn_once_with_the_serial_counts(self, sphere_gpis, on_cpus):
        params = MarchParams(0.9, 1e-3, 1e-4, 2)
        messages = []
        for cpus in (1, 3):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                on_cpus(cpus, render, sphere_gpis, self.cam, params)
            assert [w.category for w in record] == [RuntimeWarning]
            messages.append(str(record[0].message))
        assert messages[0] == messages[1]

    def test_child_exception_is_raised_in_the_parent(self, sphere_gpis, on_cpus, in_workers,
                                                     monkeypatch):
        def fail():
            raise ValueError("part failed in the child")

        monkeypatch.setattr(sdfrender, "_march_part", in_workers(fail, sdfrender._march_part))
        with pytest.raises(ValueError, match="^part failed in the child$"):
            on_cpus(3, render, sphere_gpis, self.cam, self.params)

    @pytest.mark.parametrize("end, status", [(lambda: os._exit(3), "3"),
                                             (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")])
    def test_child_ending_without_a_result_is_an_error(self, sphere_gpis, on_cpus, in_workers,
                                                       monkeypatch, end, status):
        monkeypatch.setattr(sdfrender, "_march_part", in_workers(end, sdfrender._march_part))
        with pytest.raises(RuntimeError, match=f"exited with status {status} without"):
            on_cpus(2, render, sphere_gpis, self.cam, self.params)

    def test_other_threads_keep_the_render_in_process(self, sphere_gpis, on_cpus, other_thread):
        assert on_cpus(3, render, sphere_gpis, self.cam, self.params)[1] == 0

    def test_analytic_ground_truth_never_forks(self, on_cpus, monkeypatch):
        def no_fork():
            raise AssertionError("render_gt_depth forked")

        monkeypatch.setattr(os, "fork", no_fork)
        image, _ = on_cpus(8, render_gt_depth, AnalyticShape("sphere", (1.0,)), self.cam)
        assert image.hit_mask.any()
