import numpy as np
import pytest

from touchfuse.align import (
    AlignedVision,
    SparseDepth,
    align_object_offset,
    align_scale_offset,
    align_vision,
    vision_uncertainty,
)
from touchfuse.sdfrender import MISS_VAR, CameraModel, DepthVarImage


def camera(w, h):
    return CameraModel(40.0, 40.0, (w - 1) / 2, (h - 1) / 2, w, h, np.eye(4))


def sample_sparse(depth_image, count, rng, noise_std=0.0):
    h, w = depth_image.shape
    ys = rng.integers(0, h, size=count)
    xs = rng.integers(0, w, size=count)
    depths = depth_image[ys, xs].copy()
    if noise_std:
        depths = depths + rng.normal(scale=noise_std, size=count)
    return SparseDepth(np.stack([xs, ys], axis=1), np.maximum(depths, 1e-3))


class TestScaleOffset:
    def test_noiseless_affine_recovery(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(1.0, 5.0, size=(24, 32))
        metric = 2.5 * raw + 0.3
        sparse = sample_sparse(metric, 40, rng)
        s, t, aligned = align_scale_offset(raw, sparse)
        assert abs(s - 2.5) < 1e-9
        assert abs(t - 0.3) < 1e-9
        np.testing.assert_allclose(aligned, metric, atol=1e-9)

    def test_identity_case(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.5, 4.0, size=(16, 16))
        sparse = sample_sparse(raw, 20, rng)
        s, t, _ = align_scale_offset(raw, sparse)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_noisy_monte_carlo_recovery(self):
        # Oracle: independent regression trials; the closed form must land
        # within |s - 2.5| < 0.01 and |t - 0.3| < 0.02 in >= 9/10 seeds.
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            raw = rng.uniform(1.0, 5.0, size=(64, 64))
            metric = 2.5 * raw + 0.3
            sparse = sample_sparse(metric, 500, rng, noise_std=0.01)
            s, t, _ = align_scale_offset(raw, sparse)
            if abs(s - 2.5) < 0.01 and abs(t - 0.3) < 0.02:
                wins += 1
        assert wins >= 9

    def test_rank_deficient_rejected(self):
        raw = np.full((8, 8), 2.0)
        sparse = SparseDepth([[0, 0], [3, 4]], [1.0, 2.0])
        with pytest.raises(ValueError, match="scale"):
            align_scale_offset(raw, sparse)

    def test_too_few_samples_rejected(self):
        raw = np.ones((8, 8))
        with pytest.raises(ValueError):
            align_scale_offset(raw, SparseDepth([[0, 0]], [1.0]))

    def test_perturbing_solution_never_improves(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            raw = rng.uniform(1.0, 4.0, size=(16, 16))
            metric = 1.7 * raw + 0.4
            sparse = sample_sparse(metric, 60, rng, noise_std=0.05)
            s, t, _ = align_scale_offset(raw, sparse)
            u, v = sparse.pixels[:, 0], sparse.pixels[:, 1]
            vals = raw[v, u]

            def objective(a, b):
                return np.sum((sparse.depths - (a * vals + b)) ** 2)

            base = objective(s, t)
            for ds in (-1e-3, 1e-3):
                for dt in (-1e-3, 0.0, 1e-3):
                    assert objective(s + ds, t + dt) >= base - 1e-12


class TestObjectOffset:
    def make_touch_image(self, depth, cam):
        var = np.where(depth > 0, 1e-4, MISS_VAR)
        return DepthVarImage(depth, var, cam)

    def test_constant_offset_recovery(self):
        cam = camera(16, 16)
        touch_depth = np.zeros((16, 16))
        touch_depth[4:12, 4:12] = 2.0
        touch = self.make_touch_image(touch_depth, cam)
        aligned = np.full((16, 16), 5.0)
        aligned[4:12, 4:12] = touch_depth[4:12, 4:12] + 0.05
        t_obj, updated = align_object_offset(aligned, touch, max_gap=3.0)
        assert t_obj == pytest.approx(-0.05, abs=1e-12)
        np.testing.assert_allclose(updated[4:12, 4:12], 2.0, atol=1e-12)

    def test_background_bit_exact(self):
        cam = camera(16, 16)
        rng = np.random.default_rng(2)
        touch_depth = np.zeros((16, 16))
        touch_depth[6:10, 6:10] = 1.5
        touch = self.make_touch_image(touch_depth, cam)
        aligned = rng.uniform(4.0, 6.0, size=(16, 16))
        aligned[6:10, 6:10] = 1.4
        _, updated = align_object_offset(aligned, touch, max_gap=3.0)
        outside = np.ones((16, 16), bool)
        outside[6:10, 6:10] = False
        assert np.array_equal(updated[outside], aligned[outside])

    def test_no_touch_hits_leaves_image(self):
        cam = camera(8, 8)
        touch = self.make_touch_image(np.zeros((8, 8)), cam)
        aligned = np.full((8, 8), 3.0)
        with pytest.warns(UserWarning):
            t_obj, updated = align_object_offset(aligned, touch, max_gap=3.0)
        assert t_obj == 0.0
        np.testing.assert_array_equal(updated, aligned)

    def test_gap_filter_excludes_outliers(self):
        # one overlapping pixel 5 m apart with a 3 m gate: excluded
        cam = camera(8, 8)
        touch_depth = np.zeros((8, 8))
        touch_depth[4, 4] = 7.0
        touch = self.make_touch_image(touch_depth, cam)
        aligned = np.full((8, 8), 2.0)
        with pytest.warns(UserWarning):
            t_obj, updated = align_object_offset(aligned, touch, max_gap=3.0)
        assert t_obj == 0.0
        np.testing.assert_array_equal(updated, aligned)


class TestVisionUncertainty:
    def test_zero_depth_gives_floor(self):
        var = vision_uncertainty(np.zeros((4, 4)), slope=0.1, floor=0.25)
        np.testing.assert_array_equal(var, np.full((4, 4), 0.25))

    def test_hand_value(self):
        var = vision_uncertainty(np.full((2, 2), 2.0), slope=0.1, floor=0.25)
        np.testing.assert_allclose(var, 0.29, rtol=1e-12)

    def test_quadratic_scaling(self):
        v1 = vision_uncertainty(np.array([[1.0]]), slope=0.2, floor=0.1)
        v2 = vision_uncertainty(np.array([[2.0]]), slope=0.2, floor=0.1)
        assert (v2[0, 0] - 0.1) == pytest.approx(4.0 * (v1[0, 0] - 0.1), rel=1e-12)

    def test_monotone_in_depth(self):
        depths = np.sort(np.random.default_rng(0).uniform(0, 10, size=100))
        var = vision_uncertainty(depths.reshape(1, -1), slope=0.3, floor=0.2).ravel()
        assert np.all(np.diff(var) >= 0.0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            vision_uncertainty(np.ones((2, 2)), slope=-0.1)
        with pytest.raises(ValueError):
            vision_uncertainty(np.ones((2, 2)), floor=0.0)


class TestAlignVision:
    def test_full_stack(self):
        cam = camera(16, 16)
        rng = np.random.default_rng(7)
        gt = rng.uniform(2.0, 6.0, size=(16, 16))
        gt[5:11, 5:11] = 2.0
        raw = (gt - 0.3) / 2.5
        touch_depth = np.zeros((16, 16))
        touch_depth[5:11, 5:11] = 1.9
        touch = DepthVarImage(touch_depth, np.where(touch_depth > 0, 1e-4, MISS_VAR), cam)
        sparse = sample_sparse(gt, 30, rng)
        out = align_vision(raw, sparse, touch, max_gap=3.0, slope=0.1, floor=0.25)
        assert isinstance(out, AlignedVision)
        assert out.s_star == pytest.approx(2.5, abs=1e-9)
        assert out.t_star == pytest.approx(0.3, abs=1e-9)
        assert out.t_object == pytest.approx(-0.1, abs=1e-9)
        np.testing.assert_allclose(out.depth[5:11, 5:11], 1.9, atol=1e-9)
        assert np.all(out.variance > 0.0)
