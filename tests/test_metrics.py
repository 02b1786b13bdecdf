import math

import numpy as np
import pytest

from touchfuse.metrics import align_clouds, chamfer, depth_sq_errors, hausdorff, psnr

from oracles import rotation_about_axis


def depth_mse(pred, gt, mask=None):
    return float(np.mean(depth_sq_errors(pred, gt, mask)))


def brute_force_nn(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return d.min(axis=1), d.min(axis=0)


class TestDepthMSE:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(1.0, 3.0, size=(8, 8))
        assert depth_mse(depth, depth) == 0.0

    def test_uniform_offset(self):
        rng = np.random.default_rng(1)
        depth = rng.uniform(1.0, 3.0, size=(8, 8))
        assert depth_mse(depth + 0.1, depth) == pytest.approx(0.01, rel=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        gt = rng.uniform(1.0, 3.0, size=(8, 8))
        gt[0, :3] = 0.0  # miss pixels excluded
        pred = rng.uniform(1.0, 3.0, size=(8, 8))
        total, count = 0.0, 0
        for y in range(8):
            for x in range(8):
                if gt[y, x] > 0 and pred[y, x] > 0:
                    total += (pred[y, x] - gt[y, x]) ** 2
                    count += 1
        assert depth_mse(pred, gt) == pytest.approx(total / count, rel=1e-12)

    def test_full_mask_equals_unmasked(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(1.0, 3.0, size=(8, 8))
        pred = rng.uniform(1.0, 3.0, size=(8, 8))
        full = np.ones((8, 8), bool)
        assert depth_mse(pred, gt, mask=full) == depth_mse(pred, gt)

    def test_mask_keeps_masked_errors_in_pixel_order(self):
        rng = np.random.default_rng(9)
        gt = rng.uniform(1.0, 3.0, size=(6, 7))
        pred = rng.uniform(1.0, 3.0, size=(6, 7))
        pred[2, 2] = 0.0  # uncovered pixels excluded
        mask = rng.uniform(size=(6, 7)) < 0.5
        keep = mask & (pred > 0)
        np.testing.assert_array_equal(depth_sq_errors(pred, gt, mask),
                                      (pred[keep] - gt[keep]) ** 2)

    def test_empty_valid_set_gives_no_errors(self):
        assert depth_sq_errors(np.ones((4, 4)), np.zeros((4, 4))).size == 0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            depth_sq_errors(np.ones((4, 4)), np.ones((4, 5)))


class TestPSNR:
    def test_known_mse(self):
        gt = np.zeros((10, 10))
        img = gt + 0.1
        assert psnr(img, gt) == pytest.approx(20.0, rel=1e-12)

    def test_identical_images_inf(self):
        img = np.random.default_rng(0).uniform(size=(4, 4, 3))
        assert psnr(img, img) == math.inf

    def test_black_vs_white(self):
        assert psnr(np.zeros((5, 5)), np.ones((5, 5))) == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(6, 6, 3))
        b = rng.uniform(size=(6, 6, 3))
        total = 0.0
        for y in range(6):
            for x in range(6):
                for c in range(3):
                    total += (a[y, x, c] - b[y, x, c]) ** 2
        expected = 10.0 * math.log10(1.0 / (total / (6 * 6 * 3)))
        assert psnr(a, b) == pytest.approx(expected, rel=1e-12)


class TestCloudDistances:
    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(50, 3))
        shuffled = a[rng.permutation(50)]
        assert chamfer(a, shuffled) == 0.0
        assert hausdorff(a, shuffled) == 0.0

    def test_single_points(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0]])
        assert chamfer(a, b) == 1.0
        assert hausdorff(a, b) == 1.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(100, 3))
        b = rng.normal(size=(100, 3)) + 0.3
        ab, ba = brute_force_nn(a, b)
        expected_chamfer = 0.5 * (float(np.mean(ab)) + float(np.mean(ba)))
        expected_hausdorff = max(float(np.max(ab)), float(np.max(ba)))
        assert chamfer(a, b) == expected_chamfer
        assert hausdorff(a, b) == expected_hausdorff

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(60, 3))
        assert chamfer(a, b) == chamfer(b, a)
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_hausdorff_dominates_chamfer(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.normal(size=(30, 3))
            b = rng.normal(size=(25, 3))
            assert hausdorff(a, b) >= chamfer(a, b)


class TestAlignClouds:
    def test_recovers_known_transform(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(200, 3))
        rot = rotation_about_axis([0.1, 0.8, 0.3], 0.35)
        t = np.array([0.4, -0.2, 0.7])
        b = a @ rot.T + t
        transform = align_clouds(a, b, iters=25)
        moved = a @ transform[:3, :3].T + transform[:3, 3]
        assert chamfer(moved, b) < 1e-3

    def test_identity_case(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(80, 3))
        transform = align_clouds(a, a.copy(), iters=10)
        np.testing.assert_allclose(transform, np.eye(4), atol=1e-8)

    def test_single_point_pure_translation(self):
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[0.0, -1.0, 5.0]])
        transform = align_clouds(a, b, iters=5)
        np.testing.assert_allclose(transform[:3, :3], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(transform[:3, 3], b[0] - a[0], atol=1e-12)

    def test_never_worse_than_centroid_init(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(60, 3))
        b = rng.normal(size=(60, 3)) * 0.5 + 1.0
        init_score = chamfer(a + (b.mean(axis=0) - a.mean(axis=0)), b)
        transform = align_clouds(a, b, iters=15)
        moved = a @ transform[:3, :3].T + transform[:3, 3]
        assert chamfer(moved, b) <= init_score + 1e-12
