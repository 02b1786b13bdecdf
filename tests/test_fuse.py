import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from touchfuse.align import AlignedVision
from touchfuse.fuse import (
    PROVENANCE_FUSED,
    PROVENANCE_NONE,
    PROVENANCE_TOUCH,
    PROVENANCE_VISION,
    FusedSupervision,
    fuse_images,
)
from touchfuse.sdfrender import MISS_VAR, CameraModel, DepthVarImage

from oracles import fuse_pixel


def camera(w, h):
    return CameraModel(30.0, 30.0, (w - 1) / 2, (h - 1) / 2, w, h, np.eye(4))


def random_pair(seed, shape=(16, 16)):
    rng = np.random.default_rng(seed)
    vision = AlignedVision(
        rng.uniform(0.5, 6.0, size=shape), rng.uniform(0.05, 2.0, size=shape), 1.0, 0.0
    )
    depth = rng.uniform(0.5, 6.0, size=shape)
    var = rng.uniform(1e-4, 0.5, size=shape)
    touch = DepthVarImage(depth, var, camera(*shape[::-1]))
    return vision, touch


class TestFusePixel:
    def test_symmetric_variance_midpoint(self):
        mu, var = fuse_pixel(2.0, 1.0, 1.0, 1.0)
        assert (mu, var) == (1.5, 0.5)

    def test_dominant_precision_limit(self):
        mu, var = fuse_pixel(2.0, 1e10, 1.0, 0.01)
        assert abs(mu - 1.0) < 1e-8
        assert var == pytest.approx(0.01, rel=1e-9)

    def test_hand_computed_update(self):
        mu, var = fuse_pixel(3.0, 0.5, 1.0, 2.0)
        assert var == pytest.approx(0.4, rel=1e-12)
        assert mu == pytest.approx(2.6, rel=1e-12)

    def test_commutes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m1, m2 = rng.uniform(0.1, 5.0, size=2)
            v1, v2 = rng.uniform(1e-3, 10.0, size=2)
            a = fuse_pixel(m1, v1, m2, v2)
            b = fuse_pixel(m2, v2, m1, v1)
            assert a[0] == pytest.approx(b[0], abs=1e-12)
            assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_mean_between_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m1, m2 = rng.uniform(-3.0, 8.0, size=2)
            v1, v2 = rng.uniform(1e-3, 10.0, size=2)
            mu, _ = fuse_pixel(m1, v1, m2, v2)
            assert min(m1, m2) - 1e-12 <= mu <= max(m1, m2) + 1e-12

    def test_idempotent_degeneracy(self):
        mu, var = fuse_pixel(1.7, 0.3, 1.7, 0.3)
        assert mu == pytest.approx(1.7, rel=1e-14)
        assert var == pytest.approx(0.15, rel=1e-14)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            fuse_pixel(1.0, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            fuse_pixel(1.0, 1.0, 2.0, -0.5)


class TestFuseImages:
    def test_equals_scalar_loop_bitwise(self):
        vision, touch = random_pair(3)
        fused = fuse_images(vision, touch)
        for y in range(16):
            for x in range(16):
                mu, var = fuse_pixel(
                    vision.depth[y, x], vision.variance[y, x],
                    touch.depth[y, x], touch.variance[y, x],
                )
                assert fused.depth[y, x] == mu
                assert fused.variance[y, x] == var
        assert np.all(fused.provenance == PROVENANCE_FUSED)

    def test_all_miss_touch_defers_to_vision(self):
        rng = np.random.default_rng(4)
        vision = AlignedVision(
            rng.uniform(1.0, 5.0, size=(8, 8)), rng.uniform(0.1, 1.0, size=(8, 8)), 1.0, 0.0
        )
        touch = DepthVarImage(np.zeros((8, 8)), np.full((8, 8), MISS_VAR), camera(8, 8))
        fused = fuse_images(vision, touch)
        np.testing.assert_allclose(fused.depth, vision.depth, rtol=1e-6)
        np.testing.assert_allclose(fused.variance, vision.variance, rtol=1e-6)
        assert np.all(fused.provenance == PROVENANCE_VISION)

    def test_commutation_of_sources(self):
        vision, touch = random_pair(5)
        a = fuse_images(vision, touch)
        swapped_vision = AlignedVision(touch.depth, touch.variance, 1.0, 0.0)
        swapped_touch = DepthVarImage(vision.depth, vision.variance, camera(16, 16))
        b = fuse_images(swapped_vision, swapped_touch)
        np.testing.assert_allclose(a.depth, b.depth, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.variance, b.variance, rtol=0, atol=1e-12)

    def test_precision_additivity(self):
        vision, touch = random_pair(6)
        fused = fuse_images(vision, touch)
        lhs = 1.0 / fused.variance
        rhs = 1.0 / vision.variance + 1.0 / touch.variance
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_fused_variance_below_both(self):
        vision, touch = random_pair(7)
        fused = fuse_images(vision, touch)
        assert np.all(fused.variance <= np.minimum(vision.variance, touch.variance))

    def test_provenance_classes(self):
        cam = camera(4, 4)
        vision_depth = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
        ])
        vision = AlignedVision(vision_depth, np.full((4, 4), 0.5), 1.0, 0.0)
        touch_depth = np.zeros((4, 4))
        touch_depth[2:, :] = 2.0
        touch = DepthVarImage(touch_depth, np.where(touch_depth > 0, 1e-3, MISS_VAR), cam)
        fused = fuse_images(vision, touch)
        assert fused.provenance[0, 0] == PROVENANCE_VISION
        assert fused.provenance[0, 2] == PROVENANCE_NONE
        assert fused.provenance[2, 0] == PROVENANCE_FUSED
        vision_depth2 = vision_depth.copy()
        vision_depth2[2, 3] = 0.0
        fused2 = fuse_images(AlignedVision(vision_depth2, np.full((4, 4), 0.5), 1.0, 0.0), touch)
        assert fused2.provenance[2, 3] == PROVENANCE_TOUCH
        np.testing.assert_allclose(fused2.depth[2, 3], 2.0, rtol=1e-6)
        # none pixels carry the miss sentinels
        assert fused.depth[0, 2] == 0.0
        assert fused.variance[0, 2] == MISS_VAR

    def test_dimension_mismatch_rejected(self):
        vision, _ = random_pair(8)
        touch = DepthVarImage(np.ones((8, 8)), np.full((8, 8), 0.1), camera(8, 8))
        with pytest.raises(ValueError, match="dimension"):
            fuse_images(vision, touch)

    def test_supervised_mask(self):
        vision, touch = random_pair(9)
        fused = fuse_images(vision, touch)
        assert fused.supervised_mask.all()
        blank = FusedSupervision(
            np.zeros((2, 2)), np.full((2, 2), MISS_VAR),
            np.full((2, 2), PROVENANCE_NONE, dtype=np.uint8),
        )
        assert not blank.supervised_mask.any()


SHAPE = (3, 4)
depth_images = arrays(np.float64, SHAPE, elements=st.floats(0.1, 50.0))
variance_images = arrays(np.float64, SHAPE, elements=st.floats(1e-4, 1e2))
masks = arrays(np.bool_, SHAPE)


class TestFusionProperties:
    """fuse_images against the scalar rule on random image pairs."""

    @settings(max_examples=60, deadline=None)
    @given(depth_images, variance_images, depth_images, variance_images)
    def test_precisions_add(self, vd, vv, td, tv):
        fused = fuse_images(AlignedVision(vd, vv, 1.0, 0.0), DepthVarImage(td, tv, camera(4, 3)))
        for y, x in np.ndindex(SHAPE):
            assert (fused.depth[y, x], fused.variance[y, x]) == fuse_pixel(
                vd[y, x], vv[y, x], td[y, x], tv[y, x])
        np.testing.assert_allclose(1.0 / fused.variance, 1.0 / vv + 1.0 / tv, rtol=1e-12)
        assert np.all(fused.provenance == PROVENANCE_FUSED)

    @settings(max_examples=60, deadline=None)
    @given(depth_images, variance_images, depth_images, variance_images)
    def test_swapping_sources_changes_no_bit(self, vd, vv, td, tv):
        cam = camera(4, 3)
        a = fuse_images(AlignedVision(vd, vv, 1.0, 0.0), DepthVarImage(td, tv, cam))
        b = fuse_images(AlignedVision(td, tv, 1.0, 0.0), DepthVarImage(vd, vv, cam))
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.variance, b.variance)
        for y, x in np.ndindex(SHAPE):
            assert fuse_pixel(vd[y, x], vv[y, x], td[y, x], tv[y, x]) == fuse_pixel(
                td[y, x], tv[y, x], vd[y, x], vv[y, x])

    @settings(max_examples=60, deadline=None)
    @given(depth_images, variance_images, depth_images, variance_images, masks, masks,
           st.sampled_from([0.0, -1.0, np.nan, np.inf]))
    def test_misses_defer_to_the_other_source(self, vd, vv, td, tv, vision_miss, touch_miss,
                                              invalid):
        vd = np.where(vision_miss, invalid, vd)
        td = np.where(touch_miss, 0.0, td)
        fused = fuse_images(AlignedVision(vd, vv, 1.0, 0.0), DepthVarImage(td, tv, camera(4, 3)))
        for y, x in np.ndindex(SHAPE):
            v_ok, t_ok = not vision_miss[y, x], not touch_miss[y, x]
            got = (fused.depth[y, x], fused.variance[y, x])
            if not (v_ok or t_ok):
                assert got == (0.0, MISS_VAR)
                assert fused.provenance[y, x] == PROVENANCE_NONE
                continue
            vision_side = (vd[y, x], vv[y, x]) if v_ok else (0.0, MISS_VAR)
            touch_side = (td[y, x], tv[y, x]) if t_ok else (0.0, MISS_VAR)
            assert got == fuse_pixel(*vision_side, *touch_side)
            if v_ok and t_ok:
                assert fused.provenance[y, x] == PROVENANCE_FUSED
            else:
                kept = vision_side if v_ok else touch_side
                assert fused.provenance[y, x] == (PROVENANCE_VISION if v_ok else PROVENANCE_TOUCH)
                np.testing.assert_allclose(got, kept, rtol=1e-7)
