import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from touchfuse.fuse import (
    PROVENANCE_FUSED,
    PROVENANCE_NONE,
    PROVENANCE_TOUCH,
    PROVENANCE_VISION,
    fuse_images,
)
from touchfuse.sdfrender import MISS_VAR

from oracles import fuse_pixel


def random_pair(seed, shape=(16, 16)):
    """Vision depth and variance, then touch depth and variance."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.5, 6.0, size=shape), rng.uniform(0.05, 2.0, size=shape),
            rng.uniform(0.5, 6.0, size=shape), rng.uniform(1e-4, 0.5, size=shape))


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
        vd, vv, td, tv = random_pair(3)
        depth, variance, provenance = fuse_images(vd, vv, td, tv)
        for y in range(16):
            for x in range(16):
                mu, var = fuse_pixel(vd[y, x], vv[y, x], td[y, x], tv[y, x])
                assert depth[y, x] == mu
                assert variance[y, x] == var
        assert np.all(provenance == PROVENANCE_FUSED)

    def test_all_miss_touch_defers_to_vision(self):
        rng = np.random.default_rng(4)
        vd, vv = rng.uniform(1.0, 5.0, size=(8, 8)), rng.uniform(0.1, 1.0, size=(8, 8))
        depth, variance, provenance = fuse_images(vd, vv, np.zeros((8, 8)),
                                                  np.full((8, 8), MISS_VAR))
        np.testing.assert_allclose(depth, vd, rtol=1e-6)
        np.testing.assert_allclose(variance, vv, rtol=1e-6)
        assert np.all(provenance == PROVENANCE_VISION)

    def test_commutation_of_sources(self):
        vd, vv, td, tv = random_pair(5)
        a = fuse_images(vd, vv, td, tv)
        b = fuse_images(td, tv, vd, vv)
        np.testing.assert_allclose(a[0], b[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(a[1], b[1], rtol=0, atol=1e-12)

    def test_precision_additivity(self):
        vd, vv, td, tv = random_pair(6)
        _, variance, _ = fuse_images(vd, vv, td, tv)
        lhs = 1.0 / variance
        rhs = 1.0 / vv + 1.0 / tv
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_fused_variance_below_both(self):
        vd, vv, td, tv = random_pair(7)
        _, variance, _ = fuse_images(vd, vv, td, tv)
        assert np.all(variance <= np.minimum(vv, tv))

    def test_provenance_classes(self):
        vision_depth = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
        ])
        vision_var = np.full((4, 4), 0.5)
        touch_depth = np.zeros((4, 4))
        touch_depth[2:, :] = 2.0
        touch_var = np.where(touch_depth > 0, 1e-3, MISS_VAR)
        depth, variance, provenance = fuse_images(vision_depth, vision_var, touch_depth,
                                                  touch_var)
        assert provenance[0, 0] == PROVENANCE_VISION
        assert provenance[0, 2] == PROVENANCE_NONE
        assert provenance[2, 0] == PROVENANCE_FUSED
        vision_depth2 = vision_depth.copy()
        vision_depth2[2, 3] = 0.0
        depth2, _, provenance2 = fuse_images(vision_depth2, vision_var, touch_depth, touch_var)
        assert provenance2[2, 3] == PROVENANCE_TOUCH
        np.testing.assert_allclose(depth2[2, 3], 2.0, rtol=1e-6)
        # none pixels carry the miss sentinels
        assert depth[0, 2] == 0.0
        assert variance[0, 2] == MISS_VAR


SHAPE = (3, 4)
depth_images = arrays(np.float64, SHAPE, elements=st.floats(0.1, 50.0))
variance_images = arrays(np.float64, SHAPE, elements=st.floats(1e-4, 1e2))
masks = arrays(np.bool_, SHAPE)


class TestFusionProperties:
    """fuse_images against the scalar rule on random image pairs."""

    @settings(max_examples=60, deadline=None)
    @given(depth_images, variance_images, depth_images, variance_images)
    def test_precisions_add(self, vd, vv, td, tv):
        depth, variance, provenance = fuse_images(vd, vv, td, tv)
        for y, x in np.ndindex(SHAPE):
            assert (depth[y, x], variance[y, x]) == fuse_pixel(
                vd[y, x], vv[y, x], td[y, x], tv[y, x])
        np.testing.assert_allclose(1.0 / variance, 1.0 / vv + 1.0 / tv, rtol=1e-12)
        assert np.all(provenance == PROVENANCE_FUSED)

    @settings(max_examples=60, deadline=None)
    @given(depth_images, variance_images, depth_images, variance_images)
    def test_swapping_sources_changes_no_bit(self, vd, vv, td, tv):
        a = fuse_images(vd, vv, td, tv)
        b = fuse_images(td, tv, vd, vv)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        for y, x in np.ndindex(SHAPE):
            assert fuse_pixel(vd[y, x], vv[y, x], td[y, x], tv[y, x]) == fuse_pixel(
                td[y, x], tv[y, x], vd[y, x], vv[y, x])

    @settings(max_examples=60, deadline=None)
    @given(depth_images, variance_images, depth_images, variance_images, masks, masks,
           st.sampled_from([0.0, -1.0, np.nan, np.inf]))
    def test_misses_defer_to_the_other_source(self, vd, vv, td, tv, vision_miss, touch_miss,
                                              invalid):
        vd = np.where(vision_miss, invalid, vd)
        td = np.where(touch_miss, invalid, td)
        depth, variance, provenance = fuse_images(vd, vv, td, tv)
        # Train supervises the pixels where fused depth > 0: exactly those
        # with provenance.
        np.testing.assert_array_equal(depth > 0.0, provenance != PROVENANCE_NONE)
        for y, x in np.ndindex(SHAPE):
            v_ok, t_ok = not vision_miss[y, x], not touch_miss[y, x]
            got = (depth[y, x], variance[y, x])
            if not (v_ok or t_ok):
                assert got == (0.0, MISS_VAR)
                assert provenance[y, x] == PROVENANCE_NONE
                continue
            vision_side = (vd[y, x], vv[y, x]) if v_ok else (0.0, MISS_VAR)
            touch_side = (td[y, x], tv[y, x]) if t_ok else (0.0, MISS_VAR)
            assert got == fuse_pixel(*vision_side, *touch_side)
            if v_ok and t_ok:
                assert provenance[y, x] == PROVENANCE_FUSED
            else:
                kept = vision_side if v_ok else touch_side
                assert provenance[y, x] == (PROVENANCE_VISION if v_ok else PROVENANCE_TOUCH)
                np.testing.assert_allclose(got, kept, rtol=1e-7)
