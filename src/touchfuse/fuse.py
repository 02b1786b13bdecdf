"""Pixelwise inverse-variance fusion of aligned vision depth with touch depth.

Both inputs are treated as independent Gaussians per pixel: precisions add,
and the fused mean is the precision-weighted average. Miss pixels carry a
huge sentinel variance, so the update automatically defers to whichever
source is informative.
"""

import numpy as np

from .sdfrender import MISS_VAR

PROVENANCE_NONE = 0
PROVENANCE_VISION = 85
PROVENANCE_TOUCH = 170
PROVENANCE_FUSED = 255


def fuse_images(vision_depth, vision_var, touch_depth, touch_var):
    """Fuse an image pair per pixel: precisions add, depths average by precision.
    Returns the fused (depth, variance, provenance) images.

    A side is valid where its depth is finite and positive (a touch miss has
    depth 0). An invalid side enters with the sentinel variance so the other
    source dominates; pixels invalid on both sides come out as depth 0 /
    sentinel variance with provenance NONE, so a fused depth > 0 marks a
    pixel with supervision. The four images share one shape, and each
    valid side's variance is positive: the fuse stage reads the images
    gpis-render and align wrote, whose variances are positive by
    construction.
    """
    vision_ok = np.isfinite(vision_depth) & (vision_depth > 0.0)
    touch_ok = np.isfinite(touch_depth) & (touch_depth > 0.0)

    mu1 = np.where(vision_ok, vision_depth, 0.0)
    var1 = np.where(vision_ok, vision_var, MISS_VAR)
    mu2 = np.where(touch_ok, touch_depth, 0.0)
    var2 = np.where(touch_ok, touch_var, MISS_VAR)

    # Same expression shape as tests/oracles.py fuse_pixel, so they agree bit for bit.
    var = 1.0 / (1.0 / var1 + 1.0 / var2)
    mu = var * (mu1 / var1 + mu2 / var2)

    provenance = np.full(mu.shape, PROVENANCE_NONE, dtype=np.uint8)
    provenance[vision_ok & ~touch_ok] = PROVENANCE_VISION
    provenance[~vision_ok & touch_ok] = PROVENANCE_TOUCH
    provenance[vision_ok & touch_ok] = PROVENANCE_FUSED
    none = provenance == PROVENANCE_NONE
    mu[none] = 0.0
    var[none] = MISS_VAR
    return mu, var, provenance
