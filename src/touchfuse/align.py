"""Two-stage metric alignment of monocular depth maps plus a heuristic
uncertainty model.

Stage 1 fits a global scale and offset against sparse trusted depth samples;
stage 2 shifts only the object region (pixels that agree with the rendered
touch depth within a gap threshold) by a constant offset, leaving background
depths untouched.
"""

import warnings
from dataclasses import dataclass

import numpy as np

MAX_GAP = 3.0  # widest vision-to-touch depth gap (m) that align_object_offset shifts
UNCERTAINTY_SLOPE = 0.1
UNCERTAINTY_FLOOR = 0.25


@dataclass(frozen=True)
class SparseDepth:
    """Trusted metric depth samples at integer pixel coordinates (u, v)."""

    pixels: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        px = np.atleast_2d(np.asarray(self.pixels, dtype=np.int64))
        d = np.asarray(self.depths, dtype=np.float64).ravel()
        if not np.all(np.isfinite(d)):
            raise ValueError("sparse depths must be finite")
        if np.any(d <= 0.0):
            raise ValueError("sparse depths must be positive")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "depths", d)

    def __len__(self):
        return self.depths.shape[0]


@dataclass(frozen=True)
class AlignedVision:
    """Metrically aligned monocular depth with its variance image and the
    alignment scalars that produced it."""

    depth: np.ndarray
    variance: np.ndarray
    s_star: float
    t_star: float
    t_object: float


def align_scale_offset(raw_depth, sparse: SparseDepth):
    """Closed-form least-squares scale/offset so scale*raw + offset matches
    the sparse samples; returns (scale, offset, aligned image). The samples
    lie on the image's pixels, and the raw depths under them take at least
    two values (the align stage reads them so)."""
    raw_depth = np.asarray(raw_depth, dtype=np.float64)
    raw = raw_depth[sparse.pixels[:, 1], sparse.pixels[:, 0]]
    target = sparse.depths
    raw_mean = raw.mean()
    spread = np.sum((raw - raw_mean) ** 2)
    scale = float(np.sum((raw - raw_mean) * (target - target.mean())) / spread)
    offset = float(target.mean() - scale * raw_mean)
    return scale, offset, scale * raw_depth + offset


def align_object_offset(aligned, touch_depth):
    """Constant-offset refinement against the rendered touch depth.

    Only pixels where the touch depth is positive (a hit) and the depth gap
    is within MAX_GAP are shifted; everything else is preserved bit-for-bit.
    """
    aligned = np.asarray(aligned, dtype=np.float64)
    mask = (touch_depth > 0.0) & (np.abs(aligned - touch_depth) <= MAX_GAP)
    updated = aligned.copy()
    if not np.any(mask):
        warnings.warn("no overlap between aligned vision and touch depth; offset skipped")
        return 0.0, updated
    t_object = float(np.mean(touch_depth[mask] - aligned[mask]))
    updated[mask] += t_object
    return t_object, updated


def vision_uncertainty(aligned):
    """Per-pixel variance (0.1 * depth)^2 + 0.25 (UNCERTAINTY_SLOPE and
    UNCERTAINTY_FLOOR): farther pixels get more uncertainty and the floor
    keeps touch dominant when both disagree."""
    aligned = np.asarray(aligned, dtype=np.float64)
    return (UNCERTAINTY_SLOPE * aligned) ** 2 + UNCERTAINTY_FLOOR


def align_vision(raw_depth, sparse: SparseDepth, touch_depth) -> AlignedVision:
    """Run both alignment stages and attach the uncertainty image."""
    scale, offset, aligned = align_scale_offset(raw_depth, sparse)
    t_object, updated = align_object_offset(aligned, touch_depth)
    return AlignedVision(updated, vision_uncertainty(updated), scale, offset, t_object)
