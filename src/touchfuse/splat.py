"""Desk-scale differentiable point-blend renderer with uncertainty-weighted
depth supervision.

Splats are fixed-radius isotropic discs with hard pixel coverage; per pixel
they composite front-to-back exactly like ordered alpha blending, which keeps
the analytic gradients simple: colors and opacities get dense gradients,
positions receive gradients through the blended depth (disc coverage is
piecewise constant, so its derivative vanishes almost everywhere).
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .fuse import FusedSupervision
from .sdfrender import CameraModel

Z_NEAR = 0.05
FOOTPRINT_CAP_PX = 24.0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class SplatCloud:
    """Struct-of-arrays splat set plus a background color."""

    positions: np.ndarray
    colors: np.ndarray
    opacity_logits: np.ndarray
    radii: np.ndarray
    background: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        self.colors = np.atleast_2d(np.asarray(self.colors, dtype=np.float64))
        self.opacity_logits = np.asarray(self.opacity_logits, dtype=np.float64).ravel()
        self.radii = np.asarray(self.radii, dtype=np.float64).ravel()
        self.background = np.asarray(self.background, dtype=np.float64)
        n = self.positions.shape[0]
        if self.colors.shape[0] != n or self.opacity_logits.shape[0] != n or self.radii.shape[0] != n:
            raise ValueError("per-splat arrays must share one length")
        if np.any(self.radii <= 0.0):
            raise ValueError("splat radii must be positive")

    def __len__(self):
        return self.positions.shape[0]

    @property
    def opacities(self):
        return _sigmoid(self.opacity_logits)

    def copy(self):
        return SplatCloud(
            self.positions.copy(), self.colors.copy(), self.opacity_logits.copy(),
            self.radii.copy(), self.background.copy(),
        )

    def is_finite(self):
        return (
            np.all(np.isfinite(self.positions))
            and np.all(np.isfinite(self.colors))
            and np.all(np.isfinite(self.opacity_logits))
        )


@dataclass(frozen=True)
class LossConfig:
    """Depth-supervision loss parameters.

    depth_weight scales the depth term against the color term, sharpness
    controls how fast supervision confidence falls off with the fused
    standard deviation, and decay shrinks depth_weight each training epoch.
    """

    depth_weight: float = 1.0
    sharpness: float = 1.0
    decay: float = 1.0

    def __post_init__(self):
        if self.depth_weight < 0.0 or self.sharpness < 0.0:
            raise ValueError("depth_weight/sharpness must be >= 0")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")


def _project(cloud: SplatCloud, camera: CameraModel):
    rel = cloud.positions - camera.position
    cam = rel @ camera.rotation
    z = cam[:, 2]
    valid = z > Z_NEAR
    safe_z = np.where(valid, z, 1.0)
    u = camera.fx * cam[:, 0] / safe_z + camera.cx
    v = camera.fy * cam[:, 1] / safe_z + camera.cy
    rx = np.minimum(camera.fx * cloud.radii / safe_z, FOOTPRINT_CAP_PX)
    ry = np.minimum(camera.fy * cloud.radii / safe_z, FOOTPRINT_CAP_PX)
    return u, v, z, rx, ry, valid


def footprint_pairs(cloud: SplatCloud, camera: CameraModel):
    """All (pixel, splat) coverage pairs sorted by pixel then depth.

    Returns (pix, sid, z) arrays where pix is the linear pixel index; this
    is the exact per-pixel ordered splat list the renderer composites.

    Each splat's candidate pixels are the square of half-width
    ceil(max(rx, ry) + 0.5) around its rounded centre, which holds every
    covered pixel since |ix - round(u)| <= rx + 0.5. Splats are bucketed by
    that reach, so one candidate grid is built per distinct reach. Pairs are
    ordered by the single key pix * n_valid + depth rank, where the depth
    rank orders valid splats by (z, index); the keys are unique, so ties in
    z fall back to the splat index.
    """
    u, v, z, rx, ry, valid = _project(cloud, camera)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    reach = np.ceil(np.maximum(rx[idx], ry[idx]) + 0.5).astype(np.int64)
    pix_parts, sid_parts = [], []
    for r in np.unique(reach):
        ids = idx[reach == r]
        span = np.arange(-r, r + 1)
        # (splat, row, column) axes: each per-axis term is computed once per
        # row or column and broadcast over the square.
        ix = np.round(u[ids]).astype(np.int64)[:, None, None] + span[None, None, :]
        iy = np.round(v[ids]).astype(np.int64)[:, None, None] + span[None, :, None]
        fx_ratio = (ix - u[ids, None, None]) / rx[ids, None, None]
        fy_ratio = (iy - v[ids, None, None]) / ry[ids, None, None]
        covered = (
            (fx_ratio ** 2 + fy_ratio ** 2 <= 1.0)
            & (ix >= 0) & (ix < camera.width)
            & (iy >= 0) & (iy < camera.height)
        )
        sid_parts.append(np.broadcast_to(ids[:, None, None], covered.shape)[covered])
        pix_parts.append((iy * camera.width + ix)[covered])
    sid = np.concatenate(sid_parts)
    pix = np.concatenate(pix_parts)
    depth_rank = np.empty(len(cloud), np.int64)
    depth_rank[idx[np.lexsort((idx, z[idx]))]] = np.arange(idx.size)
    order = np.argsort(pix * idx.size + depth_rank[sid])
    sid = sid[order]
    return pix[order], sid, z[sid]


def _rank_slices(pix):
    """Rank-major permutation of pixel-major pairs and its slice bounds:
    pairs perm[bounds[r]:bounds[r + 1]] are each covered pixel's r-th
    splat, in pair order, so no pixel repeats inside a slice."""
    new_segment = np.ones(pix.size, dtype=bool)
    new_segment[1:] = pix[1:] != pix[:-1]
    seg_start = np.maximum.accumulate(np.where(new_segment, np.arange(pix.size), 0))
    ranks = np.arange(pix.size) - seg_start
    perm = np.argsort(ranks, kind="stable")
    n_ranks = int(ranks.max()) + 1 if pix.size else 0
    return perm, np.searchsorted(ranks[perm], np.arange(n_ranks + 1))


def _forward(cloud, camera, pairs):
    """Rank-sequenced compositing: per pixel it performs the exact operation
    sequence of a scalar front-to-back blend (tests/oracles.py composite_ray),
    just vectorized across pixels.

    The pairs are gathered into rank-major order once; step r composites
    the contiguous slice of every pixel's r-th splat. Returns the images
    and (perm, bounds, w, t): the rank permutation with its slice bounds
    and each pair's blend weight and incoming transmittance, both in
    rank-major order.
    """
    pix, sid, z = pairs
    n_px = camera.width * camera.height
    trans = np.ones(n_px)
    color = np.zeros((n_px, 3))
    depth = np.zeros(n_px)
    perm, bounds = _rank_slices(pix)
    sid_r = sid[perm]
    pix_r, z_r = pix[perm], z[perm]
    alpha_r, color_r = cloud.opacities[sid_r], cloud.colors[sid_r]
    w_r = np.empty(pix.size)
    t_r = np.empty(pix.size)
    for r in range(bounds.size - 1):
        s = slice(bounds[r], bounds[r + 1])
        px = pix_r[s]
        a = alpha_r[s]
        t_here = trans[px]
        w = a * t_here
        color[px] = color[px] + color_r[s] * w[:, None]
        depth[px] = depth[px] + z_r[s] * w
        trans[px] = t_here * (1.0 - a)
        w_r[s] = w
        t_r[s] = t_here
    final = color + trans[:, None] * cloud.background
    shape = (camera.height, camera.width)
    return (
        final.reshape(shape + (3,)),
        depth.reshape(shape),
        trans.reshape(shape),
        (perm, bounds, w_r, t_r),
    )


def render(cloud: SplatCloud, camera: CameraModel):
    """Rasterize the cloud into an RGB image and a blended z-depth image."""
    rgb, depth, _, _ = _forward(cloud, camera, footprint_pairs(cloud, camera))
    return rgb, depth


def color_loss(rendered, gt):
    rendered = np.asarray(rendered, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if rendered.shape != gt.shape:
        raise ValueError("image dimensions differ")
    return float(np.sum((rendered - gt) ** 2))


def depth_loss(rendered_depth, fused: FusedSupervision, cfg: LossConfig):
    """Uncertainty-weighted squared depth error over supervised pixels.

    Per-pixel weight = exp(-sharpness * sqrt(variance));
    pixels without provenance are skipped entirely.
    """
    rendered_depth = np.asarray(rendered_depth, dtype=np.float64)
    if rendered_depth.shape != fused.depth.shape:
        raise ValueError("image dimensions differ")
    mask = fused.supervised_mask
    if not np.any(mask):
        return 0.0
    weights = np.exp(-cfg.sharpness * np.sqrt(fused.variance[mask]))
    return float(np.sum(weights * (rendered_depth[mask] - fused.depth[mask]) ** 2))


def backproject_init(images):
    """Lift every hit pixel of the depth images into one world point cloud."""
    if not images:
        raise ValueError("need at least one depth image")
    clouds = []
    for img in images:
        ys, xs = np.nonzero(img.hit_mask)
        if xs.size == 0:
            continue
        clouds.append(img.camera.backproject(xs, ys, img.depth[ys, xs]))
    if not clouds:
        warnings.warn("all depth images are empty; returning an empty cloud")
        return np.empty((0, 3))
    return np.concatenate(clouds, axis=0)


def _view_loss_and_grads(cloud, rgb_gt, fused, camera, cfg, depth_weight):
    pairs = footprint_pairs(cloud, camera)
    pix, sid, z = pairs
    rgb, depth, trans, (perm, bounds, w_r, t_r) = _forward(cloud, camera, pairs)

    c_loss = color_loss(rgb, rgb_gt)
    d_loss = depth_loss(depth, fused, cfg)
    loss = c_loss + depth_weight * d_loss

    n = len(cloud)
    flat_rgb = rgb.reshape(-1, 3)
    flat_depth = depth.reshape(-1)
    g_color_px = 2.0 * (flat_rgb - np.asarray(rgb_gt, dtype=np.float64).reshape(-1, 3))
    mask = fused.supervised_mask.reshape(-1)
    g_depth_px = np.zeros(flat_depth.shape)
    if np.any(mask) and depth_weight != 0.0:
        weights = np.exp(-cfg.sharpness * np.sqrt(fused.variance.reshape(-1)[mask]))
        g_depth_px[mask] = depth_weight * 2.0 * weights * (
            flat_depth[mask] - fused.depth.reshape(-1)[mask]
        )

    alphas = cloud.opacities
    w_pairs = np.empty(pix.size)
    w_pairs[perm] = w_r
    # d(loss)/d(pair quantities)
    g_c_pair = g_color_px[pix]
    g_d_pair = g_depth_px[pix]
    direct = np.einsum("ij,ij->i", g_c_pair, cloud.colors[sid]) + g_d_pair * z
    phi = direct * w_pairs
    # Suffix sums per pixel: contributions of later splats and the
    # background to d(loss)/d(alpha_i), accumulated back-to-front over the
    # rank-major slices.
    g_t_end = np.einsum("ij,j->i", g_color_px, cloud.background)
    suffix = g_t_end * trans.reshape(-1)
    pix_r, direct_r, phi_r = pix[perm], direct[perm], phi[perm]
    a_r = alphas[sid[perm]]
    g_alpha_r = np.empty(pix.size)
    for r in range(bounds.size - 2, -1, -1):
        s = slice(bounds[r], bounds[r + 1])
        px = pix_r[s]
        g_alpha_r[s] = direct_r[s] * t_r[s] - suffix[px] / (1.0 - a_r[s])
        suffix[px] += phi_r[s]
    g_alpha_pair = np.empty(pix.size)
    g_alpha_pair[perm] = g_alpha_r

    # bincount adds in pair order starting from zero, as np.add.at does,
    # so the sums are bit-equal.
    g_col_pair = g_c_pair * w_pairs[:, None]
    grad_col = np.column_stack(
        [np.bincount(sid, weights=g_col_pair[:, c], minlength=n) for c in range(3)]
    )
    g_z = np.bincount(sid, weights=g_d_pair * w_pairs, minlength=n)
    grad_pos = g_z[:, None] * camera.rotation[:, 2][None, :]
    g_alpha = np.bincount(sid, weights=g_alpha_pair, minlength=n)
    grad_logit = g_alpha * alphas * (1.0 - alphas)
    return loss, c_loss, d_loss, grad_pos, grad_col, grad_logit


def total_loss(cloud, views, cfg: LossConfig, depth_weight=None):
    """Summed color + weighted depth loss across (rgb, fused, camera) views."""
    lam = cfg.depth_weight if depth_weight is None else depth_weight
    total = 0.0
    for rgb_gt, fused, camera in views:
        rgb, depth = render(cloud, camera)
        total += color_loss(rgb, rgb_gt)
        if lam != 0.0:
            total += lam * depth_loss(depth, fused, cfg)
    return total


def loss_gradients(cloud, views, cfg: LossConfig, depth_weight=None):
    """Analytic gradients of total_loss w.r.t. positions, colors, logits."""
    lam = cfg.depth_weight if depth_weight is None else depth_weight
    n = len(cloud)
    grads = (np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n))
    loss = c_total = d_total = 0.0
    for rgb_gt, fused, camera in views:
        out = _view_loss_and_grads(cloud, rgb_gt, fused, camera, cfg, lam)
        loss += out[0]
        c_total += out[1]
        d_total += out[2]
        grads[0][:] += out[3]
        grads[1][:] += out[4]
        grads[2][:] += out[5]
    return loss, c_total, d_total, grads


def optimize(cloud: SplatCloud, views, cfg: LossConfig, iters,
             step=1e-2, group_scales=(1.0, 1.0, 1.0), callback=None) -> SplatCloud:
    """Plain gradient descent on positions, colors and opacity logits.

    The depth weight decays by cfg.decay each epoch (one pass over all
    views). Returns the best-loss parameters seen, so the final loss never
    exceeds the initial one. Raises NumericalError when the loss diverges.
    """
    if not views:
        raise ValueError("need at least one view")
    current = cloud.copy()
    if iters == 0:
        return current
    lam = cfg.depth_weight
    best = None
    pos_scale, col_scale, logit_scale = group_scales
    for it in range(iters):
        loss, c_loss, d_loss, (g_pos, g_col, g_logit) = loss_gradients(
            current, views, cfg, depth_weight=lam
        )
        if not math.isfinite(loss):
            raise NumericalError(f"loss diverged at iteration {it}")
        if best is None or loss < best[0]:
            best = (loss, current.copy())
        if callback is not None:
            callback({"iter": it, "color_loss": c_loss, "depth_loss": d_loss, "lam": lam})
        current.positions -= step * pos_scale * g_pos
        current.colors -= step * col_scale * g_col
        current.opacity_logits -= step * logit_scale * g_logit
        if not current.is_finite():
            raise NumericalError(f"parameters diverged at iteration {it}")
        lam *= cfg.decay
    final_loss = total_loss(current, views, cfg, depth_weight=lam)
    if math.isfinite(final_loss) and final_loss < best[0]:
        best = (final_loss, current)
    return best[1]

