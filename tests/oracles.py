"""Scalar reference forms of the package's batched algorithms, which the
tests hold the batched code to (bit for bit where the tests say so), and
the reference splat loss that grad_check differentiates."""

import math
from dataclasses import dataclass

import numpy as np

from touchfuse.fuse import FusedSupervision
from touchfuse.gpis import KernelParams
from touchfuse.sdfrender import BoundingSphere, CameraModel, MarchParams
from touchfuse.splat import LossConfig, SplatCloud, loss_gradients, render

UNIT_DIR_TOL = 1e-9


@dataclass(frozen=True)
class Ray:
    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=np.float64)
        d = np.asarray(self.direction, dtype=np.float64)
        if abs(np.linalg.norm(d) - 1.0) > UNIT_DIR_TOL:
            raise ValueError("ray direction must be unit length")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)

    def point_at(self, t):
        return self.origin + t * self.direction


def generate_ray(camera: CameraModel, px) -> Ray:
    """World-frame unit ray through pixel px = (u, v)."""
    u, v = float(px[0]), float(px[1])
    if not (0.0 <= u < camera.width) or not (0.0 <= v < camera.height):
        raise ValueError(f"pixel {px} outside {camera.width}x{camera.height} image")
    d_cam = np.array([(u - camera.cx) / camera.fx, (v - camera.cy) / camera.fy, 1.0])
    d_cam /= np.linalg.norm(d_cam)
    return Ray(camera.position.copy(), camera.rotation @ d_cam)


def sphere_prefilter(ray: Ray, sphere: BoundingSphere):
    """Closed-form ray/sphere intersection clipped to t >= 0, or None."""
    offset = ray.origin - sphere.center
    b = float(np.dot(ray.direction, offset))
    c = float(np.dot(offset, offset)) - sphere.radius ** 2
    disc = b * b - c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    t_enter, t_exit = -b - root, -b + root
    if t_exit < 0.0:
        return None
    return max(t_enter, 0.0), t_exit


def march(model, ray: Ray, params: MarchParams, window):
    """Sphere-trace one ray; returns (t_hit, variance, steps) or None.

    `model` needs query(points) -> (mean, variance) and query_mean(points);
    the GPIS model and the simulator's analytic shapes both qualify.
    """
    if window is None:
        return None
    t_enter, t_exit = window
    if t_enter > t_exit:
        return None
    t = float(t_enter)
    steps = 0
    while steps < params.max_steps:
        sdf = float(model.query_mean(ray.point_at(t)[None, :])[0])
        steps += 1
        if sdf < params.hit_tol:
            variance = float(model.query(ray.point_at(t)[None, :])[1][0])
            return t, variance, steps
        t = t + max(params.step_fraction * sdf, params.min_step)
        if t > t_exit:
            return None
    return None


def fuse_pixel(mu1, var1, mu2, var2):
    """Fuse two scalar Gaussian depth estimates; precisions add."""
    if var1 <= 0.0 or var2 <= 0.0:
        raise ValueError("variances must be positive")
    var = 1.0 / (1.0 / var1 + 1.0 / var2)
    mu = var * (mu1 / var1 + mu2 / var2)
    return mu, var


def composite_ray(splats_on_ray):
    """Front-to-back blend of ordered (alpha, color, depth) samples.

    Returns (color, depth, residual transmittance); the background is not
    folded in and the blended depth likewise excludes it.
    """
    trans = 1.0
    color = np.zeros(3)
    depth = 0.0
    prev = -math.inf
    for alpha, col, d in splats_on_ray:
        if d < prev:
            raise ValueError("splats must be ordered by increasing depth")
        prev = d
        if not (0.0 < alpha < 1.0):
            raise ValueError("alpha must lie strictly inside (0, 1)")
        w = alpha * trans
        color = color + np.asarray(col, dtype=np.float64) * w
        depth = depth + d * w
        trans = trans * (1.0 - alpha)
    return color, depth, trans


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


def grad_check(cloud: SplatCloud, view, cfg: LossConfig, h=1e-5):
    """Max relative error of analytic vs central-difference gradients.

    Checks every position, color and opacity-logit parameter of a small
    cloud against finite differences of the full (color + weighted depth)
    loss; denominators are floored at 1e-8.
    """
    if len(cloud) > 20:
        raise ValueError("grad_check is meant for small clouds (<= 20 splats)")
    views = [view]
    _, _, _, grads = loss_gradients(cloud, views, cfg)
    analytic = np.concatenate([grads[0].ravel(), grads[1].ravel(), grads[2]])

    def loss_at(vec):
        n = len(cloud)
        probe = cloud.copy()
        probe.positions = vec[: 3 * n].reshape(n, 3)
        probe.colors = vec[3 * n: 6 * n].reshape(n, 3)
        probe.opacity_logits = vec[6 * n:]
        return total_loss(probe, views, cfg)

    base = np.concatenate(
        [cloud.positions.ravel(), cloud.colors.ravel(), cloud.opacity_logits]
    )
    numeric = np.empty_like(base)
    for k in range(base.size):
        up = base.copy()
        down = base.copy()
        up[k] += h
        down[k] -= h
        numeric[k] = (loss_at(up) - loss_at(down)) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def matern32(distance, params: KernelParams):
    """Matern-3/2 covariance for nonnegative distances (scalar or array)."""
    d = np.asarray(distance, dtype=np.float64)
    if np.any(d < 0.0):
        raise ValueError("distance must be nonnegative")
    scaled = (np.sqrt(3.0) / params.length_scale) * d
    out = params.output_scale ** 2 * (1.0 + scaled) * np.exp(-scaled)
    return float(out) if np.isscalar(distance) or out.ndim == 0 else out
