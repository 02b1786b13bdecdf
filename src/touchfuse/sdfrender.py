"""Sphere tracing of a signed-distance model into per-view depth and variance images.

Rays march by steps proportional to the current SDF value (floored at a
minimum step), after an analytic ray/bounding-sphere prefilter discards
pixels that cannot hit the surface. Images store z-depth (distance along the
optical axis) so they combine directly with monocular depth maps.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .gpis import ConditioningSet

MISS_VAR = 1e10
UNIT_DIR_TOL = 1e-9


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus world-from-camera pose (+z forward, x right, y down)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: np.ndarray

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if not (0.0 <= self.cx < self.width) or not (0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        pose = np.asarray(self.pose, dtype=np.float64)
        if pose.shape != (4, 4) or not geometry.is_rotation(pose[:3, :3]):
            raise ValueError("pose must be a rigid transform with orthonormal rotation")
        object.__setattr__(self, "pose", pose)

    @property
    def position(self):
        return self.pose[:3, 3]

    @property
    def rotation(self):
        return self.pose[:3, :3]

    def pixel_rays(self):
        """World-frame unit directions through every pixel, row-major, and
        each direction's cosine to the optical axis (z-depth = t * axis_cos)."""
        us, vs = np.meshgrid(
            np.arange(self.width, dtype=np.float64),
            np.arange(self.height, dtype=np.float64),
        )
        d_cam = np.stack(
            [(us - self.cx) / self.fx, (vs - self.cy) / self.fy, np.ones_like(us)],
            axis=-1,
        ).reshape(-1, 3)
        norms = np.linalg.norm(d_cam, axis=1)
        return (d_cam / norms[:, None]) @ self.rotation.T, 1.0 / norms

    def backproject(self, xs, ys, depth):
        """World points of pixels (xs, ys) at the given z-depths."""
        pts_cam = np.stack(
            [(xs - self.cx) / self.fx * depth, (ys - self.cy) / self.fy * depth, depth], axis=1
        )
        return pts_cam @ self.rotation.T + self.position


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


@dataclass(frozen=True)
class MarchParams:
    """Sphere-tracing controls: step = max(step_fraction * sdf, min_step)."""

    step_fraction: float = 0.9
    min_step: float = 1e-3
    hit_tol: float = 1e-4
    max_steps: int = 200
    t_max: float = math.inf

    def __post_init__(self):
        if not (0.0 < self.step_fraction <= 1.0):
            raise ValueError("step_fraction must be in (0, 1]")
        if self.min_step <= 0.0:
            raise ValueError("min_step must be positive")
        if self.hit_tol <= 0.0:
            raise ValueError("hit_tol must be positive")


@dataclass(frozen=True)
class BoundingSphere:
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class DepthVarImage:
    """Paired z-depth (meters) and variance (meters^2) rasters.

    Miss pixels carry depth 0 and variance MISS_VAR; this pairing is
    enforced at construction so downstream fusion can trust either channel
    as the miss mask.
    """

    depth: np.ndarray
    variance: np.ndarray
    camera: CameraModel

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=np.float64)
        var = np.asarray(self.variance, dtype=np.float64)
        if depth.shape != var.shape:
            raise ValueError("depth and variance shapes differ")
        if np.any(depth < 0.0):
            raise ValueError("depth must be nonnegative")
        miss = depth == 0.0
        var = var.copy()
        var[miss] = MISS_VAR
        if np.any(var[~miss] >= MISS_VAR):
            raise ValueError("hit pixels must carry variance below the miss sentinel")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "variance", var)

    @property
    def hit_mask(self):
        return self.depth > 0.0


def generate_ray(camera: CameraModel, px) -> Ray:
    """World-frame unit ray through pixel px = (u, v)."""
    u, v = float(px[0]), float(px[1])
    if not (0.0 <= u < camera.width) or not (0.0 <= v < camera.height):
        raise ValueError(f"pixel {px} outside {camera.width}x{camera.height} image")
    d_cam = np.array([(u - camera.cx) / camera.fx, (v - camera.cy) / camera.fy, 1.0])
    d_cam /= np.linalg.norm(d_cam)
    return Ray(camera.position.copy(), camera.rotation @ d_cam)


def bounding_sphere(cset: ConditioningSet, margin_frac=0.1, min_radius=0.0) -> BoundingSphere:
    """Sphere around the conditioning surface points with a relative margin.

    A degenerate (single-point) set yields radius `min_radius`; callers
    typically pass the march min_step there.
    """
    pts = cset.surface_points()
    if pts.shape[0] == 0:
        pts = cset.locations
    center = pts.mean(axis=0)
    spread = float(np.max(np.linalg.norm(pts - center, axis=1)))
    radius = (1.0 + margin_frac) * spread
    return BoundingSphere(center, max(radius, min_radius))


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
    the GPIS model and the analytic-shape adapters in the simulator both
    qualify.
    """
    if window is None:
        return None
    t_enter, t_exit = window
    t_stop = min(t_exit, params.t_max)
    if t_enter > t_stop:
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
        if t > t_stop:
            return None
    return None


def _march_batch(model, origins, dirs, t_enter, t_stop, params: MarchParams):
    """Vectorized march over many rays; per-ray arithmetic matches march().

    Returns (hit, t, exhausted): exhausted marks the rays that used up
    max_steps without a hit or an exit."""
    n = origins.shape[0]
    t = t_enter.astype(np.float64).copy()
    hit = np.zeros(n, dtype=bool)
    active = t <= t_stop
    for _ in range(params.max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        pos = origins[idx] + t[idx, None] * dirs[idx]
        sdf = model.query_mean(pos)
        newly_hit = sdf < params.hit_tol
        hit_idx = idx[newly_hit]
        hit[hit_idx] = True
        active[hit_idx] = False
        step_idx = idx[~newly_hit]
        if step_idx.size:
            t[step_idx] = t[step_idx] + np.maximum(
                params.step_fraction * sdf[~newly_hit], params.min_step
            )
            over = step_idx[t[step_idx] > t_stop[step_idx]]
            active[over] = False
    return hit, t, active


def render_depth_variance(model, camera: CameraModel, params: MarchParams,
                          margin_frac=0.1, sphere: BoundingSphere = None) -> DepthVarImage:
    """Render the model from a camera into a z-depth/variance image pair.

    Rays that use up max_steps without a hit or an exit are drawn as misses,
    and a RuntimeWarning gives their count for the view."""
    if sphere is None:
        sphere = bounding_sphere(model.conditioning, margin_frac, min_radius=params.min_step)

    dirs, axis_cos = camera.pixel_rays()

    offset = camera.position - sphere.center
    b = dirs @ offset
    c = float(offset @ offset) - sphere.radius ** 2
    disc = b * b - c
    candidates = disc >= 0.0
    root = np.sqrt(np.where(candidates, disc, 0.0))
    t_exit = -b + root
    candidates &= t_exit >= 0.0
    t_enter = np.maximum(-b - root, 0.0)
    t_stop = np.minimum(t_exit, params.t_max)

    depth = np.zeros(camera.height * camera.width)
    variance = np.full(camera.height * camera.width, MISS_VAR)
    idx = np.flatnonzero(candidates)
    if idx.size:
        origins = np.broadcast_to(camera.position, (idx.size, 3))
        hit, t_hit, exhausted = _march_batch(model, origins, dirs[idx], t_enter[idx],
                                             t_stop[idx], params)
        if exhausted.any():
            warnings.warn(
                f"{np.count_nonzero(exhausted)} of {idx.size} candidate rays in this view "
                f"ran out of max_steps={params.max_steps} without a hit or an exit; "
                "they are drawn as misses", RuntimeWarning)
        hit_idx = idx[hit]
        if hit_idx.size:
            pts = camera.position + t_hit[hit][:, None] * dirs[hit_idx]
            var = model.query(pts)[1]
            depth[hit_idx] = t_hit[hit] * axis_cos[hit_idx]
            variance[hit_idx] = var
    return DepthVarImage(
        depth.reshape(camera.height, camera.width),
        variance.reshape(camera.height, camera.width),
        camera,
    )
