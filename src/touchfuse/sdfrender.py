"""Sphere tracing of a signed-distance model into per-view depth and variance images.

A model answers `query_mean(points)` with signed distances and
`query(points)` with (signed distances, variances), for (N, 3) points: a
fitted `gpis.GPISModel` or a `touchsim.AnalyticShape` (variance zero).
Rays march by steps proportional to the current SDF value (floored at a
minimum step), after an analytic ray/bounding-sphere prefilter discards
pixels that cannot hit the surface. Images store z-depth (distance along the
optical axis) so they combine directly with monocular depth maps. A view's
rays are split across forked processes, one per usable CPU, when the work
pays for the forks; the images do not depend on the split.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry, workers
from .gpis import ConditioningSet

MISS_VAR = 1e10


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
class MarchParams:
    """Sphere-tracing controls: step = max(step_fraction * sdf, min_step)."""

    step_fraction: float = 0.9
    min_step: float = 1e-3
    hit_tol: float = 1e-4
    max_steps: int = 200

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


def bounding_sphere(cset: ConditioningSet, margin_frac=0.1, min_radius=0.0) -> BoundingSphere:
    """Sphere around the conditioning surface points with a relative margin.

    A degenerate (single-point) set yields radius `min_radius`; callers
    typically pass the march min_step there.
    """
    center, spread = geometry.centroid_spread(cset.surface_points())
    return BoundingSphere(center, max((1.0 + margin_frac) * spread, min_radius))


def sphere_entry_exit(offset, dirs, radius):
    """(t_enter, t_exit, meets) of unit rays `dirs` (N, 3) from an origin at
    `offset` from a sphere's center: where each ray's line enters and leaves
    the sphere, and whether it meets it at all (else the t's mean nothing)."""
    b = dirs @ offset
    c = float(offset @ offset) - radius ** 2
    disc = b * b - c
    meets = disc >= 0.0
    root = np.sqrt(np.where(meets, disc, 0.0))
    return -b - root, -b + root, meets


def _march_part(model, origin, dirs, t_enter, t_stop, params: MarchParams):
    """March unit rays `dirs` from `origin`, each exactly as the scalar
    sphere tracer in tests/oracles.py marches it alone.

    Returns (hit, t, exhausted, variance of each hit): exhausted marks the
    rays that used up max_steps without a hit or an exit. No ray's bits
    depend on which other rays share its queries, so any split of the rays
    gives the same bits."""
    t = t_enter.astype(np.float64).copy()
    hit = np.zeros(dirs.shape[0], dtype=bool)
    active = t <= t_stop
    for _ in range(params.max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        sdf = model.query_mean(origin + t[idx, None] * dirs[idx])
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
    var = np.empty(0)
    if hit.any():
        var = model.query(origin + t[hit][:, None] * dirs[hit])[1]
    return hit, t, active, var


def _march_parts(model, origin, dirs, t_enter, t_stop, params: MarchParams):
    """`_march_part` over contiguous parts of the rays (workers.parts),
    joined in order: the same arrays as one part, bit for bit."""
    n = dirs.shape[0]
    # Marching and the hit variances cost ≈150 ns per (candidate ray x
    # conditioning point) pair; an analytic model has no conditioning set.
    bounds = workers.parts(n, n * len(getattr(model, "conditioning", ())) * 150e-9)

    def march(s, e):
        return _march_part(model, origin, dirs[s:e], t_enter[s:e], t_stop[s:e], params)

    with workers.Split(march, bounds) as split:
        results = split()
    return tuple(np.concatenate(arrays) for arrays in zip(*results))


def render_depth_variance(model, camera: CameraModel, params: MarchParams,
                          sphere: BoundingSphere) -> DepthVarImage:
    """Render the model from a camera into a z-depth/variance image pair,
    marching only the rays that meet `sphere`, from entry to exit. Rays that
    use up max_steps without a hit or an exit are drawn as misses, and a
    RuntimeWarning gives their count for the view."""
    dirs, axis_cos = camera.pixel_rays()
    t_enter, t_exit, candidates = sphere_entry_exit(camera.position - sphere.center, dirs,
                                                    sphere.radius)
    candidates &= t_exit >= 0.0
    t_enter = np.maximum(t_enter, 0.0)

    depth = np.zeros(camera.height * camera.width)
    variance = np.full(camera.height * camera.width, MISS_VAR)
    idx = np.flatnonzero(candidates)
    if idx.size:
        hit, t_hit, exhausted, var = _march_parts(model, camera.position, dirs[idx],
                                                  t_enter[idx], t_exit[idx], params)
        if exhausted.any():
            warnings.warn(
                f"{np.count_nonzero(exhausted)} of {idx.size} candidate rays in this view "
                f"ran out of max_steps={params.max_steps} without a hit or an exit; "
                "they are drawn as misses", RuntimeWarning)
        hit_idx = idx[hit]
        depth[hit_idx] = t_hit[hit] * axis_cos[hit_idx]
        variance[hit_idx] = var
    return DepthVarImage(
        depth.reshape(camera.height, camera.width),
        variance.reshape(camera.height, camera.width),
        camera,
    )
