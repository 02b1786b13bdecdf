"""Sphere tracing of a signed-distance model into per-view depth and variance images.

A model answers `query_mean(points)` with signed distances and
`query(points)` with (signed distances, variances), for (N, 3) points: a
fitted `gpis.GPISModel` or a `touchsim.AnalyticShape` (variance zero).
Rays march by steps proportional to the current SDF value (floored at a
minimum step), after an analytic ray/bounding-sphere prefilter discards
pixels that cannot hit the surface. Images store z-depth (distance along the
optical axis) so they combine directly with monocular depth maps. A view's
rays are split across forked processes, one per usable CPU, when the work
pays for the forks; `_march_part` says what does not depend on the split.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry, workers

MISS_VAR = 1e10
BOUND_MARGIN = 0.1


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
        if not (0.0 < self.fx < np.inf and 0.0 < self.fy < np.inf):
            raise ValueError(f"focal lengths {self.fx} and {self.fy} must be positive and finite")
        if not (0.0 <= self.cx < self.width) or not (0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        pose = np.asarray(self.pose, dtype=np.float64)
        if (pose.shape != (4, 4) or not np.isfinite(pose).all()
                or not geometry.is_rotation(pose[:3, :3])):
            raise ValueError("pose must be a finite rigid transform with orthonormal rotation")
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
    """Sphere-tracing controls: step = max(step_fraction * sdf, min_step),
    with step_fraction in (0, 1] and min_step and hit_tol positive."""

    step_fraction: float
    min_step: float
    hit_tol: float
    max_steps: int


@dataclass(frozen=True)
class BoundingSphere:
    center: np.ndarray
    radius: float


def bounding_sphere(cset) -> BoundingSphere:
    """Sphere around a conditioning set's surface points, BOUND_MARGIN wider than their spread."""
    center, spread = geometry.centroid_spread(cset.surface_points())
    return BoundingSphere(center, (1.0 + BOUND_MARGIN) * spread)


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
    rays that used up max_steps without a hit or an exit. Each mean is a
    per-row einsum, so hit, t and exhausted do not depend on which rays
    share a part. The variances come from triangular solves over the
    part's hits, gpis.SOLVE_COLUMNS at a time, and need not: in float64 one
    hit's variance differed by 1.7e-14 (relative) between a 5-hit and an
    879-hit query. Every two-part split tried on the bundled views gave the
    same float32 images as one part."""
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
    joined in order."""
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
                          sphere: BoundingSphere):
    """Render the model from a camera into (z-depth, variance) images,
    marching only the rays that meet `sphere`, from entry to exit. A hit
    has positive depth and the model's variance; a miss, a hit at t = 0
    (a camera inside the surface) among them, has depth 0 and variance
    MISS_VAR. Rays that use up max_steps without a hit or an exit are drawn
    as misses, and a RuntimeWarning gives their count for the view."""
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
        variance[hit_idx] = np.where(depth[hit_idx] > 0.0, var, MISS_VAR)
    return depth.reshape(camera.height, -1), variance.reshape(camera.height, -1)
