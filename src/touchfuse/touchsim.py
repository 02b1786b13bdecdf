"""Synthetic touch datasets, sparse depth keypoints and ground-truth depth renders.

Analytic SDF shapes (sphere, box, torus) stand in for scanned objects, so
every generated quantity has a closed-form reference. All generators are
pure functions of their inputs and a seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .gpis import TouchReading
from .sdfrender import CameraModel, BoundingSphere, MarchParams, render_depth_variance
from .align import SparseDepth

SHAPE_KINDS = ("sphere", "box", "torus")
GRADIENT_STEP = 1e-6
# Ground-truth march; the step budget covers grazing rays crawling at min_step.
GT_HIT_TOL = 1e-7
GT_MAX_STEPS = 5000


@dataclass(frozen=True)
class AnalyticShape:
    """Closed-form SDF primitive centred at the origin; `size` is radius /
    half-extents / (major, minor)."""

    kind: str
    size: tuple

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        size = tuple(float(s) for s in np.atleast_1d(self.size))
        if any(s <= 0.0 for s in size):
            raise ValueError("shape size parameters must be positive")
        if self.kind == "sphere" and len(size) != 1:
            raise ValueError("sphere takes a single radius")
        if self.kind == "box" and len(size) not in (1, 3):
            raise ValueError("box takes one or three half-extents")
        if self.kind == "torus" and len(size) != 2:
            raise ValueError("torus takes (major, minor) radii")
        if self.kind == "box" and len(size) == 1:
            size = (size[0],) * 3
        object.__setattr__(self, "size", size)

    def bounding_radius(self):
        if self.kind == "sphere":
            return self.size[0]
        if self.kind == "box":
            return math.sqrt(sum(s * s for s in self.size))
        return self.size[0] + self.size[1]

    # The sphere tracer's model queries: exact distance, zero variance.
    def query_mean(self, points):
        return analytic_sdf(self, points)

    def query(self, points):
        sdf = analytic_sdf(self, points)
        return sdf, np.zeros_like(sdf)


def analytic_sdf(shape: AnalyticShape, points):
    """Exact signed distance (negative inside) of each of the (N, 3) points."""
    pts = np.asarray(points, dtype=np.float64)
    if shape.kind == "sphere":
        return np.linalg.norm(pts, axis=1) - shape.size[0]
    if shape.kind == "box":
        q = np.abs(pts) - np.asarray(shape.size)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        return outside + inside
    major, minor = shape.size
    ring = np.stack([np.hypot(pts[:, 0], pts[:, 1]) - major, pts[:, 2]], axis=1)
    return np.linalg.norm(ring, axis=1) - minor


def sdf_gradient(shape: AnalyticShape, points):
    """Central-difference SDF gradient; unit length away from medial axes."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    grad = np.empty_like(pts)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = GRADIENT_STEP
        grad[:, axis] = ((analytic_sdf(shape, pts + step) - analytic_sdf(shape, pts - step))
                         / (2 * GRADIENT_STEP))
    return grad


def _project_to_surface(shape, points):
    # One Newton step along the SDF gradient; exact for spheres and flat
    # box faces, adequate elsewhere at patch scales well below curvature.
    sdf = analytic_sdf(shape, points)
    grad = sdf_gradient(shape, points)
    grad /= np.linalg.norm(grad, axis=1, keepdims=True)
    return points - sdf[:, None] * grad


def _surface_from_directions(shape, directions):
    # Start on the bounding sphere along each (N, 3) unit direction, then
    # project onto the surface.
    pts = directions * shape.bounding_radius()
    for _ in range(8):
        pts = _project_to_surface(shape, pts)
    return pts


def sample_touches(shape: AnalyticShape, n_touches, patch_radius, points_per_touch,
                   point_sigma=0.0, seed=0):
    """Simulate tactile patches: random surface centers, tangent-disc samples
    projected back to the surface, SDF-gradient normals, and Gaussian point
    noise of std `point_sigma` (m).

    Each touch draws its center direction, disc radii and angles, then its
    noise, from one generator in turn, and has its own sensor frame. The
    surface projections and gradients run once over every touch's points:
    each point's result depends on that point alone.
    """
    rng = np.random.default_rng(seed)
    directions = np.empty((n_touches, 3))
    tangents = np.empty((n_touches, points_per_touch, 3))
    noise = np.zeros_like(tangents)
    for direction, tangent, jitter in zip(directions, tangents, noise):
        direction[:] = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radii = patch_radius * np.sqrt(rng.uniform(size=points_per_touch))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=points_per_touch)
        tangent[:] = np.stack(
            [radii * np.cos(angles), radii * np.sin(angles), np.zeros(points_per_touch)],
            axis=1,
        )
        if point_sigma > 0.0:
            jitter[:] = rng.normal(scale=point_sigma, size=jitter.shape)
    centers = _surface_from_directions(shape, directions)
    pts = np.empty_like(tangents)
    for center, normal, tangent, out in zip(centers, sdf_gradient(shape, centers), tangents, pts):
        normal /= np.linalg.norm(normal)
        out[:] = geometry.transform_points(geometry.frame_from_normal(center, normal), tangent)
    pts = _project_to_surface(shape, pts.reshape(-1, 3))
    normals = sdf_gradient(shape, pts)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    if point_sigma > 0.0:
        pts = pts + noise.reshape(-1, 3)
    per_touch = tangents.shape
    return [TouchReading(p, n) for p, n in zip(pts.reshape(per_touch), normals.reshape(per_touch))]


def render_gt_depth(shape: AnalyticShape, camera: CameraModel):
    """Sphere-traced ground-truth z-depth image of the shape, 0 at a miss."""
    params = MarchParams(
        step_fraction=1.0, min_step=1e-6, hit_tol=GT_HIT_TOL, max_steps=GT_MAX_STEPS
    )
    sphere = BoundingSphere(np.zeros(3), 1.05 * shape.bounding_radius())
    return render_depth_variance(shape, camera, params, sphere=sphere)[0]


def make_sparse_depth(depth, fraction, quadratic=0.0, seed=0) -> SparseDepth:
    """Sample a small fraction of the pixels of positive `depth` as noisy
    metric depth keypoints.

    The perturbation std grows quadratically with depth:
    std = quadratic * depth^2, with `quadratic` in 1/m.
    """
    hits = np.argwhere(depth > 0.0)
    count = int(round(fraction * hits.shape[0]))
    if count < 2:
        raise ValueError(
            f"fraction {fraction} yields {count} samples; scale alignment needs at least 2"
        )
    rng = np.random.default_rng(seed)
    chosen = hits[rng.choice(hits.shape[0], size=count, replace=False)]
    depths = depth[chosen[:, 0], chosen[:, 1]]
    if quadratic > 0.0:
        depths = depths + rng.normal(size=count) * quadratic * depths ** 2
    pixels = chosen[:, ::-1]  # (row, col) -> (u, v)
    return SparseDepth(pixels, depths)


def surface_points(shape: AnalyticShape, count, seed=0):
    """Uniform-ish random points on the shape surface (for evaluation clouds).

    Projects all points at once. The result is bit for bit that of drawing
    and projecting one direction at a time from one generator: the
    (count, 3) normal draw is the same stream as `count` draws of 3, and
    each direction is normalised with the same 1-D norm.
    """
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(count, 3))
    for row in directions:
        row /= np.linalg.norm(row)
    return _surface_from_directions(shape, directions)
