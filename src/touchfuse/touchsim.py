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
from .sdfrender import CameraModel, DepthVarImage, BoundingSphere, MarchParams, render_depth_variance
from .align import SparseDepth

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
        if self.kind not in ("sphere", "box", "torus"):
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


def analytic_sdf(shape: AnalyticShape, point):
    """Exact signed distance (negative inside); accepts (3,) or (N, 3)."""
    pts = np.asarray(point, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if shape.kind == "sphere":
        sdf = np.linalg.norm(pts, axis=1) - shape.size[0]
    elif shape.kind == "box":
        q = np.abs(pts) - np.asarray(shape.size)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        sdf = outside + inside
    else:
        major, minor = shape.size
        ring = np.stack([np.hypot(pts[:, 0], pts[:, 1]) - major, pts[:, 2]], axis=1)
        sdf = np.linalg.norm(ring, axis=1) - minor
    return float(sdf[0]) if single else sdf


def sdf_gradient(shape: AnalyticShape, points, h=GRADIENT_STEP):
    """Central-difference SDF gradient; unit length away from medial axes."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    grad = np.empty_like(pts)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        grad[:, axis] = (analytic_sdf(shape, pts + step) - analytic_sdf(shape, pts - step)) / (2 * h)
    return grad


class ShapeSDFModel:
    """Adapter exposing an analytic shape through the GP query interface
    (zero variance), so the sphere tracer can consume it directly."""

    def __init__(self, shape: AnalyticShape):
        self.shape = shape

    def query(self, points):
        sdf = analytic_sdf(self.shape, np.atleast_2d(points))
        return sdf, np.zeros_like(sdf)

    def query_mean(self, points):
        return analytic_sdf(self.shape, np.atleast_2d(points))


@dataclass(frozen=True)
class NoiseModel:
    """Perturbation magnitudes for simulated measurements.

    point_sigma (m) jitters touch points, normal_sigma (rad) tilts normals,
    sparse_quadratic (1/m) scales the depth-noise std as coeff * depth^2.
    """

    point_sigma: float = 0.0
    normal_sigma: float = 0.0
    sparse_quadratic: float = 0.0

    def __post_init__(self):
        if self.point_sigma < 0 or self.normal_sigma < 0 or self.sparse_quadratic < 0:
            raise ValueError("noise magnitudes must be nonnegative")


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


def _random_surface_point(shape, rng):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return _surface_from_directions(shape, direction[None, :])[0]


def sample_touches(shape: AnalyticShape, n_touches, patch_radius, points_per_touch,
                   noise: NoiseModel = NoiseModel(), seed=0):
    """Simulate tactile patches: random surface centers, tangent-disc samples
    projected back to the surface, SDF-gradient normals, optional noise."""
    if n_touches < 1:
        raise ValueError("need at least one touch")
    rng = np.random.default_rng(seed)
    touches = []
    for _ in range(n_touches):
        center = _random_surface_point(shape, rng)
        normal = sdf_gradient(shape, center[None, :])[0]
        normal /= np.linalg.norm(normal)
        frame = geometry.frame_from_normal(center, normal)
        radii = patch_radius * np.sqrt(rng.uniform(size=points_per_touch))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=points_per_touch)
        tangent = np.stack(
            [radii * np.cos(angles), radii * np.sin(angles), np.zeros(points_per_touch)],
            axis=1,
        )
        pts = geometry.transform_points(frame, tangent)
        pts = _project_to_surface(shape, pts)
        normals = sdf_gradient(shape, pts)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)

        if noise.point_sigma > 0.0:
            pts = pts + rng.normal(scale=noise.point_sigma, size=pts.shape)
        if noise.normal_sigma > 0.0:
            normals = _tilt_normals(normals, noise.normal_sigma, rng)
        touches.append(TouchReading(pts, normals))
    return touches


def _tilt_normals(normals, sigma, rng):
    out = np.empty_like(normals)
    for i, n in enumerate(normals):
        helper = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(n, helper)) > 1.0 - 1e-9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = geometry.unit(np.cross(n, helper))
        axis = geometry.rotation_about_axis(n, rng.uniform(0, 2 * math.pi)) @ axis
        out[i] = geometry.rotation_about_axis(axis, rng.normal(scale=sigma)) @ n
    return out


def render_gt_depth(shape: AnalyticShape, camera: CameraModel) -> DepthVarImage:
    """Sphere-traced ground-truth z-depth of the shape (variance zero on hits)."""
    params = MarchParams(
        step_fraction=1.0, min_step=1e-6, hit_tol=GT_HIT_TOL, max_steps=GT_MAX_STEPS
    )
    sphere = BoundingSphere(np.zeros(3), 1.05 * shape.bounding_radius())
    return render_depth_variance(ShapeSDFModel(shape), camera, params, sphere=sphere)


def make_sparse_depth(gt: DepthVarImage, fraction, noise: NoiseModel = NoiseModel(),
                      seed=0) -> SparseDepth:
    """Sample a small fraction of hit pixels as noisy metric depth keypoints.

    The perturbation std grows quadratically with depth:
    std = sparse_quadratic * depth^2.
    """
    if not (0.0 < fraction <= 0.01):
        raise ValueError("fraction must be in (0, 0.01]")
    hits = np.argwhere(gt.hit_mask)
    if hits.shape[0] == 0:
        raise ValueError("ground-truth image has no hit pixels")
    count = int(round(fraction * hits.shape[0]))
    if count < 2:
        raise ValueError(
            f"fraction {fraction} yields {count} samples; scale alignment needs at least 2"
        )
    rng = np.random.default_rng(seed)
    chosen = hits[rng.choice(hits.shape[0], size=count, replace=False)]
    depths = gt.depth[chosen[:, 0], chosen[:, 1]]
    if noise.sparse_quadratic > 0.0:
        depths = depths + rng.normal(size=count) * noise.sparse_quadratic * depths ** 2
    pixels = chosen[:, ::-1]  # (row, col) -> (u, v)
    return SparseDepth(pixels, depths)


def surface_points(shape: AnalyticShape, count, seed=0):
    """Uniform-ish random points on the shape surface (for evaluation clouds).

    Projects all points at once. The result is bit for bit that of `count`
    calls of `_random_surface_point` on one generator: the (count, 3) normal
    draw is the same stream as `count` draws of 3, and each direction is
    normalised with the same 1-D norm.
    """
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(count, 3))
    for row in directions:
        row /= np.linalg.norm(row)
    return _surface_from_directions(shape, directions)
