"""Scalar reference forms of the package's batched algorithms, which the
tests hold the batched code to (bit for bit where the tests say so), and
the reference splat loss that grad_check differentiates, and the rotation
helper the tests pose clouds and cameras with."""

import math
from dataclasses import dataclass

import numpy as np

from touchfuse.geometry import frame_from_normal, transform_points, unit
from touchfuse.gpis import KernelParams, TouchReading
from touchfuse.sdfrender import BoundingSphere, CameraModel, MarchParams
from touchfuse.splat import LossConfig, SplatCloud, footprint_pairs, loss_gradients, render
from touchfuse.touchsim import _project_to_surface, sdf_gradient

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


def depth_loss(rendered_depth, fused_depth, fused_var, cfg: LossConfig):
    """Uncertainty-weighted squared depth error over supervised pixels.

    Per-pixel weight = exp(-sharpness * sqrt(variance)); pixels whose fused
    depth is not positive are skipped entirely.
    """
    rendered_depth = np.asarray(rendered_depth, dtype=np.float64)
    if rendered_depth.shape != fused_depth.shape:
        raise ValueError("image dimensions differ")
    mask = fused_depth > 0.0
    if not np.any(mask):
        return 0.0
    weights = np.exp(-cfg.sharpness * np.sqrt(fused_var[mask]))
    return float(np.sum(weights * (rendered_depth[mask] - fused_depth[mask]) ** 2))


def total_loss(cloud, views, cfg: LossConfig, depth_weight=None):
    """Summed color + weighted depth loss across (rgb, fused depth, fused
    variance, camera) views."""
    lam = cfg.depth_weight if depth_weight is None else depth_weight
    total = 0.0
    for rgb_gt, fused_depth, fused_var, camera in views:
        rgb, depth = render(cloud, camera)
        total += color_loss(rgb, rgb_gt)
        if lam != 0.0:
            total += lam * depth_loss(depth, fused_depth, fused_var, cfg)
    return total


def dot3(a, b):
    """The dot product of two 3-vectors, first and third products first."""
    p = a * b
    return (p[0] + p[2]) + p[1]


def view_loss_and_grads(cloud: SplatCloud, rgb_gt, fused_depth, fused_var,
                        camera: CameraModel, cfg: LossConfig, depth_weight):
    """One view's (loss, color loss, depth loss, position, color and
    opacity-logit gradients), pixel by pixel.

    Each covered pixel blends its depth-ordered splats with composite_ray,
    then walks them back to front: d(loss)/d(alpha_i) is the splat's direct
    term times its incoming transmittance, less the suffix (the background's
    term and every later splat's) over 1 - alpha_i. Each splat's gradients
    are summed from zero in pixel-major pair order. A 3-term dot product
    adds its first and third products first, as the package does.
    """
    pix, sid, z = footprint_pairs(cloud, camera)
    alphas = cloud.opacities
    width = camera.width
    color = np.zeros((camera.height, width, 3))
    depth = np.zeros((camera.height, width))
    trans = np.ones((camera.height, width))
    for p in np.unique(pix):
        on = pix == p
        y, x = divmod(int(p), width)
        color[y, x], depth[y, x], trans[y, x] = composite_ray(
            [(alphas[s], cloud.colors[s], d) for s, d in zip(sid[on], z[on])]
        )
    rgb = color + trans[..., None] * cloud.background
    c_loss = color_loss(rgb, rgb_gt)
    d_loss = depth_loss(depth, fused_depth, fused_var, cfg)

    n = len(cloud)
    grad_col = np.zeros((n, 3))
    g_z = np.zeros(n)
    g_alpha = np.zeros(n)
    for p in np.unique(pix):
        y, x = divmod(int(p), width)
        g_c = 2.0 * (rgb[y, x] - rgb_gt[y, x])
        g_d = 0.0
        if fused_depth[y, x] > 0.0 and depth_weight != 0.0:
            weight = np.exp(-cfg.sharpness * np.sqrt(fused_var[y, x]))
            g_d = depth_weight * 2.0 * weight * (depth[y, x] - fused_depth[y, x])
        pairs = np.flatnonzero(pix == p)
        t = np.empty(pairs.size)
        t[0] = 1.0
        for k in range(1, pairs.size):
            t[k] = t[k - 1] * (1.0 - alphas[sid[pairs[k - 1]]])
        suffix = dot3(g_c, cloud.background) * trans[y, x]
        pair_g_alpha = np.empty(pairs.size)
        for k in range(pairs.size - 1, -1, -1):
            s, a = sid[pairs[k]], alphas[sid[pairs[k]]]
            direct = dot3(g_c, cloud.colors[s]) + g_d * z[pairs[k]]
            pair_g_alpha[k] = direct * t[k] - suffix / (1.0 - a)
            suffix = suffix + direct * (a * t[k])
        for k, pair in enumerate(pairs):
            s, w = sid[pair], alphas[sid[pair]] * t[k]
            grad_col[s] = grad_col[s] + g_c * w
            g_z[s] = g_z[s] + g_d * w
            g_alpha[s] = g_alpha[s] + pair_g_alpha[k]
    grad_pos = g_z[:, None] * camera.rotation[:, 2][None, :]
    grad_logit = g_alpha * alphas * (1.0 - alphas)
    return c_loss + depth_weight * d_loss, c_loss, d_loss, grad_pos, grad_col, grad_logit


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


def voxel_downsample(points, normals, pitch):
    """gpis.voxel_downsample point by point: the first point of each grid
    cell of side `pitch`, in input order, then each of those in turn unless
    a kept earlier one lies closer than pitch/2. A pitch of 0 keeps all."""
    if pitch <= 0.0:
        return points, normals
    cells, first = set(), []
    for i, point in enumerate(points):
        cell = tuple(np.floor(point / pitch).astype(np.int64))
        if cell not in cells:
            cells.add(cell)
            first.append(i)
    kept = []
    for i in first:
        if all(np.linalg.norm(points[i] - points[j]) >= 0.5 * pitch for j in kept):
            kept.append(i)
    return points[kept], normals[kept]


def rotation_about_axis(axis, angle):
    """Rodrigues rotation matrix for a unit axis and angle in radians."""
    k = unit(axis)
    kx = np.array([
        [0.0, -k[2], k[1]],
        [k[2], 0.0, -k[0]],
        [-k[1], k[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def random_surface_point(shape, rng):
    """One point of the shape's surface: a direction of three normal draws
    from `rng`, normalised, taken from the bounding sphere to the surface
    by eight Newton projections."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    point = direction[None, :] * shape.bounding_radius()
    for _ in range(8):
        point = _project_to_surface(shape, point)
    return point[0]


def sample_touches(shape, n_touches, patch_radius, points_per_touch, point_sigma=0.0, seed=0):
    """The touch simulator one touch at a time: a random surface center,
    the sensor frame of its unit normal, disc samples in that frame
    projected to the surface, their unit SDF-gradient normals, then the
    point noise."""
    rng = np.random.default_rng(seed)
    touches = []
    for _ in range(n_touches):
        center = random_surface_point(shape, rng)
        normal = sdf_gradient(shape, center[None, :])[0]
        normal /= np.linalg.norm(normal)
        frame = frame_from_normal(center, normal)
        radii = patch_radius * np.sqrt(rng.uniform(size=points_per_touch))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=points_per_touch)
        tangent = np.stack(
            [radii * np.cos(angles), radii * np.sin(angles), np.zeros(points_per_touch)],
            axis=1,
        )
        pts = _project_to_surface(shape, transform_points(frame, tangent))
        normals = sdf_gradient(shape, pts)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        if point_sigma > 0.0:
            pts = pts + rng.normal(scale=point_sigma, size=pts.shape)
        touches.append(TouchReading(pts, normals))
    return touches
