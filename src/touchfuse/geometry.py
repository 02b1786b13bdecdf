"""Rigid transforms and small vector helpers shared across the toolkit.

All transforms are 4x4 float64 matrices mapping child-frame coordinates into
the parent frame (rotation in the upper-left 3x3, translation in the last
column).
"""

import numpy as np

ORTHONORMAL_TOL = 1e-8


def unit(v):
    """Normalize a vector, raising on zero length."""
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def make_transform(rotation, translation):
    """Assemble a 4x4 transform from a 3x3 rotation and a translation."""
    t = np.eye(4, dtype=np.float64)
    t[:3, :3] = np.asarray(rotation, dtype=np.float64)
    t[:3, 3] = np.asarray(translation, dtype=np.float64)
    return t


def transform_points(transform, points):
    """Apply a rigid transform to an (N, 3) array."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ transform[:3, :3].T + transform[:3, 3]


def centroid_spread(points):
    """Centroid of an (N, 3) point set and its largest distance from it."""
    center = points.mean(axis=0)
    return center, float(np.max(np.linalg.norm(points - center, axis=1)))


def is_rotation(mat):
    """Whether a 3x3 float array is orthonormal with determinant +1."""
    return np.allclose(mat.T @ mat, np.eye(3), atol=ORTHONORMAL_TOL) and np.linalg.det(mat) > 0.0


def look_at(eye, target):
    """World-from-camera pose with +z toward the target, x right, y down.

    The up hint is +z, and +y when the viewing direction is vertical, so
    cameras on the vertical axis stay well defined.
    """
    eye = np.asarray(eye, dtype=np.float64)
    forward = unit(np.asarray(target, dtype=np.float64) - eye)
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(forward, up)) > 1.0 - 1e-9:
        up = np.array([0.0, 1.0, 0.0])
    x_axis = unit(np.cross(forward, up))
    y_axis = np.cross(forward, x_axis)
    rot = np.column_stack([x_axis, y_axis, forward])
    return make_transform(rot, eye)


def frame_from_normal(origin, normal):
    """Rigid transform whose -z axis points along `normal` (sensor pressing in)."""
    z_axis = -unit(normal)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(z_axis, helper)) > 1.0 - 1e-9:
        helper = np.array([0.0, 1.0, 0.0])
    x_axis = unit(np.cross(helper, z_axis))
    y_axis = np.cross(z_axis, x_axis)
    rot = np.column_stack([x_axis, y_axis, z_axis])
    return make_transform(rot, origin)
