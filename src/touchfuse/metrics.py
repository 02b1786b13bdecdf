"""Evaluation metrics: depth MSE (full scene and object mask), PSNR, and
Chamfer/Hausdorff cloud distances with an ICP-style alignment refinement.

The cloud metrics query the KD-tree class that scipy.spatial.cKDTree names,
loaded from its compiled module `scipy.spatial._ckdtree`
(`extensions.scipy_extension`) inside the functions eval calls: only a
process that runs eval loads it, and none runs scipy.spatial's imports.
Loading it imports scipy.sparse, which the module's own init needs."""

import math

import numpy as np

from .extensions import scipy_extension
from .geometry import make_transform


def depth_sq_errors(pred, gt_depth, mask=None):
    """Row-major squared depth errors, whose mean is D-MSE (D-MSE-O under an
    object mask), over the pixels where both depths are positive: the toy
    renderer has no densification to fill the pixels it leaves uncovered."""
    pred = np.asarray(pred, dtype=np.float64)
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    valid = (gt_depth > 0.0) & (pred > 0.0)
    if mask is not None:
        valid &= np.asarray(mask, dtype=bool)
    return (pred[valid] - gt_depth[valid]) ** 2


def psnr(img, gt):
    """Peak signal-to-noise ratio in dB for images with values in [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    mse = float(np.mean((img - gt) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _kd_tree():
    # Called inside the functions, so that only eval loads the module.
    return scipy_extension("spatial._ckdtree").cKDTree


def _nearest_distances(a, b):
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return _kd_tree()(b).query(a, k=1)[0]


def _chamfer(a_to_b, b_to_a):
    return 0.5 * (float(np.mean(a_to_b)) + float(np.mean(b_to_a)))


def cloud_distances(a, b):
    """(Chamfer, Hausdorff) distances between two nonempty point clouds,
    from one nearest-neighbor query each way."""
    a_to_b, b_to_a = _nearest_distances(a, b), _nearest_distances(b, a)
    return _chamfer(a_to_b, b_to_a), max(float(np.max(a_to_b)), float(np.max(b_to_a)))


def chamfer(a, b):
    """Symmetric mean nearest-neighbor distance between two nonempty point clouds."""
    return cloud_distances(a, b)[0]


def hausdorff(a, b):
    """Symmetric worst-case nearest-neighbor distance."""
    return cloud_distances(a, b)[1]


def _best_rigid(src, dst):
    """Kabsch rotation + translation minimizing |R src + t - dst|^2."""
    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    cov = (src - src_c).T @ (dst - dst_c)
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    fix = np.diag([1.0, 1.0, d])
    rot = vt.T @ fix @ u.T
    return rot, dst_c - rot @ src_c


def align_clouds(a, b, iters=15):
    """Rigidly align cloud a to cloud b: centroid initialization refined by
    ICP on nearest neighbors; returns the 4x4 transform with the best
    chamfer seen (never worse than the initialization).

    b's KD-tree is built once, and one query of it per pose gives both that
    pose's ICP matches and the a-to-b half of its chamfer."""
    kd_tree = _kd_tree()
    a, b = np.atleast_2d(np.asarray(a, dtype=np.float64)), np.atleast_2d(np.asarray(b, dtype=np.float64))
    tree = kd_tree(b)
    rot = np.eye(3)
    trans = b.mean(axis=0) - a.mean(axis=0)
    best = None
    for it in range(iters + 1):
        moved = a @ rot.T + trans
        to_b, nearest = tree.query(moved, k=1)
        score = _chamfer(to_b, kd_tree(moved).query(b, k=1)[0])
        if best is None or score < best[0]:
            best = (score, rot, trans)
        if it < iters:
            rot, trans = _best_rigid(a, b[nearest])
    return make_transform(best[1], best[2])
