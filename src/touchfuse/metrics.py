"""Evaluation metrics: depth MSE (full scene and object mask), PSNR, and
Chamfer/Hausdorff cloud distances with an ICP-style alignment refinement."""

import math

import numpy as np

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


def _nearest_distances(a, b):
    from scipy.spatial import cKDTree  # here, so that only eval loads scipy.spatial

    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return cKDTree(b).query(a, k=1)[0]


def chamfer(a, b):
    """Symmetric mean nearest-neighbor distance between two nonempty point clouds."""
    return 0.5 * (float(np.mean(_nearest_distances(a, b)))
                  + float(np.mean(_nearest_distances(b, a))))


def hausdorff(a, b):
    """Symmetric worst-case nearest-neighbor distance."""
    return max(float(np.max(_nearest_distances(a, b))),
               float(np.max(_nearest_distances(b, a))))


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
    chamfer seen (never worse than the initialization)."""
    from scipy.spatial import cKDTree

    a, b = np.atleast_2d(np.asarray(a, dtype=np.float64)), np.atleast_2d(np.asarray(b, dtype=np.float64))
    rot = np.eye(3)
    trans = b.mean(axis=0) - a.mean(axis=0)
    tree = cKDTree(b)
    best = (chamfer(a + trans, b), rot.copy(), trans.copy())
    for _ in range(iters):
        moved = a @ rot.T + trans
        matched = b[tree.query(moved, k=1)[1]]
        rot, trans = _best_rigid(a, matched)
        score = chamfer(a @ rot.T + trans, b)
        if score < best[0]:
            best = (score, rot.copy(), trans.copy())
    return make_transform(best[1], best[2])
