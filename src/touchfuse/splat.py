"""Desk-scale differentiable point-blend renderer with uncertainty-weighted
depth supervision.

Splats are fixed-radius isotropic discs with hard pixel coverage; per pixel
they composite front-to-back exactly like ordered alpha blending, which keeps
the analytic gradients simple: colors and opacities get dense gradients,
positions receive gradients through the blended depth (disc coverage is
piecewise constant, so its derivative vanishes almost everywhere).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import workers
from .errors import NumericalError
from .sdfrender import CameraModel

Z_NEAR = 0.05
FOOTPRINT_CAP_PX = 24.0
# Seconds one view's loss and gradients take per splat x pixel, optimize's
# fork estimate: 0.23-0.33 ns, rounded up, for the bundled sphere's
# 1,500-splat init cloud on its 64 x 64 views (one core of a 2-CPU x86 VM).
PASS_SECONDS = 0.35e-9


def _sigmoid(x):
    # exp overflows to inf below a logit of about -709, giving opacity 0.0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass
class SplatCloud:
    """Struct-of-arrays splat set plus a background color."""

    positions: np.ndarray
    colors: np.ndarray
    opacity_logits: np.ndarray
    radii: np.ndarray
    background: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        self.colors = np.atleast_2d(np.asarray(self.colors, dtype=np.float64))
        self.opacity_logits = np.asarray(self.opacity_logits, dtype=np.float64).ravel()
        self.radii = np.asarray(self.radii, dtype=np.float64).ravel()
        self.background = np.asarray(self.background, dtype=np.float64)
        if np.any(self.radii <= 0.0):
            raise ValueError("splat radii must be positive")

    def __len__(self):
        return self.positions.shape[0]

    @property
    def opacities(self):
        return _sigmoid(self.opacity_logits)

    def copy(self):
        return SplatCloud(
            self.positions.copy(), self.colors.copy(), self.opacity_logits.copy(),
            self.radii.copy(), self.background.copy(),
        )

    def is_finite(self):
        return (
            np.all(np.isfinite(self.positions))
            and np.all(np.isfinite(self.colors))
            and np.all(np.isfinite(self.opacity_logits))
        )


@dataclass(frozen=True)
class LossConfig:
    """Depth-supervision loss parameters: the config's [loss] section.

    depth_weight scales the depth term against the color term, sharpness
    controls how fast supervision confidence falls off with the fused
    standard deviation, and decay shrinks depth_weight each training epoch.
    """

    depth_weight: float
    sharpness: float
    decay: float


def _project(cloud: SplatCloud, camera: CameraModel):
    rel = cloud.positions - camera.position
    cam = rel @ camera.rotation
    z = cam[:, 2]
    valid = z > Z_NEAR
    safe_z = np.where(valid, z, 1.0)
    u = camera.fx * cam[:, 0] / safe_z + camera.cx
    v = camera.fy * cam[:, 1] / safe_z + camera.cy
    rx = np.minimum(camera.fx * cloud.radii / safe_z, FOOTPRINT_CAP_PX)
    ry = np.minimum(camera.fy * cloud.radii / safe_z, FOOTPRINT_CAP_PX)
    return u, v, z, rx, ry, valid


def footprint_pairs(cloud: SplatCloud, camera: CameraModel):
    """All (pixel, splat) coverage pairs sorted by pixel then depth.

    Returns (pix, sid, z) arrays where pix is the linear pixel index; this
    is the exact per-pixel ordered splat list the renderer composites.

    Each splat's candidate pixels are the square of half-width
    ceil(max(rx, ry) + 0.5) around its rounded centre, which holds every
    covered pixel since |ix - round(u)| <= rx + 0.5. Splats are bucketed by
    that reach, so one candidate grid is built per distinct reach. Pairs are
    ordered by the single key pix * 2**bits + depth rank, where the depth
    rank (< 2**bits) orders valid splats by (z, index); the keys are
    unique, so ties in z fall back to the splat index, and the order does
    not depend on the order in which the pairs are found.
    """
    u, v, z, rx, ry, valid = _project(cloud, camera)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    reach = np.ceil(np.maximum(rx[idx], ry[idx]) + 0.5).astype(np.int64)
    # idx ascends, so a stable sort puts tied splats in index order.
    by_depth = idx[np.argsort(z[idx], kind="stable")]
    depth_rank = np.empty(len(cloud), np.int64)
    depth_rank[by_depth] = np.arange(idx.size)
    bits = (idx.size - 1).bit_length()
    step = 1 << bits
    width = camera.width
    keys = []
    for r in np.flatnonzero(np.bincount(reach)):
        ids = idx[reach == r]
        u_ids, v_ids = u[ids], v[ids]
        cx = np.round(u_ids).astype(np.int64)
        cy = np.round(v_ids).astype(np.int64)
        # (offset, splat) axes, the splat axis innermost: each per-axis
        # term, the image-bounds test included (an infinite square fails
        # the disc test), is computed once per row or column offset and
        # broadcast over the (row, column, splat) square.
        span = np.arange(-r, r + 1)[:, None]
        ix = cx + span
        iy = cy + span
        fx2 = ((ix - u_ids) / rx[ids]) ** 2
        fy2 = ((iy - v_ids) / ry[ids]) ** 2
        fx2[(ix < 0) | (ix >= width)] = np.inf
        fy2[(iy < 0) | (iy >= camera.height)] = np.inf
        covered = np.flatnonzero(fx2[None, :, :] + fy2[:, None, :] <= 1.0)
        offset, k = np.divmod(covered, ids.size)
        # Key of splat k at its centre pixel, plus the key step of the
        # square's (row, column) offset.
        centre_key = (cy * width + cx) * step + depth_rank[ids]
        offset_key = (span * width + span.T).ravel() * step
        keys.append(centre_key[k] + offset_key[offset])
    key = np.sort(np.concatenate(keys))
    sid = by_depth[key & (step - 1)]
    return key >> bits, sid, z[sid]


class _Columns:
    """The covered pixels of pixel-sorted pairs as the columns of a (rank,
    pixel) table: pixel j's column holds its pairs in rows 0 to
    counts[j] - 1 and one cell past its last pair in row counts[j]. The
    table is stored row by row, each row holding only the columns that reach
    it, those with the most pairs first, so the columns of row r + 1 are a
    prefix of those of row r. A running product or sum down every column
    then takes one whole-row operation per row, and no cell is padding.

    `pixels` are the covered pixels, ascending; `cells` and `below` are each
    pair's flat cell and the one under it; `ends` is each column's last cell.
    """

    def __init__(self, pix):
        first = np.ones(pix.size, dtype=bool)
        first[1:] = pix[1:] != pix[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, pix.size))
        self.pixels = pix[starts]
        position = np.empty_like(starts)
        position[np.argsort(-counts)] = np.arange(starts.size)
        widths = np.cumsum(np.bincount(counts)[::-1])[::-1]
        row_start = np.cumsum(widths) - widths
        rank = np.arange(pix.size) - np.repeat(starts, counts)
        column = np.repeat(position, counts)
        self.cells = row_start[rank] + column
        self.below = self.cells + widths[rank]
        self.ends = row_start[counts] + position
        self.size = int(widths.sum())
        self._rows = list(zip(row_start.tolist(), widths.tolist()))

    def product_down(self, table):
        """Multiply each row into the next, from row 0 down."""
        for (above, _), (start, width) in zip(self._rows, self._rows[1:]):
            table[start:start + width] *= table[above:above + width]

    def sum_up(self, table):
        """Add each row into the one above, from the last row up."""
        for (start, _), (below, width) in zip(self._rows[-2::-1], self._rows[:0:-1]):
            table[start:start + width] += table[below:below + width]


class _Blend(NamedTuple):
    """What the backward pass reuses of a composite."""

    alpha: np.ndarray       # (pairs,) each pair's opacity
    colors: list            # each pair's color, one (pairs,) array per channel
    columns: _Columns
    t: np.ndarray           # (pairs,) incoming transmittance
    w: np.ndarray           # (pairs,) blend weight alpha * t


def _forward(cloud, camera, pairs):
    """Per-pixel front-to-back compositing: every pixel performs the exact
    operation sequence of a scalar blend (tests/oracles.py composite_ray).

    Each pixel's column of a _Columns table holds 1 in row 0 and 1 - alpha
    of its splats below; its running product down the column is the
    transmittance chain, t <- t * (1 - alpha) from t = 1. np.bincount adds
    each pixel's weighted colors and depths from zero in pair order.
    Returns the three color channels with the background folded in, the
    depth and the residual transmittance, each over the pixels, and the
    _Blend.
    """
    pix, sid, z = pairs
    n_px = camera.width * camera.height
    columns = _Columns(pix)
    alpha = cloud.opacities[sid]
    chain = np.empty(columns.size)
    chain[:columns.pixels.size] = 1.0
    chain[columns.below] = 1.0 - alpha
    columns.product_down(chain)
    t = chain[columns.cells]
    w = alpha * t
    trans = np.ones(n_px)
    trans[columns.pixels] = chain[columns.ends]
    colors = [cloud.colors[:, c].take(sid) for c in range(3)]
    channels = [np.bincount(pix, weights=colors[c] * w, minlength=n_px)
                + trans * cloud.background[c] for c in range(3)]
    depth = np.bincount(pix, weights=z * w, minlength=n_px)
    return channels, depth, trans, _Blend(alpha, colors, columns, t, w)


def render(cloud: SplatCloud, camera: CameraModel):
    """Rasterize the cloud into an RGB image and a blended z-depth image."""
    channels, depth, _, _ = _forward(cloud, camera, footprint_pairs(cloud, camera))
    shape = (camera.height, camera.width)
    return np.column_stack(channels).reshape(shape + (3,)), depth.reshape(shape)


def backproject_init(views):
    """Lift every hit pixel of the (depth, camera) views into one world point cloud.

    Raises NumericalError when no image has a hit: there is nothing to
    initialize the splats from.
    """
    clouds = []
    for depth, camera in views:
        ys, xs = np.nonzero(depth > 0.0)
        clouds.append(camera.backproject(xs, ys, depth[ys, xs]))
    points = np.concatenate(clouds, axis=0)
    if points.shape[0] == 0:
        raise NumericalError("no GPIS ray hit the surface in any view; "
                             "nothing to initialize the splats from")
    return points


def _view_target(rgb_gt, fused_depth, fused_var, camera, cfg):
    """A view as the per-view pass takes it: its loss constants, which no
    pass changes, and its camera. The constants are the ground-truth color
    channels, each over the pixels, the mask of the pixels whose fused
    depth is > 0 (fusion gives every other pixel depth 0), and the fused
    depths there and their weights exp(-sharpness * sqrt(var)). The images
    are of the camera's size (the train stage reads them so)."""
    rgb_gt = np.asarray(rgb_gt, dtype=np.float64)
    mask = fused_depth.reshape(-1) > 0.0
    weights = np.exp(-cfg.sharpness * np.sqrt(fused_var.reshape(-1)[mask]))
    return (list(np.ascontiguousarray(rgb_gt.reshape(-1, 3).T)), mask,
            fused_depth.reshape(-1)[mask], weights, camera)


def _view_loss_and_grads(cloud, view, depth_weight):
    """One _view_target view's (loss, color loss, depth loss, position,
    color and opacity-logit gradients).

    Pair terms are computed one color channel at a time: a gather into a
    1-D array costs a fraction of a row gather of an (N, 3) array."""
    gt_channels, mask, target_depth, weights, camera = view
    pairs = footprint_pairs(cloud, camera)
    pix, sid, z = pairs
    channels, depth, trans, blend = _forward(cloud, camera, pairs)

    residual = [channel - gt for channel, gt in zip(channels, gt_channels)]
    # Summed over the C-ordered (pixels, 3) image, as the reference
    # color_loss sums it.
    square = np.column_stack(residual)
    c_loss = float(np.sum(np.square(square, out=square)))
    g_color_px = [2.0 * r for r in residual]
    depth_residual = depth[mask] - target_depth
    d_loss = float(np.sum(weights * depth_residual ** 2))
    g_depth_px = np.zeros(mask.shape)
    if depth_weight != 0.0:
        g_depth_px[mask] = depth_weight * 2.0 * weights * depth_residual
    loss = c_loss + depth_weight * d_loss

    n = len(cloud)
    # d(loss)/d(pair quantities)
    g_c_pair = [g_color_px[c][pix] for c in range(3)]
    g_d_pair = g_depth_px[pix]
    # Each 3-term dot adds its first and third products first, written out
    # so that the sums do not depend on numpy's choice of summation order.
    prod = [g * color for g, color in zip(g_c_pair, blend.colors)]
    direct = (prod[0] + prod[2]) + prod[1] + g_d_pair * z
    # Suffix sums per pixel: contributions of later splats and the
    # background to d(loss)/d(alpha_i). Each pixel's column holds its
    # splats' phi and, past them, the background's term; summed up the
    # column from the bottom, the cell below pair k's holds what the
    # background and the splats behind pair k add, added back to front.
    columns = blend.columns
    covered = columns.pixels
    suffix = np.empty(columns.size)
    suffix[columns.cells] = direct * blend.w
    prod = [g_color_px[c][covered] * cloud.background[c] for c in range(3)]
    suffix[columns.ends] = ((prod[0] + prod[2]) + prod[1]) * trans[covered]
    columns.sum_up(suffix)
    g_alpha_pair = direct * blend.t - suffix[columns.below] / (1.0 - blend.alpha)

    # bincount adds in pair order starting from zero, as np.add.at does,
    # so the sums are bit-equal.
    grad_col = np.column_stack(
        [np.bincount(sid, weights=g * blend.w, minlength=n) for g in g_c_pair]
    )
    g_z = np.bincount(sid, weights=g_d_pair * blend.w, minlength=n)
    grad_pos = g_z[:, None] * camera.rotation[:, 2][None, :]
    g_alpha = np.bincount(sid, weights=g_alpha_pair, minlength=n)
    alphas = cloud.opacities
    grad_logit = g_alpha * alphas * (1.0 - alphas)
    return loss, c_loss, d_loss, grad_pos, grad_col, grad_logit


def loss_gradients(cloud, views, cfg: LossConfig, depth_weight=None):
    """Summed color + depth_weight * depth loss over (rgb, fused depth,
    fused variance, camera) views, its two terms, and its analytic
    gradients w.r.t. positions, colors and opacity logits. `views` may also
    be optimize's `workers.Split` over its views, which returns each part's
    terms in part order; the sum is taken here, in view order from zero,
    whichever process computed a view's terms."""
    lam = cfg.depth_weight if depth_weight is None else depth_weight
    if isinstance(views, workers.Split):
        parts = views(cloud.positions, cloud.colors, cloud.opacity_logits, lam)
        terms = [view_terms for part in parts for view_terms in part]
    else:
        terms = [_view_loss_and_grads(cloud, _view_target(*view, cfg), lam) for view in views]
    n = len(cloud)
    totals = [0.0, 0.0, 0.0, np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n)]
    for out in terms:
        for k, term in enumerate(out):
            totals[k] += term
    loss, c_total, d_total, *grads = totals
    return loss, c_total, d_total, tuple(grads)


def optimize(cloud: SplatCloud, views, cfg: LossConfig, iters, step,
             callback=None) -> SplatCloud:
    """Plain gradient descent on positions, colors and opacity logits.

    The depth weight decays by cfg.decay each epoch (one pass over all
    views). Runs `iters` passes of loss_gradients, each stepping the iterate
    it scores, and returns the last iterate, as 3DGS keeps the model it
    trained to. Raises NumericalError when the loss or the parameters
    diverge.
    """
    current = cloud.copy()
    pixels = sum(camera.width * camera.height for *_, camera in views)
    # A pass's round trip, the cloud out and its views' terms back, costs
    # less than any one view's own pass.
    bounds = workers.parts(len(views), len(cloud) * pixels * iters * PASS_SECONDS)
    # Made before the fork, so the workers inherit them.
    targets = [_view_target(*view, cfg) for view in views]

    def part_terms(s, e, positions, colors, opacity_logits, lam):
        part = SplatCloud(positions, colors, opacity_logits, current.radii, current.background)
        return [_view_loss_and_grads(part, view, lam) for view in targets[s:e]]

    with workers.Split(part_terms, bounds) as split:
        lam = cfg.depth_weight
        for it in range(iters):
            loss, c_loss, d_loss, (g_pos, g_col, g_logit) = loss_gradients(
                current, split, cfg, depth_weight=lam
            )
            if not math.isfinite(loss):
                raise NumericalError(f"loss diverged at iteration {it}")
            if callback is not None:
                callback({"iter": it, "color_loss": c_loss, "depth_loss": d_loss, "lam": lam})
            current.positions -= step * g_pos
            current.colors -= step * g_col
            current.opacity_logits -= step * g_logit
            if not current.is_finite():
                raise NumericalError(f"parameters diverged at iteration {it}")
            lam *= cfg.decay
    return current
