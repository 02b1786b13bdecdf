"""Gaussian-process signed-distance model conditioned on tactile contact data.

Touch readings contribute three kinds of observations: the contact points
themselves (distance 0), artificial points pushed along the contact normals
(distance -offset inside, +offset outside), and per-slice interior centroids
(small negative distance). Exact GP regression with a Matern-3/2 kernel then
gives a signed-distance mean and variance anywhere in space.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.spatial import cKDTree

from .errors import NumericalError, reads_format

LABEL_SURFACE = 0
LABEL_INSIDE = 1
LABEL_OUTSIDE = 2
LABEL_INTERIOR = 3

DEFAULT_CAP = 8000
JITTER_START_FRAC = 1e-6
JITTER_STOP_FRAC = 1e-2
UNIT_NORMAL_TOL = 1e-6
VARIANCE_FLOOR_FRAC = 1e-12
KERNEL_CHUNK_BYTES = 2 ** 20

MODEL_MAGIC = b"GPIS"
MODEL_VERSION = 2


@dataclass(frozen=True)
class TouchReading:
    """Contact surface points with outward unit normals from one touch.

    points/normals are (N, 3) float64 arrays in the world frame.
    """

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        nrm = np.atleast_2d(np.asarray(self.normals, dtype=np.float64))
        if pts.shape != nrm.shape or pts.shape[1] != 3:
            raise ValueError("points and normals must both be (N, 3)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("touch points must be finite")
        lengths = np.linalg.norm(nrm, axis=1)
        bad = np.flatnonzero(~(np.abs(lengths - 1.0) <= UNIT_NORMAL_TOL))
        if bad.size:
            raise ValueError(f"normal at index {bad[0]} is not unit length")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nrm)


@dataclass(frozen=True)
class ConditioningSet:
    """Locations with signed-distance targets and per-point class labels."""

    locations: np.ndarray
    targets: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=np.float64))
        tgt = np.asarray(self.targets, dtype=np.float64).ravel()
        lab = np.asarray(self.labels, dtype=np.int8).ravel()
        if loc.shape[0] != tgt.shape[0] or loc.shape[0] != lab.shape[0]:
            raise ValueError("locations, targets and labels must have equal length")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "targets", tgt)
        object.__setattr__(self, "labels", lab)

    def __len__(self):
        return self.locations.shape[0]

    def surface_points(self):
        return self.locations[self.labels == LABEL_SURFACE]


@dataclass(frozen=True)
class KernelParams:
    """Matern-3/2 hyperparameters plus constant prior mean.

    length_scale and output_scale are in meters, noise is an observation
    variance in meters^2 and prior_mean the constant mean in meters.
    """

    length_scale: float
    output_scale: float
    noise: float = 0.0
    prior_mean: float = 0.0

    def __post_init__(self):
        if self.length_scale <= 0.0:
            raise ValueError("length_scale must be positive")
        if self.output_scale <= 0.0:
            raise ValueError("output_scale must be positive")
        if self.noise < 0.0:
            raise ValueError("noise must be nonnegative")


@dataclass(frozen=True)
class GPISModel:
    """Immutable conditioned GP: factorized kernel matrix plus solve cache.

    factor is the lower-triangular Cholesky factor of K + effective_noise*I
    where effective_noise includes any jitter added during fitting; alpha is
    the precomputed solve of that matrix against the mean-centered targets.
    """

    conditioning: ConditioningSet
    params: KernelParams
    factor: np.ndarray
    alpha: np.ndarray
    effective_noise: float

    def query(self, points):
        """Posterior mean and predictive variance at (N, 3) query points."""
        cross = _kernel_block(_checked_points(points), self.conditioning.locations, self.params)
        # einsum keeps each row's reduction order independent of batch size,
        # so marching a ray alone or with thousands of others gives the same bits.
        mean = self.params.prior_mean + np.einsum("nm,m->n", cross, self.alpha)
        rhs = cross.T
        if rhs.shape[1] == 1:
            # LAPACK switches algorithms at one right-hand side; pad so a
            # pointwise query returns bit-identical values to a batch one.
            v = solve_triangular(self.factor, np.hstack([rhs, rhs]),
                                 lower=True, check_finite=False)[:, :1]
        else:
            v = solve_triangular(self.factor, rhs, lower=True, check_finite=False)
        prior = self.params.output_scale ** 2 + self.params.noise
        var = prior - np.einsum("ij,ij->j", v, v)
        floor = VARIANCE_FLOOR_FRAC * self.params.output_scale ** 2
        return mean, np.maximum(var, floor)

    def query_mean(self, points):
        """Posterior mean only (fast path for ray marching).

        Each chunk of kernel rows is reduced against alpha while it is still
        in cache, so no (N, M) cross block exists; the einsum per row is the
        one query() applies to the full block, so the means are the same bits.
        """
        pts = _checked_points(points)
        mean = np.empty(pts.shape[0])
        for rows, block in _kernel_chunks(pts, self.conditioning.locations, self.params):
            mean[rows] = self.params.prior_mean + np.einsum("nm,m->n", block, self.alpha)
        return mean


def _checked_points(points):
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    return pts


def _matern32_inplace(d, params, scratch):
    """Overwrite distances `d` with their Matern-3/2 covariances; `scratch` has d's shape."""
    d *= np.sqrt(3.0) / params.length_scale
    np.negative(d, out=scratch)
    np.exp(scratch, out=scratch)
    d += 1.0
    d *= params.output_scale ** 2
    d *= scratch


def _chunk_rows(columns):
    """Rows per kernel chunk against `columns` points: about KERNEL_CHUNK_BYTES."""
    return max(1, KERNEL_CHUNK_BYTES // (8 * max(1, columns)))


def _kernel_rows(chunk, cols, params, block, tmp):
    """Write the Matern-3/2 covariance between the rows of `chunk` (R, 3)
    and the columns of `cols` (3, M) into `block` (R, M); `tmp` is scratch
    of block's shape. Every element depends only on its own two points."""
    # Squared distance summed as (dx^2 + dz^2) + dy^2: the order
    # np.einsum("ijk,ijk->ij") uses over three axes, so the kernel keeps
    # the bits of the dense formula and model files stay byte-identical.
    np.subtract.outer(chunk[:, 0], cols[0], out=block)
    block *= block
    for axis in (2, 1):
        np.subtract.outer(chunk[:, axis], cols[axis], out=tmp)
        tmp *= tmp
        block += tmp
    np.sqrt(block, out=block)
    _matern32_inplace(block, params, tmp)


def _kernel_chunks(a, b, params, out=None):
    """Yield (row slice, block): the Matern-3/2 covariance between a chunk
    of the rows of a (N, 3) and all of b (M, 3), about KERNEL_CHUNK_BYTES
    per chunk, so no (N, M, 3) difference tensor and no N x M temporary
    exists. Blocks are views of `out` (N, M) when given, else one reused
    buffer that the next chunk overwrites. Each row depends only on its own
    query point, whatever the chunking.
    """
    cols = np.ascontiguousarray(b.T)
    rows = _chunk_rows(b.shape[0])
    scratch = np.empty((min(rows, a.shape[0]), b.shape[0]))
    buffer = np.empty_like(scratch) if out is None else None
    for start in range(0, a.shape[0], rows):
        chunk = a[start:start + rows]
        block = buffer[:chunk.shape[0]] if out is None else out[start:start + rows]
        _kernel_rows(chunk, cols, params, block, scratch[:chunk.shape[0]])
        yield slice(start, start + chunk.shape[0]), block


def _gram_upper(locations, params, out):
    """Write the Gram matrix of `locations` (n, 3) into the upper triangle
    of `out` (n, n), diagonal included: row band [s, e) gets columns
    [s, n). Each element gets the bits _kernel_block gives it; the strict
    lower triangle is left as it was."""
    n = locations.shape[0]
    rows = _chunk_rows(n)
    for s in range(0, n, rows):
        _kernel_block(locations[s:s + rows], locations[s:], params, out[s:s + rows, s:])


def _kernel_block(a, b, params, out=None):
    """Matern-3/2 covariance between the rows of a (N, 3) and b (M, 3),
    written into `out` (a new (N, M) array when None) chunk by chunk."""
    if out is None:
        out = np.empty((a.shape[0], b.shape[0]))
    for _ in _kernel_chunks(a, b, params, out):
        pass
    return out


def _voxel_downsample(points, normals, pitch):
    """Grid downsample at `pitch`, then thin greedily so no two survivors
    are closer than pitch/2 (grid cells alone cannot guarantee that across
    cell boundaries)."""
    if pitch <= 0.0:
        return points, normals
    cells = np.floor(points / pitch).astype(np.int64)
    _, first = np.unique(cells, axis=0, return_index=True)
    order = np.sort(first)
    pts, nrm = points[order], normals[order]

    min_dist = 0.5 * pitch
    pairs = cKDTree(pts).query_pairs(min_dist, output_type="ndarray")
    if pairs.size:
        gap = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        pairs = pairs[gap < min_dist]
    earlier = [[] for _ in range(pts.shape[0])]
    for a, b in pairs:
        earlier[max(a, b)].append(min(a, b))
    keep = np.ones(pts.shape[0], dtype=bool)
    for i in range(pts.shape[0]):
        if any(keep[j] for j in earlier[i]):
            keep[i] = False
    return pts[keep], nrm[keep]


def build_conditioning_set(touches, surface_offset, interior_offset, n_slices=8, voxel=0.0):
    """Expand touch readings into GP conditioning data.

    Each retained surface point x with normal n emits x -> 0,
    x - surface_offset*n -> -surface_offset and x + surface_offset*n ->
    +surface_offset. Every nonempty horizontal slice of the surface points
    adds its centroid with target -interior_offset. Surface points are
    voxel-downsampled at pitch `voxel` before expansion (0 disables).
    """
    if not touches:
        raise ValueError("no tactile data")
    if surface_offset <= 0.0 or interior_offset <= 0.0:
        raise ValueError("offsets must be positive")
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")

    points = np.concatenate([t.points for t in touches], axis=0)
    normals = np.concatenate([t.normals for t in touches], axis=0)
    if points.shape[0] == 0:
        raise ValueError("no tactile data")
    points, normals = _voxel_downsample(points, normals, voxel)

    inside = points - surface_offset * normals
    outside = points + surface_offset * normals
    n = points.shape[0]

    locations = [points, inside, outside]
    targets = [
        np.zeros(n),
        np.full(n, -surface_offset),
        np.full(n, surface_offset),
    ]
    labels = [
        np.full(n, LABEL_SURFACE, dtype=np.int8),
        np.full(n, LABEL_INSIDE, dtype=np.int8),
        np.full(n, LABEL_OUTSIDE, dtype=np.int8),
    ]

    z = points[:, 2]
    z_min, z_max = z.min(), z.max()
    span = z_max - z_min
    if span == 0.0:
        bins = np.zeros(n, dtype=np.int64)
    else:
        bins = np.minimum((n_slices * (z - z_min) / span).astype(np.int64), n_slices - 1)
    centroids = []
    for b in range(n_slices):
        members = points[bins == b]
        if members.shape[0]:
            centroids.append(members.mean(axis=0))
    if centroids:
        centroids = np.asarray(centroids)
        locations.append(centroids)
        targets.append(np.full(centroids.shape[0], -interior_offset))
        labels.append(np.full(centroids.shape[0], LABEL_INTERIOR, dtype=np.int8))

    return ConditioningSet(
        np.concatenate(locations, axis=0),
        np.concatenate(targets),
        np.concatenate(labels),
    )


def _factorize(locations, params):
    """Cholesky with jitter escalation; returns (factor, effective_noise).

    The Gram matrix of `locations` is built straight into the one n x n
    buffer that potrf factorizes in place, so a fit holds one n x n array.
    The buffer's transpose is the Fortran-order matrix LAPACK works in, and
    potrf reads only its lower triangle: the buffer's upper one, which is
    all _gram_upper builds. cholesky zeroes the other half, so the factor
    has the bits of one computed from the whole Gram matrix. A failed
    attempt leaves the buffer overwritten, so each jitter level builds the
    half again; only near-duplicate points get that far, and a warning
    names the effective noise when they do.
    """
    s2 = params.output_scale ** 2
    jitters = [0.0]
    j = JITTER_START_FRAC * s2
    while j <= JITTER_STOP_FRAC * s2 * (1.0 + 1e-12):
        jitters.append(j)
        j *= 10.0
    n = locations.shape[0]
    work = np.empty((n, n))
    diagonal = np.diag_indices(n)
    for jitter in jitters:
        _gram_upper(locations, params, work)
        work[diagonal] += params.noise + jitter
        try:
            factor = cholesky(work.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        if jitter:
            warnings.warn(
                f"kernel matrix of {n} points needed jitter: effective noise "
                f"{params.noise + jitter:.3g} instead of {params.noise:.3g}",
                RuntimeWarning)
        return factor, params.noise + jitter
    raise NumericalError("kernel matrix not positive definite")


def fit(cset: ConditioningSet, params: KernelParams, cap=DEFAULT_CAP) -> GPISModel:
    """Condition the GP on a set of signed-distance observations.

    Deterministic for fixed inputs. Raises when the set exceeds `cap`
    (coarsen the voxel pitch to shrink it) or when the kernel matrix cannot
    be factorized even after jitter escalation.
    """
    _check_size(cset, cap)
    return _condition(cset, params)


def _check_size(cset, cap):
    if len(cset) == 0:
        raise ValueError("conditioning set is empty")
    if len(cset) > cap:
        raise NumericalError(
            f"conditioning set has {len(cset)} points, cap is {cap}; "
            "use a coarser voxel pitch"
        )


def _condition(cset, params):
    """`fit` past its checks on the set: the Gram build, the factorization
    and the alpha solves. load_model refits a saved set through it."""
    factor, effective_noise = _factorize(cset.locations, params)
    centered = cset.targets - params.prior_mean
    alpha = solve_triangular(
        factor.T,
        solve_triangular(factor, centered, lower=True, check_finite=False),
        lower=False,
        check_finite=False,
    )
    return GPISModel(cset, params, factor, alpha, effective_noise)


def log_marginal_likelihood(model: GPISModel) -> float:
    centered = model.conditioning.targets - model.params.prior_mean
    n = len(model.conditioning)
    quad = float(centered @ model.alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(model.factor))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)


def optimize_hyperparameters(cset: ConditioningSet, grid, noise=1e-6, prior_mean=0.0,
                             cap=DEFAULT_CAP) -> GPISModel:
    """Fit every (length_scale, output_scale) grid member and return the
    fitted model maximizing the log marginal likelihood; ties break toward
    the smallest length scale, then the smallest output scale. A set over
    `cap` raises before any fit, naming the cap.

    The search holds one n x n factor at a time: each candidate's model is
    dropped before the next is fitted. The last candidate's model is the
    result when it wins; any other winner is fitted once more after the
    search, the same fit that scored it.
    """
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    _check_size(cset, cap)
    best = None
    for rho, sigma in grid:
        params = KernelParams(rho, sigma, noise, prior_mean)
        model = None  # frees the last candidate's factor before this fit
        try:
            model = fit(cset, params, cap=cap)
        except NumericalError:
            continue
        key = (-log_marginal_likelihood(model), rho, sigma)
        if best is None or key < best[0]:
            best = (key, params)
    if best is None:
        raise NumericalError("every hyperparameter candidate failed to factorize")
    if model is None or model.params is not best[1]:
        model = None
        model = fit(cset, best[1], cap=cap)
    return model


# The model save_model last wrote in this process, with the bytes it wrote,
# until the next load_model takes it. It lives at module level because
# gpis-fit and gpis-render may run in separate run_pipeline calls.
_saved = None


def save_model(path, model: GPISModel):
    """Serialize what `model` is computed from, which is all the file
    holds: magic, version u32, n u32, little-endian f64 locations, targets
    and the four kernel parameters, then the n labels as bytes. The model
    itself stays in a one-slot handoff, keyed by the bytes written, for the
    next load_model in this process; a later save_model replaces it."""
    global _saved
    from .fileio import atomic_write_bytes

    cset, params = model.conditioning, model.params
    blob = b"".join([
        MODEL_MAGIC,
        np.array([MODEL_VERSION, len(cset)], dtype="<u4").tobytes(),
        cset.locations.astype("<f8").tobytes(),
        cset.targets.astype("<f8").tobytes(),
        np.array([params.length_scale, params.output_scale, params.noise, params.prior_mean],
                 dtype="<f8").tobytes(),
        cset.labels.astype("<i1").tobytes(),
    ])
    atomic_write_bytes(path, blob)
    _saved = (blob, model)


@reads_format
def load_model(path) -> GPISModel:
    """Read a model file and return its fitted model.

    When the file holds exactly the bytes the last save_model in this
    process wrote, that call's model is returned without refitting.
    Otherwise the file is parsed and refitted: the jitter escalation
    replays, so the factor equals the fitted one bit for bit at the same
    BLAS thread count. Either way the handoff slot is emptied first, so a
    refit holds one n x n array and the slot keeps no model past this call.
    """
    global _saved
    saved, _saved = _saved, None
    with open(path, "rb") as fh:
        blob = fh.read()
    if saved is not None and saved[0] == blob:
        return saved[1]
    del saved
    if blob[:4] != MODEL_MAGIC:
        raise ValueError("not a GPIS model file")
    version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported GPIS model version {version}")
    n = int(np.frombuffer(blob, dtype="<u4", count=1, offset=8)[0])
    expected = 12 + 8 * (4 * n + 4) + n
    if len(blob) != expected:
        raise ValueError(f"GPIS model file truncated: {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f8", count=4 * n + 4, offset=12).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("GPIS model file holds a non-finite value")
    labels = np.frombuffer(blob, dtype="<i1", count=n, offset=12 + 8 * (4 * n + 4))
    if np.any((labels < LABEL_SURFACE) | (labels > LABEL_INTERIOR)):
        raise ValueError("GPIS model file holds an unknown point label")
    cset = ConditioningSet(values[:3 * n].reshape(n, 3), values[3 * n:4 * n], labels)
    return _condition(cset, KernelParams(*values[4 * n:]))
