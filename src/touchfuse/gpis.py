"""Gaussian-process signed-distance model conditioned on tactile contact data.

Touch readings contribute two kinds of observations: the contact points
themselves (distance 0) and artificial points pushed along the contact
normals (distance -offset inside, +offset outside). Exact GP regression with
a Matern-3/2 kernel then gives a signed-distance mean and variance anywhere
in space.

The kernel matrix is factorized and solved in LAPACK's rectangular full
packed storage by dpftrf, dpftrs and dtfsm, which numpy lacks. They are
the objects of scipy.linalg.lapack's names, taken from the compiled module
`scipy.linalg._flapack` loaded from its file (`extensions.scipy_extension`),
so importing gpis runs none of scipy.linalg's imports.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import NumericalError, reads_format
from .extensions import scipy_extension

_flapack = scipy_extension("linalg._flapack")
dpftrf, dpftrs, dtfsm = _flapack.dpftrf, _flapack.dpftrs, _flapack.dtfsm

JITTER_START_FRAC = 1e-6
JITTER_STOP_FRAC = 1e-2
UNIT_NORMAL_TOL = 1e-6
VARIANCE_FLOOR_FRAC = 1e-12
KERNEL_CHUNK_BYTES = 2 ** 20
# Query points per variance solve: the columns of query's buffer. On one core
# of a 2-CPU x86 VM, solving 440 points (a render part's share of a bundled
# view) in solves of 64 columns cost +29 % against one solve on the bundled
# sphere (n = 2,849) and the benchmark torus (n = 4,283), 128 columns +12 %
# and +13 %, and 256 columns +5 % and +4 %.
SOLVE_COLUMNS = 256

MODEL_MAGIC = b"GPIS"
MODEL_VERSION = 3


@dataclass(frozen=True)
class TouchReading:
    """Contact surface points with outward unit normals, from one touch or many.

    points/normals are (N, 3) float64 arrays in the world frame.
    """

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        nrm = np.atleast_2d(np.asarray(self.normals, dtype=np.float64))
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
    """Locations with signed-distance targets."""

    locations: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=np.float64))
        tgt = np.asarray(self.targets, dtype=np.float64).ravel()
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "targets", tgt)

    def __len__(self):
        return self.locations.shape[0]

    def surface_points(self):
        """The locations of target 0: the contact points, since every
        normal offset is nonzero."""
        return self.locations[self.targets == 0.0]


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
    where effective_noise includes any jitter added during fitting, in
    LAPACK's rectangular full packed layout (transr 'N', uplo 'L'; see
    _factorize): one array of n(n+1)/2 values. alpha is the precomputed
    solve of that matrix against the mean-centered targets.
    """

    conditioning: ConditioningSet
    params: KernelParams
    factor: np.ndarray
    alpha: np.ndarray
    effective_noise: float

    def query(self, points):
        """Posterior mean and predictive variance at finite (N, 3) query points."""
        mean, var = self._query(points, variance=True)
        return mean, np.maximum(var, VARIANCE_FLOOR_FRAC * self.params.output_scale ** 2)

    def query_mean(self, points):
        """Posterior mean only (fast path for ray marching): query's means, bit for bit."""
        return self._query(points, variance=False)[0]

    def _query(self, points, variance):
        """(mean, variance) at `points`, the variance unset unless asked for.
        Each chunk's kernel rows (SOLVE_COLUMNS points with the variances,
        else about KERNEL_CHUNK_BYTES) go into one reused C-order buffer and
        are reduced against alpha there, so no (N, M) cross block exists;
        its Fortran-order view is then solved in place for the variances."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        # In Fortran order the transposed locations _kernel_block reads are
        # contiguous as they stand, so its calls share this one copy.
        locations = np.asfortranarray(self.conditioning.locations)
        rows = SOLVE_COLUMNS if variance else _chunk_rows(locations.shape[0])
        # Two rows at least: LAPACK switches algorithms at one right-hand
        # side, so a lone point is solved beside a copy of itself, on a batch
        # one's path. A variance can still differ in its last bits with the
        # points solved alongside it (1.7e-14 relative, seen in float64).
        buffer = np.empty((max(2, min(rows, pts.shape[0])), locations.shape[0]))
        mean, var = np.empty(pts.shape[0]), np.empty(pts.shape[0])
        for s in range(0, pts.shape[0], rows):
            k = min(rows, pts.shape[0] - s)
            block = _kernel_block(pts[s:s + k], locations, self.params, buffer[:k])
            # einsum keeps each row's reduction order independent of batch size,
            # so marching a ray alone or with thousands of others gives the same bits.
            mean[s:s + k] = self.params.prior_mean + np.einsum("nm,m->n", block, self.alpha)
            if variance:
                if k == 1:
                    buffer[1] = buffer[0]
                v = dtfsm(1.0, self.factor, buffer[:max(2, k)].T, uplo="L", overwrite_b=True)
                var[s:s + k] = (self.params.output_scale ** 2 + self.params.noise
                                - np.einsum("ij,ij->j", v[:, :k], v[:, :k]))
        return mean, var


def _chunk_rows(columns):
    """Rows per kernel chunk against `columns` points: about KERNEL_CHUNK_BYTES."""
    return max(1, KERNEL_CHUNK_BYTES // (8 * max(1, columns)))


def _kernel_block(a, b, params, out=None):
    """Write the Matern-3/2 covariance between the rows of a (N, 3) and
    b (M, 3) into `out` (N, M), a new array when None, one chunk of about
    KERNEL_CHUNK_BYTES of rows at a time with one scratch array, so no
    (N, M, 3) difference tensor and no second N x M array exists. Every
    element depends only on its own two points, whatever the chunking.
    """
    if out is None:
        out = np.empty((a.shape[0], b.shape[0]))
    cols = np.ascontiguousarray(b.T)
    rows = _chunk_rows(b.shape[0])
    scratch = np.empty((min(rows, a.shape[0]), b.shape[0]))
    for s in range(0, a.shape[0], rows):
        chunk = a[s:s + rows]
        block, tmp = out[s:s + rows], scratch[:chunk.shape[0]]
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
        # Scaled to -r, which exp takes as it stands; 1 + r is taken as
        # 1 - (-r), which IEEE rounds the same.
        block *= -np.sqrt(3.0) / params.length_scale
        np.exp(block, out=tmp)
        np.subtract(1.0, block, out=block)
        block *= params.output_scale ** 2
        block *= tmp
    return out


def voxel_downsample(points, normals, pitch):
    """Grid downsample at `pitch`, keeping the first point of each cell in
    input order, then thin greedily so no two survivors are closer than
    pitch/2 (grid cells alone cannot guarantee that across cell
    boundaries): each point in turn goes when a kept earlier point lies
    that near.

    Two points that near lie in one cell or in neighbouring ones (cell
    indices one apart or equal on every axis), and a cell holds one
    survivor, so the near pairs are among the survivors of neighbouring
    cells. Each cell gets one int64 key: on each axis the occupied indices
    are ranked from 1 with every gap over 1 cut to 2, which keeps
    neighbours and non-neighbours apart, and the three ranks are mixed in
    a grid one cell wider on every side. The keys give the grid's
    np.unique, and each cell finds its 13 forward neighbours (half of the
    26, so each pair is met once) by key offset in the sorted keys. A grid
    whose keys would not fit int64 raises NumericalError; that takes over a
    million survivors, whose three million conditioning points no fit could
    hold. So does a point 2**62 or more cells from the origin on an axis,
    whose index the int64 ranking could not hold (a pitch under about
    2e-19 times its coordinate).
    """
    if pitch <= 0.0 or len(points) == 0:
        return points, normals
    with np.errstate(over="ignore"):  # an infinite quotient fails the check below
        cells = np.floor(points / pitch)
    if not np.all(np.abs(cells) < 2.0 ** 62):
        raise NumericalError(f"{len(points)} touch points with coordinates from {points.min():g} to "
                             f"{points.max():g} lie up to {np.abs(cells).max():g} voxel cells from "
                             f"the origin at pitch {pitch:g}, too many to index; "
                             "use a coarser voxel pitch")
    cells = cells.astype(np.int64)
    sizes = []
    for axis in range(3):
        values, inverse = np.unique(cells[:, axis], return_inverse=True)
        ranks = np.cumsum(np.minimum(np.diff(values, prepend=values[0] - 1), 2))
        cells[:, axis] = ranks[inverse]
        sizes.append(int(ranks[-1]) + 2)
    if sizes[0] * sizes[1] * sizes[2] >= 2 ** 63:
        raise NumericalError(f"{len(points)} touch points fill a grid of {sizes[0]} x {sizes[1]} "
                             f"x {sizes[2]} voxel cells at pitch {pitch:g}, too many to index; "
                             "use a coarser voxel pitch")
    keys = (cells[:, 0] * sizes[1] + cells[:, 1]) * sizes[2] + cells[:, 2]
    keys, first = np.unique(keys, return_index=True)
    by_input = np.argsort(first)
    pts, nrm = points[first[by_input]], normals[first[by_input]]
    position = np.argsort(by_input)  # of each cell's survivor in pts

    steps = [(dx * sizes[1] + dy) * sizes[2] + dz
             for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    forward = np.array([step for step in steps if step > 0])
    wanted = (forward[:, None] + keys).ravel()
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    near = np.flatnonzero(keys[at] == wanted)
    pairs = np.sort(np.column_stack([position[near % len(keys)], position[at[near]]]), axis=1)
    min_dist = 0.5 * pitch
    pairs = pairs[np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1) < min_dist]
    # Each pair holds its earlier point first. Taken in order of their
    # later point, the pairs settle each point after every earlier one.
    keep = np.ones(pts.shape[0], dtype=bool)
    for a, b in pairs[np.argsort(pairs[:, 1])].tolist():
        if keep[a]:
            keep[b] = False
    return pts[keep], nrm[keep]


def build_conditioning_set(touches, surface_offset):
    """Expand touch readings into GP conditioning data.

    Each surface point x with normal n emits x -> 0,
    x - surface_offset*n -> -surface_offset and x + surface_offset*n ->
    +surface_offset. The touches hold at least one point, and the offset is
    positive (gpis-fit calls it so, on the touches voxel_downsample thinned).
    """
    points = np.concatenate([t.points for t in touches], axis=0)
    normals = np.concatenate([t.normals for t in touches], axis=0)
    n = points.shape[0]
    return ConditioningSet(
        np.concatenate([points, points - surface_offset * normals,
                        points + surface_offset * normals]),
        np.concatenate([np.zeros(n), np.full(n, -surface_offset), np.full(n, surface_offset)]),
    )


def _rfp_diagonal(n):
    """Positions of an n x n matrix's diagonal in its RFP array (see _factorize)."""
    n1, n2, off = n // 2, n - n // 2, 1 - n % 2
    j = np.arange(n)
    return np.where(j < n2, j * (n + off) + j + off, (j - n1) * (n + off) + j - n2)


def _factorize(locations, params):
    """Cholesky with jitter escalation; returns (factor, effective_noise).

    The lower triangle of the Gram matrix of `locations` is built straight
    into one array of n(n+1)/2 values in LAPACK's rectangular full packed
    (RFP) layout, transr 'N' and uplo 'L', which dpftrf factorizes in place,
    so a fit holds no n x n array. Seen as the Fortran-order array ARF of
    n + off rows (off = 1 for even n, else 0), with n1 = n // 2 and
    n2 = n - n1, Gram entry (i, j), i >= j, sits at ARF[i + off, j] when
    j < n2 and at ARF[j - n2, i - n1] otherwise. The first region is built
    in bands of columns [s, e) with rows [s, n); each band's spill above
    the diagonal lands in cells of the second region, which is built after
    it in bands of rows [s, e) with columns [n2, e), each band's diagonal
    block as a lower triangle only. Every value has the bits the full build
    gives it. A failed attempt leaves the array overwritten, so each jitter
    level builds it again; only near-duplicate points get that far, and a
    warning names the effective noise when they do.
    """
    s2 = params.output_scale ** 2
    jitters = [0.0]
    j = JITTER_START_FRAC * s2
    while j <= JITTER_STOP_FRAC * s2 * (1.0 + 1e-12):
        jitters.append(j)
        j *= 10.0
    n = locations.shape[0]
    n1, n2, off = n // 2, n - n // 2, 1 - n % 2
    rows = _chunk_rows(n)
    arf = np.empty(n * (n + 1) // 2)
    columns = arf.reshape(n2, n + off)  # columns[c, r] is ARF[r, c]
    diagonal = _rfp_diagonal(n)
    for jitter in jitters:
        for s in range(0, n2, rows):
            e = min(s + rows, n2)
            _kernel_block(locations[s:e], locations[s:], params, columns[s:e, s + off:])
        for s in range(n2, n, rows):
            e = min(s + rows, n)
            _kernel_block(locations[s:e], locations[n2:s], params, columns[s - n1:e - n1, :s - n2])
            np.copyto(columns[s - n1:e - n1, s - n2:e - n2],
                      _kernel_block(locations[s:e], locations[s:e], params),
                      where=np.tri(e - s, dtype=bool))
        arf[diagonal] += params.noise + jitter
        factor, info = dpftrf(n, arf, uplo="L", overwrite_a=True)
        if info > 0:
            continue
        if jitter:
            warnings.warn(
                f"kernel matrix of {n} points needed jitter: effective noise "
                f"{params.noise + jitter:.3g} instead of {params.noise:.3g}",
                RuntimeWarning)
        return factor, params.noise + jitter
    raise NumericalError("kernel matrix not positive definite")


def fit(cset: ConditioningSet, params: KernelParams) -> GPISModel:
    """Condition the GP on a set of signed-distance observations: build the
    Gram matrix into RFP storage, factorize it and solve for alpha (dpftrs).

    Deterministic for fixed inputs. Raises ValueError on an empty set and
    NumericalError when the kernel matrix cannot be factorized even after
    jitter escalation. load_model refits a saved set through it; the cap on
    the set's size is the search's (optimize_hyperparameters).
    """
    if len(cset) == 0:
        raise ValueError("conditioning set is empty")
    factor, effective_noise = _factorize(cset.locations, params)
    alpha = dpftrs(len(cset), factor, cset.targets - params.prior_mean, uplo="L")[0]
    return GPISModel(cset, params, factor, alpha, effective_noise)


def log_marginal_likelihood(model: GPISModel) -> float:
    centered = model.conditioning.targets - model.params.prior_mean
    n = len(model.conditioning)
    quad = float(centered @ model.alpha)
    logdet = 2.0 * float(np.sum(np.log(model.factor[_rfp_diagonal(n)])))
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)


def optimize_hyperparameters(cset: ConditioningSet, rhos, output_scale, noise, prior_mean,
                             cap) -> GPISModel:
    """Fit the model of every length scale in `rhos` at `output_scale` and
    return the one maximizing the log marginal likelihood; ties break
    toward the smallest length scale. A set over
    `cap` raises NumericalError before any fit, naming the cap (coarsen the
    voxel pitch to shrink the set).

    The grid is cut into contiguous parts by workers.parts, each taking
    workers.blas_threads() of the usable CPUs, since a fit is mostly a
    Cholesky factorization on every BLAS thread: with the BLAS at its
    default of one thread per CPU the search runs in one process. At one
    BLAS thread, where p >= 2 parts would give some part two of the k
    candidates and leave a CPU idle while it fits the second (p < k < 2p),
    each candidate gets a part of its own instead, and the k processes
    share the p CPUs: k / p fits' time instead of two. On the benchmark's
    torus on 2 CPUs, workers fit rho 0.2 and 0.3 while the caller fits 0.4.
    A forked worker scores each part but the last and sends back only its
    scores (workers.Split). Each process fits its candidates one at a time
    and drops each model before the next, so it holds one factor of
    n(n+1)/2 values at a time, and the search one per part: at most 2p - 1.
    The caller's last model is the result when it wins; any other winner is
    fitted once more in the caller after the search, the same fit that
    scored it. `rhos` is not empty (the config schema requires a value).
    """
    if len(cset) > cap:
        raise NumericalError(
            f"conditioning set has {len(cset)} points, cap is {cap}; use a coarser voxel pitch")
    candidates = [KernelParams(rho, output_scale, noise, prior_mean) for rho in rhos]
    last = []  # the model of the last candidate fitted in this process

    def score(s, e):
        """-LML of each candidate in [s, e), None where it fails to factorize."""
        scores = []
        for params in candidates[s:e]:
            last.clear()  # frees the previous candidate's factor before this fit
            try:
                last.append(fit(cset, params))
            except NumericalError:
                scores.append(None)
                continue
            scores.append(-log_marginal_likelihood(last[0]))
        return scores

    count = len(candidates)
    threads = workers.blas_threads()
    # A fit costs 24-46 ns per Gram entry, candidates x n^2 (n = 300 to
    # 2,819, one BLAS thread).
    bounds = workers.parts(count, count * len(cset) ** 2 * 25e-9, threads)
    if threads == 1 and 2 <= len(bounds) < count < 2 * len(bounds):
        bounds = [(i, i + 1) for i in range(count)]
    with workers.Split(score, bounds) as split:
        scores = [x for part in split() for x in part]
    best = None
    for rho, params, neg_lml in zip(rhos, candidates, scores):
        if neg_lml is not None and (best is None or (neg_lml, rho) < best[0]):
            best = ((neg_lml, rho), params)
    if best is None:
        raise NumericalError("every hyperparameter candidate failed to factorize")
    if last and last[0].params is best[1]:
        return last[0]
    last.clear()
    return fit(cset, best[1])


# The model save_model last wrote in this process, with the bytes it wrote,
# until the next load_model takes it. It lives at module level because
# gpis-fit and gpis-render may run in separate run_pipeline calls.
_saved = None


def save_model(path, model: GPISModel):
    """Serialize what `model` is computed from, which is all the file
    holds: magic, version u32, n u32, then little-endian f64 locations,
    targets and the four kernel parameters. The model
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
    ])
    atomic_write_bytes(path, blob)
    _saved = (blob, model)


@reads_format
def load_model(path) -> GPISModel:
    """Read a model file and return its fitted model.

    When the file holds exactly the bytes the last save_model in this
    process wrote, that call's model is returned without refitting.
    Otherwise the file is parsed and refitted through fit, which rejects
    a file of no point: the jitter escalation replays, so the factor equals
    the fitted one bit for bit at the same BLAS thread count. Either way the
    handoff slot is emptied first, so a refit holds one RFP array and the
    slot keeps no model past this call.
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
    expected = 12 + 8 * (4 * n + 4)
    if len(blob) != expected:
        raise ValueError(f"GPIS model file truncated: {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f8", count=4 * n + 4, offset=12).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("GPIS model file holds a non-finite value")
    cset = ConditioningSet(values[:3 * n].reshape(n, 3), values[3 * n:4 * n])
    return fit(cset, KernelParams(*values[4 * n:]))
