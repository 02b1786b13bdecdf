import os
import signal
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.linalg.lapack import dpftrf, dpftrs, dtfttr, dtrttf

from touchfuse import fileio, gpis, workers
from touchfuse.errors import FormatError, NumericalError
from touchfuse.geometry import make_transform, transform_points
from touchfuse.gpis import (
    JITTER_START_FRAC,
    JITTER_STOP_FRAC,
    KERNEL_CHUNK_BYTES,
    LABEL_INTERIOR,
    LABEL_SURFACE,
    ConditioningSet,
    KernelParams,
    TouchReading,
    build_conditioning_set,
    fit,
    load_model,
    log_marginal_likelihood,
    optimize_hyperparameters,
    save_model,
)
from touchfuse.workers import PART_SECONDS

from oracles import matern32, rotation_about_axis, voxel_downsample

# The search's noise and cap where a test sets neither: the config schema's
# [kernel] noise and [conditioning] cap.
NOISE, CAP = 1e-6, 8000


def sphere_touches(n, seed=0, radius=1.0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return [TouchReading(radius * dirs, dirs)]


def dense_gp_oracle(locations, targets, params, query_pts):
    """Independent dense-solve GP posterior (mean, predictive variance)."""
    def kern(a, b):
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        s = np.sqrt(3.0) * d / params.length_scale
        return params.output_scale ** 2 * (1.0 + s) * np.exp(-s)

    gram = kern(locations, locations) + params.noise * np.eye(len(locations))
    cross = kern(query_pts, locations)
    sol = np.linalg.solve(gram, targets - params.prior_mean)
    mean = params.prior_mean + cross @ sol
    var = params.output_scale ** 2 + params.noise - np.einsum(
        "ij,ij->i", cross, np.linalg.solve(gram, cross.T).T
    )
    return mean, var


def dense_pairwise_distances(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def dense_kernel(a, b, params):
    """The Matern-3/2 Gram block through an (N, M, 3) difference tensor."""
    scaled = (np.sqrt(3.0) / params.length_scale) * dense_pairwise_distances(a, b)
    return params.output_scale ** 2 * (1.0 + scaled) * np.exp(-scaled)


def rfp_factor(gram):
    """dpftrf of the dense matrix `gram` packed by dtrttf (transr 'N', uplo
    'L'): (factor, info)."""
    return dpftrf(len(gram), dtrttf(gram, uplo="L")[0], uplo="L")


def dense_fit(locations, targets, params):
    """fit() on the dense Gram matrix with a fresh regularized copy per
    jitter level; returns (factor, alpha, effective_noise)."""
    gram = dense_kernel(locations, locations, params)
    s2 = params.output_scale ** 2
    jitters = [0.0]
    j = JITTER_START_FRAC * s2
    while j <= JITTER_STOP_FRAC * s2 * (1.0 + 1e-12):
        jitters.append(j)
        j *= 10.0
    for jitter in jitters:
        noise = params.noise + jitter
        factor, info = rfp_factor(gram + noise * np.eye(len(locations)))
        if info:
            continue
        alpha = dpftrs(len(locations), factor, targets - params.prior_mean, uplo="L")[0]
        return factor, alpha, noise
    raise AssertionError("dense oracle failed to factorize")


class TestKernelBlock:
    """The chunked kernel gives the dense formula's bits at every chunk edge."""

    M = 700
    ROWS = KERNEL_CHUNK_BYTES // (8 * M)

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    def test_equals_dense_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(scale=0.4, size=(n, 3))
        b = rng.normal(scale=0.4, size=(self.M, 3))
        params = KernelParams(0.3, 0.7)
        got = gpis._kernel_block(a, b, params)
        np.testing.assert_array_equal(got, dense_kernel(a, b, params))
        np.testing.assert_array_equal(got, matern32(dense_pairwise_distances(a, b), params))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), m=st.integers(1, 30), offset=st.integers(0, 3))
    def test_chunked_writes_equal_dense_formula_property(self, data, n, m, offset):
        """Into a new array, into a strided band of a larger buffer and
        reduced by query_mean, at a chunk budget of 1 to n + 1 rows."""
        rows = data.draw(st.integers(1, n + 1), label="rows")
        rng = np.random.default_rng(n * 1000 + m)
        a = rng.normal(scale=0.4, size=(n, 3))
        b = rng.normal(scale=0.4, size=(m, 3))
        params = KernelParams(data.draw(st.floats(0.05, 2.0), label="rho"),
                              data.draw(st.floats(0.1, 2.0), label="sigma"), 1e-6, 0.1)
        alpha = rng.normal(size=m)
        model = gpis.GPISModel(ConditioningSet(b, np.zeros(m), np.zeros(m, dtype=np.int8)),
                               params, np.eye(m), alpha, params.noise)
        want = dense_kernel(a, b, params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gpis, "KERNEL_CHUNK_BYTES", 8 * m * rows)
            fresh = gpis._kernel_block(a, b, params)
            band = np.full((offset + n, offset + m), np.nan)
            gpis._kernel_block(a, b, params, band[offset:, offset:])
            means = model.query_mean(a)
        np.testing.assert_array_equal(fresh, want)
        np.testing.assert_array_equal(band[offset:, offset:], want)
        assert np.isnan(band[:offset]).all() and np.isnan(band[:, :offset]).all()
        np.testing.assert_array_equal(
            means, params.prior_mean + np.einsum("nm,m->n", want, alpha))


class TestFitExactness:
    def test_factor_and_alpha_equal_dense_path(self):
        cset = build_conditioning_set(sphere_touches(200, seed=4), 0.05, 0.02)
        params = KernelParams(0.4, 0.8, 1e-6, prior_mean=0.01)
        model = fit(cset, params)
        factor, alpha, noise = dense_fit(cset.locations, cset.targets, params)
        np.testing.assert_array_equal(model.factor, factor)
        np.testing.assert_array_equal(model.alpha, alpha)
        assert model.effective_noise == noise

    def test_jitter_escalation_equals_dense_path(self):
        locs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cset = ConditioningSet(locs, [0.1, 0.1, -0.2], np.zeros(3, dtype=np.int8))
        params = KernelParams(0.5, 1.0, 0.0)
        with pytest.warns(RuntimeWarning, match="effective noise"):
            model = fit(cset, params)
        factor, alpha, noise = dense_fit(cset.locations, cset.targets, params)
        assert model.effective_noise == noise > 0.0
        np.testing.assert_array_equal(model.factor, factor)
        np.testing.assert_array_equal(model.alpha, alpha)

    def test_fit_peak_memory_is_bounded(self):
        # The factor's RFP array of n(n+1)/2 values: an n x n array, an
        # (n, n, 3) difference tensor or per-attempt regularized copies
        # would exceed the bound.
        n = 1500
        rng = np.random.default_rng(9)
        cset = ConditioningSet(rng.normal(scale=0.3, size=(n, 3)), rng.normal(size=n),
                               np.zeros(n, dtype=np.int8))
        tracemalloc.start()
        try:
            fit(cset, KernelParams(0.3, 0.7, 1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * n * n * 8


def traced_peak(call):
    """Peak bytes numpy and Python allocate while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refit_on_load(path):
    """load_model with the handoff slot emptied first, so the model is
    refitted from the file instead of handed over."""
    gpis._saved = None
    return load_model(path)


def assert_same_model(got, want):
    np.testing.assert_array_equal(got.conditioning.locations, want.conditioning.locations)
    np.testing.assert_array_equal(got.conditioning.targets, want.conditioning.targets)
    np.testing.assert_array_equal(got.conditioning.labels, want.conditioning.labels)
    assert got.params == want.params
    np.testing.assert_array_equal(got.factor, want.factor)
    np.testing.assert_array_equal(got.alpha, want.alpha)
    assert got.effective_noise == want.effective_noise


class TestTriangleGram:
    """_factorize builds the lower triangle of the Gram matrix straight into
    RFP storage; its factor is dpftrf's of the whole matrix, bit for bit."""

    ROWS = 40

    @staticmethod
    def full_factor(locations, params, noise):
        gram = gpis._kernel_block(locations, locations, params)
        gram[np.diag_indices(len(locations))] += noise
        return rfp_factor(gram)[0]

    @pytest.mark.parametrize("n, rows", [(7, 2), (8, 3), (ROWS - 1, ROWS), (ROWS, ROWS),
                                         (2 * ROWS + 3, ROWS), (2 * ROWS + 4, ROWS)])
    def test_rfp_build_equals_packed_full_gram(self, monkeypatch, n, rows):
        """Odd and even n, with band edges inside both RFP regions."""
        monkeypatch.setattr(gpis, "KERNEL_CHUNK_BYTES", 8 * n * rows)
        built = []
        monkeypatch.setattr(gpis, "dpftrf", lambda n, a, **kw: (built.append(a.copy()),
                                                                dpftrf(n, a, **kw))[1])
        locations = np.random.default_rng(n).normal(scale=0.4, size=(n, 3))
        params = KernelParams(0.3, 0.7, 1e-6)
        gpis._factorize(locations, params)
        gram = gpis._kernel_block(locations, locations, params)
        gram[np.diag_indices(n)] += params.noise
        np.testing.assert_array_equal(built[0], dtrttf(gram, uplo="L")[0])

    @pytest.mark.parametrize("n", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    def test_factor_equals_full_gram_factor(self, monkeypatch, n):
        # A chunk budget of ROWS rows of n columns puts the band edges here.
        monkeypatch.setattr(gpis, "KERNEL_CHUNK_BYTES", 8 * n * self.ROWS)
        locations = np.random.default_rng(n).normal(scale=0.4, size=(n, 3))
        params = KernelParams(0.3, 0.7, 1e-6)
        factor, noise = gpis._factorize(locations, params)
        assert noise == params.noise
        np.testing.assert_array_equal(factor, self.full_factor(locations, params, noise))

    def test_jitter_retries_rebuild_the_half(self, monkeypatch):
        n = 2 * self.ROWS + 3
        monkeypatch.setattr(gpis, "KERNEL_CHUNK_BYTES", 8 * n * self.ROWS)
        rng = np.random.default_rng(5)
        locations = rng.normal(scale=0.4, size=(n, 3))
        locations[1::7] = locations[0]  # one point repeated across every band
        params = KernelParams(0.5, 1.0, 0.0)
        with pytest.warns(RuntimeWarning, match="effective noise"):
            factor, noise = gpis._factorize(locations, params)
        assert noise > params.noise
        np.testing.assert_array_equal(factor, self.full_factor(locations, params, noise))


class TestOneMatrixPerFit:
    """fit, a load_model refit and the grid search each hold one factor;
    queries never build the (rows x n) cross block."""

    N = 1500
    # One RFP factor, 0.5 * N^2 * 8 bytes, with its build's bands; a second
    # factor alive at once would exceed it.
    ONE_FACTOR = 0.75 * N ** 2 * 8

    @pytest.fixture(scope="class")
    def cset(self):
        rng = np.random.default_rng(9)
        return ConditioningSet(rng.normal(scale=0.3, size=(self.N, 3)), rng.normal(size=self.N),
                               np.zeros(self.N, dtype=np.int8))

    def test_fit_holds_one_matrix(self, cset):
        assert traced_peak(lambda: fit(cset, KernelParams(0.3, 0.7, 1e-6))) < self.ONE_FACTOR

    # On this set the log marginal likelihood falls as rho grows: rho = 0.2 wins.
    def search(self, cset, monkeypatch, rhos, cpus=1):
        """optimize_hyperparameters over `rhos` with `cpus` usable CPUs:
        (model, traced peak, fit calls in this process)."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        calls = []
        monkeypatch.setattr(gpis, "fit", lambda *a, **k: calls.append(a) or fit(*a, **k))
        found = []
        peak = traced_peak(
            lambda: found.append(optimize_hyperparameters(cset, rhos, 0.7, NOISE, 0.0, CAP)))
        return found[0], peak, len(calls)

    def test_grid_search_holds_one_matrix(self, cset, monkeypatch):
        """A winner scored before the last candidate is fitted again once
        the last candidate is dropped."""
        model, peak, calls = self.search(cset, monkeypatch, (0.2, 0.3, 0.4))
        assert peak < self.ONE_FACTOR
        assert calls == 4
        assert_same_model(model, fit(cset, KernelParams(0.2, 0.7, 1e-6)))

    def test_last_candidate_winning_is_kept(self, cset, monkeypatch):
        model, peak, calls = self.search(cset, monkeypatch, (0.4, 0.3, 0.2))
        assert peak < self.ONE_FACTOR
        assert calls == 3
        assert_same_model(model, fit(cset, KernelParams(0.2, 0.7, 1e-6)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_split_search_holds_one_matrix_in_the_caller(self, cset, monkeypatch):
        """On 2 CPUs workers fit 0.2 and 0.3 and the caller 0.4; the
        worker's winner is fitted again once the caller's model is dropped."""
        model, peak, calls = self.search(cset, monkeypatch, (0.2, 0.3, 0.4), cpus=2)
        assert peak < self.ONE_FACTOR
        assert calls == 2
        assert_same_model(model, fit(cset, KernelParams(0.2, 0.7, 1e-6)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_split_search_keeps_the_callers_winner(self, cset, monkeypatch):
        model, peak, calls = self.search(cset, monkeypatch, (0.4, 0.3, 0.2), cpus=2)
        assert peak < self.ONE_FACTOR
        assert calls == 1
        assert_same_model(model, fit(cset, KernelParams(0.2, 0.7, 1e-6)))

    def test_load_model_holds_one_matrix(self, cset, tmp_path):
        path = tmp_path / "big.gpis"
        save_model(path, fit(cset, KernelParams(0.3, 0.7, 1e-6)))
        assert traced_peak(lambda: refit_on_load(path)) < self.ONE_FACTOR

    def test_missed_handoff_refits_with_one_matrix(self, cset, tmp_path):
        """load_model empties the slot before it refits a file that no
        longer holds the saved bytes, so the saved model is gone by then."""
        path = tmp_path / "big.gpis"
        tracemalloc.start()
        try:
            save_model(path, fit(cset, KernelParams(0.3, 0.7, 1e-6)))
            blob = bytearray(path.read_bytes())
            blob[12] ^= 1
            path.write_bytes(bytes(blob))
            tracemalloc.reset_peak()
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.ONE_FACTOR

    def test_query_mean_reduces_chunk_by_chunk(self, cset):
        model = fit(cset, KernelParams(0.3, 0.7, 1e-6))
        pts = np.random.default_rng(3).normal(scale=0.4, size=(20_000, 3))
        # The full 20,000 x 1,500 cross block would be 240 MB.
        assert traced_peak(lambda: model.query_mean(pts)) < 4e6

    def test_query_solves_chunk_by_chunk(self, cset):
        model = fit(cset, KernelParams(0.3, 0.7, 1e-6))
        pts = np.random.default_rng(3).normal(scale=0.4, size=(20_000, 3))
        # A few (1,500 x SOLVE_COLUMNS) buffers, not the 240 MB cross block
        # and a copy of it for the solve.
        assert traced_peak(lambda: model.query(pts)) < 3 * self.N * gpis.SOLVE_COLUMNS * 8


class TestQueryMean:
    M = 700
    ROWS = KERNEL_CHUNK_BYTES // (8 * M)

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    def test_equals_einsum_over_full_block(self, n):
        rng = np.random.default_rng(n)
        cset = ConditioningSet(rng.normal(scale=0.4, size=(self.M, 3)), rng.normal(size=self.M),
                               np.zeros(self.M, dtype=np.int8))
        model = fit(cset, KernelParams(0.3, 0.7, 1e-6, prior_mean=0.1))
        q = rng.normal(scale=0.5, size=(n, 3))
        full = model.params.prior_mean + np.einsum(
            "nm,m->n", gpis._kernel_block(q, cset.locations, model.params), model.alpha)
        np.testing.assert_array_equal(model.query_mean(q), full)
        np.testing.assert_array_equal(model.query(q)[0], full)


class TestMatern:
    def test_zero_distance_gives_prior_variance(self):
        p = KernelParams(0.3, 2.0)
        assert matern32(0.0, p) == pytest.approx(4.0, abs=0.0)

    def test_large_distance_decays_to_zero(self):
        p = KernelParams(0.5, 1.0)
        assert matern32(100.0 * p.length_scale, p) < 1e-30

    def test_closed_form_value(self):
        # d = rho/sqrt(3) makes the exponent -1: value is 2/e
        p = KernelParams(0.7, 1.0)
        assert matern32(p.length_scale / np.sqrt(3.0), p) == pytest.approx(
            2.0 * np.exp(-1.0), rel=1e-12
        )

    def test_monotone_nonincreasing(self):
        p = KernelParams(0.4, 1.3)
        d = np.linspace(0.0, 5.0, 200)
        vals = matern32(d, p)
        assert np.all(np.diff(vals) <= 0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            matern32(-0.1, KernelParams(1.0, 1.0))


class TestTouchReading:
    def test_non_unit_normal_reports_index(self):
        with pytest.raises(ValueError, match="index 1"):
            TouchReading([[0, 0, 0], [1, 0, 0]], [[0, 0, 1], [0, 0, 2.0]])

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            TouchReading([[np.nan, 0, 0]], [[0, 0, 1]])


class TestBuildConditioningSet:
    def test_single_point_expansion(self):
        touch = TouchReading([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])
        cset = build_conditioning_set([touch], 0.01, 0.005, n_slices=1)
        rows = {tuple(np.round(loc, 9)): t for loc, t in zip(cset.locations, cset.targets)}
        assert rows[(0.0, 0.0, -0.01)] == -0.01
        assert rows[(0.0, 0.0, 0.01)] == 0.01
        assert any(
            np.allclose(loc, [0, 0, 0]) and t == 0.0
            for loc, t in zip(cset.locations, cset.targets)
        )

    def test_sphere_interior_centroid(self):
        cset = build_conditioning_set(sphere_touches(500), 0.02, 0.01, n_slices=1)
        interior = cset.locations[cset.labels == LABEL_INTERIOR]
        assert interior.shape[0] == 1
        assert np.linalg.norm(interior[0]) < 0.1
        assert cset.targets[cset.labels == LABEL_INTERIOR][0] == -0.01

    def test_count_is_three_per_surface_plus_slices(self):
        cset = build_conditioning_set(sphere_touches(300), 0.02, 0.01, n_slices=8)
        n_surface = int(np.sum(cset.labels == LABEL_SURFACE))
        n_interior = int(np.sum(cset.labels == LABEL_INTERIOR))
        assert len(cset) == 3 * n_surface + n_interior
        assert 1 <= n_interior <= 8

    def test_voxel_downsample_minimum_spacing(self):
        # Oracle: brute-force pairwise distance scan over retained points.
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        touch = TouchReading(0.05 * dirs, dirs)
        voxel = 0.01
        cset = build_conditioning_set([touch], 0.002, 0.001, n_slices=4, voxel=voxel)
        surface = cset.surface_points()
        assert surface.shape[0] <= 10_000
        diff = surface[:, None, :] - surface[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= voxel / 2.0

    @settings(max_examples=200, deadline=None)
    @given(pitch=st.sampled_from([0.0, 0.125, 0.25, 1.0]),
           ticks=st.lists(st.tuples(*[st.integers(-24, 24)] * 3), min_size=1, max_size=40),
           shifts=st.lists(st.tuples(st.integers(0, 79), st.tuples(*[st.integers(-1, 1)] * 3)),
                           max_size=40))
    def test_voxel_downsample_keeps_the_points_the_greedy_rule_keeps(self, pitch, ticks, shifts):
        """Each shift adds a near-duplicate of an earlier point, up to one
        1/32 step away on each axis, often across a cell border; shifted
        copies of copies make chains, where a point goes or stays by
        whether the point near it before it stayed. Coordinates are
        multiples of 1/32, so every distance compares exactly."""
        points = np.array(ticks, dtype=np.float64)
        for index, step in shifts:
            points = np.vstack([points, points[index % len(points)] + step])
        points /= 32.0
        normals = np.arange(points.size, dtype=np.float64).reshape(points.shape)
        found = gpis._voxel_downsample(points, normals, pitch)
        expected = voxel_downsample(points, normals, pitch)
        for got, want in zip(found, expected):
            assert np.array_equal(got, want)


class TestFitAndQuery:
    def test_small_set_interpolates_targets(self):
        cset = build_conditioning_set(sphere_touches(3, seed=5), 0.1, 0.05, n_slices=1)
        params = KernelParams(0.8, 1.0, 1e-6)
        model = fit(cset, params)
        mean, _ = model.query(cset.locations)
        # observation noise 1e-6 barely biases the posterior at the data
        assert np.max(np.abs(mean - cset.targets)) < 1e-5

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(11)
        locs = rng.uniform(-1, 1, size=(40, 3))
        targets = rng.normal(size=40)
        cset = ConditioningSet(locs, targets, np.zeros(40, dtype=np.int8))
        params = KernelParams(0.5, 1.2, 1e-4, prior_mean=0.3)
        model = fit(cset, params)
        probes = rng.uniform(-1.5, 1.5, size=(25, 3))
        mean, var = model.query(probes)
        o_mean, o_var = dense_gp_oracle(locs, targets, params, probes)
        np.testing.assert_allclose(mean, o_mean, atol=1e-9)
        np.testing.assert_allclose(var, o_var, atol=1e-9)

    def test_factor_reproduces_regularized_kernel(self):
        cset = build_conditioning_set(sphere_touches(40, seed=2), 0.05, 0.02)
        params = KernelParams(0.4, 0.8, 1e-5)
        model = fit(cset, params)
        d = np.linalg.norm(
            cset.locations[:, None, :] - cset.locations[None, :, :], axis=2
        )
        expected = matern32(d, params) + model.effective_noise * np.eye(len(cset))
        factor = np.tril(dtfttr(len(cset), model.factor, uplo="L")[0])
        recon = factor @ factor.T
        rel = np.linalg.norm(recon - expected) / np.linalg.norm(expected)
        assert rel < 1e-8

    def test_duplicate_points_engage_jitter(self):
        locs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cset = ConditioningSet(locs, [0.1, 0.1, -0.2], np.zeros(3, dtype=np.int8))
        with pytest.warns(RuntimeWarning, match="effective noise"):
            model = fit(cset, KernelParams(0.5, 1.0, 0.0))
        assert model.effective_noise > 0.0

    def test_jitter_escalation_warns_with_effective_noise(self):
        locs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cset = ConditioningSet(locs, [0.1, 0.1, -0.2], np.zeros(3, dtype=np.int8))
        with pytest.warns(RuntimeWarning, match="effective noise") as record:
            model = fit(cset, KernelParams(0.5, 1.0, 0.0))
        assert f"{model.effective_noise:.3g}" in str(record[0].message)

    def test_cap_exceeded_mentions_voxel(self):
        cset = build_conditioning_set(sphere_touches(40, seed=2), 0.05, 0.02)
        with pytest.raises(NumericalError, match="voxel"):
            optimize_hyperparameters(cset, [0.4], 0.8, NOISE, 0.0, 10)

    def test_prior_reversion_far_from_data(self):
        cset = build_conditioning_set(sphere_touches(30, seed=7), 0.05, 0.02)
        params = KernelParams(0.3, 0.6, 1e-6, prior_mean=0.25)
        model = fit(cset, params)
        mean, var = model.query(np.array([[100.0 * params.length_scale, 0.0, 0.0]]))
        assert abs(mean[0] - params.prior_mean) < 1e-6
        assert var[0] >= 0.999 * params.output_scale ** 2

    def test_single_point_closed_form_posterior(self):
        target = 0.07
        cset = ConditioningSet([[0.2, 0.1, -0.3]], [target], [LABEL_SURFACE])
        params = KernelParams(0.5, 0.9, 0.04, prior_mean=0.5)
        model = fit(cset, params)
        mean, _ = model.query(cset.locations)
        s2 = params.output_scale ** 2
        expected = target * s2 / (s2 + params.noise) + params.prior_mean * params.noise / (
            s2 + params.noise
        )
        assert mean[0] == pytest.approx(expected, rel=1e-10)

    def test_batch_query_equals_pointwise_exactly(self):
        cset = build_conditioning_set(sphere_touches(25, seed=3), 0.05, 0.02)
        model = fit(cset, KernelParams(0.4, 0.7, 1e-6))
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(17, 3))
        mean, var = model.query(pts)
        for i in range(len(pts)):
            m1, v1 = model.query(pts[i: i + 1])
            assert m1[0] == mean[i]
            assert v1[0] == var[i]

    def test_variance_bounded_by_prior(self):
        cset = build_conditioning_set(sphere_touches(30, seed=9), 0.05, 0.02)
        params = KernelParams(0.4, 0.7, 1e-4)
        model = fit(cset, params)
        rng = np.random.default_rng(1)
        _, var = model.query(rng.uniform(-2, 2, size=(200, 3)))
        assert np.all(var > 0.0)
        assert np.all(var <= params.output_scale ** 2 + params.noise + 1e-9)

    def test_extra_observation_never_raises_variance(self):
        rng = np.random.default_rng(21)
        locs = rng.uniform(-1, 1, size=(20, 3))
        targets = rng.normal(size=20)
        params = KernelParams(0.6, 1.0, 1e-5)
        base = fit(ConditioningSet(locs, targets, np.zeros(20, np.int8)), params)
        extra_loc = np.vstack([locs, rng.uniform(-1, 1, size=(1, 3))])
        extra_tgt = np.append(targets, rng.normal())
        grown = fit(ConditioningSet(extra_loc, extra_tgt, np.zeros(21, np.int8)), params)
        probes = rng.uniform(-1.5, 1.5, size=(50, 3))
        _, var_base = base.query(probes)
        _, var_grown = grown.query(probes)
        assert np.all(var_grown <= var_base + 1e-9)
        o_mean, o_var = dense_gp_oracle(extra_loc, extra_tgt, params, probes)
        np.testing.assert_allclose(grown.query(probes)[1], o_var, atol=1e-9)

    def test_rigid_transform_symmetry(self):
        rng = np.random.default_rng(4)
        locs = rng.uniform(-1, 1, size=(15, 3))
        targets = rng.normal(size=15)
        params = KernelParams(0.5, 0.9, 1e-6)
        rot = rotation_about_axis([0.3, -0.5, 0.8], 1.1)
        move = make_transform(rot, [0.4, -0.2, 0.9])
        probes = rng.uniform(-1, 1, size=(20, 3))

        plain = fit(ConditioningSet(locs, targets, np.zeros(15, np.int8)), params)
        moved = fit(
            ConditioningSet(transform_points(move, locs), targets, np.zeros(15, np.int8)),
            params,
        )
        m1, v1 = plain.query(probes)
        m2, v2 = moved.query(transform_points(move, probes))
        np.testing.assert_allclose(m1, m2, atol=1e-8)
        np.testing.assert_allclose(v1, v2, atol=1e-8)


class TestHyperparameterSearch:
    def test_singleton_grid(self):
        cset = build_conditioning_set(sphere_touches(10, seed=1), 0.05, 0.02)
        pick = optimize_hyperparameters(cset, [0.7], 1.1, NOISE, 0.0, CAP).params
        assert (pick.length_scale, pick.output_scale) == (0.7, 1.1)

    def test_recovers_known_length_scale(self):
        # Monte-Carlo oracle: draw targets from a GP with known length scale
        # and check the grid pick lands within one step in >= 8/10 seeds.
        rho_true = 0.5
        grid_rhos = [0.15, 0.25, 0.35, 0.5, 0.7, 1.0, 1.4]
        true_idx = grid_rhos.index(rho_true)
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            locs = rng.uniform(-1, 1, size=(80, 3))
            d = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=2)
            s = np.sqrt(3.0) * d / rho_true
            gram = (1.0 + s) * np.exp(-s) + 1e-6 * np.eye(80)
            targets = np.linalg.cholesky(gram) @ rng.normal(size=80)
            cset = ConditioningSet(locs, targets, np.zeros(80, np.int8))
            pick = optimize_hyperparameters(cset, grid_rhos, 1.0, 1e-6, 0.0, CAP).params
            if abs(grid_rhos.index(pick.length_scale) - true_idx) <= 1:
                hits += 1
        assert hits >= 8

    def test_tie_breaks_toward_smallest(self):
        # Points this far apart have a kernel of exactly zero between them
        # at every length scale, so every candidate's likelihood is the same.
        cset = ConditioningSet([[0, 0, 0], [1e3, 0, 0]], [0.3, -0.2], np.zeros(2, np.int8))
        rhos = [0.9, 0.3, 0.6]
        lmls = {log_marginal_likelihood(fit(cset, KernelParams(rho, 1.0, 1e-4))) for rho in rhos}
        assert len(lmls) == 1
        assert optimize_hyperparameters(cset, rhos, 1.0, 1e-4, 0.0, CAP).params.length_scale == 0.3

    def test_equals_scoring_each_candidate_in_turn(self):
        cset = build_conditioning_set(sphere_touches(60, seed=5), 0.05, 0.02)
        rhos = [0.6, 0.2, 0.5, 0.4]
        best = None
        for rho in rhos:
            params = KernelParams(rho, 0.8, 1e-6, 0.1)
            key = (-log_marginal_likelihood(fit(cset, params)), rho)
            if best is None or key < best[0]:
                best = (key, params)
        assert optimize_hyperparameters(cset, rhos, 0.8, 1e-6, 0.1, CAP).params == best[1]


def fits_in(monkeypatch, fails=lambda params: False):
    """Route gpis.fit through a wrapper that raises NumericalError for the
    candidates `fails` names; returns the list of calls made in this
    process (a worker's calls stay in the worker)."""
    calls = []

    def counted_fit(cset, params):
        calls.append(params)
        if fails(params):
            raise NumericalError("kernel matrix not positive definite")
        return fit(cset, params)

    monkeypatch.setattr(gpis, "fit", counted_fit)
    return calls


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                    reason="needs os.fork and /proc/self/fd")
class TestSplitSearch:
    """The grid's tail is scored in the calling process and each other part
    in a forked worker; the result is the one-process search's model."""

    cset = build_conditioning_set(sphere_touches(60, seed=5), 0.05, 0.02)
    rhos = [0.6, 0.2, 0.5, 0.4]

    @staticmethod
    def candidate(rho):
        return KernelParams(rho, 0.8, 1e-6)

    def ranked_rhos(self):
        """The length scales from the best log marginal likelihood to the worst."""
        lml = {rho: log_marginal_likelihood(fit(self.cset, self.candidate(rho)))
               for rho in self.rhos}
        return sorted(self.rhos, key=lambda rho: -lml[rho])

    @pytest.mark.parametrize("cpus", [1, 2, 3, "grid + 1"])
    def test_any_cpu_count_gives_the_one_process_model(self, on_cpus, cpus):
        one, forks = on_cpus(1, optimize_hyperparameters, self.cset, self.rhos, 0.8, NOISE, 0.1,
                             CAP)
        assert forks == 0
        cpus = len(self.rhos) + 1 if cpus == "grid + 1" else cpus
        split, forks = on_cpus(cpus, optimize_hyperparameters, self.cset, self.rhos, 0.8,
                               NOISE, 0.1, CAP)
        assert forks == {1: 0, 2: 1, 3: 3, 5: 3}[cpus]
        assert_same_model(split, one)

    def test_a_workers_winner_is_fitted_once_in_the_caller(self, on_cpus, monkeypatch):
        ranked = self.ranked_rhos()
        calls = fits_in(monkeypatch)
        model, forks = on_cpus(2, optimize_hyperparameters, self.cset, ranked, 0.8, NOISE, 0.0,
                               CAP)
        assert forks == 1
        # The caller scored the last two candidates, then fitted the winner.
        assert calls == [self.candidate(rho) for rho in ranked[2:] + ranked[:1]]
        assert_same_model(model, fit(self.cset, self.candidate(ranked[0])))

    def test_the_callers_last_candidate_is_kept_when_it_wins(self, on_cpus, monkeypatch):
        ranked = self.ranked_rhos()[::-1]
        calls = fits_in(monkeypatch)
        model, _ = on_cpus(2, optimize_hyperparameters, self.cset, ranked, 0.8, NOISE, 0.0, CAP)
        assert calls == [self.candidate(rho) for rho in ranked[2:]]
        assert model.params == self.candidate(ranked[-1])

    def test_a_failing_candidate_in_a_worker_is_skipped(self, on_cpus, monkeypatch):
        winner = self.ranked_rhos()[0]
        fits_in(monkeypatch, fails=lambda params: params == self.candidate(winner))
        rhos = [winner] + [rho for rho in self.rhos if rho != winner]
        one, _ = on_cpus(1, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0, CAP)
        split, forks = on_cpus(3, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0, CAP)
        assert forks == 3 and one.params != self.candidate(winner)
        assert_same_model(split, one)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_every_candidate_failing_raises(self, on_cpus, monkeypatch, cpus):
        fits_in(monkeypatch, fails=lambda params: True)
        with pytest.raises(NumericalError, match="^every hyperparameter candidate failed"):
            on_cpus(cpus, optimize_hyperparameters, self.cset, self.rhos, 0.8, NOISE, 0.0, CAP)

    def test_worker_exception_is_raised_in_the_caller(self, on_cpus, in_workers, monkeypatch):
        def fail():
            raise ValueError("fit failed in the worker")

        monkeypatch.setattr(gpis, "fit", in_workers(fail, fit))
        with pytest.raises(ValueError, match="^fit failed in the worker$"):
            on_cpus(2, optimize_hyperparameters, self.cset, self.rhos, 0.8, NOISE, 0.0, CAP)

    @pytest.mark.parametrize("end, status", [(lambda: os._exit(3), "3"),
                                             (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")])
    def test_worker_ending_without_a_result_is_an_error(self, on_cpus, in_workers, monkeypatch,
                                                        end, status):
        monkeypatch.setattr(gpis, "fit", in_workers(end, fit))
        with pytest.raises(RuntimeError, match=f"exited with status {status} without"):
            on_cpus(3, optimize_hyperparameters, self.cset, self.rhos, 0.8, NOISE, 0.0, CAP)

    def test_worker_jitter_warning_reaches_the_caller(self, on_cpus):
        """Every candidate on duplicate points needs jitter; the worker's
        warnings are raised in the caller, as many as one process raises
        (one per candidate, and one more for a winner's refit)."""
        locs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cset = ConditioningSet(locs, [0.1, 0.1, -0.2], np.zeros(3, dtype=np.int8))
        rhos = [0.5, 0.7, 0.3]
        caught = {}
        for cpus in (1, 2):
            with pytest.warns(RuntimeWarning, match="effective noise") as record:
                _, forks = on_cpus(cpus, optimize_hyperparameters, cset, rhos, 1.0, 0.0, 0.0, CAP)
            assert forks == {1: 0, 2: 2}[cpus]
            caught[cpus] = sorted((w.category, str(w.message)) for w in record)
        assert len(caught[1]) == len(rhos) + 1 and caught[2] == caught[1]

    def test_over_cap_set_fails_before_any_fork(self, on_cpus, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with pytest.raises(NumericalError, match="cap is 10"):
            on_cpus(3, optimize_hyperparameters, self.cset, self.rhos, 0.8, NOISE, 0.0, 10)

    @pytest.mark.parametrize("env, forks", [
        ((), 0),
        ((("OPENBLAS_NUM_THREADS", "2"),), 1),
        ((("GOTO_NUM_THREADS", "2"),), 1),
        ((("OMP_NUM_THREADS", "1"),), 3),
        ((("OPENBLAS_NUM_THREADS", "4"), ("OMP_NUM_THREADS", "1")), 0),
        ((("OPENBLAS_NUM_THREADS", ""), ("OMP_NUM_THREADS", "2")), 1),
    ], ids=["unset", "openblas-2", "goto-2", "omp-1", "openblas-first", "empty-skipped"])
    def test_each_part_takes_a_cpu_per_blas_thread(self, on_cpus, env, forks):
        """Four usable CPUs; a BLAS left at its default runs a thread on
        each, which leaves no CPU for a second part."""
        one, _ = on_cpus(1, optimize_hyperparameters, self.cset, self.rhos, 0.8, NOISE, 0.0, CAP)
        split, count = on_cpus(4, optimize_hyperparameters, self.cset, self.rhos, 0.8,
                               NOISE, 0.0, CAP, blas_env=env)
        assert count == forks
        assert_same_model(split, one)

    def test_a_grid_that_would_leave_a_cpu_idle_gets_a_process_per_candidate(
            self, on_cpus, monkeypatch):
        """Three candidates on two CPUs: parts of one and two would leave a
        CPU idle while the caller fits its second candidate."""
        rhos = self.rhos[:3]
        one, _ = on_cpus(1, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0, CAP)
        split_bounds = []
        real_split = workers.Split
        monkeypatch.setattr(workers, "Split",
                            lambda fn, bounds: split_bounds.append(bounds) or real_split(fn, bounds))
        split, forks = on_cpus(2, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0, CAP)
        assert forks == 2 and split_bounds == [[(0, 1), (1, 2), (2, 3)]]
        assert_same_model(split, one)

    def test_parts_of_two_blas_threads_keep_their_candidates(self, on_cpus):
        """Two parts of two BLAS threads each already keep four CPUs busy.
        (Four candidates on two CPUs, parts of two, is
        test_any_cpu_count_gives_the_one_process_model[2].)"""
        rhos = self.rhos[:3]
        one, _ = on_cpus(1, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0, CAP)
        split, forks = on_cpus(4, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0,
                               CAP, blas_env=(("OPENBLAS_NUM_THREADS", "2"),))
        assert forks == 1
        assert_same_model(split, one)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(count=st.integers(1, 12), cpus=st.integers(1, 8))
    def test_the_search_runs_at_most_2p_minus_1_processes(self, on_cpus, monkeypatch, count,
                                                          cpus):
        """p CPUs at one BLAS thread: no fewer processes than the grid can
        keep busy, and fewer than two per CPU."""
        monkeypatch.setattr(gpis, "fit", lambda cset, params: SimpleNamespace(params=params))
        monkeypatch.setattr(gpis, "log_marginal_likelihood",
                            lambda model: model.params.length_scale)
        rhos = [0.1 * (i + 1) for i in range(count)]
        model, forks = on_cpus(cpus, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0,
                               CAP)
        assert min(count, cpus) <= forks + 1 <= min(count, 2 * cpus - 1)
        assert model.params == KernelParams(rhos[-1], 0.8, NOISE, 0.0)

    def test_one_candidate_or_a_part_under_the_floor_never_forks(self, on_cpus, monkeypatch):
        def forks(rhos):
            return on_cpus(3, optimize_hyperparameters, self.cset, rhos, 0.8, NOISE, 0.0, CAP)[1]

        assert forks(self.rhos[:1]) == 0
        # The search's estimate; three parts would need a quarter of it each.
        seconds = len(self.rhos) * len(self.cset) ** 2 * 25e-9
        monkeypatch.setattr(workers, "PART_SECONDS", np.nextafter(seconds / 2, np.inf))
        assert forks(self.rhos) == 0
        monkeypatch.setattr(workers, "PART_SECONDS", seconds / 2)
        assert forks(self.rhos) == 1
        monkeypatch.setattr(workers, "PART_SECONDS", PART_SECONDS)
        assert PART_SECONDS > seconds and forks(self.rhos) == 0


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        sphere = build_conditioning_set(sphere_touches(20, seed=6), 0.05, 0.02)
        assert np.any(sphere.labels == LABEL_INTERIOR)
        # The second set is test_jitter_escalation_equals_dense_path's: its
        # refit has to replay the jitter escalation.
        duplicates = ConditioningSet([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                                     [0.1, 0.1, -0.2], np.zeros(3, dtype=np.int8))
        with pytest.warns(RuntimeWarning, match="effective noise"):
            for name, cset, params in [
                ("sphere", sphere, KernelParams(0.4, 0.8, 1e-6, prior_mean=0.2)),
                ("duplicates", duplicates, KernelParams(0.5, 1.0, 0.0)),
            ]:
                model = fit(cset, params)
                path = tmp_path / f"{name}.gpis"
                save_model(path, model)
                # Header, then per point 4 floats and a label byte, then 4 params.
                n = len(cset)
                assert path.stat().st_size == 12 + 8 * (4 * n + 4) + n
                loaded = refit_on_load(path)
                rng = np.random.default_rng(2)
                pts = rng.uniform(-1.5, 1.5, size=(30, 3))
                m1, v1 = model.query(pts)
                m2, v2 = loaded.query(pts)
                np.testing.assert_allclose(m1, m2, rtol=0, atol=1e-12)
                np.testing.assert_allclose(v1, v2, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(
                    loaded.conditioning.surface_points(), cset.surface_points()
                )
                np.testing.assert_array_equal(loaded.factor, model.factor)
                np.testing.assert_array_equal(loaded.alpha, model.alpha)
                assert loaded.effective_noise == model.effective_noise
                np.testing.assert_array_equal(loaded.conditioning.labels, cset.labels)
                assert loaded.params == model.params
        assert model.effective_noise > 0.0  # the duplicates' fit did escalate

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=1, max_size=6),
        repeats=st.lists(st.integers(0, 5), max_size=4),
        data=st.data(),
        length_scale=st.floats(0.1, 2.0),
        output_scale=st.floats(0.1, 2.0),
        noise=st.sampled_from([0.0, 1e-6, 1e-3]),
        prior_mean=st.floats(-0.5, 0.5),
    )
    @pytest.mark.filterwarnings("ignore:kernel matrix")
    def test_round_trip_property(self, base, repeats, data, length_scale, output_scale,
                                 noise, prior_mean):
        # Repeated points (noise 0 included) force the jitter escalation,
        # which the refit on load has to replay.
        points = base + [base[i % len(base)] for i in repeats]
        n = len(points)
        cset = ConditioningSet(
            0.25 * np.array(points, dtype=np.float64),
            data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)),
            data.draw(st.lists(st.integers(LABEL_SURFACE, LABEL_INTERIOR), min_size=n,
                               max_size=n)),
        )
        params = KernelParams(length_scale, output_scale, noise, prior_mean)
        model = fit(cset, params)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.gpis")
            save_model(path, model)
            assert os.path.getsize(path) == 12 + 8 * (4 * n + 4) + n
            loaded = refit_on_load(path)
        np.testing.assert_array_equal(loaded.factor, model.factor)
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        assert loaded.effective_noise == model.effective_noise
        np.testing.assert_array_equal(loaded.conditioning.labels, cset.labels)
        assert loaded.params == params

    def test_load_after_save_takes_the_saved_model(self, tmp_path):
        cset = build_conditioning_set(sphere_touches(20, seed=6), 0.05, 0.02)
        model = fit(cset, KernelParams(0.4, 0.8, 1e-6, prior_mean=0.2))
        path = tmp_path / "model.gpis"
        save_model(path, model)
        assert load_model(path) is model
        # The first load emptied the slot: the second refits the same bits.
        again = load_model(path)
        assert again is not model
        assert_same_model(again, model)

    def test_file_with_another_models_bytes_is_refitted(self, tmp_path):
        params = KernelParams(0.4, 0.8, 1e-6)
        saved = fit(build_conditioning_set(sphere_touches(20, seed=6), 0.05, 0.02), params)
        other = fit(build_conditioning_set(sphere_touches(25, seed=7), 0.05, 0.02), params)
        path, other_path = tmp_path / "model.gpis", tmp_path / "other.gpis"
        save_model(other_path, other)
        save_model(path, saved)
        path.write_bytes(other_path.read_bytes())
        assert_same_model(load_model(path), other)

    def test_file_with_a_flipped_location_byte_is_refitted(self, tmp_path):
        cset = build_conditioning_set(sphere_touches(20, seed=6), 0.05, 0.02)
        params = KernelParams(0.4, 0.8, 1e-6)
        path = tmp_path / "model.gpis"
        save_model(path, fit(cset, params))
        blob = bytearray(path.read_bytes())
        blob[12] ^= 1  # lowest mantissa bit of the first location's x
        path.write_bytes(bytes(blob))
        locations = cset.locations.copy()
        locations[0, 0] = np.frombuffer(bytes(blob[12:20]), dtype="<f8")[0]
        assert locations[0, 0] != cset.locations[0, 0]
        flipped = ConditioningSet(locations, cset.targets, cset.labels)
        assert_same_model(load_model(path), fit(flipped, params))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gpis"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="GPIS"):
            load_model(path)

    def test_version_1_model_rejected(self, tmp_path):
        # A version-1 file (which held the dense factor) from before the
        # format stored only what the model is fitted from.
        path = tmp_path / "old.gpis"
        path.write_bytes(b"GPIS" + np.array([1, 1], dtype="<u4").tobytes() + b"\x00" * 72)
        with pytest.raises(FormatError, match="version 1"):
            load_model(path)

    def test_touch_ply_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(12, 3))
        normals = rng.normal(size=(12, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        path = tmp_path / "touch.ply"
        fileio.write_touch_ply(path, pts, normals)
        touch = fileio.read_touch_ply(path)
        np.testing.assert_array_equal(touch.points, pts)
        np.testing.assert_array_equal(touch.normals, normals)
