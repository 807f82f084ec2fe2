import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import curve_fit

from qwalk import analysis, evolution
from qwalk.analysis import (
    PIPELINE_TIMES_NS,
    SQRT2,
    CorrelationSeries,
    FrontFit,
    _diagonal_fronts,
    correlation,
    ctqw_velocity_pipeline,
    disorder_velocity_study,
    fit_gaussian_front,
    fit_velocity,
    fringe_axis_variance,
    fringe_stats,
    instantaneous_velocity,
    interaction_signature,
    lr_bound,
    sign_alternations,
    unweighted_distances,
)
from qwalk.device import DisorderMap, active_subgraph, default_device, grid_graph, sample_offsets
from qwalk.evolution import evolve_unitary
from qwalk.hamiltonian import build_hamiltonian, offset_diagonals
from qwalk.sector import QuantumState, basis_state, enumerate_basis, lookup


def test_correlation_product_state_is_zero():
    b = enumerate_basis(4, 2)
    s = basis_state(b, {0, 2})
    assert correlation(s, 1, 3) == pytest.approx(0.0, abs=1e-12)
    assert correlation(s, 0, 2) == pytest.approx(0.0, abs=1e-12)


def test_correlation_shared_single_walker():
    b = enumerate_basis(2, 1)
    bell = QuantumState(b, np.array([1, 1]) / np.sqrt(2))
    assert correlation(bell, 0, 1) == pytest.approx(-1.0)


def test_correlation_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    b = enumerate_basis(6, 2)
    for _ in range(10):
        amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        amp /= np.linalg.norm(amp)
        s = QuantumState(b, amp)
        i, j = rng.choice(6, size=2, replace=False)
        c = correlation(s, int(i), int(j))
        assert c == correlation(s, int(j), int(i))
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


def test_correlation_requires_distinct_sites():
    b = enumerate_basis(3, 1)
    with pytest.raises(ValueError):
        correlation(basis_state(b, {0}), 1, 1)


def test_correlation_against_dense_oracle():
    # evolve on a 4x5 lattice, one walker; compare with an expm-based evaluation
    g = grid_graph(4, 5)
    b = enumerate_basis(20, 1)
    d = DisorderMap({s: 0.3 * ((s[0] + 2 * s[1]) % 3 - 1) for s in g.sites})
    h = build_hamiltonian(g, b, d)
    psi0 = basis_state(b, {0})
    snaps = evolve_unitary(h, psi0, (120.0,))
    state = snaps[0][1]
    ref_amp = expm(-1j * h.to_dense() * 0.120) @ psi0.amplitudes
    occ = b.occupancy_matrix()
    p = np.abs(ref_amp) ** 2
    for (i, j) in ((0, 5), (0, 12), (3, 18)):
        ni, nj = p @ occ[:, i], p @ occ[:, j]
        nij = p @ (occ[:, i] * occ[:, j])
        assert correlation(state, i, j) == pytest.approx(4 * (nij - ni * nj), abs=1e-10)


def _gauss(t, a, c, w, o):
    return a * np.exp(-((t - c) ** 2) / (2 * w * w)) + o


def test_gaussian_front_exact_recovery():
    t = np.arange(0.0, 600.0, 10.0)
    series = CorrelationSeries((0, 1), t, _gauss(t, 0.4, 200.0, 50.0, 0.0))
    fit = fit_gaussian_front(series, distance=SQRT2)
    assert fit.peak_time_ns == pytest.approx(200.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.4, abs=1e-6)
    assert fit.width_ns == pytest.approx(50.0, abs=1e-4)


def test_gaussian_front_with_noise():
    rng = np.random.default_rng(17)
    t = np.arange(0.0, 600.0, 10.0)
    clean = _gauss(t, 0.4, 200.0, 50.0, 0.0)
    noisy = clean + 0.004 * rng.normal(size=len(t))
    fit = fit_gaussian_front(CorrelationSeries((0, 1), t, noisy), distance=SQRT2)
    assert fit.peak_time_ns == pytest.approx(200.0, abs=5.0)


def test_gaussian_front_flat_series_is_error():
    t = np.arange(0.0, 200.0, 10.0)
    with pytest.raises(ValueError):
        fit_gaussian_front(CorrelationSeries((0, 1), t, np.zeros_like(t)), distance=1.0)


def test_gaussian_front_needs_samples():
    t = np.arange(0.0, 50.0, 10.0)
    with pytest.raises(ValueError):
        fit_gaussian_front(CorrelationSeries((0, 1), t, _gauss(t, 1, 20, 5, 0)), distance=1.0)


def test_gaussian_front_prefers_first_lobe():
    # a small arrival lobe followed by a taller revival: the front is the arrival
    t = np.arange(0.0, 1000.0, 10.0)
    y = _gauss(t, 0.30, 300.0, 40.0, 0.0) + _gauss(t, 0.8, 850.0, 40.0, 0.0)
    fit = fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0)
    assert fit.peak_time_ns == pytest.approx(300.0, abs=10.0)


def test_front_fit_gives_up_without_a_stop(monkeypatch):
    t = np.arange(0.0, 600.0, 10.0)
    with pytest.raises(ValueError, match="did not converge"):  # zero amplitude: J^T J is singular
        analysis._fit_gaussian(t, np.full_like(t, 0.1), [0.0, 200.0, 50.0, 0.1])
    monkeypatch.setattr(analysis, "LM_MAX_ITERATIONS", 2)
    with pytest.raises(ValueError, match="did not converge"):
        fit_gaussian_front(CorrelationSeries((0, 1), t, _gauss(t, 0.4, 200.0, 50.0, 0.0)), distance=SQRT2)


def test_front_fit_covariance_is_inf_without_spare_samples():
    t = np.array([180.0, 195.0, 205.0, 220.0])
    _, cov = analysis._fit_gaussian(t, _gauss(t, 0.4, 200.0, 50.0, 0.01), [0.4, 201.0, 45.0, 0.0])
    assert np.all(np.isposinf(cov))


def _windows_fitted(run):
    """The (t, y, p0) of every front fit `run()` makes."""
    fit, windows = analysis._fit_gaussian, []
    spy = lambda t, y, p0: windows.append((t, y, p0)) or fit(t, y, p0)
    with mock.patch.object(analysis, "_fit_gaussian", spy):
        run()
    return windows


def _oracle(t, y, p0):
    # SciPy's trust-region least squares on a finite-difference Jacobian, run
    # to tolerances far below curve_fit's defaults; its covariance comes from
    # the Jacobian at the point it returns
    return curve_fit(_gauss, t, y, p0=p0, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=100000)


def _assert_fits_agree(t, y, p0, centre_tol):
    popt, cov = analysis._fit_gaussian(t, y, p0)
    oracle, pcov = _oracle(t, y, p0)
    assert abs(popt[1] - oracle[1]) <= centre_tol
    ssr, oracle_ssr = (float(np.sum((_gauss(t, *params) - y) ** 2)) for params in (popt, oracle))
    assert ssr <= oracle_ssr * (1.0 + 1e-12)
    # on the scale of the standard errors
    assert np.all(np.abs(cov - pcov) <= 1e-6 * np.sqrt(np.outer(np.diag(pcov), np.diag(pcov))))
    return popt


@given(st.floats(0.05, 1.0), st.floats(150.0, 450.0), st.floats(20.0, 80.0), st.floats(0.0, 0.1),
       st.floats(1e-3, 1e-2), st.integers(0, 2**32 - 1))
def test_front_fit_matches_curve_fit_on_noisy_gaussians(a, c, w, offset, noise, seed):
    # the offset and the noise are fractions of the amplitude, as on a front
    # rising from near zero
    t = np.arange(0.0, 1000.0 + 1e-9, 10.0)
    y = a * (_gauss(t, 1.0, c, w, offset) + noise * np.random.default_rng(seed).normal(size=len(t)))
    ((tw, yw, p0),) = _windows_fitted(lambda: fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0))
    _assert_fits_agree(tw, yw, p0, centre_tol=1e-6)


@pytest.mark.parametrize("noise", [0.004, 0.01])
def test_front_fit_finds_the_lobe_above_a_baseline(noise):
    # the offset (0.031 under an amplitude of 0.0625, noise a fraction of the
    # amplitude) exceeds FRONT_LOBE_FRACTION of max|C|, yet the lobe is the front
    t = np.arange(0.0, 1000.0 + 1e-9, 10.0)
    y = 0.0625 * (_gauss(t, 1.0, 400.0, 40.0, 0.031 / 0.0625) + noise * np.random.default_rng(3).normal(size=len(t)))
    ((tw, yw, p0),) = _windows_fitted(lambda: fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0))
    assert tw[0] < 400.0 < tw[-1]
    fit = fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0)
    assert fit.peak_time_ns == pytest.approx(400.0, abs=3.0)
    _assert_fits_agree(tw, yw, p0, centre_tol=1e-6)


def test_front_fit_matches_curve_fit_on_study_series():
    windows = []
    for run in (ctqw_velocity_pipeline, lambda: disorder_velocity_study(1, 11000),
                lambda: disorder_velocity_study(8, 11000), lambda: disorder_velocity_study(32, 5)):
        windows += _windows_fitted(run)
    assert len(windows) == 37
    for tw, yw, p0 in windows:
        # the flattest of these minima (centre error 1.4 ns over 65 samples)
        # fixes the centre only to about 1e-6 ns in double precision
        centre = _assert_fits_agree(tw, yw, p0, centre_tol=2e-6)[1]
        # a rounding-size change in the series does not move the front
        wiggle = 5e-15 * (-1.0) ** np.arange(len(yw))
        assert abs(analysis._fit_gaussian(tw, yw + wiggle, p0)[0][1] - centre) <= 1e-6


def line_fronts(vel, d_values, err=0.0):
    return [FrontFit(d, 1e3 * d / vel, err, 0.1, 40.0, 0.0) for d in d_values]


def test_fit_velocity_exact_line():
    fronts = line_fronts(22.2, [SQRT2 * k for k in range(1, 5)])
    v, sigma = fit_velocity(fronts)
    assert v == pytest.approx(22.2, abs=1e-9)
    assert sigma == pytest.approx(0.0, abs=1e-9)


def test_fit_velocity_weighted_and_errors():
    fronts = line_fronts(20.0, [1.0, 2.0, 3.0, 4.0], err=2.0)
    v, sigma = fit_velocity(fronts)
    assert v == pytest.approx(20.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_velocity(fronts[:1])
    with pytest.raises(ValueError):
        fit_velocity([fronts[0], fronts[0]])


def test_instantaneous_velocity_window():
    fronts = line_fronts(25.0, [SQRT2 * k for k in range(1, 12)])
    v, _ = instantaneous_velocity(fronts, SQRT2)
    assert v == pytest.approx(25.0, abs=1e-9)
    v8, _ = instantaneous_velocity(fronts, 8 * SQRT2)
    assert v8 == pytest.approx(25.0, abs=1e-9)
    with pytest.raises(ValueError):
        instantaneous_velocity(fronts, 20 * SQRT2)


def test_unweighted_distances_name_fronts_without_a_usable_error():
    fronts = line_fronts(20.0, [1.0, 2.0, 3.0, 4.0, 5.0], err=2.0)
    fronts[1] = FrontFit(2.0, 100.0, float("inf"), 0.1, 40.0, 0.0)
    fronts[3] = FrontFit(4.0, 200.0, 0.0, 0.1, 40.0, 0.0)
    assert unweighted_distances(fronts) == (2.0, 4.0)
    assert unweighted_distances(fronts[2:3]) == ()


def test_study_flags_exactly_the_windows_fitted_unweighted(fronts_8_and_11_without_error):
    study = disorder_velocity_study(n_seeds=8, seed=11000)
    bad = {f.distance for f in study.fronts if not (np.isfinite(f.peak_time_err_ns) and f.peak_time_err_ns > 0)}
    assert bad
    flagged = [bool(names) for names in study.unweighted]
    assert any(flagged) and not all(flagged)
    for d0, v, names in zip(study.d0_values, study.velocities, study.unweighted):
        window = [f for f in study.fronts if d0 - 1e-9 <= f.distance <= d0 + 3 * SQRT2 + 1e-9]
        assert set(names) == bad & {f.distance for f in window}
        # a flagged window's velocity is the fit with every error equal
        unit = [FrontFit(f.distance, f.peak_time_ns, 1.0, f.amplitude, f.width_ns, f.offset) for f in window]
        assert (v == pytest.approx(fit_velocity(unit)[0], rel=1e-12)) == bool(names)


def test_lr_bound_reference_value():
    assert lr_bound(2.01, -248.9) == pytest.approx(35.7, abs=0.05)


def test_lr_bound_limits():
    j = 2.01
    assert lr_bound(j, -1e12) == pytest.approx(2 * math.sqrt(2) * 2 * math.pi * j, rel=1e-9)
    assert lr_bound(0.0, -100.0) == 0.0
    with pytest.raises(ValueError):
        lr_bound(j, 0.0)


def test_lr_bound_monotone_in_hopping():
    grid = np.linspace(0.1, 10.0, 50)
    vals = [lr_bound(j, -248.9) for j in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fringe_stats_examples():
    flat = np.full((4, 4), 0.3)
    s = fringe_stats(flat)
    assert s.visibility == pytest.approx(0.0)
    assert s.variance == pytest.approx(0.0)
    alt = np.tile([[0.4, 0.1], [0.1, 0.4]], (3, 3))
    assert fringe_stats(alt).visibility == pytest.approx(0.6)
    with pytest.raises(ValueError):
        fringe_stats(np.zeros((3, 3)))


def test_fringe_axis_variance_discriminates():
    rows_only = np.outer([0.9, 0.6, 0.3], np.ones(5))
    assert fringe_axis_variance(rows_only, axis=1) == pytest.approx(0.0, abs=1e-15)
    assert fringe_axis_variance(rows_only.T, axis=0) == pytest.approx(0.0, abs=1e-15)
    wavy = 0.5 + 0.4 * np.sin(np.arange(25).reshape(5, 5))
    assert fringe_axis_variance(wavy, axis=1) > 0.01


def test_sign_alternations():
    line = np.array([[0.1, 0.5, 0.1, 0.5, 0.1]])
    assert sign_alternations(line, axis=1, threshold=0.05) == 3
    mono = np.array([[0.9, 0.7, 0.5, 0.3, 0.1]])
    assert sign_alternations(mono, axis=1, threshold=0.05) == 0
    const = np.full((3, 5), 0.4)
    assert sign_alternations(const, axis=1, threshold=0.01) == 0


def test_interaction_signature():
    rng = np.random.default_rng(1)
    gl = rng.random((5, 5))
    gr = rng.random((5, 5))
    assert np.allclose(interaction_signature(gl + gr, gl, gr), 0.0, atol=1e-12)
    assert np.allclose(interaction_signature(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))), 0.0)
    with pytest.raises(ValueError):
        interaction_signature(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)))


def test_pipeline_series_equal_snapshot_correlations():
    # the one-realisation block path pins the general connected correlation,
    # evaluated on per-time snapshots, bit for bit (t = 0 samples are +0.0);
    # the snapshots are whole blocks, and the pipeline's five rows take the
    # whole block's plan, one series over all 61 samples
    lengths = []
    series_samples = evolution._series_samples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_series_samples", lambda *args: lengths.append(args[-1]) or series_samples(*args))
        res = ctqw_velocity_pipeline()
        device = default_device()
        graph = active_subgraph(device, device.functional_qubits)
        b = enumerate_basis(graph.n_sites, 1)
        origin = res.series[0].site_pair[0]
        block = basis_state(b, {origin}).amplitudes[:, None]
        h0 = build_hamiltonian(graph, b).matrix
        states = evolution.propagate_block(h0, np.zeros((b.dimension, 1)), block, PIPELINE_TIMES_NS)
    assert lengths == [5, b.dimension]
    times = [float(t) for t in PIPELINE_TIMES_NS]
    half_width = float(abs(h0).sum(axis=1).max())  # a zero diagonal: the largest absolute row sum
    assert [series_samples(times, half_width, b.dimension, h0.nnz, kept)[0] for kept in lengths] == [61, 61]
    snaps = [(t, QuantumState(b, y[:, 0])) for t, y in zip(PIPELINE_TIMES_NS, states)]
    assert len(res.series) == 4
    for series in res.series:
        i, j = series.site_pair
        assert i == origin
        expected = np.array([correlation(state, i, j) for _, state in snaps])
        assert np.array_equal(series.times_ns, [t for t, _ in snaps])
        assert np.array_equal(series.values, expected)
        assert np.array_equal(np.signbit(series.values), np.signbit(expected))
        assert np.all(series.values <= 0.0)  # single-walker correlations are anti-correlations


def test_ensemble_series_is_mean_of_single_realisations():
    g = grid_graph(4, 4)
    origin = g.index[(0, 0)]
    diagonal = [g.index[(k, k)] for k in (1, 2, 3)]
    offsets = np.column_stack([sample_offsets(g.n_sites, 1.6, seed) for seed in (5, 6, 7)])
    times = tuple(np.arange(0.0, 400.0 + 1e-9, 10.0))
    together, _ = _diagonal_fronts(g, origin, diagonal, offsets, times)
    alone = [_diagonal_fronts(g, origin, diagonal, column[:, None], times)[0] for column in offsets.T]
    for row, series in enumerate(together):
        mean = np.mean([single[row].values for single in alone], axis=0)
        assert np.max(np.abs(series.values - mean)) <= 1e-12
        assert np.any(series.values < -1e-3)


def test_study_is_independent_of_column_chunks(monkeypatch):
    runs = []
    fronts_of = analysis._diagonal_fronts
    monkeypatch.setattr(analysis, "_diagonal_fronts", lambda *args: runs.append(fronts_of(*args)) or runs[-1])
    widths = []  # the chunk width of each run of sums the engine phases
    phase = evolution._phase
    monkeypatch.setattr(evolution, "_phase", lambda sums, *args: widths.append(sums.shape[-1]) or phase(sums, *args))
    whole = disorder_velocity_study(n_seeds=10, seed=11000)
    assert set(widths) == {10}
    widths.clear()
    # one column is (window samples + 3) x dim 225 x 16 B: chunks of 4, 4 and 2 realisations
    monkeypatch.setattr(evolution, "CHUNK_BYTES", 4 * (evolution.WINDOW_SAMPLES + 3) * 225 * 16)
    chunked = disorder_velocity_study(n_seeds=10, seed=11000)
    n_runs = len(widths) // 3
    assert widths == [4] * n_runs + [4] * n_runs + [2] * n_runs
    (series_whole, _), (series_chunked, _) = runs
    for a, b in zip(series_whole, series_chunked, strict=True):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(np.signbit(a.values), np.signbit(b.values))  # t = 0 stays +0.0
    for field in ("velocities", "std_errs", "unweighted"):
        assert getattr(chunked, field) == getattr(whole, field), field
    assert np.array_equal(
        [astuple(f) for f in chunked.fronts], [astuple(f) for f in whole.fronts], equal_nan=True
    )


def test_ensemble_block_runs_as_one_chunk(monkeypatch):
    # the bench's `analyze --study distance-velocity --seeds 32` block: dim 225
    # x 32 realisations, 101 samples on the study's 12 rows, within one
    # CHUNK_BYTES chunk and one series from t = 0
    g = grid_graph(analysis.STUDY_SIDE, analysis.STUDY_SIDE)
    basis = enumerate_basis(g.n_sites, 1)
    offsets = np.column_stack([sample_offsets(g.n_sites, 1.6, seed) for seed in range(11000, 11032)])
    block = np.repeat(basis_state(basis, {0}).amplitudes[:, None], 32, axis=1)
    sites = [g.index[(k, k)] for k in range(analysis.STUDY_DIAGONALS + 1)]  # the origin, then the diagonal
    rows = lookup(basis.keys, np.eye(g.n_sites, dtype=bool)[sites])
    widths, lengths = [], []
    phase, series_samples = evolution._phase, evolution._series_samples
    monkeypatch.setattr(evolution, "_phase", lambda sums, *args: widths.append(sums.shape[-1]) or phase(sums, *args))
    monkeypatch.setattr(evolution, "_series_samples", lambda *args: lengths.append(series_samples(*args)) or lengths[-1])
    h0, diagonals = build_hamiltonian(g, basis).matrix, offset_diagonals(basis, offsets)
    states = evolution.propagate_block(h0, diagonals, block, analysis.STUDY_TIMES_NS, rows)
    assert basis.dimension == 225 and len(rows) == 12
    assert widths and set(widths) == {32}
    assert [length for length, _ in lengths] == [101] and [y.shape for y in states] == [(12, 32)] * 101


def test_velocity_pipeline_runs_and_respects_bound():
    # the d = sqrt(2)..4*sqrt(2), 0..600 ns configuration; shorter-range fits
    # are unreliable at zero disorder because the origin population dies
    # before far fronts arrive
    res = ctqw_velocity_pipeline()
    assert len(res.fronts) == 4
    assert [round(f.distance, 3) for f in res.fronts] == [round(k * SQRT2, 3) for k in range(1, 5)]
    assert 0.0 < res.velocity < lr_bound(2.01, -248.9)
