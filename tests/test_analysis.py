import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import curve_fit

from qwalk import analysis, evolution, optimize
from qwalk.analysis import (
    PIPELINE_TIMES_NS,
    SQRT2,
    CorrelationSeries,
    FrontFit,
    _diagonal_fronts,
    ctqw_velocity_pipeline,
    disorder_velocity_study,
    fit_gaussian_front,
    fit_gaussian_fronts,
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
from qwalk.sector import QuantumState, basis_state, enumerate_basis


def correlation(state: QuantumState, i: int, j: int) -> float:
    """Connected sigma-z correlation between two sites: the general reference
    the one-walker study path is tested against.

    With sigma_z = 1 - 2n this reduces to 4(<n_i n_j> - <n_i><n_j>), evaluated
    exactly from the amplitudes.
    """
    if i == j:
        raise ValueError("correlation requires two distinct sites")
    occ = state.basis.occupancy_matrix()
    p = np.abs(state.amplitudes) ** 2
    n_i = float(p @ occ[:, i])
    n_j = float(p @ occ[:, j])
    n_ij = float(p @ (occ[:, i] * occ[:, j]))
    return 4.0 * (n_ij - n_i * n_j)


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


def _fit_one(t, y, p0, inside=None):
    """`analysis._fit_gaussians` on one series, over the samples `inside` (all by default)."""
    inside = np.ones(len(t), bool) if inside is None else inside
    (popt,), (cov,), (failure,) = analysis._fit_gaussians(t, np.array([y]), np.array([inside]), [p0])
    return popt, cov, failure


def test_front_fit_gives_up_without_a_stop(monkeypatch):
    t = np.arange(0.0, 600.0, 10.0)
    # zero amplitude: J^T J is singular
    assert _fit_one(t, np.full_like(t, 0.1), [0.0, 200.0, 50.0, 0.1])[2] == "singular normal equations"
    monkeypatch.setattr(optimize, "LM_MAX_ITERATIONS", 2)
    with pytest.raises(ValueError, match="did not converge"):
        fit_gaussian_front(CorrelationSeries((0, 1), t, _gauss(t, 0.4, 200.0, 50.0, 0.0)), distance=SQRT2)


def test_front_fit_stops_when_exact_data_drive_a_parameter_to_zero():
    # a noise-free Gaussian's offset shrinks geometrically towards 0 with the
    # SSR, so neither a step relative to the offset alone nor the cost test
    # ever stops it; the step test's absolute floor does
    t = np.arange(0.0, 1000.0 + 1e-9, 10.0)
    y = _gauss(t, 0.4, 300.0, 40.0, 0.0)
    lo, hi, p0 = analysis._front_window(CorrelationSeries((0, 1), t, y), 1.0)
    index = np.arange(len(t))
    popt, _, failure = _fit_one(t, y, p0, inside=(lo <= index) & (index <= hi))
    assert failure is None
    assert popt == pytest.approx([0.4, 300.0, 40.0, 0.0], abs=1e-9)
    assert fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0).peak_time_ns == pytest.approx(300.0)


def test_front_fit_rejects_a_series_holding_a_nan():
    # a NaN leaves no sample at the lobe threshold; the fit names the front's
    # distance in a ValueError, which the CLI turns into exit 1 and error.json
    t = np.arange(0.0, 1000.0 + 1e-9, 10.0)
    y = _gauss(t, 0.4, 300.0, 40.0, 0.0)
    y[40] = np.nan
    with pytest.raises(ValueError, match=r"distance 1\.41421 holds a non-finite value"):
        fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=SQRT2)


def test_front_fit_covariance_is_inf_without_spare_samples():
    t = np.array([150.0, 180.0, 195.0, 205.0, 220.0, 250.0])
    _, cov, _ = _fit_one(t, _gauss(t, 0.4, 200.0, 50.0, 0.01), [0.4, 201.0, 45.0, 0.0], inside=t % 50 != 0)
    assert np.all(np.isposinf(cov))


def _windows_fitted(run):
    """The (t, y, p0) of every front fit `run()` makes, its window's samples
    only, with the fit's parameters and covariance and the whole series: a
    tuple (tw, yw, p0, popt, cov, (t, y, inside)) per front."""
    fit, windows = analysis._fit_gaussians, []

    def spy(t, y, inside, p0):
        popt, cov, failures = fit(t, y, inside, p0)
        for row in zip(np.broadcast_to(t, np.shape(y)), y, inside, p0, popt, cov):
            t_row, y_row, inside_row, p0_row, *fitted = row
            windows.append((t_row[inside_row], y_row[inside_row], p0_row, *fitted, (t_row, y_row, inside_row)))
        return popt, cov, failures

    with mock.patch.object(analysis, "_fit_gaussians", spy):
        run()
    return windows


def _oracle(t, y, p0):
    # SciPy's trust-region least squares on a finite-difference Jacobian, run
    # to tolerances far below curve_fit's defaults; its covariance comes from
    # the Jacobian at the point it returns
    return curve_fit(_gauss, t, y, p0=p0, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=100000)


def _assert_fits_agree(t, y, p0, popt, cov, centre_tol):
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
    ((*window, _),) = _windows_fitted(lambda: fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0))
    _assert_fits_agree(*window, centre_tol=1e-6)


@pytest.mark.parametrize("noise", [0.004, 0.01])
def test_front_fit_finds_the_lobe_above_a_baseline(noise):
    # the offset (0.031 under an amplitude of 0.0625, noise a fraction of the
    # amplitude) exceeds FRONT_LOBE_FRACTION of max|C|, yet the lobe is the front
    t = np.arange(0.0, 1000.0 + 1e-9, 10.0)
    y = 0.0625 * (_gauss(t, 1.0, 400.0, 40.0, 0.031 / 0.0625) + noise * np.random.default_rng(3).normal(size=len(t)))
    ((*window, _),) = _windows_fitted(lambda: fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0))
    assert window[0][0] < 400.0 < window[0][-1]
    fit = fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0)
    assert fit.peak_time_ns == pytest.approx(400.0, abs=3.0)
    _assert_fits_agree(*window, centre_tol=1e-6)


def test_front_fit_matches_curve_fit_on_study_series():
    windows = []
    for run in (ctqw_velocity_pipeline, lambda: disorder_velocity_study(1, 11000),
                lambda: disorder_velocity_study(8, 11000), lambda: disorder_velocity_study(32, 5)):
        windows += _windows_fitted(run)
    assert len(windows) == 37
    for *window, (t, y, inside) in windows:
        # the flattest of these minima (centre error 1.4 ns over 65 samples)
        # fixes the centre only to about 1e-6 ns in double precision
        centre = _assert_fits_agree(*window, centre_tol=2e-6)[1]
        # a rounding-size change in the series does not move the front
        wiggle = 5e-15 * (-1.0) ** np.arange(len(y))
        assert abs(_fit_one(t, y + wiggle, window[2], inside)[0][1] - centre) <= 1e-6


@pytest.fixture(scope="module")
def front_pool():
    """Series of one length (0-1000 ns, 101 samples) and their distances: the
    distance-velocity study's 11 at seed 5 (32 realisations), a noisy
    Gaussian, and three whose fronts raise, each its own way: a spike whose
    fit finds no stop (index 12), a ramp whose centre leaves the sampled range,
    and a flat series without a lobe. Each entry's fit alone is the
    `_fronts_or_error` of its batch of one."""
    t = np.array(analysis.STUDY_TIMES_NS)
    graph = grid_graph(analysis.STUDY_SIDE, analysis.STUDY_SIDE)
    bound = analysis.DEFAULT_DISORDER_BOUND_MHZ
    offsets = np.column_stack([sample_offsets(graph.n_sites, bound, 5 + s) for s in range(32)])
    diagonal = [graph.index[(k, k)] for k in range(1, analysis.STUDY_DIAGONALS + 1)]
    series, fronts = _diagonal_fronts(graph, graph.index[(0, 0)], diagonal, offsets, analysis.STUDY_TIMES_NS)
    noisy = _gauss(t, 0.3, 420.0, 35.0, 0.01) + 0.003 * np.random.default_rng(8).normal(size=len(t))
    extra = [noisy, np.where(t == 500.0, 1.0, 0.0), t / 1000.0, np.zeros_like(t)]
    series = [*series, *(CorrelationSeries((0, 1), t, y) for y in extra)]
    distances = [f.distance for f in fronts] + [1.0, 2.0, 3.0, 4.0]
    alone = [_fronts_or_error(lambda: fit_gaussian_fronts([s], [d])) for s, d in zip(series, distances)]
    assert [isinstance(a, str) for a in alone] == [False] * 12 + [True] * 3
    assert "did not converge" in alone[12]
    return series, distances, alone


def _fronts_or_error(fit):
    """Each front's fields as their reprs, which keep every bit (and the sign
    of a zero), or the message of the ValueError the fit raises."""
    try:
        return tuple(repr(astuple(f)) for f in fit())
    except ValueError as exc:
        return str(exc)


@given(picks=st.lists(st.integers(0, 14), min_size=1, max_size=8))
@example(picks=[0, 12, 1])  # a front whose fit gives up, inside a batch
@example(picks=list(range(11)))  # the study's batch
def test_fronts_fitted_together_are_the_fronts_fitted_alone(front_pool, picks):
    # in any subset and order, repeats included: each front bit for bit as
    # fitted alone, or the error of the first front, in order, that has one
    series, distances, alone = front_pool
    together = _fronts_or_error(lambda: fit_gaussian_fronts([series[i] for i in picks], [distances[i] for i in picks]))
    expected = ()
    for i in picks:
        if isinstance(alone[i], str):
            expected = alone[i]
            break
        expected += alone[i]
    event("raises" if isinstance(expected, str) else "fits")
    assert together == expected


def test_front_fit_ignores_non_finite_terms_outside_its_window():
    # a last sample at t = inf lies far outside the lobe, where the Jacobian's
    # centre and width columns are 0 * inf = nan: a 0/1 mask multiplied in
    # would carry them into J^T J, a selected one leaves the fit as it is
    t = np.arange(0.0, 1000.0 + 1e-9, 10.0)
    y = _gauss(t, 0.4, 300.0, 40.0, 0.01) + 0.004 * np.random.default_rng(5).normal(size=len(t))
    far = t.copy()
    far[-1] = np.inf
    fit = _fronts_or_error(lambda: [fit_gaussian_front(CorrelationSeries((0, 1), t, y), distance=1.0)])
    with np.errstate(invalid="ignore"):
        assert _fronts_or_error(lambda: [fit_gaussian_front(CorrelationSeries((0, 1), far, y), distance=1.0)]) == fit
    assert not isinstance(fit, str)


def test_fronts_fitted_together_need_one_length():
    t = np.arange(0.0, 600.0, 10.0)
    series = CorrelationSeries((0, 1), t, _gauss(t, 0.4, 200.0, 50.0, 0.0))
    short = CorrelationSeries((0, 1), t[:-1], series.values[:-1])
    with pytest.raises(ValueError, match="one length"):
        fit_gaussian_fronts([series, short], [1.0, 2.0])
    with pytest.raises(ValueError, match="one distance per series"):
        fit_gaussian_fronts([series], [1.0, 2.0])
    assert fit_gaussian_fronts([], []) == ()


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
    positions = {row.tobytes(): i for i, row in enumerate(basis.rows)}
    rows = np.array([positions[row.tobytes()] for row in np.eye(g.n_sites, dtype=bool)[sites]])
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
