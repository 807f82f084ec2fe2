"""Correlation functions, light-cone front extraction, propagation velocities,
and interference-fringe statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .device import DEFAULT_DISORDER_BOUND_MHZ, QubitId, active_subgraph, default_device, grid_graph, sample_offsets
from .evolution import propagate_block
from .hamiltonian import TWO_PI, build_hamiltonian, offset_diagonals
from .optimize import levenberg_marquardt, row_dots, solved
from .sector import basis_state, enumerate_basis, row_index

__all__ = [
    "CorrelationSeries",
    "FrontFit",
    "FringeStats",
    "fit_gaussian_front",
    "fit_gaussian_fronts",
    "fit_velocity",
    "unweighted_distances",
    "lr_bound",
    "instantaneous_velocity",
    "fringe_stats",
    "fringe_axis_variance",
    "sign_alternations",
    "interaction_signature",
    "ctqw_velocity_pipeline",
    "disorder_velocity_study",
    "VelocityPipelineResult",
    "VelocityStudyResult",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CorrelationSeries:
    site_pair: tuple[int, int]
    times_ns: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times_ns", np.asarray(self.times_ns, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times_ns.shape != self.values.shape:
            raise ValueError("times and values must have matching lengths")


@dataclass(frozen=True)
class FrontFit:
    distance: float
    peak_time_ns: float
    peak_time_err_ns: float
    amplitude: float
    width_ns: float
    offset: float


# fit_gaussian_front finds no front where max |C| is at or below
# FRONT_NOISE_FLOOR, and fits the first lobe reaching FRONT_LOBE_FRACTION of it
FRONT_NOISE_FLOOR = 1e-9
FRONT_LOBE_FRACTION = 0.25


def _fit_gaussians(t, y, inside, p0) -> tuple:
    """Least-squares fits of a exp(-(t - c)^2 / 2w^2) + o, one to each row of
    (t, y) (B x M, or t of M shared) over the samples `inside` marks (B x M),
    from p0 = (a, c, w, o) per row, in one `optimize.levenberg_marquardt`
    batch on the analytic Jacobian (the damping's per-parameter scale matters:
    the width and centre are in ns, the amplitude and offset are fractions).

    The residuals and Jacobian rows outside a row's samples are selected to
    zero, not multiplied by a mask, so a non-finite term there cannot reach
    its fit. Returns the parameters (B x 4); their covariances
    inv(J^T J) SSR / (M - 4) at the solution, M the row's samples inside,
    from one stacked `inv`, all inf where J^T J is singular or M <= 4; and
    each fit's `failure`.
    """
    t, y, inside = np.asarray(t, dtype=float), np.asarray(y, dtype=float), np.asarray(inside, dtype=bool)

    def evaluate(p):
        a, c, w, o = p.T[:, :, None]
        d = t - c
        g = np.exp(d * d * (-0.5 / (w * w)))
        r = a * g
        r += o
        r -= y

        def jacobian():
            jac = np.empty((*g.shape, 4))
            jac[..., 0] = g
            np.multiply(g, d * (a / (w * w)), out=jac[..., 1])
            np.multiply(jac[..., 1], d / w, out=jac[..., 2])
            jac[..., 3] = 1.0
            return np.where(inside[..., None], jac, 0.0)

        return np.where(inside, r, 0.0), jacobian

    fit = levenberg_marquardt(evaluate, p0)
    spare = inside.sum(axis=1) - 4
    inverse, singular = solved(np.linalg.inv, fit.jtj)
    cov = inverse * (row_dots(fit.residuals, fit.residuals) / np.maximum(spare, 1))[:, None, None]
    cov[singular] = np.inf
    cov[spare < 1] = np.inf
    return fit.p, cov, fit.failure


def _front_window(series: CorrelationSeries, distance: float) -> tuple:
    """The first lobe `fit_gaussian_front` fits, as its first and last sample
    indices, and the fit's start (a, c, w, o): (lo, hi, p0)."""
    t = series.times_ns
    c = np.abs(series.values)
    if len(t) < 8:
        raise ValueError("need at least 8 time samples to fit a front")
    if not np.all(np.isfinite(c)):  # a NaN would leave no sample reaching the lobe threshold
        raise ValueError(f"the correlation series at distance {distance:g} holds a non-finite value")
    cmax = float(np.max(c))
    if cmax <= FRONT_NOISE_FLOOR:
        raise ValueError("no detectable extremum above the noise floor")

    baseline = float(np.median(c[: max(3, len(c) // 10)]))
    above = np.where(c - baseline >= FRONT_LOBE_FRACTION * (cmax - baseline))[0]
    i = int(above[0])
    while i < len(c) - 1 and c[i + 1] >= c[i]:
        i += 1
    i_peak = i
    lo = i_peak
    while lo > 0 and c[lo - 1] <= c[lo]:
        lo -= 1
    hi = i_peak
    while hi < len(c) - 1 and c[hi + 1] <= c[hi]:
        hi += 1
    lo = max(0, lo - 2)
    hi = min(len(c) - 1, hi + 2)
    while hi - lo + 1 < 8:
        lo = max(0, lo - 1)
        hi = min(len(c) - 1, hi + 1)
    tw, cw = t[lo : hi + 1], c[lo : hi + 1]

    peak = float(c[i_peak])
    dt = float(t[1] - t[0])
    half = np.where(cw >= 0.5 * peak)[0]
    fwhm = float(tw[half[-1]] - tw[half[0]]) if len(half) > 1 else 2.0 * dt
    return lo, hi, [peak, float(t[i_peak]), max(fwhm / 2.355, dt), baseline]


def fit_gaussian_fronts(series, distances) -> tuple:
    """One FrontFit per series, at the given distances, from one batch of
    Gaussian fits (`_fit_gaussians`).

    Each front is fitted over its whole series, with its first lobe
    (`fit_gaussian_front`) as the mask, so its bits depend only on its own
    series: it is the same FrontFit whichever fronts share the batch, and
    fitted alone. The series must share one length. Raises the ValueError of
    the first front, in order, that has one.
    """
    series, distances = list(series), [float(d) for d in distances]
    if len(series) != len(distances):
        raise ValueError(f"need one distance per series, got {len(distances)} for {len(series)}")
    if len({len(s.times_ns) for s in series}) > 1:
        raise ValueError("fronts fitted together need series of one length")
    windows, error = [], None
    for s, distance in zip(series, distances):
        try:
            windows.append(_front_window(s, distance))
        except ValueError as exc:  # the fronts before it still raise first
            error = exc
            break
    fronts = []
    if windows:
        fitted = series[: len(windows)]
        index = np.arange(len(fitted[0].times_ns))
        inside = [(lo <= index) & (index <= hi) for lo, hi, _ in windows]
        t, c = np.array([s.times_ns for s in fitted]), np.abs([s.values for s in fitted])
        popt, pcov, failures = _fit_gaussians(t, c, inside, [p0 for *_, p0 in windows])
        for s, distance, p, cov, failure in zip(fitted, distances, popt, pcov, failures):
            if failure is not None:
                raise ValueError(f"Gaussian front fit did not converge: {failure}")
            center = float(p[1])
            if not s.times_ns[0] <= center <= s.times_ns[-1]:
                raise ValueError(f"fitted front centre {center:.1f} ns lies outside the sampled range")
            err = float(np.sqrt(cov[1, 1])) if np.isfinite(cov[1, 1]) else float("inf")
            fronts.append(FrontFit(distance, center, err, float(p[0]), abs(float(p[2])), float(p[3])))
    if error is not None:
        raise error
    return tuple(fronts)


def fit_gaussian_front(series: CorrelationSeries, distance: float) -> FrontFit:
    """Locate the propagation front as the centre of a Gaussian fitted to |C|(t).

    The fit is restricted to the first lobe whose height above the baseline
    (the median of the first tenth of the samples, at least 3) reaches
    FRONT_LOBE_FRACTION of max|C|'s height above it; later revival lobes of
    the correlation signal would otherwise capture the fit at long distances,
    and an offset in the series would make its first sample the lobe. The
    batch of one of `fit_gaussian_fronts`.
    """
    return fit_gaussian_fronts([series], [distance])[0]


def unweighted_distances(fronts) -> tuple:
    """Distances of the fronts whose time error is not finite and positive.

    Any such front makes `fit_velocity` fall back to an unweighted fit.
    """
    return tuple(f.distance for f in fronts if not (np.isfinite(f.peak_time_err_ns) and f.peak_time_err_ns > 0))


def fit_velocity(fronts) -> tuple[float, float]:
    """Propagation velocity in sites/us from a line through (peak time, distance).

    Weighted by 1/err^2 on the front times; falls back to an unweighted fit
    when any front's error is degenerate (see `unweighted_distances`). The
    returned uncertainty is the residual-scaled standard error of the slope.
    The 2x2 weighted fit is solved in closed form about the weighted mean
    time, in Python floats with exactly rounded sums (`math.fsum`), so no
    BLAS or LAPACK kernel touches it.
    """
    fronts = list(fronts)
    if len(fronts) < 2:
        raise ValueError("need at least two fronts to fit a velocity")
    d = [float(f.distance) for f in fronts]
    t_us = [f.peak_time_ns * 1e-3 for f in fronts]
    errs = [f.peak_time_err_ns * 1e-3 for f in fronts]
    if len(set(d)) < 2:
        raise ValueError("fronts must span at least two distinct distances")
    w = [1.0] * len(fronts) if unweighted_distances(fronts) else [1.0 / (e * e) for e in errs]
    total = math.fsum(w)
    t_mean = math.fsum(wi * ti for wi, ti in zip(w, t_us)) / total
    d_mean = math.fsum(wi * di for wi, di in zip(w, d)) / total
    dt = [ti - t_mean for ti in t_us]
    sxx = math.fsum(wi * x * x for wi, x in zip(w, dt))
    if len(set(t_us)) < 2 or not sxx > 0.0:
        raise ValueError("velocity fit is singular (degenerate front times)")
    velocity = math.fsum(wi * x * (di - d_mean) for wi, x, di in zip(w, dt, d)) / sxx
    residuals = [di - d_mean - velocity * x for x, di in zip(dt, d)]
    chi2 = math.fsum(wi * r * r for wi, r in zip(w, residuals))
    dof = len(fronts) - 2
    scale = chi2 / dof if dof > 0 else 0.0
    # the slope's variance is inv(A^T W A)[0, 0] = 1 / sxx
    return velocity, math.sqrt(max(scale / sxx, 0.0))


def lr_bound(j_eff_mhz: float, u_mhz: float) -> float:
    """Maximal group velocity (sites/us) for the 2D hard-core hopping model.

    The hopping rate enters as an angular frequency; the anharmonic correction
    depends only on the J/U ratio.
    """
    if u_mhz == 0:
        raise ValueError("on-site interaction must be nonzero")
    j_ang = TWO_PI * j_eff_mhz
    return 2.0 * SQRT2 * j_ang * (1.0 - 16.0 * j_eff_mhz**2 / (9.0 * u_mhz**2))


def _window_fronts(fronts, d0: float, window: float = 3.0 * SQRT2) -> list:
    return [f for f in fronts if d0 - 1e-9 <= f.distance <= d0 + window + 1e-9]


def instantaneous_velocity(fronts, d0: float, window: float = 3.0 * SQRT2) -> tuple[float, float]:
    """fit_velocity restricted to fronts with d0 <= distance <= d0 + window."""
    sel = _window_fronts(fronts, d0, window)
    if len(sel) < 4:
        raise ValueError(f"only {len(sel)} fronts inside the window starting at d0={d0:.3f}")
    return fit_velocity(sel)


# ---------------------------------------------------------------------------
# fringe grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeStats:
    visibility: float
    variance: float
    mean: float


def fringe_stats(grid) -> FringeStats:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty fringe grid")
    if np.all(grid == 0):
        raise ValueError("all-zero fringe grid")
    gmax, gmin = float(grid.max()), float(grid.min())
    if gmax + gmin == 0:
        raise ValueError("visibility undefined: grid maximum and minimum cancel")
    return FringeStats(
        visibility=(gmax - gmin) / (gmax + gmin),
        variance=float(grid.var()),
        mean=float(grid.mean()),
    )


def fringe_axis_variance(grid, axis: int = 1) -> float:
    """Mean variance along one grid axis; isolates structure driven by that knob."""
    grid = np.asarray(grid, dtype=float)
    return float(np.var(grid, axis=axis).mean())


def sign_alternations(grid, axis: int, threshold: float) -> int:
    """Largest number of sign flips of significant successive differences
    along lines of the grid; interference fringes alternate, smooth
    transmission decay does not."""
    grid = np.asarray(grid, dtype=float)
    lines = grid.T if axis == 0 else grid
    worst = 0
    for line in lines:
        diffs = [d for d in np.diff(line) if abs(d) > threshold]
        flips = sum(1 for a, b in zip(diffs, diffs[1:]) if np.sign(a) != np.sign(b))
        worst = max(worst, flips)
    return worst


def interaction_signature(two_walker_grid, single_left_grid, single_right_grid) -> np.ndarray:
    """Two-walker fringe grid minus the sum of the single-walker grids.

    Flat (zero) for independent distinguishable walkers; structure here is the
    footprint of the hard-core interaction.
    """
    g2 = np.asarray(two_walker_grid, dtype=float)
    gl = np.asarray(single_left_grid, dtype=float)
    gr = np.asarray(single_right_grid, dtype=float)
    if not (g2.shape == gl.shape == gr.shape):
        raise ValueError("signature grids must share a shape")
    return g2 - (gl + gr)


# ---------------------------------------------------------------------------
# velocity pipelines
# ---------------------------------------------------------------------------

# disorder_velocity_study: 15x15 grid, fronts at diagonals 1..11, windows from
# d0 = sqrt(2)..8*sqrt(2)
STUDY_SIDE = 15
STUDY_TIMES_NS = tuple(np.arange(0.0, 1000.0 + 1e-9, 10.0))
STUDY_DIAGONALS = STUDY_SIDE - 4
STUDY_WINDOWS = 8
# Study cap on disorder realisations: each holds the rows the engine returns
# for it (times x (origin + diagonals), complex128) whole, 1,212 entries
# against the 225 of its state column; 5 * 10**6 entries, as MAX_RUN_ENTRIES,
# is 80 MB of them.
MAX_STUDY_SEEDS = 5 * 10**6 // (len(STUDY_TIMES_NS) * (STUDY_DIAGONALS + 1))

# ctqw_velocity_pipeline: the device walk from the corner qubit, fronts at
# diagonals 1..4
PIPELINE_ORIGIN = "U00Q0"
PIPELINE_TIMES_NS = tuple(np.arange(0.0, 600.0 + 1e-9, 10.0))
PIPELINE_DIAGONALS = 4


def _diagonal_fronts(graph, origin: int, diagonal, offsets, times) -> tuple[tuple, tuple]:
    """Correlation series and Gaussian fronts between one walker's start site
    and each diagonal site, averaged over disorder realisations.

    `offsets` holds the realisations' per-site offsets in MHz, sites x
    realisations (`device.sample_offsets` columns), in `graph.sites` order.
    Every realisation is one column of a single `propagate_block` call over
    the shared hopping matrix. With one walker the pair occupation is zero,
    so the connected correlation is C = 4(0 - p_origin p_site), and a site's
    population is the squared amplitude of the basis row holding the walker
    there; C is averaged over realisations before fitting the k-th site's
    front at k * sqrt(2).
    """
    basis = enumerate_basis(graph.n_sites, 1)
    h0 = build_hamiltonian(graph, basis)
    diagonals = offset_diagonals(basis, offsets)
    block = np.repeat(basis_state(basis, {origin}).amplitudes[:, None], diagonals.shape[1], axis=1)
    # the rows holding the walker on the origin, then on each diagonal site
    rows = row_index(basis.below, np.array([origin, *diagonal])[:, None])
    states = propagate_block(h0.matrix, diagonals, block, times, rows)
    amplitudes = np.array(states)  # times x rows x realisations
    populations = amplitudes.real**2 + amplitudes.imag**2
    # averaged over every realisation; 0.0 - keeps the t = 0 samples +0.0
    acc = (4.0 * (0.0 - (populations[:, :1] * populations[:, 1:]).mean(axis=2))).T
    series = tuple(CorrelationSeries((origin, site), np.array(times), acc[row]) for row, site in enumerate(diagonal))
    return series, fit_gaussian_fronts(series, [(row + 1) * SQRT2 for row in range(len(series))])


@dataclass(frozen=True)
class VelocityPipelineResult:
    velocity: float
    std_err: float
    fronts: tuple
    series: tuple


def ctqw_velocity_pipeline() -> VelocityPipelineResult:
    """Single-walker walk from the corner qubit of the ideal (disorder-free)
    device; correlation fronts along the grid diagonal at
    d = sqrt(2)..4*sqrt(2) and a linear velocity fit."""
    device = default_device()
    graph = active_subgraph(device, device.functional_qubits)
    index = graph.index
    origin = QubitId.parse(PIPELINE_ORIGIN)
    r0, c0 = origin.grid_position
    diagonal = []
    for k in range(1, PIPELINE_DIAGONALS + 1):
        q = QubitId.from_grid(r0 + k, c0 + k)
        if q not in index:
            raise ValueError(f"diagonal site {q} is not active")
        diagonal.append(index[q])
    series, fronts = _diagonal_fronts(graph, index[origin], diagonal, np.zeros((graph.n_sites, 1)), PIPELINE_TIMES_NS)
    velocity, std_err = fit_velocity(fronts)
    return VelocityPipelineResult(velocity, std_err, fronts, series)


@dataclass(frozen=True)
class VelocityStudyResult:
    d0_values: tuple
    velocities: tuple
    std_errs: tuple
    fronts: tuple
    n_seeds: int
    disorder_bound_mhz: float
    unweighted: tuple  # per window, the distances of the fronts that made its fit unweighted


def disorder_velocity_study(n_seeds: int = 32, seed: int = 11000) -> VelocityStudyResult:
    """Instantaneous velocity vs distance on the 15 x 15 lattice under random
    disorder (bound 1.6 MHz, seeds seed..seed + n_seeds - 1).

    Correlation curves between the corner site and each diagonal site are
    averaged over the disorder ensemble before front fitting; the windowed
    velocity then probes how the front speed grows with distance. A window
    holding a front without a usable time error is fitted unweighted, and
    `unweighted` names those fronts' distances.
    """
    if not 1 <= n_seeds <= MAX_STUDY_SEEDS:
        raise ValueError(f"need 1 to MAX_STUDY_SEEDS = {MAX_STUDY_SEEDS} disorder seeds, got {n_seeds}")
    graph = grid_graph(STUDY_SIDE, STUDY_SIDE)
    index = graph.index
    diagonal = [index[(k, k)] for k in range(1, STUDY_DIAGONALS + 1)]
    offsets = np.column_stack(
        [sample_offsets(graph.n_sites, DEFAULT_DISORDER_BOUND_MHZ, seed + s) for s in range(n_seeds)]
    )
    _, fronts = _diagonal_fronts(graph, index[(0, 0)], diagonal, offsets, STUDY_TIMES_NS)
    d0_values = tuple(k0 * SQRT2 for k0 in range(1, STUDY_WINDOWS + 1))
    velocities, std_errs = zip(*(instantaneous_velocity(fronts, d0) for d0 in d0_values))
    unweighted = tuple(unweighted_distances(_window_fronts(fronts, d0)) for d0 in d0_values)
    return VelocityStudyResult(
        d0_values, velocities, std_errs, fronts, n_seeds, DEFAULT_DISORDER_BOUND_MHZ, unweighted
    )
