"""Correlation functions, light-cone front extraction, propagation velocities,
and interference-fringe statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import DisorderMap, QubitId, active_subgraph, default_device, grid_graph, sample_disorder
from .evolution import propagate_block
from .hamiltonian import TWO_PI, build_hamiltonian, disorder_diagonals
from .sector import QuantumState, basis_state, enumerate_basis, lookup

__all__ = [
    "CorrelationSeries",
    "FrontFit",
    "FringeStats",
    "correlation",
    "fit_gaussian_front",
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


def correlation(state: QuantumState, i: int, j: int) -> float:
    """Connected sigma-z correlation between two sites.

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


def _gaussian(t, a, c, w, o):
    return a * np.exp(-((t - c) ** 2) / (2.0 * w**2)) + o


def fit_gaussian_front(series: CorrelationSeries, distance: float) -> FrontFit:
    """Locate the propagation front as the centre of a Gaussian fitted to |C|(t).

    The fit is restricted to the first lobe whose height reaches
    FRONT_LOBE_FRACTION * max|C|; later revival lobes of the correlation signal
    would otherwise capture the fit at long distances.
    """
    from scipy.optimize import curve_fit  # imported on use: no CLI start-up cost

    t = series.times_ns
    c = np.abs(series.values)
    if len(t) < 8:
        raise ValueError("need at least 8 time samples to fit a front")
    cmax = float(np.max(c))
    if cmax <= FRONT_NOISE_FLOOR:
        raise ValueError("no detectable extremum above the noise floor")

    above = np.where(c >= FRONT_LOBE_FRACTION * cmax)[0]
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
    p0 = [peak, float(t[i_peak]), max(fwhm / 2.355, dt), float(np.median(c[: max(3, len(c) // 10)]))]
    try:
        popt, pcov = curve_fit(_gaussian, tw, cw, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise ValueError(f"Gaussian front fit did not converge: {exc}") from None
    center = float(popt[1])
    if not t[0] <= center <= t[-1]:
        raise ValueError(f"fitted front centre {center:.1f} ns lies outside the sampled range")
    err = float(np.sqrt(pcov[1, 1])) if np.isfinite(pcov[1, 1]) else float("inf")
    return FrontFit(
        distance=float(distance),
        peak_time_ns=center,
        peak_time_err_ns=err,
        amplitude=float(popt[0]),
        width_ns=abs(float(popt[2])),
        offset=float(popt[3]),
    )


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
    """
    fronts = list(fronts)
    if len(fronts) < 2:
        raise ValueError("need at least two fronts to fit a velocity")
    d = np.array([f.distance for f in fronts])
    t_us = np.array([f.peak_time_ns for f in fronts]) * 1e-3
    errs = np.array([f.peak_time_err_ns for f in fronts]) * 1e-3
    if len(np.unique(d)) < 2:
        raise ValueError("fronts must span at least two distinct distances")
    degenerate = bool(unweighted_distances(fronts))
    w = np.ones_like(errs) if degenerate else 1.0 / errs**2
    a = np.vstack([t_us, np.ones_like(t_us)]).T
    atw = a.T * w
    try:
        coef = np.linalg.solve(atw @ a, atw @ d)
        cov = np.linalg.inv(atw @ a)
    except np.linalg.LinAlgError:
        raise ValueError("velocity fit is singular (degenerate front times)") from None
    resid = d - a @ coef
    chi2 = float(resid @ (w * resid))
    dof = len(fronts) - 2
    scale = chi2 / dof if dof > 0 else 0.0
    std_err = float(np.sqrt(max(cov[0, 0] * scale, 0.0)))
    return float(coef[0]), std_err


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
STUDY_DISORDER_BOUND_MHZ = 1.6
STUDY_TIMES_NS = tuple(np.arange(0.0, 1000.0 + 1e-9, 10.0))
STUDY_DIAGONALS = STUDY_SIDE - 4
STUDY_WINDOWS = 8

# ctqw_velocity_pipeline: the device walk from the corner qubit, fronts at
# diagonals 1..4
PIPELINE_ORIGIN = "U00Q0"
PIPELINE_TIMES_NS = tuple(np.arange(0.0, 600.0 + 1e-9, 10.0))
PIPELINE_DIAGONALS = 4


def _diagonal_fronts(graph, origin: int, diagonal, disorders, times) -> tuple[tuple, tuple]:
    """Correlation series and Gaussian fronts between one walker's start site
    and each diagonal site, averaged over disorder realisations.

    Every realisation is one column of a single `propagate_block` call over
    the shared hopping matrix. With one walker the pair occupation is zero,
    so the connected correlation is C = 4(0 - p_origin p_site), and a site's
    population is the squared amplitude of the basis row holding the walker
    there; C is averaged over realisations before fitting the k-th site's
    front at k * sqrt(2).
    """
    basis = enumerate_basis(graph.n_sites, 1)
    h0 = build_hamiltonian(graph, basis)
    diagonals = disorder_diagonals(graph, basis, disorders)
    block = np.repeat(basis_state(basis, {origin}).amplitudes[:, None], len(disorders), axis=1)
    rows = lookup(basis.keys, np.eye(graph.n_sites, dtype=bool)[[origin, *diagonal]])

    def population_products(x):
        p = np.abs(x[rows]) ** 2  # origin, then the diagonal sites (x columns)
        return p[0] * p[1:]

    products = propagate_block(h0.matrix, diagonals, block, times, observe=population_products)
    # averaged over every realisation after the call; 0.0 - keeps the t = 0 samples +0.0
    acc = np.column_stack([4.0 * (0.0 - p.mean(axis=1)) for p in products])
    series = tuple(CorrelationSeries((origin, site), np.array(times), acc[row]) for row, site in enumerate(diagonal))
    fronts = tuple(fit_gaussian_front(s, distance=(row + 1) * SQRT2) for row, s in enumerate(series))
    return series, fronts


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
    series, fronts = _diagonal_fronts(graph, index[origin], diagonal, [DisorderMap()], PIPELINE_TIMES_NS)
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
    if n_seeds < 1:
        raise ValueError("need at least one disorder seed")
    graph = grid_graph(STUDY_SIDE, STUDY_SIDE)
    index = graph.index
    diagonal = [index[(k, k)] for k in range(1, STUDY_DIAGONALS + 1)]
    disorders = [sample_disorder(graph.sites, STUDY_DISORDER_BOUND_MHZ, seed + s) for s in range(n_seeds)]
    _, fronts = _diagonal_fronts(graph, index[(0, 0)], diagonal, disorders, STUDY_TIMES_NS)
    d0_values = tuple(k0 * SQRT2 for k0 in range(1, STUDY_WINDOWS + 1))
    velocities, std_errs = zip(*(instantaneous_velocity(fronts, d0) for d0 in d0_values))
    unweighted = tuple(unweighted_distances(_window_fronts(fronts, d0)) for d0 in d0_values)
    return VelocityStudyResult(
        d0_values, velocities, std_errs, fronts, n_seeds, STUDY_DISORDER_BOUND_MHZ, unweighted
    )
