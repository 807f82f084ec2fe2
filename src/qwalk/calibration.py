"""Device calibration against simulated twins with hidden disorders:
multi-qubit swap data (every centre of a twin simulated in one star stack),
disorder-map recovery (multi-start, in growing time windows: Nelder-Mead,
ported from SciPy, on the first window, then `optimize.levenberg_marquardt`,
the numpy Levenberg-Marquardt the front fits share, on each longer one,
stopped at MINPACK's cost tolerance; a start above its acceptance cost on the
window ending at the last of STAGE_ENDS_NS is rejected there),
iterative frequency alignment, and interferometer optimization (SciPy's
L-BFGS-B on the fit's kernel, the one SciPy optimizer left, imported on use).
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .device import (
    ActiveGraph,
    DeviceModel,
    DisorderMap,
    QubitId,
    active_subgraph,
    rng_stream,
)
from .hamiltonian import TWO_PI, build_hamiltonian
from .optimize import levenberg_marquardt
from .scenarios import MAX_SHOTS, MZLayout, _is_int
from .sector import enumerate_basis, row_index

__all__ = [
    "CalibrationError",
    "NelderMeadResult",
    "nelder_mead",
    "CalibrationTwin",
    "SwapDataset",
    "generate_swap_data",
    "generate_swap_datasets",
    "DisorderFit",
    "fit_disorder_map",
    "AlignmentResult",
    "alignment_loop",
    "InterferometerOptimization",
    "optimize_interferometer",
    "canonical_gauge",
]


class CalibrationError(RuntimeError):
    def __init__(self, message: str, best=None, cost=None):
        super().__init__(message)
        self.best = best  # the best map found, if any
        self.cost = cost  # and its cost


# Nelder-Mead iteration cap, and the iterations between recorded history entries
MAX_ITERATIONS = 20000
RECORD_EVERY = 50
# Initial simplex size of the disorder fit's Nelder-Mead stage
SIMPLEX_SCALE_MHZ = 0.8

# Disorder-fit start budget: the swap-data cost surface has local minima.
# Start 0 is the zero map, later starts are uniform in +-START_SPREAD_MHZ.
N_STARTS = 60
START_SPREAD_MHZ = 1.6
# Noiseless fits are accepted at or below this cost.
EARLY_STOP_COST = 1e-9
# Ends (ns) of the disorder fit's time windows before the full data:
# Nelder-Mead fits the data up to the first end, Levenberg-Marquardt the data
# up to each later end and then all of it.
STAGE_ENDS_NS = (100.0, 200.0, 400.0)

# The disorder fit's Nelder-Mead stage only has to reach the global basin; it
# stops at this simplex spread and the Levenberg-Marquardt stages finish.
GLOBAL_COST_SPREAD = 1e-2
GLOBAL_PARAM_SPREAD_MHZ = 0.3
# A fit to shot data is accepted when its cost is within this multiple of the
# data's estimated shot-noise cost.
NOISE_COST_MULTIPLE = 1.5
# The Levenberg-Marquardt stages stop once a step would lower the cost by at
# most this fraction of it: MINPACK's default ftol, sqrt(eps) (More, Garbow &
# Hillstrom, User Guide for MINPACK-1, ANL-80-74, 1980). A start stuck in a
# local minimum then stops where its cost has gone flat, instead of crawling
# on at the fronts' far tighter LM_COST_TOL until its damping underflows.
STAGE_COST_TOL = math.sqrt(np.finfo(float).eps)


@dataclass
class NelderMeadResult:
    x: np.ndarray
    fun: float
    n_evaluations: int
    n_iterations: int
    converged: bool
    history: list = field(default_factory=list)  # (iteration, best cost, best x)


def nelder_mead(f, x0) -> NelderMeadResult:
    """Nelder-Mead (Nelder & Mead 1965) from x0 plus SIMPLEX_SCALE_MHZ along
    each coordinate.

    A line-for-line port of SciPy 1.17's `_minimize_neldermead` for the one
    configuration the disorder fit uses: a given initial simplex, reflection,
    expansion, contraction and shrink coefficients 1, 2, 0.5 and 0.5, no
    bounds and no evaluation cap. It sorts and averages the simplex in SciPy's
    order, so its iterates, counts and history are SciPy's bit for bit
    (`tests/test_calibration.py` holds SciPy as the oracle).

    Stops once the simplex's parameter spread and cost spread are within
    GLOBAL_PARAM_SPREAD_MHZ and GLOBAL_COST_SPREAD (SciPy's `xatol` and
    `fatol`), or after MAX_ITERATIONS (`maxiter`). The history holds the best
    point after iteration 1 and every RECORD_EVERY-th iteration, then the
    final point; `n_iterations` and `n_evaluations` are SciPy's `nit` and
    `nfev`.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5  # SciPy's non-adaptive coefficients
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.vstack([x0, x0 + SIMPLEX_SCALE_MHZ * np.eye(n)])
    fsim = np.array([f(x) for x in sim], dtype=float)
    n_evaluations = n + 1
    for _ in range(2):  # SciPy sorts the starting simplex twice
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    history = []
    iterations = 1
    while iterations < MAX_ITERATIONS:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= GLOBAL_PARAM_SPREAD_MHZ
                and np.max(np.abs(fsim[0] - fsim[1:])) <= GLOBAL_COST_SPREAD):
            break

        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        n_evaluations += 1
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            n_evaluations += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contraction outside the simplex
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                n_evaluations += 1
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:  # contraction inside
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                n_evaluations += 1
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
                n_evaluations += n
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
        passes = iterations - 1  # where SciPy calls its callback
        if passes == 1 or passes % RECORD_EVERY == 0:
            history.append((passes, float(fsim[0]), sim[0].copy()))

    fun = float(np.min(fsim))
    history.append((iterations, fun, sim[0].copy()))
    return NelderMeadResult(sim[0], fun, n_evaluations, iterations, iterations < MAX_ITERATIONS, history)


# ---------------------------------------------------------------------------
# twin experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationTwin:
    """A simulated device with a hidden disorder map standing in for hardware.

    Calibration routines may only query it through experiment-shaped
    interfaces; the hidden map is reserved for validation.
    """

    device: DeviceModel
    hidden: DisorderMap
    n_shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_shots is not None and not (_is_int(self.n_shots) and 0 < self.n_shots <= MAX_SHOTS):
            raise ValueError(
                f"n_shots must be a positive integer up to MAX_SHOTS = {MAX_SHOTS}, or None, got {self.n_shots!r}"
            )


@dataclass(frozen=True)
class SwapDataset:
    center: QubitId  # the site the walker is released on
    graph: ActiveGraph  # a swap star has the centre as site 0 and edges (0, k, j_eff) to its neighbours
    times_ns: tuple
    populations: np.ndarray  # n_sites x n_times, in graph.sites order
    n_shots: int | None = None  # shots per population estimate; None for noiseless data


def _star_graph(twin: CalibrationTwin, center: QubitId) -> ActiveGraph:
    """The centre's star graph, built once per twin (and with it the cached
    site-order hopping), however many swap experiments run on it."""
    stars = twin.__dict__.setdefault("_star_graphs", {})
    if center not in stars:
        device = twin.device
        neighbours = device.neighbors(center)
        if not neighbours:
            raise ValueError(f"qubit {center} has no functional couplings")
        sites = (center, *neighbours)
        edges = tuple((0, k, device.edge(center, q).j_eff_mhz) for k, q in enumerate(neighbours, start=1))
        stars[center] = ActiveGraph(sites, edges)
    return stars[center]


def _site_hopping(graph: ActiveGraph) -> np.ndarray:
    """Dense one-walker hopping matrix in site order, built once per graph."""
    hopping = graph.__dict__.get("_site_hopping")
    if hopping is None:
        basis = enumerate_basis(graph.n_sites, 1)
        rows = row_index(basis.below, np.arange(graph.n_sites)[:, None])  # the walker on site j is basis row rows[j]
        hopping = build_hamiltonian(graph, basis).to_dense()[np.ix_(rows, rows)]
        object.__setattr__(graph, "_site_hopping", hopping)
    return hopping


def single_excitation_populations(graph: ActiveGraph, offsets_mhz, source_idx: int, times_ns) -> np.ndarray:
    """Site populations (n_sites x n_times) of one walker released on row
    `source_idx` of a graph, with one detuning per site in `graph.sites` order:
    the residuals of a zero-data `_SwapResiduals`, the one spectral kernel."""
    times_ns = tuple(times_ns)
    ds = SwapDataset(graph.sites[source_idx], graph, times_ns, np.zeros((graph.n_sites, len(times_ns))))
    kernel = _SwapResiduals([ds], {q: k for k, q in enumerate(graph.sites)})
    return kernel.evaluate(np.asarray(offsets_mhz, dtype=float))[0].reshape(graph.n_sites, len(times_ns))


def generate_swap_datasets(
    twin: CalibrationTwin,
    centers,
    correction: DisorderMap | None = None,
    times_ns=None,
) -> tuple:
    """One swap experiment per centre, in order: excite the centre qubit, let
    it swap with its coupled neighbours, and record all populations. The
    twin's hidden disorder (plus any applied correction) detunes each star;
    shot noise is added when the twin asks, from one stream per centre.

    Every star is simulated by one zero-data `_SwapResiduals` over all the
    centres (one `_StarStack`, one batched `eigh`); a star's populations are
    bit for bit those of its batch of one, `generate_swap_data`."""
    times_ns = tuple(times_ns) if times_ns is not None else tuple(np.arange(0.0, 1000.1, 10.0))
    centers = list(centers)
    if not centers:
        return ()
    graphs = [_star_graph(twin, center) for center in centers]
    correction = correction or DisorderMap()
    sites = sorted({q for graph in graphs for q in graph.sites})
    empty = [SwapDataset(c, g, times_ns, np.zeros((g.n_sites, len(times_ns)))) for c, g in zip(centers, graphs)]
    kernel = _SwapResiduals(empty, {q: k for k, q in enumerate(sites)})
    simulated = kernel.evaluate(np.array([twin.hidden.get(q) + correction.get(q) for q in sites]))[0]
    datasets, row = [], 0
    for center, graph in zip(centers, graphs):
        pops = simulated[row : row + graph.n_sites * len(times_ns)].reshape(graph.n_sites, len(times_ns))
        row += pops.size
        if twin.n_shots is not None:
            rng = rng_stream(twin.seed, 0xCA, zlib.crc32(center.label.encode()))
            pops = rng.binomial(twin.n_shots, np.clip(pops, 0.0, 1.0)) / twin.n_shots
        datasets.append(SwapDataset(center, graph, times_ns, pops, twin.n_shots))
    return tuple(datasets)


def generate_swap_data(
    twin: CalibrationTwin,
    center: QubitId,
    correction: DisorderMap | None = None,
    times_ns=None,
) -> SwapDataset:
    """The swap experiment on one centre: the batch of one of
    `generate_swap_datasets`."""
    return generate_swap_datasets(twin, [center], correction, times_ns)[0]


def canonical_gauge(offsets: dict) -> dict:
    """Fix the two unobservable degrees of freedom of a disorder map.

    Swap populations are invariant under a global offset shift (rotating
    frame) and, on bipartite graphs, under a global sign flip; centre to zero
    mean and make the largest-magnitude entry positive.
    """
    keys = sorted(offsets, key=str)
    vals = np.array([offsets[k] for k in keys], dtype=float)
    vals = vals - vals.mean()
    if len(vals) and vals[int(np.argmax(np.abs(vals)))] < 0:
        vals = -vals
    return {k: float(v) for k, v in zip(keys, vals)}


@dataclass
class DisorderFit:
    disorder: DisorderMap
    cost: float
    overall_distance: float  # cost of the zero map
    # cost evaluations of Nelder-Mead, plus the trial evaluations and the
    # Jacobians (the start's included) of every Levenberg-Marquardt stage run,
    # over all starts; a start rejected on its STAGE_ENDS_NS[-1] window runs no full-data stage
    n_evaluations: int
    # the accepted start's Nelder-Mead history on the first window, then one
    # (iteration, cost on its window, x) per Levenberg-Marquardt stage, the full data last
    history: list
    n_starts: int  # starts drawn, the accepted one last
    accept_cost: float


# A time grid counts as uniform, and its phases are factored, when each of its
# times lies within this many ulps (of the largest time) of t0 + j dt.
UNIFORM_GRID_ULPS = 4
# An eigenvalue pair with |w_m - w_n| max|t| / 2 below this takes the
# Jacobian's limit form, its sinc a Taylor series through x^8 (truncation
# under 3e-15); a wider pair's divided difference of two phases loses at most
# about |w| max|t| / 0.4 ulps, 100 on the swap data.
SINC_SERIES_BELOW = 0.2


def _phase_steps(t_us: np.ndarray) -> tuple:
    """Giant steps g and baby steps b whose sums g_a + b_b, giant-major, begin
    with the times t_us, so that e^{-iwt} is a giant-step table times a
    baby-step table.

    A uniform grid t_j = t0 + j dt of T times takes B = ceil(sqrt(T)) baby
    steps b dt and ceil(T / B) giant steps t0 + a B dt: about 2 sqrt(T)
    phases per eigenvalue instead of T. Any other grid is the B = 1 case: its
    times are the giant steps and the one baby step is 0.
    """
    n_t = len(t_us)
    if n_t > 1:
        dt = (t_us[-1] - t_us[0]) / (n_t - 1)
        drift = np.max(np.abs(t_us[0] + dt * np.arange(n_t) - t_us))
        if drift <= UNIFORM_GRID_ULPS * np.spacing(np.max(np.abs(t_us))):
            n_baby = math.isqrt(n_t - 1) + 1
            return t_us[0] + dt * (n_baby * np.arange(-(-n_t // n_baby))), dt * np.arange(n_baby)
    return t_us, np.zeros(1)


def _unit_phases(w: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """e^{-i w s} for every eigenvalue w and step s (... x len(steps))."""
    angles = w[..., None] * -steps
    table = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=table.real)
    np.sin(angles, out=table.imag)
    return table


class _StarStack:
    """The datasets of one time grid, zero-padded to the largest star's size.

    Pad sites have zero hopping and a zero diagonal, so they decouple exactly;
    they are masked out of the residuals and map to no parameter. Each star
    keeps its own source row.
    """

    def __init__(self, members, pos: dict, times_ns):
        sizes = np.array([ds.graph.n_sites for ds in members])
        n_stars, n = len(members), int(sizes.max())
        self.real = np.arange(n) < sizes[:, None]  # stars x sites: which sites are not padding
        star, site = np.nonzero(self.real)
        self.param = np.array([pos[q] for ds in members for q in ds.graph.sites])  # x entry of each real site
        self.diag = (star * n + site) * n + site  # flat positions of the real sites' diagonal entries
        self.hopping = np.zeros((n_stars, n, n))
        for s, ds in enumerate(members):
            self.hopping[s, : sizes[s], : sizes[s]] = _site_hopping(ds.graph)
        self.scatter = np.zeros((n_stars, n, len(pos)))  # site k of star s -> its column of x
        self.scatter[star, site, self.param] = 1.0
        self.source = (np.arange(n_stars), np.array([ds.graph.index[ds.center] for ds in members]))
        self.data = np.concatenate([ds.populations for ds in members])  # real sites x times
        self.t_us = 1e-3 * np.asarray(times_ns, dtype=float)
        self.rows = (np.flatnonzero(self.real)[:, None] * len(self.t_us) + np.arange(len(self.t_us))).ravel()
        self.t_max = np.max(np.abs(self.t_us), initial=0.0)
        giant, baby = _phase_steps(self.t_us)
        self.steps = np.concatenate((giant, baby))
        self.n_giant = len(giant)
        self._work = None

    def amplitudes(self, x) -> tuple:
        """Eigenpairs of the stacked Hamiltonians, their phase table (stars x
        sites x giant then baby steps) and the amplitudes (stars x sites x
        2 n_giant n_baby, real and imaginary parts interleaved; the first 2T
        columns are the grid's times)."""
        h = self.hopping.copy()
        h.flat[self.diag] = TWO_PI * x[self.param]
        w, v = np.linalg.eigh(h)
        table = _unit_phases(w, self.steps)
        c = v[self.source]  # source overlaps <m|source>
        phases = (table[..., : self.n_giant] * c[..., None])[..., None] * table[..., None, self.n_giant :]
        return w, v, table, v @ phases.reshape(*c.shape, -1).view(float)

    def residuals(self, amplitudes) -> np.ndarray:
        squares = np.square(amplitudes[..., : 2 * len(self.t_us)])
        return ((squares[..., ::2] + squares[..., 1::2])[self.real] - self.data).ravel()

    def _phases(self, table) -> np.ndarray:
        """The times' phases (stars x sites x times) from a giant/baby table."""
        n_stars, n, _ = table.shape
        product = table[..., : self.n_giant, None] * table[..., None, self.n_giant :]
        return product.reshape(n_stars, n, -1)[..., : len(self.t_us)]

    def _workspace(self) -> tuple:
        """The Jacobian's stars x sites x sites x times work arrays, made on
        first use and reused: freeing and faulting in a fresh 2 MB of them on
        every call (on the 3x3 fit) cost as much as the arithmetic."""
        if self._work is None:
            (n_stars, n), n_t = self.real.shape, len(self.t_us)
            self._work = (
                np.zeros((n_stars, n, n, n_t), dtype=complex),  # near-pair F, zero between calls
                np.empty((n_stars, n * n, 2 * n_t)),
                np.empty((n_stars, n, n, 2 * n_t)),
                np.empty((n_stars, n, n, n_t)),
                np.empty((n_stars, n * n_t, self.scatter.shape[2])),
            )
        return self._work

    def jacobian(self, w, v, table, amplitudes, out) -> None:
        """d residual / d x from one eigenbasis, into `out` (the stack's
        residual rows); see `_SwapResiduals`."""
        n_stars, n = w.shape
        n_t = len(self.t_us)
        limit, y, da, dp, jac = self._workspace()
        c = v[self.source]
        weights = (2.0 * TWO_PI) * v * c[:, None, :]  # 4 pi V_kn V_sn, stars x k x n
        delta = w[:, :, None] - w[:, None, :]
        near = np.abs(delta) * (0.5 * self.t_max) < SINC_SERIES_BELOW
        # far pairs: y_km = sum_n weights_kn (P_n - P_m) / (w_n - w_m), one matmul over the phases P
        inverse = np.where(near, 0.0, 1.0 / np.where(near, 1.0, delta))
        mixing = weights[:, :, None, :] * inverse.transpose(0, 2, 1)[:, None]  # stars x k x m x n
        diagonal = np.arange(n)
        mixing[:, :, diagonal, diagonal] -= weights @ inverse
        phases = np.ascontiguousarray(self._phases(table))
        np.matmul(mixing.reshape(n_stars, n * n, n), phases.view(float), out=y)
        # near pairs, the diagonal among them: -i t e^{-i (w_n + w_m) t / 2} sinc((w_n - w_m) t / 2)
        star, row, col = pairs = np.nonzero(near)
        half = self._phases(_unit_phases(w, 0.5 * self.steps))
        x2 = np.square((0.5 * delta[pairs])[:, None] * self.t_us)
        sinc = 1 - x2 / 6 * (1 - x2 / 20 * (1 - x2 / 42 * (1 - x2 / 72)))
        limit[pairs] = (-1j * self.t_us) * sinc * half[star, row] * half[star, col]
        near_part = np.matmul(weights, limit.reshape(n_stars, n, -1).view(float), out=da.reshape(n_stars, n, -1))
        y += near_part.reshape(y.shape)
        limit[pairs] = 0.0
        # d amplitude_i / d x_k = sum_m V_im V_km y_km; d population = 2 Re(conj(amplitude) d amplitude)
        np.matmul(v[:, None, :, :] * v[:, :, None, :], y.reshape(da.shape), out=da)  # stars x k x i x interleaved times
        da *= amplitudes[:, None, :, : 2 * n_t]
        np.add(da[..., ::2], da[..., 1::2], out=dp)
        np.matmul(dp.reshape(n_stars, n, -1).transpose(0, 2, 1), self.scatter, out=jac)
        np.take(jac.reshape(-1, jac.shape[2]), self.rows, axis=0, out=out, mode="clip")  # unbuffered


class _SwapResiduals:
    """Simulated minus measured populations of a set of datasets (zero data:
    the populations), as a function of the parameter vector x (MHz, one entry
    per qubit), and their Jacobian.

    The walker starts on row `graph.index[center]` (0 for a star). Datasets
    with the same time grid form one `_StarStack`, built once per fit: every
    star zero-padded to the largest star's size, so an evaluation makes one
    batched `eigh` over all of them. The Hamiltonians are real symmetric, so
    the amplitudes are one real matmul on the interleaved real and imaginary
    parts of V (e^{-iWt} o c), c the source overlaps, with the phases from a
    giant-step table times a baby-step table (`_phase_steps`). Residuals run
    over the time grids in order of first appearance, then dataset, site and
    time.

    The Jacobian: dH/dx_k = 2 pi e_k e_k^T, and the derivative of exp(-iHt)
    along E is V (F(t) o V^T E V) V^T with the divided differences
    F_mn(t) = (e^{-i w_m t} - e^{-i w_n t}) / (w_m - w_n)
            = -i t e^{-i (w_m + w_n) t / 2} sinc((w_m - w_n) t / 2),
    whose degenerate limit is -i t e^{-i w t}. A pair far apart takes the
    first form from the phase table; a near pair (SINC_SERIES_BELOW), the
    diagonal among them, takes the second, its mean phase from the half-angle
    table e^{-i w t / 2} and its sinc from a series. Then
    d amplitude_i / d x_k = 2 pi sum_m V_im V_km sum_n V_kn V_sn F_nm (s the
    source row) and d population = 2 Re(conj(amplitude) d amplitude).
    """

    end_ns = None  # the end of a `_stage_kernels` window its datasets were cut to; None for uncut data

    def __init__(self, datasets, pos: dict):
        self.datasets = tuple(datasets)
        grouped = {}
        for ds in self.datasets:
            grouped.setdefault(tuple(ds.times_ns), []).append(ds)
        self.n_params = len(pos)
        self.stacks = [_StarStack(members, pos, times) for times, members in grouped.items()]

    @cached_property
    def accept_cost(self) -> float:
        """The disorder fit accepts a cost on these data at or below
        EARLY_STOP_COST plus NOISE_COST_MULTIPLE times their estimated
        shot-noise cost."""
        return EARLY_STOP_COST + NOISE_COST_MULTIPLE * sum(_shot_noise_cost(ds) for ds in self.datasets)

    def evaluate(self, x) -> tuple:
        """The residuals at x, one point or a batch of one, shaped as it is,
        and a callable of no arguments that gives the Jacobian there (shaped
        x's batch, then residuals x parameters) from the same eigenbasis per
        time grid."""
        amplitudes = [stack.amplitudes(np.asarray(x, dtype=float).reshape(self.n_params)) for stack in self.stacks]
        r = np.concatenate([stack.residuals(ev[3]) for stack, ev in zip(self.stacks, amplitudes)])
        batch = np.shape(x)[:-1]

        def jacobian():
            jac = np.empty((r.size, self.n_params))
            row = 0
            for stack, (w, v, table, stack_amplitudes) in zip(self.stacks, amplitudes):
                stack.jacobian(w, v, table, stack_amplitudes, out=jac[row : row + stack.data.size])
                row += stack.data.size
            return jac.reshape(*batch, *jac.shape)

        return r.reshape(*batch, -1), jacobian

    def cost(self, x) -> float:
        r = self.evaluate(x)[0]
        return float(r @ r)


def _shot_noise_cost(ds: SwapDataset) -> float:
    """Expected summed squared shot noise of a dataset, estimated from its own
    populations: sum p(1-p)/n, with the unbiased p^(1-p^)/(n-1) for p(1-p)."""
    if ds.n_shots is None:
        return 0.0
    p = ds.populations
    return float(np.sum(p * (1.0 - p))) / (ds.n_shots - 1)


def _stage_kernels(datasets, pos: dict) -> list:
    """One `_SwapResiduals` per stage of the disorder fit: the datasets cut to
    their times up to each of STAGE_ENDS_NS (the kernel's `end_ns`), then
    whole. A cut that holds no times, or the same times as the next one, is
    dropped; a dataset left with no times sits out its stage."""
    kernels, later = [_SwapResiduals(datasets, pos)], [len(ds.times_ns) for ds in datasets]
    for end in reversed(STAGE_ENDS_NS):
        keep = [np.asarray(ds.times_ns, dtype=float) <= end for ds in datasets]
        counts = [int(k.sum()) for k in keep]
        if any(counts) and counts != later:
            cut = [
                SwapDataset(ds.center, ds.graph, tuple(np.asarray(ds.times_ns)[k]), ds.populations[:, k], ds.n_shots)
                for ds, k, n in zip(datasets, keep, counts) if n
            ]
            kernels.append(_SwapResiduals(cut, pos))
            kernels[-1].end_ns = end
            later = counts
    return kernels[::-1]


def fit_disorder_map(datasets) -> DisorderFit:
    """Search for the disorder map whose simulated swap data best match the
    given datasets (summed squared distance over all qubits and times).

    The fit continues in time windows (`_stage_kernels`): each start runs
    Nelder-Mead to a loose stop (GLOBAL_COST_SPREAD, GLOBAL_PARAM_SPREAD_MHZ)
    on the data up to the first of STAGE_ENDS_NS, then Levenberg-Marquardt
    (`optimize.levenberg_marquardt`, which the front fits share, on the
    kernel's `evaluate` and its analytic Jacobian, stopped at
    STAGE_COST_TOL) on each longer window in turn, each
    from the last stage's point, and last on the full data; a short window's
    cost has fewer local minima. When the data hold one window only,
    Nelder-Mead and the Levenberg-Marquardt polish both run on it.

    A window's acceptance cost is EARLY_STOP_COST plus NOISE_COST_MULTIPLE
    times its data's estimated shot-noise cost. A start whose
    Levenberg-Marquardt stage on the window ending at STAGE_ENDS_NS[-1]
    stops above that window's acceptance cost is rejected there, without
    its full-data stage: at that window a start's cost already tells a
    local minimum from the planted map, at the earlier ones it does not.
    Only the full data can accept a start: the first start whose full-data
    polish stops within the acceptance cost is the fit; a polish that gives
    up (singular normal equations, which the gauge direction can make, or
    no stop) leaves its start unaccepted, and an earlier stage that gives up
    hands its point on. Starts come from one fixed stream, at most N_STARTS
    of them; if none is accepted, the start rejected early with the lowest
    window cost is polished on the full data too, and the fit raises
    CalibrationError with the best full-data and the zero-map costs.

    The returned map is gauge-fixed by canonical_gauge; the physical sign is
    resolved experimentally by alignment_loop.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("no swap datasets given")
    if any(ds.n_shots is not None and ds.n_shots < 2 for ds in datasets):
        raise ValueError("n_shots must be at least 2 for a disorder fit: single-shot data give no noise estimate")
    qubits = sorted({q for ds in datasets for q in ds.graph.sites})
    kernels = _stage_kernels(datasets, {q: i for i, q in enumerate(qubits)})
    coarse_kernel, polish_kernels, full_kernel = kernels[0], kernels[1:] or kernels, kernels[-1]
    accept_cost = full_kernel.accept_cost
    total_evals = 0

    def polish(kernel, x, history):
        """Levenberg-Marquardt on one window from x; its end point and cost
        go on the start's history. Gives the point, its cost and why the
        stage gave up (None if it stopped)."""
        nonlocal total_evals
        fit = levenberg_marquardt(kernel.evaluate, x[None], STAGE_COST_TOL)
        x, r = fit.p[0], fit.residuals[0]
        cost = float(r @ r)
        total_evals += fit.n_trials[0] + fit.n_jacobians[0]
        history.append((history[-1][0] + fit.n_trials[0], cost, x.copy()))
        return x, cost, fit.failure[0]

    rng = rng_stream(0xF17)
    best = None  # (cost, x, history, failure) of the accepted start, or of the cheapest on the full data
    stopped = None  # (cost, x, history) of the start rejected before the full data at the lowest cost
    accepted = False
    for start in range(N_STARTS):
        x0 = np.zeros(len(qubits)) if start == 0 else rng.uniform(-START_SPREAD_MHZ, START_SPREAD_MHZ, len(qubits))
        coarse = nelder_mead(coarse_kernel.cost, x0)
        history, x = list(coarse.history), coarse.x
        total_evals += coarse.n_evaluations
        for kernel in polish_kernels:
            x, cost, failure = polish(kernel, x, history)
            if kernel.end_ns == STAGE_ENDS_NS[-1] and cost > kernel.accept_cost:
                break
        if kernel is not full_kernel:  # rejected before the full data
            if stopped is None or cost < stopped[0]:
                stopped = (cost, x, history)
            continue
        accepted = failure is None and cost <= accept_cost
        if accepted or best is None or cost < best[0]:
            best = (cost, x, history, failure)
        if accepted:
            break
    if not accepted and stopped is not None:
        _, x, history = stopped
        x, cost, failure = polish(full_kernel, x, history)
        if best is None or cost < best[0]:
            best = (cost, x, history, failure)
    cost, x, history, failure = best
    fitted = DisorderMap(canonical_gauge({q: x[k] for k, q in enumerate(qubits)}))
    zero_cost = full_kernel.cost(np.zeros(len(qubits)))
    if not accepted:
        if failure is not None and not cost > accept_cost:
            why = (f"best cost {cost:.3e} within the acceptance cost {accept_cost:.3e}, "
                   f"but its polish gave up: {failure}")
        else:
            why = f"best cost {cost:.3e} above the acceptance cost {accept_cost:.3e}"
        raise CalibrationError(
            f"disorder fit accepted none of {N_STARTS} starts: {why} (zero-map cost {zero_cost:.3e})",
            best=fitted,
            cost=cost,
        )
    return DisorderFit(fitted, cost, zero_cost, total_evals, history, start + 1, accept_cost)


@dataclass
class AlignmentResult:
    correction: DisorderMap
    overall_distances: list
    residual_max_mhz: float
    rounds_run: int
    history: list = field(default_factory=list)  # (round, sign, distance, accepted)


def _overall_distance(twin: CalibrationTwin, correction: DisorderMap, qubits, times_ns) -> float:
    """Summed squared distance between corrected-twin swap data and the
    zero-disorder simulation: `fit_disorder_map`'s `overall_distance` on them."""
    datasets = generate_swap_datasets(twin, qubits, correction, times_ns)
    sites = sorted({q for ds in datasets for q in ds.graph.sites})
    return _SwapResiduals(datasets, {q: i for i, q in enumerate(sites)}).cost(np.zeros(len(sites)))


def alignment_loop(
    twin: CalibrationTwin,
    rounds: int = 5,
    qubits=None,
    times_ns=None,
) -> AlignmentResult:
    """Iterative frequency alignment: fit a disorder map from swap data, try
    both correction signs, keep whichever shrinks the overall distance, and
    repeat until it saturates."""
    if rounds < 1:
        raise ValueError("need at least one round")
    qubits = list(qubits) if qubits is not None else twin.device.functional_qubits
    times_ns = tuple(times_ns) if times_ns is not None else tuple(np.arange(0.0, 1000.1, 10.0))
    correction = DisorderMap({})
    overall = [_overall_distance(twin, correction, qubits, times_ns)]
    history = []
    rounds_run = 0
    for round_no in range(1, rounds + 1):
        rounds_run = round_no
        fit = fit_disorder_map(generate_swap_datasets(twin, qubits, correction, times_ns))
        candidates = []
        for sign in (-1.0, 1.0):
            cand = DisorderMap(
                {q: correction.get(q) + sign * fit.disorder.get(q) for q in qubits}
            )
            candidates.append((sign, cand, _overall_distance(twin, cand, qubits, times_ns)))
        best_sign, best_corr, best_dist = min(candidates, key=lambda item: item[2])
        accepted = best_dist < overall[-1]
        for sign, _cand, dist in candidates:
            history.append((round_no, sign, dist, accepted and sign == best_sign))
        if not accepted:
            break  # saturated: neither sign improves
        correction = best_corr
        overall.append(best_dist)
    residual = canonical_gauge({q: twin.hidden.get(q) + correction.get(q) for q in qubits})
    residual_max = max(abs(v) for v in residual.values()) if residual else 0.0
    return AlignmentResult(correction, overall, residual_max, rounds_run, history)


# ---------------------------------------------------------------------------
# interferometer optimization
# ---------------------------------------------------------------------------


@dataclass
class InterferometerOptimization:
    correction: DisorderMap
    detector_population: float
    initial_detector_population: float
    stage1_product: float
    stage1_history: list
    stage2_history: list


# Interferometer optimization: readout times of the two stages, and the
# arm-end population below which stage 1 counts as failed
STAGE1_TIME_NS = 550.0
STAGE2_TIME_NS = 650.0
STAGE1_FLOOR = 0.02


def optimize_interferometer(twin: CalibrationTwin, layout: MZLayout) -> InterferometerOptimization:
    """Two-step frequency optimization of the interferometer on a twin.

    Step 1 balances the arms: with the recombiner and detector parked, the
    product of the arm-end populations at STAGE1_TIME_NS is maximized. Step 2
    then maximizes the detector population at STAGE2_TIME_NS over all sites.
    Direct one-step optimization tends to a local optimum with one arm blocked.
    Each stage climbs a zero-data `_SwapResiduals` on the stage graph by
    L-BFGS-B, one history entry per iteration.
    """
    from scipy.optimize import minimize  # imported on use: no CLI start-up cost

    layout.validate(twin.device)

    def stage(sites, t_ns):
        """The stage graph's site index, and its site populations at t_ns and
        a callable giving their gradient, as a function of the correction x,
        ordered like `sites`."""
        graph = active_subgraph(twin.device, sites)
        ds = SwapDataset(layout.source, graph, (t_ns,), np.zeros((graph.n_sites, 1)))
        kernel = _SwapResiduals([ds], {q: k for k, q in enumerate(sites)})
        hidden = np.array([twin.hidden.get(q) for q in sites])  # d/dx = d/d(hidden + x)
        return graph.index, lambda x: kernel.evaluate(hidden + x)

    def climb(objective, x0):
        history = []

        def record(intermediate_result):
            history.append((len(history) + 1, float(intermediate_result.fun), intermediate_result.x.copy()))

        return minimize(objective, x0, jac=True, method="L-BFGS-B", callback=record), history

    stage1_sites = tuple(q for q in layout.sites if q not in (layout.recombiner, layout.detector))
    index1, stage1 = stage(stage1_sites, STAGE1_TIME_NS)
    i_l, i_r = index1[layout.left_arm[-1]], index1[layout.right_arm[-1]]

    def arm_product(x):
        pops, jacobian = stage1(x)
        jac = jacobian()
        return -float(pops[i_l] * pops[i_r]), -(pops[i_r] * jac[i_l] + pops[i_l] * jac[i_r])

    res1, history1 = climb(arm_product, np.zeros(len(stage1_sites)))
    pops1 = stage1(res1.x)[0]
    if pops1[i_l] < STAGE1_FLOOR or pops1[i_r] < STAGE1_FLOOR:
        raise CalibrationError(
            f"arm balancing failed: end populations {pops1[i_l]:.4f}/{pops1[i_r]:.4f} below {STAGE1_FLOOR}"
        )

    all_sites = layout.sites
    index2, stage2 = stage(all_sites, STAGE2_TIME_NS)
    i_d = index2[layout.detector]
    x0 = np.array([res1.x[stage1_sites.index(q)] if q in stage1_sites else 0.0 for q in all_sites])
    initial = float(stage2(np.zeros(len(all_sites)))[0][i_d])

    def detector(x):
        pops, jacobian = stage2(x)
        return -float(pops[i_d]), -jacobian()[i_d]

    res2, history2 = climb(detector, x0)
    correction = DisorderMap({q: float(res2.x[k]) for k, q in enumerate(all_sites)})
    return InterferometerOptimization(
        correction=correction,
        detector_population=-float(res2.fun),
        initial_detector_population=initial,
        stage1_product=-float(res1.fun),
        stage1_history=history1,
        stage2_history=history2,
    )

