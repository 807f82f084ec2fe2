"""Time evolution: exact unitary propagation in a sector, and Lindblad
master-equation dynamics with per-site T1 / Tphi for small systems.

Unitary propagation has one engine, `propagate_block`: a Chebyshev expansion
of the propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984) applied
to a block of states that share one real hopping matrix and differ only in a
real diagonal per column. Fringe-grid cells and disorder realisations thus
propagate together; a single state is the one-column case. Sample times are
taken in windows of WINDOW_SAMPLES consecutive times, and each window runs one
Chebyshev recurrence from its start state whose terms feed every sample in
it, so a dense time series pays the series' truncation tail once per window
rather than once per sample. Each window is cut at TOLERANCE divided by the
number of windows, which bounds the summed truncation error at the last
sample by TOLERANCE. The Bessel coefficients come from Miller's
backward recurrence in numpy.

A wide block runs in column chunks whose recurrence working set fits
CHUNK_BYTES, each chunk through every window from t = 0. The chunks share
one Gershgorin interval and one cache of coefficient grids, and a column's
arithmetic does not depend on the columns beside it, so the result is
bit-identical to running the block whole. An `observe` callback therefore
sees one chunk at a time and must keep columns on its last axis; the engine
concatenates the chunks' results along it. Reductions over columns (an
ensemble mean) belong after the call.

Times cross the API in ns; internally everything runs in us to match the
rad/us Hamiltonian units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .device import ActiveGraph, DisorderMap
from .hamiltonian import HamiltonianMatrix, build_hamiltonian
from .sector import NORM_TOL, QuantumState, lookup, occupation_row, row_keys

__all__ = [
    "EvolutionError",
    "evolve_unitary",
    "propagate_block",
    "LindbladModel",
    "evolve_lindblad",
    "initial_density",
    "site_populations",
]

NS_TO_US = 1e-3

# Summed Chebyshev truncation error allowed at the last sample of propagate_block
TOLERANCE = 1e-12

# Consecutive sample times per Chebyshev recurrence in propagate_block. Every
# window sample holds one block-sized accumulator, so longer windows trade
# memory for fewer scaled-operator products. Measured per operation of the
# `ensemble` (101 samples, 32 columns, dim 225) and `walk` (dim 1891)
# benchmark workloads, `bench/run.py --seconds 10` on a 2-core x86_64 machine:
#
#   window   products           op_s_p50 (s)                    peak RSS (MiB)
#   samples  ensemble  walk     ensemble      walk              ensemble
#   1        1,100     780      0.108-0.113   0.086-0.091       86.8-87.1
#   4        434       324      0.082-0.089   0.068-0.071       88.0-88.2
#   8        281       216      0.089-0.094   0.065-0.068       89.5
#   16       203       155      0.076-0.097   0.055-0.088       94-106
#
# Sixteen takes the ensemble's peak RSS past 5% of the one-sample engine's.
WINDOW_SAMPLES = 4

# Recurrence working set per column chunk in propagate_block, in bytes. A
# column takes (window samples + 3) x dim complex entries: one per sample
# accumulator and three recurrence terms. Past a few hundred kB a term's pass
# over the block falls out of cache; much smaller chunks pay per-call overhead
# in every product. Measured as the median time of one propagate_block call,
# interleaved over 30 (sweep, ensemble) or 3 (study) runs per budget, on a
# 2-core x86_64 machine (2 MiB L2 per core) with BLAS on one thread; columns
# per chunk in brackets:
#
#   budget    `sweep` block          `ensemble` block      velocity study
#             dim 276 x 121 cells    dim 225 x 32          dim 225 x 512
#             1 sample               101 samples           101 samples
#   256 KiB   34.5 ms [14]           104 ms [8]            1.75 s [11]
#   512 KiB   26.8 ms [25]           65 ms [16]            1.07 s [21]
#   1 MiB     23.6 ms [41]           55 ms [32]            1.09 s [40]
#   2 MiB     25.5 ms [61]           56 ms [32]            1.15 s [74]
#   whole     31.3 ms [121]          55 ms [32]            1.42 s [512]
#
# A one-column block (`walk`) is one chunk under any budget.
CHUNK_BYTES = 1 << 20

# (-i)^k for k mod 4, exact in complex arithmetic
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


class EvolutionError(RuntimeError):
    pass


def _bessel_j(z) -> np.ndarray:
    """J_k(z_j) for k = 0..n-1 at every z_j (len(z) x n), by Miller's backward recurrence.

    J_{k-1} = (2k / a) J_k - J_{k+1} runs down from J_n = 0 at a = |z| for an
    order n = a + 20 a^(1/3) + 30, past the Airy transition of width a^(1/3)
    around k = a, where J_n(a) is below 1e-30. The result is normalised with
    J_0 + 2 sum_k J_2k = 1, and J_k(-z) = (-1)^k J_k(z). Below |z| = 1e-50 the
    two-term series is used, which is exact at z = 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    a = np.abs(z)
    n = int(np.max(a + 20.0 * np.cbrt(a))) + 30
    out = np.zeros((len(z), n))
    for row, (zr, ar) in enumerate(zip(z.tolist(), a.tolist())):
        if ar < 1e-50:
            # J_0 = 1 and J_1 = z / 2 to double precision (J_2 = z^2 / 8 is below
            # 1e-100), exact at z = 0; here 2 / a could overflow the recurrence
            out[row, :2] = 1.0, 0.5 * zr
            continue
        # scalar recurrence: one z at a time costs less than numpy's per-call overhead
        two_over_a = 2.0 / ar
        vals = [0.0] * (n + 1)
        vals[n - 1] = 1.0
        for k in range(n - 1, 0, -1):
            v = k * two_over_a * vals[k] - vals[k + 1]
            if abs(v) > 1e250:
                # rescale before overflow; the higher orders underflow harmlessly
                vals = [u * 1e-250 for u in vals]
                v *= 1e-250
            vals[k - 1] = v
        j = np.array(vals[:n])
        j /= j[0] + 2.0 * np.sum(j[2::2])
        if zr < 0:
            j[1::2] *= -1.0
        out[row] = j
    return out


def _chebyshev_coefficients(z, tol: float) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(z_j) for exp(-i z_j x) = sum_k c_jk T_k(x) on [-1, 1].

    One row per z_j, all cut at one order K: the smallest order at which every
    row's tail 2 * sum_{k >= K} |J_k(z_j)| is below tol. Since |T_k(x)| <= 1
    that tail bounds each row's truncation error.
    """
    j = _bessel_j(z)
    tail = 2.0 * np.cumsum(np.abs(j[:, ::-1]), axis=1)[:, ::-1]
    below = tail < tol
    first = np.where(below.any(axis=1), below.argmax(axis=1), j.shape[1])
    keep = max(1, int(first.max()))
    k = np.arange(keep)
    return np.where(k == 0, 1.0, 2.0) * _MINUS_I_POWERS[k % 4] * j[:, :keep]


def propagate_block(h0, diagonals, block, times_ns, observe=None) -> list:
    """exp(-i t (H0 + diag(d_c))) x_c for every column c of a block, at each sample time.

    `h0` is a real symmetric sparse matrix shared by every column; column c of
    the real `diagonals` (dim x cells) is added to its diagonal for column c of
    `block`, the states at t = 0. Times are in ns, taken in order from t = 0;
    a step between them may be negative or zero. Returns one array per sample
    time: `observe` applied to each column chunk of X(t), concatenated along
    the last axis, by default the blocks themselves. `observe` maps a
    dim x c chunk to an array whose last axis holds those c columns in order.

    Every column's spectrum lies in one Gershgorin interval [a - b, a + b] over
    the whole block, so one rescaled Chebyshev recurrence serves all columns.
    Consecutive sample times are grouped into windows of WINDOW_SAMPLES. Each
    window runs one recurrence from the state at its start time t0 (0, or the
    previous window's last sample) and adds every term T_k into each sample's
    accumulator with coefficient e^(-i a dt_j) (2 - delta_k0) (-i)^k J_k(b dt_j),
    dt_j = t_j - t0; its length is set by the window's largest |dt_j|. The
    coefficient grid depends only on b and the in-window offsets, and is
    cached per distinct tuple of offsets. Each window's samples are cut at
    TOLERANCE / n_windows, so the truncation errors summed over the windows
    up to the last sample stay below TOLERANCE. The recurrence runs on the
    float64 view of the complex block: each term is one real
    sparse-times-dense product.

    The columns run in chunks of equal width (the last may be narrower), as
    many as keep each chunk's (window samples + 3) x dim complex working set
    within CHUNK_BYTES. Each chunk runs every window from t = 0 on the shared
    interval and grids, so every column's values match the unchunked run bit
    for bit.
    """
    if np.iscomplexobj(h0) or np.iscomplexobj(diagonals):
        raise ValueError("the block engine needs a real Hamiltonian")
    if not np.all(np.isfinite(times_ns)):
        raise ValueError("sample times must be finite")
    h0 = sp.csr_matrix(h0, dtype=np.float64)
    diagonals = np.asarray(diagonals, dtype=np.float64)
    x = np.ascontiguousarray(block, dtype=np.complex128)
    if x.ndim != 2 or h0.shape != (x.shape[0], x.shape[0]) or diagonals.shape != x.shape:
        raise ValueError(f"shapes do not match: H0 {h0.shape}, diagonals {diagonals.shape}, block {x.shape}")

    h0_diag = h0.diagonal()
    radius = np.asarray(abs(h0).sum(axis=1)).ravel() - np.abs(h0_diag)
    centers = h0_diag[:, None] + diagonals
    lo = float(np.min(centers - radius[:, None]))
    hi = float(np.max(centers + radius[:, None]))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise EvolutionError("the Hamiltonian has non-finite entries")
    shift, half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
    # a zero half-width means H = shift * I: every sample is a pure phase (z = 0,
    # one coefficient) and the scaled operator is never applied
    inverse_width = 1.0 / half_width if half_width > 0 else 0.0
    scaled_h0 = h0 * inverse_width

    times = [float(t) for t in times_ns]
    windows = [times[w : w + WINDOW_SAMPLES] for w in range(0, len(times), WINDOW_SAMPLES)]
    window_tolerance = TOLERANCE / max(1, len(windows))
    grids = {}
    plan = []  # (sample times, coefficient grid) per window
    t_start = 0.0
    for window in windows:
        # offsets in ns, scaled afterwards, so equal windows share one grid
        offsets = tuple(t - t_start for t in window)
        if offsets not in grids:
            dt = np.array(offsets) * NS_TO_US
            grids[offsets] = np.exp(-1j * shift * dt)[:, None] * _chebyshev_coefficients(
                half_width * dt, window_tolerance
            )
        plan.append((window, grids[offsets]))
        t_start = window[-1]

    def propagate_chunk(x, chunk_diagonals):
        # the real view interleaves (re, im) columns, so each diagonal column repeats
        scaled_diag = np.repeat((chunk_diagonals - shift) * inverse_width, 2, axis=1)

        def apply(v):
            vr = v.view(np.float64)
            hv = scaled_h0 @ vr
            hv += scaled_diag * vr
            return hv.view(np.complex128)

        norms0 = np.linalg.norm(x, axis=0)
        out = []
        for window, coeffs in plan:
            y = coeffs[:, 0, None, None] * x
            prev, cur = None, x
            for k in range(1, coeffs.shape[1]):
                nxt = apply(cur)
                if k > 1:
                    nxt *= 2.0
                    nxt -= prev
                y += coeffs[:, k, None, None] * nxt
                prev, cur = cur, nxt
            for t, yt in zip(window, y):
                drift = np.abs(np.linalg.norm(yt, axis=0) - norms0)
                if not np.all(drift <= NORM_TOL):
                    raise EvolutionError(f"norm drifted by {np.max(drift)} at t={t} ns")
                out.append(yt if observe is None else observe(yt))
            x = y[-1]
        return out

    # the fewest chunks within CHUNK_BYTES, of equal width but the last; a
    # zero-column block runs as one empty chunk
    n_columns = x.shape[1]
    column_bytes = (min(WINDOW_SAMPLES, len(times)) + 3) * x.shape[0] * x.itemsize
    n_chunks = max(1, -(-n_columns * column_bytes // CHUNK_BYTES))
    width = max(1, -(-n_columns // n_chunks))
    chunks = [
        propagate_chunk(np.ascontiguousarray(x[:, c : c + width]), diagonals[:, c : c + width])
        for c in range(0, max(1, n_columns), width)
    ]
    return [np.concatenate(samples, axis=-1) for samples in zip(*chunks)]


def evolve_unitary(h: HamiltonianMatrix, psi0: QuantumState, times_ns) -> list[tuple[float, QuantumState]]:
    """Snapshots (t, exp(-i H t) psi0) at each sample time in ns: the one-column case of propagate_block."""
    if psi0.basis.dimension != h.dimension:
        raise ValueError("initial state dimension does not match the Hamiltonian")
    psi0.check_normalized()
    times = [float(t) for t in times_ns]
    blocks = propagate_block(h.matrix, np.zeros((h.dimension, 1)), psi0.amplitudes[:, None], times)
    return [(t, QuantumState(psi0.basis, block[:, 0])) for t, block in zip(times, blocks)]


# ---------------------------------------------------------------------------
# Lindblad dynamics
# ---------------------------------------------------------------------------

MAX_LINDBLAD_SITES = 12

# solve_ivp (DOP853) tolerances of evolve_lindblad
LINDBLAD_RTOL = 1e-8
LINDBLAD_ATOL = 1e-10


@dataclass
class LindbladModel:
    """Dense open-system model on the full 2^n space or a hard-core sector union.

    Jump operators: relaxation sigma-_j at rate 1/T1_j, pure dephasing
    sigma^z_j / sqrt(2 Tphi_j), so a lone-qubit coherence decays as
    exp(-t / Tphi).
    """

    n_sites: int
    rows: np.ndarray = field(repr=False)  # (dimension x n_sites) bool, ascending bitstrings
    keys: np.ndarray = field(repr=False)  # sector.row_keys(rows)
    h: np.ndarray | None = field(default=None, repr=False)
    t1_us: dict = field(default_factory=dict)
    t_phi_us: dict = field(default_factory=dict)
    _occ: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_graph(
        cls,
        graph: ActiveGraph,
        disorder: DisorderMap | None = None,
        t1_us=None,
        t_phi_us=None,
        max_excitations: int = 1,
        full_space: bool = False,
    ) -> "LindbladModel":
        n = graph.n_sites
        if n > MAX_LINDBLAD_SITES:
            raise ValueError(f"Lindblad models are limited to {MAX_LINDBLAD_SITES} sites, got {n}")
        # every bitstring in ascending order, site 0 the top bit
        rows = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(bool)
        if not full_space:
            # union of excitation sectors 0..max_excitations, closed under decay
            rows = rows[rows.sum(axis=1) <= max_excitations]
        model = cls(n, rows, row_keys(rows), t1_us=_rate_map(t1_us, n), t_phi_us=_rate_map(t_phi_us, n))
        model.h = build_hamiltonian(graph, model, disorder).to_dense()
        return model

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def occupancy_matrix(self) -> np.ndarray:
        """(dimension x n_sites) 0/1 float matrix; cached after first call."""
        if self._occ is None:
            self._occ = self.rows.astype(np.float64)
        return self._occ


def _rate_map(spec, n_sites: int) -> dict:
    if spec is None:
        return {}
    if np.isscalar(spec):
        return {j: float(spec) for j in range(n_sites)}
    return {int(j): float(v) for j, v in dict(spec).items()}


def initial_density(model: LindbladModel, excited_sites) -> np.ndarray:
    (a,) = lookup(model.keys, occupation_row(model.n_sites, excited_sites))
    rho = np.zeros((model.dimension, model.dimension), dtype=np.complex128)
    rho[a, a] = 1.0
    return rho


def _dissipator_tables(model: LindbladModel):
    n, dim = model.n_sites, model.dimension
    occ = model.occupancy_matrix()
    sz = 1.0 - 2.0 * occ  # dim x n, +-1 per (state, site)
    mask = np.zeros((dim, dim))
    jumps = []
    for j in range(n):
        t_phi = model.t_phi_us.get(j)
        if t_phi and np.isfinite(t_phi):
            g = 1.0 / t_phi
            mask += (g / 2.0) * (np.outer(sz[:, j], sz[:, j]) - 1.0)
        t1 = model.t1_us.get(j)
        if t1 and np.isfinite(t1):
            g = 1.0 / t1
            mask += -(g / 2.0) * (occ[:, j][:, None] + occ[:, j][None, :])
            # sigma-_j maps each state with site j occupied to the one without
            src = np.flatnonzero(model.rows[:, j])
            decayed = model.rows[src]
            decayed[:, j] = False
            jumps.append((g, src, lookup(model.keys, decayed)))
    return mask, jumps


def evolve_lindblad(model: LindbladModel, rho0: np.ndarray, times_ns) -> list[tuple[float, np.ndarray]]:
    """Density-matrix snapshots under the master equation, trace-checked."""
    from scipy.integrate import solve_ivp  # imported on use: no CLI start-up cost

    times = np.asarray([float(t) for t in times_ns])
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be nonnegative and strictly increasing")
    dim = model.dimension
    rho0 = np.asarray(rho0, dtype=np.complex128)
    if rho0.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho0.shape} does not match dimension {dim}")
    h = model.h
    mask, jumps = _dissipator_tables(model)

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        drho = -1j * (h @ rho - rho @ h)
        drho += mask * rho
        for g, src, dst in jumps:
            drho[np.ix_(dst, dst)] += g * rho[np.ix_(src, src)]
        return drho.ravel()

    t_eval = times * NS_TO_US
    span = (0.0, float(t_eval[-1]) if t_eval[-1] > 0 else 1e-12)
    sol = solve_ivp(
        rhs, span, rho0.ravel(), t_eval=t_eval, method="DOP853", rtol=LINDBLAD_RTOL, atol=LINDBLAD_ATOL
    )
    if not sol.success:
        raise EvolutionError(f"Lindblad integration failed: {sol.message}")
    out = []
    for k, t in enumerate(times):
        rho = sol.y[:, k].reshape(dim, dim)
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > 1e-6:
            raise EvolutionError(f"trace drifted to {tr} at t={t} ns")
        out.append((float(t), rho))
    return out


def site_populations(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    return np.real(np.diag(rho)) @ model.occupancy_matrix()
