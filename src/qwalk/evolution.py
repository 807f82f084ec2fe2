"""Time evolution: exact unitary propagation in a sector, and Lindblad
master-equation dynamics with per-site T1 / Tphi for small systems.

Unitary propagation has one engine, `propagate_block`: a Chebyshev expansion
of the propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984) applied
to a block of states that share one real hopping matrix and differ only in a
real diagonal per column. Fringe-grid cells and disorder realisations thus
propagate together; a single state is the one-column case.

Times cross the API in ns; internally everything runs in us to match the
rad/us Hamiltonian units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

from .device import ActiveGraph, DisorderMap
from .hamiltonian import HamiltonianMatrix, build_hamiltonian
from .sector import NORM_TOL, QuantumState, lookup, occupation_row, row_keys

__all__ = [
    "EvolutionPlan",
    "EvolutionError",
    "evolve_unitary",
    "propagate_block",
    "LindbladModel",
    "evolve_lindblad",
    "initial_density",
    "site_populations",
]

NS_TO_US = 1e-3

# (-i)^k for k mod 4, exact in complex arithmetic
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


class EvolutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvolutionPlan:
    hamiltonian: HamiltonianMatrix
    times_ns: tuple
    tolerance: float = 1e-12

    def __post_init__(self):
        times = tuple(float(t) for t in self.times_ns)
        object.__setattr__(self, "times_ns", times)
        if any(t < 0 for t in times):
            raise ValueError("sample times must be nonnegative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _chebyshev_coefficients(z: float, tol: float) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(z) for exp(-i z x) = sum_k c_k T_k(x) on [-1, 1].

    The series is cut at the first order K whose tail 2 * sum_{k >= K} |J_k(z)|
    is below tol; since |T_k(x)| <= 1 that tail bounds the truncation error.
    """
    n = int(abs(z)) + 32
    while True:
        j = jv(np.arange(n), z)
        if abs(j[-1]) < 1e-6 * tol:
            break
        n *= 2
    tail = 2.0 * np.cumsum(np.abs(j[::-1]))[::-1]
    keep = max(1, int(np.argmax(tail < tol)))
    k = np.arange(keep)
    return np.where(k == 0, 1.0, 2.0) * _MINUS_I_POWERS[k % 4] * j[:keep]


def propagate_block(h0, diagonals, block, times_ns, tolerance: float = 1e-12, observe=None) -> list:
    """exp(-i t (H0 + diag(d_c))) x_c for every column c of a block, at each sample time.

    `h0` is a real symmetric sparse matrix shared by every column; column c of
    the real `diagonals` (dim x cells) is added to its diagonal for column c of
    `block`, the states at t = 0. Times are in ns, stepped in order from t = 0;
    a step may be negative or zero. Returns `[observe(X(t)) for t in times_ns]`,
    by default the blocks themselves, which the engine never writes to again.

    Every column's spectrum lies in one Gershgorin interval [a - b, a + b] over
    the whole block, so one rescaled Chebyshev recurrence serves all columns;
    its coefficients depend only on b * dt and are cached per distinct step.
    Each step gets an equal share of `tolerance`, which so bounds the summed
    truncation error at the last sample. The recurrence runs on the float64
    view of the complex block: each term is one real sparse-times-dense product.
    """
    if np.iscomplexobj(h0) or np.iscomplexobj(diagonals):
        raise ValueError("the block engine needs a real Hamiltonian")
    if not tolerance > 0 or not np.all(np.isfinite(times_ns)):
        raise ValueError("tolerance must be positive and sample times finite")
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
    # a zero half-width means H = shift * I: every step is a pure phase (z = 0,
    # one coefficient) and the scaled operator is never applied
    inverse_width = 1.0 / half_width if half_width > 0 else 0.0
    scaled_h0 = h0 * inverse_width
    # the real view interleaves (re, im) columns, so each diagonal column repeats
    scaled_diag = np.repeat((diagonals - shift) * inverse_width, 2, axis=1)

    def apply(v):
        vr = v.view(np.float64)
        hv = scaled_h0 @ vr
        hv += scaled_diag * vr
        return hv.view(np.complex128)

    step_tolerance = tolerance / max(1, len(times_ns))
    norms0 = np.linalg.norm(x, axis=0)
    coefficients = {}
    out = []
    t_prev = 0.0
    for t in times_ns:
        dt = (t - t_prev) * NS_TO_US
        if dt not in coefficients:
            coefficients[dt] = np.exp(-1j * shift * dt) * _chebyshev_coefficients(half_width * dt, step_tolerance)
        coeffs = coefficients[dt]
        y = coeffs[0] * x
        prev, cur = None, x
        for k in range(1, len(coeffs)):
            nxt = apply(cur)
            if k > 1:
                nxt *= 2.0
                nxt -= prev
            y += coeffs[k] * nxt
            prev, cur = cur, nxt
        drift = np.abs(np.linalg.norm(y, axis=0) - norms0)
        if not np.all(drift <= NORM_TOL):
            raise EvolutionError(f"norm drifted by {np.max(drift)} at t={t} ns")
        out.append(y if observe is None else observe(y))
        x, t_prev = y, t
    return out


def evolve_unitary(plan: EvolutionPlan, psi0: QuantumState) -> list[tuple[float, QuantumState]]:
    """Snapshots of exp(-i H t) psi0 at the plan's sample times."""
    h = plan.hamiltonian
    if psi0.basis.dimension != h.dimension:
        raise ValueError("initial state dimension does not match the Hamiltonian")
    psi0.check_normalized()
    columns = propagate_block(
        h.matrix, np.zeros((h.dimension, 1)), psi0.amplitudes[:, None], plan.times_ns, plan.tolerance, lambda x: x[:, 0]
    )
    return [(t, QuantumState(psi0.basis, amp)) for t, amp in zip(plan.times_ns, columns)]


# ---------------------------------------------------------------------------
# Lindblad dynamics
# ---------------------------------------------------------------------------

MAX_LINDBLAD_SITES = 12


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


def evolve_lindblad(
    model: LindbladModel,
    rho0: np.ndarray,
    times_ns,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> list[tuple[float, np.ndarray]]:
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
    sol = solve_ivp(rhs, span, rho0.ravel(), t_eval=t_eval, method="DOP853", rtol=rtol, atol=atol)
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
