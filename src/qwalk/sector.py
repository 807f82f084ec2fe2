"""Fixed-excitation-number bases of occupation rows, and sector state vectors.

Hard-core walkers: a basis state is a row of n_sites occupation bits, double
occupancy excluded from the basis itself. Rows are kept as a bool array in
ascending bitstring order with site 0 as the most significant bit, so the
occupation string reads left to right in site order. Each row also has one
packed byte key (`row_keys`); the keys sort exactly like the rows, so a row's
index is one `np.searchsorted` away (`lookup`) for any site count, and
readout shots are histogrammed in the same key order.

Each row also lists its occupied sites (`sites`); `site_sums` and `row_sums`
reduce over them in a fixed order without BLAS, the same bits on any kernel.
Up to MAX_INT_KEY_SITES sites, the sum of `site_bits` over a row's sites is
a uint64 key that sorts like the packed one: the Hamiltonian builder finds
its hops' target rows by those keys (`search_keys`), for sectors, the
Lindblad sector union and the calibration kernel alike.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

import numpy as np

__all__ = [
    "SectorBasis",
    "QuantumState",
    "enumerate_basis",
    "row_keys",
    "site_bits",
    "lookup",
    "search_keys",
    "occupation_row",
    "basis_state",
    "populations",
    "site_sums",
    "row_sums",
]

MAX_DIMENSION = 20_000_000
# Rows of up to this many sites also have one uint64 key each (`site_bits`).
MAX_INT_KEY_SITES = 64

NORM_TOL = 1e-9


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One packed byte key per bool occupation row.

    MSB-first packing puts site 0 in the top bit of the first byte, so the
    keys compare bytewise in the same order as the rows' bitstrings.
    """
    packed = np.packbits(rows, axis=1) if rows.shape[1] else np.zeros((len(rows), 1), np.uint8)
    return packed.view(f"V{packed.shape[1]}").ravel()


@functools.cache
def site_bits(n_sites: int) -> np.ndarray:
    """Each site's bit of a uint64 row key, for at most MAX_INT_KEY_SITES
    sites, and 0 for the sentinel site n_sites; read-only, made once per
    site count. Site 0 is the top bit, so the sums of a row set's bits over
    its occupied sites (`sites`) sort like its bitstrings, as `row_keys` do."""
    bits = np.zeros(n_sites + 1, dtype=np.uint64)
    bits[:n_sites] = np.left_shift(np.uint64(1), np.arange(n_sites - 1, -1, -1, dtype=np.uint64))
    bits.flags.writeable = False
    return bits


def lookup(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices of the given occupation rows in a basis with sorted `keys`."""
    return search_keys(keys, row_keys(rows))


def search_keys(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Indices of the probe keys in sorted `keys` (packed or integer keys alike)."""
    found = np.searchsorted(keys, probe)
    if (keys.take(found, mode="clip") != probe).any():
        raise ValueError("occupation row outside the basis")
    return found


def occupation_row(n_sites: int, sites) -> np.ndarray:
    """(1 x n_sites) bool row with the given sites occupied."""
    sites = sorted(set(sites))
    for j in sites:
        if not 0 <= j < n_sites:
            raise ValueError(f"site index {j} out of range for {n_sites} sites")
    row = np.zeros((1, n_sites), dtype=bool)
    row[0, sites] = True
    return row


@dataclass(frozen=True)
class SectorBasis:
    n_sites: int
    n_excitations: int
    rows: np.ndarray = field(repr=False, compare=False)  # (dimension x n_sites) bool, ascending bitstrings
    keys: np.ndarray = field(repr=False, compare=False)  # row_keys(rows)
    sites: np.ndarray = field(repr=False, compare=False)  # (dimension x n_excitations) occupied sites, ascending

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def occupancy_matrix(self) -> np.ndarray:
        """(dimension x n_sites) 0/1 float matrix, cached: the tests' dense oracle."""
        cached = getattr(self, "_occ", None)
        if cached is None:
            cached = self.rows.astype(np.float64)
            object.__setattr__(self, "_occ", cached)
        return cached


def enumerate_basis(n_sites: int, n_excitations: int) -> SectorBasis:
    """Canonical ascending-order basis of all weight-k occupation rows."""
    if n_sites < 0 or n_excitations < 0:
        raise ValueError("site and excitation counts must be nonnegative")
    if n_excitations > n_sites:
        raise ValueError(f"cannot place {n_excitations} excitations on {n_sites} sites")
    dim = comb(n_sites, n_excitations)
    if dim > MAX_DIMENSION:
        raise ValueError(f"sector dimension {dim} exceeds the supported limit {MAX_DIMENSION}")
    # combinations come in lexicographic site order, which is descending
    # bitstring order when site 0 is the top bit
    sites = np.fromiter(chain.from_iterable(combinations(range(n_sites), n_excitations)), np.intp, dim * n_excitations)
    sites = np.ascontiguousarray(sites.reshape(dim, n_excitations)[::-1])
    rows = np.zeros((dim, n_sites), dtype=bool)
    np.put_along_axis(rows, sites, True, axis=1)
    return SectorBasis(n_sites, n_excitations, rows, row_keys(rows), sites)


@dataclass
class QuantumState:
    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, basis dimension is {self.basis.dimension}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def check_normalized(self, tol: float = NORM_TOL) -> None:
        if not abs(self.norm - 1.0) <= tol:
            raise ValueError(f"state norm {self.norm} deviates from 1 by more than {tol}")


def basis_state(basis: SectorBasis, excited_sites) -> QuantumState:
    """Unit vector on the occupation string exciting exactly the given sites."""
    row = occupation_row(basis.n_sites, excited_sites)
    if row.sum() != basis.n_excitations:
        raise ValueError(
            f"need exactly {basis.n_excitations} distinct excited sites, got {row.sum()}"
        )
    amplitudes = np.zeros(basis.dimension, dtype=np.complex128)
    amplitudes[lookup(basis.keys, row)[0]] = 1.0
    return QuantumState(basis, amplitudes)


def populations(state: QuantumState) -> np.ndarray:
    """Expected occupation <n_j> per site; sums to n_excitations."""
    # re^2 + im^2: complex np.abs rounds differently under some numpy SIMD levels
    a = state.amplitudes
    return site_sums(state.basis.sites, a.real**2 + a.imag**2, state.basis.n_sites)


def site_sums(sites: np.ndarray, weights: np.ndarray, n_sites: int) -> np.ndarray:
    """Per-site sums of per-row weights (one weight or one row of columns per
    row): site j adds every row that lists it, from 0.0 in row order, with one
    `np.bincount`. The sentinel site n_sites is dropped."""
    columns = weights.reshape(len(sites), -1)
    width = columns.shape[1]
    bins = (sites[:, :, None] * width + np.arange(width)).ravel()
    sums = np.bincount(bins, np.repeat(columns, sites.shape[1], axis=0).ravel(), (n_sites + 1) * width)
    return sums[: n_sites * width].reshape((n_sites,) + weights.shape[1:])


def row_sums(sites: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of per-site values (one value or one row of columns per
    site): row r adds the sites it lists from 0.0 in site order; the sentinel adds 0.0."""
    padded = np.concatenate([values, np.zeros((1,) + values.shape[1:])])
    return sum((padded[site] for site in sites.T), np.zeros((len(sites),) + values.shape[1:]))
