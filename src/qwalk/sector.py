"""Fixed-excitation-number bases of occupation rows, and sector state vectors.

Hard-core walkers: a basis state is a row of n_sites occupation bits, double
occupancy excluded from the basis itself. Rows are kept as a bool array in
ascending bitstring order with site 0 as the most significant bit, so the
occupation string reads left to right in site order. Each row also lists its
occupied sites (`sites`); `site_sums` and `row_sums` reduce over them in a
fixed order without BLAS, the same bits on any kernel.

A row's index in such a row set is a closed form in its occupied sites, the
combinatorial number system (Knuth, TAOCP Vol. 4A, 7.2.1.3): a row's smaller
bitstrings first differ from it at one of its occupied sites s, where they
hold 0, and agree with it before s, so they number C(n_sites - 1 - s, w - i)
per weight w the set holds, with i the row's occupied sites before s.
`rank_table` tabulates those sums once per site count and weight set, and
`row_index` adds them up over each row's sites: the same index for a sector
(weights (k,)), the Lindblad sector union (0..m) and the full space (0..n).
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
    "rank_table",
    "row_index",
    "occupation_row",
    "basis_state",
    "populations",
    "site_sums",
    "row_sums",
]

MAX_DIMENSION = 20_000_000

NORM_TOL = 1e-9


@functools.cache
def rank_table(n_sites: int, weights: tuple) -> np.ndarray:
    """Read-only (n_sites + 1) x max(1, max weight) int64 table, made once per
    site count and weight set: `below[s, i]` counts the rows of the set whose
    bitstrings are smaller than a row's and first differ from it at its
    occupied site s, where i of its sites come before s,
    sum over weights w >= i of C(n_sites - 1 - s, w - i).

    Entries with i > s can never be read and hold 0, as does the sentinel row
    n_sites. With one weight k no entry exceeds C(n_sites - 1, k), at most the
    sector's dimension.
    """
    below = np.zeros((n_sites + 1, max(1, *weights)), dtype=np.int64)
    for s in range(n_sites):
        for i in range(min(s + 1, below.shape[1])):
            below[s, i] = sum(comb(n_sites - 1 - s, w - i) for w in weights if w >= i)
    below.flags.writeable = False
    return below


def row_index(below: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Each row's index in the row set that `rank_table` made `below` for,
    from its occupied sites (rows x slots): every occupied site s adds
    `below[s, number of the row's sites < s]`. Slots may come in any order
    and be padded with the sentinel site n_sites, which adds 0, up to as many
    slots as `below` has columns."""
    flat, width = below.ravel(), below.shape[1]
    index = np.zeros(len(sites), dtype=np.int64)
    for site in sites.T:
        at = site * width  # the flat position of below[site, 0], then one on per smaller site
        for other in sites.T:
            at += other < site
        index += flat[at]
    return index


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
    below: np.ndarray = field(repr=False, compare=False)  # rank_table(n_sites, (n_excitations,))
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
    return SectorBasis(n_sites, n_excitations, rows, rank_table(n_sites, (n_excitations,)), sites)


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
    amplitudes[row_index(basis.below, np.flatnonzero(row)[None])[0]] = 1.0
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
