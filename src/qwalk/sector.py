"""Fixed-excitation-number basis enumeration and sector state vectors.

Hard-core walkers: one bit per active site, double occupancy excluded from the
basis itself. Site j maps to bit (n_sites - 1 - j), so the occupation string
reads left to right in site order and sorts like its binary integer value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "SectorBasis",
    "QuantumState",
    "enumerate_basis",
    "occupancy_table",
    "basis_state",
    "populations",
    "state_to_record",
    "state_from_record",
]

MAX_DIMENSION = 20_000_000

NORM_TOL = 1e-9


def _site_bit(n_sites: int, site: int) -> int:
    return 1 << (n_sites - 1 - site)


def occupancy_table(states, n_sites: int) -> np.ndarray:
    """(len(states) x n_sites) 0/1 float matrix of the occupation strings.

    Each string is written big-endian into whole bytes and unpacked, so the
    last n_sites bit columns read in site order for any site count.
    """
    width = (n_sites + 7) // 8
    raw = b"".join(v.to_bytes(width, "big") for v in states)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(states), width), axis=1)
    return bits[:, 8 * width - n_sites :].astype(np.float64)


@dataclass(frozen=True)
class SectorBasis:
    n_sites: int
    n_excitations: int
    states: tuple  # occupation bitstrings as ints, ascending
    index: dict = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.states)

    def occupation_string(self, value: int) -> str:
        return format(value, f"0{self.n_sites}b")

    def occupied_sites(self, value: int) -> tuple[int, ...]:
        n = self.n_sites
        return tuple(j for j in range(n) if value & _site_bit(n, j))

    def occupancy_matrix(self) -> np.ndarray:
        """(dimension x n_sites) 0/1 matrix; cached after first call."""
        cached = getattr(self, "_occ", None)
        if cached is None:
            cached = occupancy_table(self.states, self.n_sites)
            object.__setattr__(self, "_occ", cached)
        return cached


def enumerate_basis(n_sites: int, n_excitations: int) -> SectorBasis:
    """Canonical ascending-order basis of all weight-k occupation strings."""
    if n_sites < 0 or n_excitations < 0:
        raise ValueError("site and excitation counts must be nonnegative")
    if n_excitations > n_sites:
        raise ValueError(f"cannot place {n_excitations} excitations on {n_sites} sites")
    dim = comb(n_sites, n_excitations)
    if dim > MAX_DIMENSION:
        raise ValueError(f"sector dimension {dim} exceeds the supported limit {MAX_DIMENSION}")
    states = [sum(_site_bit(n_sites, j) for j in sites) for sites in combinations(range(n_sites), n_excitations)]
    states.sort()
    index = {v: i for i, v in enumerate(states)}
    return SectorBasis(n_sites, n_excitations, tuple(states), index)


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

    def copy(self) -> "QuantumState":
        return QuantumState(self.basis, self.amplitudes.copy())


def basis_state(basis: SectorBasis, excited_sites) -> QuantumState:
    """Unit vector on the occupation string exciting exactly the given sites."""
    sites = sorted(set(excited_sites))
    if len(sites) != basis.n_excitations:
        raise ValueError(
            f"need exactly {basis.n_excitations} distinct excited sites, got {len(sites)}"
        )
    for j in sites:
        if not 0 <= j < basis.n_sites:
            raise ValueError(f"site index {j} out of range for {basis.n_sites} sites")
    value = sum(_site_bit(basis.n_sites, j) for j in sites)
    amplitudes = np.zeros(basis.dimension, dtype=np.complex128)
    amplitudes[basis.index[value]] = 1.0
    return QuantumState(basis, amplitudes)


def populations(state: QuantumState) -> np.ndarray:
    """Expected occupation <n_j> per site; sums to n_excitations."""
    p = np.abs(state.amplitudes) ** 2
    return p @ state.basis.occupancy_matrix()


def state_to_record(state: QuantumState) -> dict:
    return {
        "n_sites": state.basis.n_sites,
        "n_excitations": state.basis.n_excitations,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def state_from_record(record: dict) -> QuantumState:
    basis = enumerate_basis(int(record["n_sites"]), int(record["n_excitations"]))
    amp = np.array([complex(re, im) for re, im in record["amplitudes"]], dtype=np.complex128)
    return QuantumState(basis, amp)
