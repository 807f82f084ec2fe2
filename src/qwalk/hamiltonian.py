"""Sparse sector Hamiltonian: hopping across active edges plus diagonal disorder.

Internal units are angular frequency in rad/us; inputs are linear MHz. In the
rotating frame at the common interaction frequency the resonant, zero-disorder
diagonal is exactly zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .device import ActiveGraph, DisorderMap
from .sector import SectorBasis, lookup, row_sums

__all__ = ["HamiltonianMatrix", "build_hamiltonian", "disorder_diagonals", "offset_diagonals", "TWO_PI"]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class HamiltonianMatrix:
    basis: SectorBasis
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def build_hamiltonian(
    graph: ActiveGraph,
    basis: SectorBasis,
    disorder: DisorderMap | None = None,
) -> HamiltonianMatrix:
    """Assemble the sector Hamiltonian for an active graph.

    Off-diagonal amplitude for edge (i, j) is 2*pi*J_eff[i,j] rad/us between
    occupation rows that differ by moving one excitation across the edge;
    the basis itself enforces the hard-core constraint. Diagonal entries are
    2*pi * sum of the disorder offsets on occupied sites. Each hop is
    generated once and mirrored, so the result is exactly Hermitian (real
    symmetric).

    `basis` may also be any other sorted row set with the same attributes,
    such as the Lindblad sector union.
    """
    n = basis.n_sites
    if graph.n_sites != n:
        raise ValueError(f"graph has {graph.n_sites} sites, basis expects {n}")
    disorder = disorder or DisorderMap()

    dst, src = np.array([(i, j) for i, j, _ in graph.edges], dtype=np.intp).reshape(-1, 2).T
    amps = TWO_PI * np.array([j_eff for _, _, j_eff in graph.edges], dtype=np.float64)
    # Each edge hops a walker from one end to the other once per row pair;
    # mirroring the matrix adds the reverse hop.
    rows, edge = np.nonzero(basis.rows[:, src] & ~basis.rows[:, dst])
    moved = basis.rows[rows]
    move = np.arange(len(rows))
    moved[move, src[edge]] = False
    moved[move, dst[edge]] = True
    cols = lookup(basis.keys, moved)

    dim = basis.dimension
    hops = sp.coo_matrix((amps[edge], (rows, cols)), shape=(dim, dim))
    matrix = hops + hops.T
    if any(disorder.get(s) for s in graph.sites):
        matrix = matrix + sp.diags(disorder_diagonals(graph, basis, [disorder])[:, 0])
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    return HamiltonianMatrix(basis, matrix)


def disorder_diagonals(graph: ActiveGraph, basis: SectorBasis, disorders) -> np.ndarray:
    """Sector diagonals in rad/us, one column per disorder map (dimension x maps):
    2*pi * the sum of the map's offsets on each state's occupied sites."""
    offsets = np.array([[d.get(s) for d in disorders] for s in graph.sites], dtype=np.float64)
    return offset_diagonals(basis, offsets)


def offset_diagonals(basis: SectorBasis, offsets: np.ndarray) -> np.ndarray:
    """Sector diagonals in rad/us from per-site offsets in MHz (sites x columns):
    2*pi * the sum of each column's offsets on each state's occupied sites."""
    return TWO_PI * row_sums(basis.sites, offsets)
