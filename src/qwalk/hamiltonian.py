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
from .sector import QuantumState, SectorBasis, _site_bit

__all__ = ["HamiltonianMatrix", "build_hamiltonian", "disorder_diagonals", "apply", "TWO_PI"]

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

    def dump_triplets(self, fh) -> None:
        """Row col value, one entry per line, zero-based indices."""
        coo = self.matrix.tocoo()
        for r, c, v in sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())):
            fh.write(f"{r} {c} {v!r}\n")


def build_hamiltonian(
    graph: ActiveGraph,
    basis: SectorBasis,
    disorder: DisorderMap | None = None,
) -> HamiltonianMatrix:
    """Assemble the sector Hamiltonian for an active graph.

    Off-diagonal amplitude for edge (i, j) is 2*pi*J_eff[i,j] rad/us between
    occupation strings that differ by moving one excitation across the edge;
    the basis itself enforces the hard-core constraint. Diagonal entries are
    2*pi * sum of the disorder offsets on occupied sites. The strict upper
    triangle is generated once and mirrored, so the result is exactly
    Hermitian (real symmetric).
    """
    n = basis.n_sites
    if graph.n_sites != n:
        raise ValueError(f"graph has {graph.n_sites} sites, basis expects {n}")
    disorder = disorder or DisorderMap()

    rows, cols, vals = [], [], []
    index = basis.index
    if basis.n_excitations == 1:
        # single walker: the sector matrix is the weighted adjacency matrix
        pos = [index[_site_bit(n, j)] for j in range(n)]
        for i, j, j_eff in graph.edges:
            a, b = sorted((pos[i], pos[j]))
            rows.append(a)
            cols.append(b)
            vals.append(TWO_PI * j_eff)
    else:
        edge_bits = [(_site_bit(n, i), _site_bit(n, j), TWO_PI * j_eff) for i, j, j_eff in graph.edges]
        for a, v in enumerate(basis.states):
            for bi, bj, amp in edge_bits:
                if bool(v & bi) != bool(v & bj):
                    b = index[v ^ bi ^ bj]
                    if b > a:
                        rows.append(a)
                        cols.append(b)
                        vals.append(amp)

    dim = basis.dimension
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    matrix = upper + upper.T
    if any(disorder.get(s) for s in graph.sites):
        matrix = matrix + sp.diags(disorder_diagonals(graph, basis, [disorder])[:, 0])
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    return HamiltonianMatrix(basis, matrix)


def disorder_diagonals(graph: ActiveGraph, basis: SectorBasis, disorders) -> np.ndarray:
    """Sector diagonals in rad/us, one column per disorder map (dimension x maps):
    2*pi * the sum of the map's offsets on each state's occupied sites."""
    offsets = np.array([[d.get(s) for d in disorders] for s in graph.sites], dtype=np.float64)
    return TWO_PI * (basis.occupancy_matrix() @ offsets)


def apply(h: HamiltonianMatrix, v) -> np.ndarray:
    """H @ v for a QuantumState or a raw vector of matching dimension."""
    vec = v.amplitudes if isinstance(v, QuantumState) else np.asarray(v)
    if vec.shape != (h.dimension,):
        raise ValueError(f"vector shape {vec.shape} does not match dimension {h.dimension}")
    return h.matrix @ vec
