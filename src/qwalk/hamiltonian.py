"""Sector Hamiltonian: hopping across active edges plus diagonal disorder.

Internal units are angular frequency in rad/us; inputs are linear MHz. In the
rotating frame at the common interaction frequency the resonant, zero-disorder
diagonal is exactly zero.

`build_hamiltonian` keeps the matrix as numpy triplets: one (row, col, value)
per hop, which the matrix mirrors, plus an optional diagonal. The small dense
Hamiltonians of the calibration stars and the Lindblad model are scattered
from them in numpy. Only the propagating commands read the sparse CSR form,
so `scipy.sparse` is imported when `HamiltonianMatrix.matrix` is first read,
and a command that never propagates never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .device import ActiveGraph, DisorderMap
from .sector import SectorBasis, row_index, row_sums

__all__ = ["HamiltonianMatrix", "build_hamiltonian", "offset_diagonals", "TWO_PI"]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """The sector Hamiltonian as mirrored hop triplets: entry (rows[k], cols[k])
    and its transpose both hold values[k]. `diagonal` is None when every
    offset is zero."""

    basis: SectorBasis
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    diagonal: np.ndarray | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def nnz(self) -> int:
        """Stored entries of `matrix`, counted without building it: the CSR
        sums drop exact zeros."""
        diagonal = 0 if self.diagonal is None else np.count_nonzero(self.diagonal)
        return 2 * np.count_nonzero(self.values) + diagonal

    @cached_property
    def matrix(self):
        """The Hamiltonian as a scipy.sparse CSR matrix, built on first use:
        the hops, their mirrors and the diagonal in one conversion to
        canonical CSR (sorted columns, a position listed twice summed), with
        exact zeros dropped."""
        import scipy.sparse as sp  # imported on use: no start-up cost for commands that never propagate

        dim = self.dimension
        rows, cols, values = [self.rows, self.cols], [self.cols, self.rows], [self.values, self.values]
        if self.diagonal is not None:
            rows.append(np.arange(dim))
            cols.append(np.arange(dim))
            values.append(self.diagonal)
        entries = (np.concatenate(rows), np.concatenate(cols))
        matrix = sp.csr_matrix((np.concatenate(values), entries), shape=(dim, dim))
        matrix.eliminate_zeros()
        return matrix

    def to_dense(self) -> np.ndarray:
        """The Hamiltonian as a dense array, equal bit for bit to `matrix.toarray()`."""
        dense = np.zeros((self.dimension, self.dimension))
        np.add.at(dense, (self.rows, self.cols), self.values)
        np.add.at(dense, (self.cols, self.rows), self.values)
        if self.diagonal is not None:
            dense[np.diag_indices_from(dense)] += self.diagonal
        return dense


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
    such as the Lindblad sector union or the full space.
    """
    n = basis.n_sites
    if graph.n_sites != n:
        raise ValueError(f"graph has {graph.n_sites} sites, basis expects {n}")

    ends = np.array([(i, j) for i, j, _ in graph.edges], dtype=np.intp).reshape(-1, 2)
    amps = TWO_PI * np.array([j_eff for _, _, j_eff in graph.edges], dtype=np.float64)
    # Each edge hops a walker from its second site to its first once per row
    # pair; mirroring the matrix adds the reverse hop.
    rows, edge = _hops(basis, ends)
    # the hop's target row: its row with the walker moved from src to dst
    dst, src = ends[edge].T
    sites = basis.sites[rows]
    cols = row_index(basis.below, np.where(sites == src[:, None], dst[:, None], sites))

    diagonal = None
    if disorder is not None:
        offsets = np.array([disorder.get(s) for s in graph.sites], dtype=np.float64)
        if np.any(offsets):
            diagonal = offset_diagonals(basis, offsets[:, None])[:, 0]
    return HamiltonianMatrix(basis, rows, cols, amps[edge], diagonal)


def _hops(basis: SectorBasis, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, edge) of every hop, in row order and edge order within a row:
    row `rows[h]` holds a walker on the second site of edge `edge[h]` and
    none on its first.

    Candidates come from each row's occupied sites (`basis.sites`) and a
    table of the edges that leave each site, padded with -1; the sentinel
    site n_sites has only padding.
    """
    by_src = np.argsort(ends[:, 1], kind="stable")
    src = ends[by_src, 1]
    rank = np.arange(len(src)) - np.searchsorted(src, src)  # each edge's place among its site's
    leaving = np.full((basis.n_sites + 1, rank.max(initial=-1) + 1), -1)
    leaving[src, rank] = by_src
    candidates = leaving[basis.sites].reshape(len(basis.sites), -1)
    candidates.sort(axis=1)  # edge order within a row, padding first
    # a candidate hops when its edge's first site is empty (padding reads the last edge's)
    empty = ~basis.rows[np.arange(len(candidates))[:, None], ends[candidates, 0]]
    rows, slot = np.nonzero(empty & (candidates >= 0))
    return rows, candidates[rows, slot]


def offset_diagonals(basis: SectorBasis, offsets: np.ndarray) -> np.ndarray:
    """Sector diagonals in rad/us from per-site offsets in MHz (sites x columns):
    2*pi * the sum of each column's offsets on each state's occupied sites."""
    return TWO_PI * row_sums(basis.sites, offsets)
