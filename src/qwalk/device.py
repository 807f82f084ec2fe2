"""Programmable 8x8 qubit lattice: topology, qubit parameters, disorder maps.

All frequencies are linear (MHz or GHz, i.e. omega/2pi); conversion to angular
units happens only inside the Hamiltonian builder.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "QubitId",
    "QubitParams",
    "CouplingEdge",
    "DeviceModel",
    "DisorderMap",
    "ActiveGraph",
    "default_device",
    "sample_disorder",
    "sample_offsets",
    "active_subgraph",
    "grid_graph",
    "subgrid_device",
    "rng_stream",
    "DEFAULT_J_EFF_MHZ",
    "DEFAULT_ANHARMONICITY_MHZ",
    "DEFAULT_DISORDER_BOUND_MHZ",
    "MAX_DISORDER_BOUND_MHZ",
]

# Offsets of Q0..Q3 inside a 2x2 unit, clockwise from the top-left corner.
# This makes Q0-Q1 and Q0-Q3 nearest neighbours, and puts U00Q0 / U33Q2 at
# opposite corners of the 8x8 grid.
_UNIT_OFFSETS = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}

DEFAULT_J_EFF_MHZ = 2.01
DEFAULT_ANHARMONICITY_MHZ = -248.9
DEFAULT_DISORDER_BOUND_MHZ = 1.6  # 0.8 * J_eff/2pi
# Planted-disorder cap: a detuning past the anharmonicity's size brings a
# qubit's 1-2 transition across its neighbours' 0-1, where the hard-core
# walker model no longer holds.
MAX_DISORDER_BOUND_MHZ = -DEFAULT_ANHARMONICITY_MHZ


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator; independent streams for (seed, *key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))))


class _QubitFields(NamedTuple):
    unit_row: int
    unit_col: int
    index_in_unit: int


class QubitId(_QubitFields):
    """Canonical qubit label U{row}{col}Q{index} on the 4x4 grid of 2x2 units.

    A qubit is a tuple of its three coordinates, so hashing, equality and the
    row-major order (label order) run in C. The 64 qubits are made once;
    `parse` and `from_grid` hand out those instances. A qubit is not an array:
    numpy refuses it rather than spell it as its coordinates, and records
    spell it as its label.
    """

    __slots__ = ()

    def __new__(cls, unit_row: int, unit_col: int, index_in_unit: int):
        for v in (unit_row, unit_col, index_in_unit):
            if not 0 <= v <= 3:
                raise ValueError(f"qubit coordinates out of range: U{unit_row}{unit_col}Q{index_in_unit}")
        return super().__new__(cls, unit_row, unit_col, index_in_unit)

    @classmethod
    def parse(cls, label: str) -> "QubitId":
        try:
            return _LABELED_QUBITS[label]
        except (KeyError, TypeError):
            raise ValueError(f"bad qubit label {label!r}") from None

    @property
    def label(self) -> str:
        return "U%d%dQ%d" % self

    @property
    def grid_position(self) -> tuple[int, int]:
        """(row, col) on the 8x8 lattice."""
        dr, dc = _UNIT_OFFSETS[self.index_in_unit]
        return (2 * self.unit_row + dr, 2 * self.unit_col + dc)

    @classmethod
    def from_grid(cls, row: int, col: int) -> "QubitId":
        if not (0 <= row < 8 and 0 <= col < 8):
            raise ValueError(f"grid position out of range: ({row}, {col})")
        return _GRID_QUBITS[8 * row + col]

    def __str__(self) -> str:
        return self.label

    def __array__(self, dtype=None, copy=None):
        raise TypeError(f"qubit {self} is not an array: use its label")


# every lattice position's qubit, row-major; inverts QubitId.grid_position
_GRID_QUBITS = tuple(
    QubitId(r // 2, c // 2, next(i for i, off in _UNIT_OFFSETS.items() if off == (r % 2, c % 2)))
    for r in range(8)
    for c in range(8)
)
# the 64 labels, each to its qubit: `parse` is one dict lookup
_LABELED_QUBITS = {q.label: q for q in _GRID_QUBITS}


@dataclass(frozen=True)
class QubitParams:
    """The per-qubit inputs of a readout model (`ReadoutModel.from_device`)."""

    idle_frequency_ghz: float = 5.200
    readout_fidelity_0: float = 0.966
    readout_fidelity_1: float = 0.919
    effective_temperature_mk: float = 66.0

    def __post_init__(self):
        if not (0.0 < self.readout_fidelity_0 <= 1.0 and 0.0 < self.readout_fidelity_1 <= 1.0):
            raise ValueError("readout fidelities must lie in (0, 1]")


@dataclass(frozen=True)
class CouplingEdge:
    a: QubitId
    b: QubitId
    j_eff_mhz: float = DEFAULT_J_EFF_MHZ

    def __post_init__(self):
        ra, ca = self.a.grid_position
        rb, cb = self.b.grid_position
        if abs(ra - rb) + abs(ca - cb) != 1:
            raise ValueError(f"edge {self.a}-{self.b} does not connect lattice neighbours")
        if self.j_eff_mhz <= 0:
            raise ValueError(f"edge {self.a}-{self.b} needs j_eff > 0")

    @property
    def key(self) -> frozenset:
        return frozenset((self.a, self.b))


class DeviceModel:
    """Immutable qubit-lattice description: parameters, couplings, broken elements."""

    def __init__(
        self,
        qubits: Mapping[QubitId, QubitParams],
        edges: Iterable[CouplingEdge],
        broken_qubits: Iterable[QubitId] = (),
        broken_edges: Iterable[tuple[QubitId, QubitId]] = (),
    ):
        self.qubits = dict(qubits)
        self.broken_qubits = frozenset(broken_qubits)
        self.broken_edge_keys = frozenset(frozenset(e) for e in broken_edges)
        self._edges: dict[frozenset, CouplingEdge] = {}
        for e in edges:
            self._edges[e.key] = e
        self.validate()

    def validate(self) -> None:
        for q in self.broken_qubits:
            if q not in self.qubits:
                raise ValueError(f"broken qubit {q} is not on the device")
        for key in self.broken_edge_keys:
            if key not in self._edges:
                a, b = sorted(key)
                raise ValueError(f"broken edge {a}-{b} is not a device edge")
        for e in self._edges.values():
            for q in (e.a, e.b):
                if q not in self.qubits:
                    raise ValueError(f"edge endpoint {q} is not on the device")

    # -- queries ------------------------------------------------------------

    @property
    def functional_qubits(self) -> list[QubitId]:
        return sorted(self.qubits.keys() - self.broken_qubits)

    def edge(self, a: QubitId, b: QubitId) -> CouplingEdge:
        try:
            return self._edges[frozenset((a, b))]
        except KeyError:
            raise KeyError(f"no edge {a}-{b} on the device") from None

    def edge_functional(self, a: QubitId, b: QubitId) -> bool:
        key = frozenset((a, b))
        return key in self._edges and key not in self.broken_edge_keys and key.isdisjoint(self.broken_qubits)

    def _functional_edge_items(self):
        """(lower end, upper end, edge) of every functional edge, in device order."""
        for key, e in self._edges.items():
            if key not in self.broken_edge_keys and key.isdisjoint(self.broken_qubits):
                yield (e.a, e.b, e) if e.a < e.b else (e.b, e.a, e)

    def functional_edges(self) -> list[CouplingEdge]:
        """The functional edges in the order of their (lower, upper) end pairs;
        no two edges share a pair, so the sort never compares edges."""
        return [e for _, _, e in sorted(self._functional_edge_items())]

    def neighbors(self, q: QubitId) -> list[QubitId]:
        return sorted(b if a == q else a for a, b, _ in self._functional_edge_items() if q in (a, b))


@dataclass(frozen=True)
class DisorderMap:
    """Per-site frequency detunings in MHz from the common interaction frequency."""

    offsets: Mapping = field(default_factory=dict)

    def get(self, site, default: float = 0.0) -> float:
        return float(self.offsets.get(site, default))


@dataclass(frozen=True)
class ActiveGraph:
    """Induced interaction graph over the sites participating in an evolution.

    Site labels are arbitrary hashables; `sites` fixes the canonical index
    order used by sector bases and Hamiltonians built on this graph.
    """

    sites: tuple
    edges: tuple  # (i, j, j_eff_mhz) with i < j, site indices

    def __post_init__(self):
        # a Hamiltonian would sum a pair's two hops into one entry while
        # HamiltonianMatrix.nnz counted both, so a pair is listed once
        pairs = [(i, j) if i < j else (j, i) for i, j, _ in self.edges]
        if len(set(pairs)) < len(pairs):
            twice = next(pair for pair, count in Counter(pairs).items() if count > 1)
            raise ValueError(f"site pair {twice} is listed twice in the graph's edges")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.sites)}


@functools.cache
def _lattice_edges() -> tuple[CouplingEdge, ...]:
    """The 112 nearest-neighbour couplings of the 8x8 array at the default
    J_eff, row-major; built once, shared by every default device (edges are frozen)."""
    g = QubitId.from_grid
    return tuple(CouplingEdge(g(r, c), g(r2, c2)) for r in range(8) for c in range(8)
                 for r2, c2 in ((r + 1, c), (r, c + 1)) if r2 < 8 and c2 < 8)


def default_device() -> DeviceModel:
    """The 8x8 array with homogeneous parameter means, 2.01 MHz couplings and
    the stock broken elements."""
    qubits = dict.fromkeys(_GRID_QUBITS, QubitParams())  # one frozen parameter set for every qubit
    broken_q = [QubitId.parse("U03Q2"), QubitId.parse("U22Q1")]
    broken_e = [(QubitId.parse("U10Q0"), QubitId.parse("U10Q3"))]
    return DeviceModel(qubits, _lattice_edges(), broken_q, broken_e)


def sample_offsets(n_sites: int, bound_mhz: float, seed: int) -> np.ndarray:
    """Uniform offsets in [-bound, +bound] MHz, one per site, deterministic in seed;
    the bound is at most MAX_DISORDER_BOUND_MHZ. The seed's draw fills one
    column of a realisation array, and `sample_disorder` labels it by site."""
    if not (math.isfinite(bound_mhz) and 0 <= bound_mhz <= MAX_DISORDER_BOUND_MHZ):
        raise ValueError(
            f"disorder bound must be finite and nonnegative, at most MAX_DISORDER_BOUND_MHZ = "
            f"{MAX_DISORDER_BOUND_MHZ} MHz, got {bound_mhz!r}"
        )
    if bound_mhz == 0:
        return np.zeros(n_sites)
    return rng_stream(seed, 0xD1).uniform(-bound_mhz, bound_mhz, size=n_sites)


def sample_disorder(sites: Iterable, bound_mhz: float, seed: int) -> DisorderMap:
    """`sample_offsets` as a map from each site to its offset in MHz."""
    sites = list(sites)
    values = sample_offsets(len(sites), bound_mhz, seed)
    return DisorderMap({s: float(v) for s, v in zip(sites, values)})


def active_subgraph(device: DeviceModel, active: Iterable[QubitId]) -> ActiveGraph:
    """Induced subgraph of functional edges among the active qubits, in sorted
    qubit order.

    Parked qubits are excluded from the dynamics entirely; the ~50 MHz parking
    detuning makes residual hopping negligible next to J.
    """
    active = sorted(set(active))
    if not active:
        raise ValueError("active set is empty")
    for q in active:
        if q not in device.qubits or q in device.broken_qubits:
            raise ValueError(f"active qubit {q} is broken or not on the device")
    index = {q: i for i, q in enumerate(active)}
    edges = []
    for a, b, e in device._functional_edge_items():
        if a in index and b in index:  # a < b, so index[a] < index[b]
            edges.append((index[a], index[b], e.j_eff_mhz))
    edges.sort()
    return ActiveGraph(tuple(active), tuple(edges))


def grid_graph(n_rows: int, n_cols: int, j_eff_mhz: float = DEFAULT_J_EFF_MHZ) -> ActiveGraph:
    """Fully functional rectangular lattice with (row, col) site labels."""
    sites = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    index = {s: i for i, s in enumerate(sites)}
    edges = []
    for (r, c) in sites:
        for (r2, c2) in ((r + 1, c), (r, c + 1)):
            if (r2, c2) in index:
                i, j = sorted((index[(r, c)], index[(r2, c2)]))
                edges.append((i, j, j_eff_mhz))
    return ActiveGraph(tuple(sites), tuple(sorted(edges)))


def subgrid_device(row0: int, col0: int, n_rows: int, n_cols: int) -> DeviceModel:
    """Rectangular patch of the 8x8 layout as its own fully functional device.

    Handy for small calibration twins; raises if the patch would include a
    stock broken element.
    """
    if not (0 <= row0 and 0 <= col0 and row0 + n_rows <= 8 and col0 + n_cols <= 8):
        raise ValueError("patch must fit inside the 8x8 grid")
    device = default_device()
    rows, cols = range(row0, row0 + n_rows), range(col0, col0 + n_cols)
    qubits = {q: p for q, p in device.qubits.items() if q.grid_position[0] in rows and q.grid_position[1] in cols}
    for q in qubits:
        if q in device.broken_qubits:
            raise ValueError(f"patch includes broken qubit at grid {q.grid_position}")
    edges = [e for e in device._edges.values() if e.a in qubits and e.b in qubits]
    for e in edges:
        if e.key in device.broken_edge_keys:
            (r, c), (r2, c2) = e.a.grid_position, e.b.grid_position
            raise ValueError(f"patch includes broken edge at grid ({r},{c})-({r2},{c2})")
    return DeviceModel(qubits, edges)
