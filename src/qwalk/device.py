"""Programmable 8x8 qubit lattice: topology, parameters, frequency configurations.

All frequencies are linear (MHz or GHz, i.e. omega/2pi); conversion to angular
units happens only inside the Hamiltonian builder.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "QubitId",
    "QubitParams",
    "CouplingEdge",
    "DeviceModel",
    "DisorderMap",
    "FrequencyConfig",
    "ActiveGraph",
    "default_device",
    "sample_disorder",
    "active_subgraph",
    "grid_graph",
    "subgrid_device",
    "rng_stream",
    "DEFAULT_J_EFF_MHZ",
    "DEFAULT_ANHARMONICITY_MHZ",
    "DEFAULT_INTERACTION_GHZ",
    "DEFAULT_PARKED_GHZ",
    "DEFAULT_DISORDER_BOUND_MHZ",
]

_LABEL_RE = re.compile(r"^U([0-3])([0-3])Q([0-3])$")

# Offsets of Q0..Q3 inside a 2x2 unit, clockwise from the top-left corner.
# This makes Q0-Q1 and Q0-Q3 nearest neighbours, and puts U00Q0 / U33Q2 at
# opposite corners of the 8x8 grid.
_UNIT_OFFSETS = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}

DEFAULT_J_EFF_MHZ = 2.01
DEFAULT_ANHARMONICITY_MHZ = -248.9
DEFAULT_INTERACTION_GHZ = 5.02
DEFAULT_PARKED_GHZ = 4.97
DEFAULT_DISORDER_BOUND_MHZ = 1.6  # 0.8 * J_eff/2pi

_DEFAULT_BROKEN_QUBITS = ("U03Q2", "U22Q1")
_DEFAULT_BROKEN_EDGES = (("U10Q0", "U10Q3"),)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator; independent streams for (seed, *key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))))


@dataclass(frozen=True, order=True)
class QubitId:
    """Canonical qubit label U{row}{col}Q{index} on the 4x4 grid of 2x2 units."""

    unit_row: int
    unit_col: int
    index_in_unit: int

    def __post_init__(self):
        for v in (self.unit_row, self.unit_col, self.index_in_unit):
            if not 0 <= v <= 3:
                raise ValueError(f"qubit coordinates out of range: {self}")

    @classmethod
    def parse(cls, label: str) -> "QubitId":
        m = _LABEL_RE.match(label)
        if m is None:
            raise ValueError(f"bad qubit label {label!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))

    @property
    def label(self) -> str:
        return f"U{self.unit_row}{self.unit_col}Q{self.index_in_unit}"

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


# every lattice position's qubit, row-major; inverts QubitId.grid_position
_GRID_QUBITS = tuple(
    QubitId(r // 2, c // 2, next(i for i, off in _UNIT_OFFSETS.items() if off == (r % 2, c % 2)))
    for r in range(8)
    for c in range(8)
)


@dataclass(frozen=True)
class QubitParams:
    max_frequency_ghz: float = 5.442
    idle_frequency_ghz: float = 5.200
    anharmonicity_mhz: float = DEFAULT_ANHARMONICITY_MHZ
    t1_us: float = 12.26
    t2_star_us: float = 1.63
    readout_fidelity_0: float = 0.966
    readout_fidelity_1: float = 0.919
    effective_temperature_mk: float = 66.0
    dispersive_shift_mhz: float = 1.14
    resonator_linewidth_mhz: float = 5.06

    def __post_init__(self):
        if not (0.0 < self.readout_fidelity_0 <= 1.0 and 0.0 < self.readout_fidelity_1 <= 1.0):
            raise ValueError("readout fidelities must lie in (0, 1]")
        if self.t1_us <= 0 or self.t2_star_us <= 0:
            raise ValueError("T1 and T2* must be positive")
        if self.anharmonicity_mhz >= 0:
            raise ValueError("anharmonicity must be negative")


@dataclass(frozen=True)
class CouplingEdge:
    a: QubitId
    b: QubitId
    j_eff_mhz: float = DEFAULT_J_EFF_MHZ
    functional: bool = True

    def __post_init__(self):
        ra, ca = self.a.grid_position
        rb, cb = self.b.grid_position
        if abs(ra - rb) + abs(ca - cb) != 1:
            raise ValueError(f"edge {self.a}-{self.b} does not connect lattice neighbours")
        if self.functional and self.j_eff_mhz <= 0:
            raise ValueError(f"functional edge {self.a}-{self.b} needs j_eff > 0")

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
        return sorted(q for q in self.qubits if q not in self.broken_qubits)

    @property
    def functional_qubit_count(self) -> int:
        return len(self.qubits) - len(self.broken_qubits)

    def edge(self, a: QubitId, b: QubitId) -> CouplingEdge:
        try:
            return self._edges[frozenset((a, b))]
        except KeyError:
            raise KeyError(f"no edge {a}-{b} on the device") from None

    def edge_functional(self, a: QubitId, b: QubitId) -> bool:
        key = frozenset((a, b))
        if key not in self._edges:
            return False
        if key in self.broken_edge_keys or not self._edges[key].functional:
            return False
        return not (a in self.broken_qubits or b in self.broken_qubits)

    def functional_edges(self) -> list[CouplingEdge]:
        out = []
        for e in self._edges.values():
            if self.edge_functional(e.a, e.b):
                out.append(e)
        return sorted(out, key=lambda e: tuple(sorted((e.a, e.b))))

    def neighbors(self, q: QubitId) -> list[QubitId]:
        out = []
        for e in self._edges.values():
            if q in e.key and self.edge_functional(e.a, e.b):
                out.append(e.b if e.a == q else e.a)
        return sorted(out)

    # -- device description file --------------------------------------------

    def to_dict(self) -> dict:
        broken_edges = []
        for key in self.broken_edge_keys:
            a, b = sorted(key)
            broken_edges.append([a.label, b.label])
        return {
            "schema_version": 1,
            "qubits": {
                q.label: {
                    "max_frequency_ghz": p.max_frequency_ghz,
                    "idle_frequency_ghz": p.idle_frequency_ghz,
                    "anharmonicity_mhz": p.anharmonicity_mhz,
                    "t1_us": p.t1_us,
                    "t2_star_us": p.t2_star_us,
                    "readout_fidelity_0": p.readout_fidelity_0,
                    "readout_fidelity_1": p.readout_fidelity_1,
                    "effective_temperature_mk": p.effective_temperature_mk,
                    "dispersive_shift_mhz": p.dispersive_shift_mhz,
                    "resonator_linewidth_mhz": p.resonator_linewidth_mhz,
                }
                for q, p in sorted(self.qubits.items())
            },
            "edges": [
                [e.a.label, e.b.label, e.j_eff_mhz, e.functional]
                for e in sorted(self._edges.values(), key=lambda e: tuple(sorted((e.a, e.b))))
            ],
            "broken_qubits": sorted(q.label for q in self.broken_qubits),
            "broken_edges": sorted(broken_edges),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceModel":
        version = data.get("schema_version")
        if version != 1:
            raise ValueError(f"unsupported device schema version {version!r}")
        qubits = {}
        for label, raw in data["qubits"].items():
            try:
                qubits[QubitId.parse(label)] = QubitParams(**raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid parameters for qubit {label}: {exc}") from None
        edges = []
        for a, b, j, functional in data["edges"]:
            try:
                edges.append(CouplingEdge(QubitId.parse(a), QubitId.parse(b), j, functional))
            except ValueError as exc:
                raise ValueError(f"invalid edge {a}-{b}: {exc}") from None
        broken_q = [QubitId.parse(s) for s in data.get("broken_qubits", ())]
        broken_e = [(QubitId.parse(a), QubitId.parse(b)) for a, b in data.get("broken_edges", ())]
        return cls(qubits, edges, broken_q, broken_e)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "DeviceModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class DisorderMap:
    """Per-site frequency detunings in MHz from the common interaction frequency."""

    offsets: Mapping = field(default_factory=dict)

    def get(self, site, default: float = 0.0) -> float:
        return float(self.offsets.get(site, default))


@dataclass(frozen=True)
class FrequencyConfig:
    """Working frequencies of the array during an evolution window.

    Active qubits sit at interaction_frequency_ghz plus their disorder offset;
    everything else is parked far away and treated as decoupled.
    """

    working_frequency_ghz: Mapping
    active_set: frozenset
    interaction_frequency_ghz: float = DEFAULT_INTERACTION_GHZ
    parked_frequency_ghz: float = DEFAULT_PARKED_GHZ

    @classmethod
    def from_disorder(
        cls,
        active: Iterable[QubitId],
        disorder: DisorderMap | None = None,
        interaction_frequency_ghz: float = DEFAULT_INTERACTION_GHZ,
        parked_frequency_ghz: float = DEFAULT_PARKED_GHZ,
    ) -> "FrequencyConfig":
        active = frozenset(active)
        disorder = disorder or DisorderMap()
        working = {q: interaction_frequency_ghz + 1e-3 * disorder.get(q) for q in active}
        return cls(working, active, interaction_frequency_ghz, parked_frequency_ghz)

    def disorder_offsets(self) -> DisorderMap:
        return DisorderMap(
            {q: 1e3 * (self.working_frequency_ghz[q] - self.interaction_frequency_ghz) for q in self.active_set}
        )


@dataclass(frozen=True)
class ActiveGraph:
    """Induced interaction graph over the sites participating in an evolution.

    Site labels are arbitrary hashables; `sites` fixes the canonical index
    order used by sector bases and Hamiltonians built on this graph.
    """

    sites: tuple
    edges: tuple  # (i, j, j_eff_mhz) with i < j, site indices

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.sites)}


def default_device(
    overrides: Mapping[QubitId, QubitParams] | None = None,
    j_eff_sigma_mhz: float | None = None,
    seed: int = 0,
) -> DeviceModel:
    """The 8x8 array with homogeneous parameter means and the stock broken elements.

    `overrides` replaces per-qubit parameters; `j_eff_sigma_mhz` optionally
    randomizes edge couplings around the 2.01 MHz mean (off by default).
    """
    qubits = {}
    for r in range(8):
        for c in range(8):
            q = QubitId.from_grid(r, c)
            qubits[q] = QubitParams()
    if overrides:
        qubits.update(overrides)
    rng = rng_stream(seed, 0xDE) if j_eff_sigma_mhz else None
    edges = []
    for r in range(8):
        for c in range(8):
            for (r2, c2) in ((r + 1, c), (r, c + 1)):
                if r2 < 8 and c2 < 8:
                    j = DEFAULT_J_EFF_MHZ
                    if rng is not None:
                        j = float(rng.normal(DEFAULT_J_EFF_MHZ, j_eff_sigma_mhz))
                    edges.append(CouplingEdge(QubitId.from_grid(r, c), QubitId.from_grid(r2, c2), j))
    broken_q = [QubitId.parse(s) for s in _DEFAULT_BROKEN_QUBITS]
    broken_e = [(QubitId.parse(a), QubitId.parse(b)) for a, b in _DEFAULT_BROKEN_EDGES]
    return DeviceModel(qubits, edges, broken_q, broken_e)


def sample_disorder(sites: Iterable, bound_mhz: float, seed: int) -> DisorderMap:
    """Uniform offsets in [-bound, +bound] MHz per site, deterministic in seed."""
    if not (math.isfinite(bound_mhz) and bound_mhz >= 0):
        raise ValueError(f"disorder bound must be finite and nonnegative, got {bound_mhz!r}")
    sites = list(sites)
    rng = rng_stream(seed, 0xD1)
    values = rng.uniform(-bound_mhz, bound_mhz, size=len(sites)) if bound_mhz > 0 else np.zeros(len(sites))
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
    functional = set(device.functional_qubits)
    for q in active:
        if q not in functional:
            raise ValueError(f"active qubit {q} is broken or not on the device")
    index = {q: i for i, q in enumerate(active)}
    edges = []
    for e in device.functional_edges():
        if e.a in index and e.b in index:
            i, j = sorted((index[e.a], index[e.b]))
            edges.append((i, j, e.j_eff_mhz))
    return ActiveGraph(tuple(active), tuple(sorted(edges)))


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
    broken_q = {QubitId.parse(s).grid_position for s in _DEFAULT_BROKEN_QUBITS}
    broken_e = {
        frozenset((QubitId.parse(a).grid_position, QubitId.parse(b).grid_position))
        for a, b in _DEFAULT_BROKEN_EDGES
    }
    qubits = {}
    for r in range(row0, row0 + n_rows):
        for c in range(col0, col0 + n_cols):
            if (r, c) in broken_q:
                raise ValueError(f"patch includes broken qubit at grid ({r}, {c})")
            qubits[QubitId.from_grid(r, c)] = QubitParams()
    edges = []
    for r in range(row0, row0 + n_rows):
        for c in range(col0, col0 + n_cols):
            for (r2, c2) in ((r + 1, c), (r, c + 1)):
                if r2 < row0 + n_rows and c2 < col0 + n_cols:
                    if frozenset(((r, c), (r2, c2))) in broken_e:
                        raise ValueError(f"patch includes broken edge at grid ({r},{c})-({r2},{c2})")
                    edges.append(CouplingEdge(QubitId.from_grid(r, c), QubitId.from_grid(r2, c2)))
    return DeviceModel(qubits, edges)
