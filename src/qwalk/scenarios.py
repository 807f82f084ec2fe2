"""Declarative experiment construction: full-array walks, the two-path
interferometer with triangular disorder steps, blocked / removed variants,
and fringe-grid sweeps.
"""
from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .device import (
    ActiveGraph,
    DeviceModel,
    DisorderMap,
    QubitId,
    active_subgraph,
    default_device,
)
from .evolution import evolve_unitary, propagate_block
from .hamiltonian import HamiltonianMatrix, build_hamiltonian, offset_diagonals
from .measurement import ReadoutModel, ShotCounts, post_select, sample_shots
from .sector import QuantumState, SectorBasis, basis_state, enumerate_basis, populations, site_sums

__all__ = [
    "MZLayout",
    "DisorderStepProtocol",
    "Scenario",
    "ScenarioResult",
    "FringeGrid",
    "default_mz_layout",
    "layout_from_names",
    "ctqw_scenario",
    "mz_scenario",
    "disorder_sweep",
    "run_scenario",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 3

# Shot cap: the perfect-readout sampler holds 8 bytes per shot (one float64
# uniform, sorted in place), 80 MB here; counts in use are <= 50,000.
MAX_SHOTS = 10**7
# Sweep cap on cells x sector dimension: a sweep holds its start block
# (complex128), its step diagonals and the detector probabilities (float64)
# whole, 32 bytes per entry, 160 MB here; the default mz-two grid holds 33,396.
MAX_SWEEP_ENTRIES = 5 * 10**6
# Run cap on propagated sample times x max(sector dimension, sites): a run
# holds each sample's state (complex128) and site populations (float64) whole,
# at most 24 bytes per entry, 120 MB here; the default ctqw-two run holds 115,351.
# The dimension is at least the site count but for an empty or a full sector.
MAX_RUN_ENTRIES = 5 * 10**6

# Triangular detuning pattern along a 10-site arm: ramps d..5d then back down.
_STEP_PATTERN = (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)


@dataclass(frozen=True)
class MZLayout:
    """Interferometer site names mapped onto lattice qubits.

    Topology: source - splitter, splitter - first site of each arm, two
    equal-length arms, arm ends - recombiner, recombiner - detector.
    """

    source: QubitId
    splitter: QubitId
    left_arm: tuple
    right_arm: tuple
    recombiner: QubitId
    detector: QubitId

    @property
    def sites(self) -> tuple:
        return (self.source, self.splitter, *self.left_arm, *self.right_arm, self.recombiner, self.detector)

    def named_sites(self) -> dict:
        names = {"S": self.source, "BS1": self.splitter, "BS2": self.recombiner, "D": self.detector}
        for k, q in enumerate(self.left_arm, start=1):
            names[f"L{k}"] = q
        for k, q in enumerate(self.right_arm, start=1):
            names[f"R{k}"] = q
        return names

    def adjacency(self) -> list[tuple[QubitId, QubitId]]:
        pairs = [(self.source, self.splitter), (self.splitter, self.left_arm[0]), (self.splitter, self.right_arm[0])]
        for arm in (self.left_arm, self.right_arm):
            pairs.extend(zip(arm, arm[1:]))
            pairs.append((arm[-1], self.recombiner))
        pairs.append((self.recombiner, self.detector))
        return pairs

    def validate(self, device: DeviceModel) -> None:
        sites = self.sites
        if len(set(sites)) != len(sites):
            raise ValueError("interferometer sites must be distinct")
        if len(self.left_arm) != len(self.right_arm):
            raise ValueError("arms must have equal length")
        functional = set(device.functional_qubits)
        for q in sites:
            if q not in functional:
                raise ValueError(f"interferometer site {q} is broken or missing")
        for a, b in self.adjacency():
            if not device.edge_functional(a, b):
                raise ValueError(f"required interferometer edge {a}-{b} is not a functional lattice edge")


def default_mz_layout() -> MZLayout:
    """24-site ring-with-stubs embedding that avoids the broken elements.

    The ring is the perimeter of grid rows 2..7, cols 1..7; source and
    detector hang off the midpoints of the top and bottom edges, so the layout
    is mirror symmetric about the source-detector column.
    """
    g = QubitId.from_grid
    left = [g(2, 3), g(2, 2), g(2, 1), g(3, 1), g(4, 1), g(5, 1), g(6, 1), g(7, 1), g(7, 2), g(7, 3)]
    right = [g(2, 5), g(2, 6), g(2, 7), g(3, 7), g(4, 7), g(5, 7), g(6, 7), g(7, 7), g(7, 6), g(7, 5)]
    return MZLayout(
        source=g(1, 4),
        splitter=g(2, 4),
        left_arm=tuple(left),
        right_arm=tuple(right),
        recombiner=g(7, 4),
        detector=g(6, 4),
    )


def layout_from_names(names: dict) -> MZLayout:
    """The layout of site names S, BS1, L1..Ln, R1..Rn, BS2, D mapped to qubit labels."""

    def q(name):
        if name not in names:
            raise ValueError(f"layout has no site {name!r}")
        return QubitId.parse(names[name])

    n_arm = max(1, sum(1 for key in names if key.startswith("L")))  # an arm has at least L1 / R1
    return MZLayout(
        source=q("S"),
        splitter=q("BS1"),
        left_arm=tuple(q(f"L{k}") for k in range(1, n_arm + 1)),
        right_arm=tuple(q(f"R{k}") for k in range(1, n_arm + 1)),
        recombiner=q("BS2"),
        detector=q("D"),
    )


@dataclass(frozen=True)
class DisorderStepProtocol:
    """Per-arm detuning steps: site k of an arm is detuned by pattern[k] * d MHz,
    the pattern ramping 1..5 then 5..1 about the arm midpoint."""

    d_left_mhz: float = 0.0
    d_right_mhz: float = 0.0

    def offsets(self, layout: MZLayout) -> DisorderMap:
        out = {}
        for k, q in enumerate(layout.left_arm):
            out[q] = _STEP_PATTERN[k % len(_STEP_PATTERN)] * self.d_left_mhz
        for k, q in enumerate(layout.right_arm):
            out[q] = _STEP_PATTERN[k % len(_STEP_PATTERN)] * self.d_right_mhz
        return DisorderMap(out)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> float:
    """A JSON number as a float: a bool or a numeric string is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _labels(value) -> tuple:
    return tuple(QubitId.parse(label).label for label in value)


def _name(value) -> str:
    """A JSON name as text: null is no name, not the string "None"."""
    if value is None:
        raise TypeError("a scenario needs a name, got null")
    return str(value)


@dataclass(frozen=True)
class Scenario:
    """A fully specified runnable experiment on the device.

    `static_disorder_mhz` holds persistent per-site detunings (residual device
    disorder, planted twin disorder). A scenario is an interferometer exactly
    when it carries `layout_names`; only then may it carry the protocol
    steps, materialized against the layout at run time. A field's `convert`
    metadata turns its JSON value into the field's type in `from_dict`.
    """

    name: str = field(metadata={"convert": _name})
    active: tuple = field(metadata={"convert": _labels})
    sources: tuple = field(metadata={"convert": _labels})
    times_ns: tuple = field(metadata={"convert": lambda v: tuple(map(_number, v))})
    static_disorder_mhz: dict = field(  # label -> MHz
        default_factory=dict, metadata={"convert": lambda v: {k: _number(x) for k, x in v.items()}}
    )
    step_d_left_mhz: float = field(default=0.0, metadata={"convert": _number})
    step_d_right_mhz: float = field(default=0.0, metadata={"convert": _number})
    readout_time_ns: float | None = field(default=None, metadata={"convert": lambda v: None if v is None else _number(v)})
    n_shots: int | None = None
    seed: int = 0
    layout_names: dict = field(default_factory=dict, metadata={"convert": dict})  # site name -> label

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not self.active:
            raise ValueError("scenario has an empty active set")
        for name in ("active", "sources"):
            labels = getattr(self, name)
            repeated = sorted(label for label, n in Counter(labels).items() if n > 1)
            if repeated:
                raise ValueError(f"{name} lists {', '.join(repeated)} more than once")
        missing = [s for s in self.sources if s not in self.active]
        if missing:
            raise ValueError(f"initial excitation sites {missing} are not in the active set")
        t = self.times_ns
        if not t or not all(map(math.isfinite, t)) or t[0] < 0 or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("times_ns must be a nonempty, strictly increasing list of finite nonnegative times")
        for label in self.static_disorder_mhz:
            QubitId.parse(label)  # a bad label fails here, before the run starts
        for name, value in (
            *((f"static_disorder_mhz[{k!r}]", v) for k, v in self.static_disorder_mhz.items()),
            ("step_d_left_mhz", self.step_d_left_mhz),
            ("step_d_right_mhz", self.step_d_right_mhz),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.readout_time_ns is not None and not (math.isfinite(self.readout_time_ns) and self.readout_time_ns >= 0):
            raise ValueError(f"readout_time_ns must be finite and nonnegative, got {self.readout_time_ns!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.n_shots is not None and not (_is_int(self.n_shots) and 0 < self.n_shots <= MAX_SHOTS):
            raise ValueError(
                f"n_shots must be a positive integer up to MAX_SHOTS = {MAX_SHOTS}, or null, got {self.n_shots!r}"
            )
        if self.layout_names:
            try:
                layout_from_names(self.layout_names)
            except (TypeError, AttributeError, ValueError) as exc:
                raise ValueError(f"layout_names is not an interferometer layout: {exc}") from None
        else:
            for name in ("step_d_left_mhz", "step_d_right_mhz"):
                if getattr(self, name):
                    raise ValueError(f"{name} needs an interferometer: the scenario has no layout_names")

    @property
    def n_excitations(self) -> int:
        return len(self.sources)

    @property
    def readout_time(self) -> float:
        """The time the scenario is read out at: `readout_time_ns`, or else the last sample time."""
        return float(self.times_ns[-1] if self.readout_time_ns is None else self.readout_time_ns)

    def check_static_disorder(self, device: DeviceModel) -> None:
        """Reject a static disorder on a label the device does not run (a
        broken qubit, or one not on it). A functional qubit outside the active
        set is allowed, as layout-wide maps need."""
        idle = [
            label
            for label in self.static_disorder_mhz
            if (q := QubitId.parse(label)) not in device.qubits or q in device.broken_qubits
        ]
        if idle:
            raise ValueError(f"static_disorder_mhz names qubits the device does not run: {', '.join(idle)}")

    def disorder(self) -> DisorderMap:
        offsets = {QubitId.parse(k): float(v) for k, v in self.static_disorder_mhz.items()}
        if self.step_d_left_mhz or self.step_d_right_mhz:
            layout = layout_from_names(self.layout_names)
            steps = DisorderStepProtocol(self.step_d_left_mhz, self.step_d_right_mhz).offsets(layout)
            for q, v in steps.offsets.items():
                offsets[q] = offsets.get(q, 0.0) + v
        return DisorderMap(offsets)

    def to_dict(self) -> dict:
        """The scenario's JSON document: tuples as lists, maps sorted by key."""
        doc = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = dict(sorted(value.items()))
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario a `to_dict` document describes. A wrong schema version,
        an unknown or missing field, or a value of the wrong type raises
        ValueError naming the field."""
        version = data.get("schema_version") if isinstance(data, dict) else None
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema version {version!r}")
        known = {f.name: f for f in fields(cls)}
        unknown = [key for key in data if key not in known and key != "schema_version"]
        if unknown:
            raise ValueError(f"unknown scenario field {unknown[0]!r}")
        values = {}
        for name in [key for key in known if key in data]:
            try:
                values[name] = known[name].metadata.get("convert", lambda v: v)(data[name])
            except (TypeError, ValueError, AttributeError, OverflowError) as exc:
                raise ValueError(f"{name} cannot be read from {data[name]!r}: {exc}") from None
        missing = [name for name, f in known.items() if name not in data and f.default is f.default_factory is MISSING]
        if missing:
            raise ValueError(f"{missing[0]} is missing from the scenario")
        return cls(**values)

    def with_static_disorder(self, disorder: DisorderMap) -> "Scenario":
        offsets = {q.label if isinstance(q, QubitId) else str(q): float(v) for q, v in disorder.offsets.items()}
        return replace(self, static_disorder_mhz=offsets)


def ctqw_scenario(
    walkers,
    t_max_ns: float = 600.0,
    step_ns: float = 10.0,
    device: DeviceModel | None = None,
    n_shots: int | None = None,
    seed: int = 0,
) -> Scenario:
    """Continuous walk over the whole functional array from the given qubits."""
    device = device or default_device()
    functional = {q.label for q in device.functional_qubits}
    walker_labels = tuple(sorted(w if isinstance(w, str) else w.label for w in walkers))
    if not walker_labels:
        raise ValueError("need at least one walker")
    for w in walker_labels:
        if w not in functional:
            raise ValueError(f"walker qubit {w} is broken or not on the device")
    times = tuple(np.arange(0.0, t_max_ns + 1e-9, step_ns)) if t_max_ns > 0 else (0.0,)
    return Scenario(
        name=f"ctqw-{len(walker_labels)}walker",
        active=tuple(sorted(functional)),
        sources=walker_labels,
        times_ns=times,
        n_shots=n_shots,
        seed=seed,
    )


def mz_scenario(
    source,
    protocol: DisorderStepProtocol | None = None,
    blocked: bool = False,
    removed: bool = False,
    layout: MZLayout | None = None,
    device: DeviceModel | None = None,
    t_max_ns: float = 1000.0,
    step_ns: float = 5.0,
    readout_time_ns: float | None = None,
    n_shots: int | None = None,
    seed: int = 0,
) -> Scenario:
    """Interferometer scenario; `source` is a site name set like {"S"} or {"L1","R1"}.

    The blocked variant removes R1 and R10 from the active set, the removed
    variant deletes BS1 and S.
    """
    device = device or default_device()
    layout = layout or default_mz_layout()
    layout.validate(device)
    names = layout.named_sites()
    source_names = {source} if isinstance(source, str) else set(source)
    for s in source_names:
        if s not in names:
            raise ValueError(f"unknown interferometer site {s!r}")
    dropped: set[str] = set()
    if blocked:
        dropped |= {"R1", "R10"}
    if removed:
        dropped |= {"BS1", "S"}
    hit = sorted(source_names & dropped)
    if hit:
        raise ValueError(f"source sites {hit} are blocked or removed in this variant")
    active = tuple(sorted(names[n].label for n in names if n not in dropped))
    protocol = protocol or DisorderStepProtocol()
    if readout_time_ns is None:
        readout_time_ns = 650.0 if len(source_names) == 1 else 550.0
    times = tuple(np.arange(0.0, t_max_ns + 1e-9, step_ns))
    return Scenario(
        name="mz-" + "".join(sorted(source_names)).lower()
        + ("-blocked" if blocked else "")
        + ("-removed" if removed else ""),
        active=active,
        sources=tuple(sorted(names[s].label for s in source_names)),
        times_ns=times,
        step_d_left_mhz=protocol.d_left_mhz,
        step_d_right_mhz=protocol.d_right_mhz,
        readout_time_ns=readout_time_ns,
        n_shots=n_shots,
        seed=seed,
        layout_names={k: v.label for k, v in names.items()},
    )


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    sites: tuple  # labels in graph order
    times_ns: tuple
    populations: np.ndarray  # n_sites x n_times
    shots: ShotCounts | None = None
    retention: float | None = None

    def site_series(self, label: str) -> np.ndarray:
        return self.populations[self.sites.index(label)]


def _scenario_setup(
    scenario: Scenario, device: DeviceModel, disorder: DisorderMap
) -> tuple[ActiveGraph, SectorBasis, QuantumState, HamiltonianMatrix]:
    """The scenario's active graph, its sector basis, the start state with a
    walker on each source, and the Hamiltonian under `disorder`. A static
    disorder on a qubit the device does not run is rejected first."""
    scenario.check_static_disorder(device)
    graph = active_subgraph(device, map(QubitId.parse, scenario.active))
    basis = enumerate_basis(graph.n_sites, scenario.n_excitations)
    psi0 = basis_state(basis, {graph.sites.index(QubitId.parse(s)) for s in scenario.sources})
    return graph, basis, psi0, build_hamiltonian(graph, basis, disorder)


def run_scenario(
    scenario: Scenario,
    device: DeviceModel | None = None,
    readout: ReadoutModel | None = None,
) -> ScenarioResult:
    """Evolve the scenario and optionally sample shots at the readout time,
    which is propagated to exactly without adding a column to the populations.
    Sampled shots are post-selected on the walker number. More propagated
    sample times x max(sector dimension, sites) than MAX_RUN_ENTRIES raise
    ValueError before the basis is built."""
    times = scenario.times_ns
    t_read = None
    if scenario.n_shots:
        t_read = scenario.readout_time
        times = sorted({*times, t_read})
    n_sites = len(scenario.active)
    dimension = math.comb(n_sites, scenario.n_excitations)
    if len(times) * max(dimension, n_sites) > MAX_RUN_ENTRIES:
        raise ValueError(
            f"run of {len(times)} sample times at sector dimension {dimension} on {n_sites} sites exceeds "
            f"MAX_RUN_ENTRIES = {MAX_RUN_ENTRIES} sample times x max(dimension, sites)"
        )
    graph, _basis, psi0, h = _scenario_setup(scenario, device or default_device(), scenario.disorder())
    snapshots = dict(evolve_unitary(h, psi0, times))
    pops = np.column_stack([populations(snapshots[t]) for t in scenario.times_ns])

    shots = retention = None
    if t_read is not None:
        state = snapshots[t_read]
        model = readout or ReadoutModel.perfect(graph.n_sites)
        shots = sample_shots(state, model, scenario.n_shots, scenario.seed)
        shots, retention = post_select(shots, scenario.n_excitations)
    labels = tuple(q.label for q in graph.sites)
    return ScenarioResult(scenario, labels, scenario.times_ns, pops, shots, retention)


@dataclass(frozen=True)
class FringeGrid:
    d_left_values: tuple
    d_right_values: tuple
    values: np.ndarray  # len(d_left) x len(d_right)
    readout_time_ns: float
    detector: str

    @classmethod
    def from_csv(cls, text: str) -> "FringeGrid":
        """Parse a fringe CSV: a header of a corner cell and the d_right values,
        then one row per d_left value with as many fields as the header (no
        readout time or detector: 0.0 ns and "D"). A malformed file raises ValueError naming its line,
        and the cell when one is not a number."""
        rows = [line.split(",") for line in text.rstrip().splitlines()]
        if not rows or len(rows[0]) < 2:
            raise ValueError("fringe CSV line 1: no header of a corner cell and d_right values")
        if len(rows) == 1:
            raise ValueError("fringe CSV has no data rows after the header on line 1")
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != len(rows[0]):
                raise ValueError(f"fringe CSV line {line} has {len(row)} fields, the header has {len(rows[0])}")

        def number(cell: str, line: int) -> float:
            try:
                return float(cell)
            except ValueError:
                raise ValueError(f"fringe CSV line {line}: cell {cell!r} is not a number") from None

        d_right = tuple(number(x, 1) for x in rows[0][1:])
        data = [[number(x, line) for x in row] for line, row in enumerate(rows[1:], start=2)]
        return cls(tuple(r[0] for r in data), d_right, np.array([r[1:] for r in data]), 0.0, "D")


def disorder_sweep(
    scenario: Scenario,
    d_left_values,
    d_right_values,
    device: DeviceModel | None = None,
) -> FringeGrid:
    """Detector population over a (d_left, d_right) step grid, read out at
    the scenario's `readout_time`.

    The scenario's static disorder persists across cells; only the protocol
    steps vary. Every cell shares the hopping matrix and the static disorder,
    so that part is built once and all cells propagate as one block, with
    one step diagonal per cell.
    """
    if not scenario.layout_names:
        raise ValueError("disorder sweeps need an interferometer scenario, one with layout_names")
    d_left_values = tuple(float(v) for v in d_left_values)
    d_right_values = tuple(float(v) for v in d_right_values)
    if not d_left_values or not d_right_values:
        raise ValueError("sweep ranges must be nonempty")
    cells = len(d_left_values) * len(d_right_values)
    dimension = math.comb(len(scenario.active), scenario.n_excitations)
    if cells * dimension > MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"sweep of {cells} cells at sector dimension {dimension} exceeds "
            f"MAX_SWEEP_ENTRIES = {MAX_SWEEP_ENTRIES} cells x dimension"
        )
    device = device or default_device()
    layout = layout_from_names(scenario.layout_names)
    t_read = scenario.readout_time

    static = replace(scenario, step_d_left_mhz=0.0, step_d_right_mhz=0.0).disorder()
    graph, basis, psi0, h0 = _scenario_setup(scenario, device, static)

    # cell (i, j) steps the arms by d_left[i] and d_right[j]: an active arm
    # site's offset is its unit-step pattern weight times its arm's step, set
    # per arm rather than summed over both, so a negative step cannot turn an
    # off-arm 0.0 into -0.0
    units = (DisorderStepProtocol(1.0, 0.0).offsets(layout), DisorderStepProtocol(0.0, 1.0).offsets(layout))
    steps = (np.repeat(d_left_values, len(d_right_values)), np.tile(d_right_values, len(d_left_values)))
    offsets = np.zeros((graph.n_sites, len(steps[0])))
    for unit, step in zip(units, steps):
        weights = np.array([unit.get(s) for s in graph.sites])
        on_arm = weights != 0.0
        offsets[on_arm] = weights[on_arm, None] * step
    block = np.repeat(psi0.amplitudes[:, None], offsets.shape[1], axis=1)
    (states,) = propagate_block(h0.matrix, offset_diagonals(basis, offsets), block, (t_read,))
    site = graph.index[layout.detector]
    listed = np.any(basis.sites == site, axis=1)  # the rows that hold a walker on the detector
    amplitudes = states[listed]
    detector = site_sums(basis.sites[listed], amplitudes.real**2 + amplitudes.imag**2, graph.n_sites)[site]
    values = detector.reshape(len(d_left_values), len(d_right_values))
    return FringeGrid(d_left_values, d_right_values, values, t_read, layout.detector.label)
