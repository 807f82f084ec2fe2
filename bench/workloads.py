"""Benchmark workloads: seeded inputs, output checks and independent oracles.

Each workload turns the run's seed into a short list of `qwalk` CLI argument
vectors (one operation each) and checks every operation's output directory.
The oracles rebuild the two-walker sector Hamiltonian here, without the
program's sector, hamiltonian or evolution layers, and propagate it with
SciPy, so an engine change in those layers is checked against code it did not
touch. Device topology and couplings come from `qwalk.device`, which defines
the inputs.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from qwalk.device import default_device, sample_disorder, subgrid_device
from qwalk.scenarios import default_mz_layout

TWO_PI = 2.0 * math.pi

WALK_INPUTS = 6
WALK_SHOTS = 20000
WALK_ORACLE_TOL = 1e-7
WALK_SUM_TOL = 1e-9

SWEEP_INPUTS = 4
SWEEP_RESIDUAL_MHZ = 0.2
SWEEP_GRID = np.linspace(0.0, 1.0, 11)  # the CLI's default --d-left / --d-right 0:1:11
SWEEP_READOUT_NS = 550.0  # mz-two's readout time
SWEEP_ORACLE_CELLS = 3
SWEEP_ORACLE_TOL = 1e-8
# Triangular step pattern along each 10-site arm, restated from the paper's protocol.
STEP_PATTERN = (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)

ENSEMBLE_INPUTS = 4
ENSEMBLE_SEEDS = 32
ENSEMBLE_VELOCITIES = 8

# The fit's cost varies fifteenfold across planted disorders (about 850 to
# 14,000 Nelder-Mead evaluations over calibration seeds 0-39, 0.45 to 8 s), so
# a panel drawn from the run seed would make the run's median a property of the
# panel drawn (bootstrapped spreads of 30-50%). Every run therefore calibrates
# the same panel; the run seed sets the order. The panel is the first seven
# consecutive seeds whose fits each take under 5000 evaluations, so that a
# pass is short enough to repeat within a run and the median rests on
# repeated operations. It holds multi-start fits (seeds 8 and 11, 1838 and
# 4445 evaluations); the costliest 5 of seeds 0-39 (6000-14,000 evaluations)
# are not represented.
CALIBRATE_PANEL = tuple(range(5, 12))
CALIBRATE_BOUND_MHZ = 1.6  # the CLI's default planted-disorder bound
CALIBRATE_TOL_MHZ = 0.05  # acceptance c11's noiseless recovery bound


@dataclass
class Op:
    """One CLI invocation and what its output must show."""

    argv: list
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent two-walker oracle
# ---------------------------------------------------------------------------


def _edges(labels) -> list:
    index = {label: i for i, label in enumerate(labels)}
    return [
        (index[e.a.label], index[e.b.label], e.j_eff_mhz)
        for e in default_device().functional_edges()
        if e.a.label in index and e.b.label in index
    ]


def two_walker_populations(labels, offsets_mhz: dict, sources, t_ns: float, dense: bool = False) -> np.ndarray:
    """Site populations at t_ns of two hard-core walkers released on `sources`.

    Basis: unordered site pairs; a hop moves one walker along an edge onto an
    empty site. Energies in rad/us, time in us.
    """
    n = len(labels)
    pairs = list(combinations(range(n), 2))
    pos = {p: k for k, p in enumerate(pairs)}
    neighbours = [[] for _ in range(n)]
    for i, j, j_eff in _edges(labels):
        neighbours[i].append((j, TWO_PI * j_eff))
        neighbours[j].append((i, TWO_PI * j_eff))
    rows, cols, vals = [], [], []
    for k, (a, b) in enumerate(pairs):
        for mover, other in ((a, b), (b, a)):
            for target, amp in neighbours[mover]:
                if target != other:
                    rows.append(k)
                    cols.append(pos[tuple(sorted((target, other)))])
                    vals.append(amp)
    delta = np.array([offsets_mhz.get(label, 0.0) for label in labels])
    diag = np.array([TWO_PI * (delta[a] + delta[b]) for a, b in pairs])
    h = sp.csr_matrix((vals, (rows, cols)), shape=(len(pairs), len(pairs))) + sp.diags(diag)
    psi0 = np.zeros(len(pairs), dtype=complex)
    index = {label: i for i, label in enumerate(labels)}
    psi0[pos[tuple(sorted(index[s] for s in sources))]] = 1.0
    t_us = 1e-3 * t_ns
    if dense:
        psi = scipy.linalg.expm(-1j * t_us * h.toarray()) @ psi0
    else:
        psi = expm_multiply(-1j * t_us * h.tocsc(), psi0)
    prob = np.abs(psi) ** 2
    pops = np.zeros(n)
    for k, (a, b) in enumerate(pairs):
        pops[a] += prob[k]
        pops[b] += prob[k]
    return pops


def gauge(offsets: dict) -> dict:
    """Zero mean, largest-magnitude entry positive: the two degrees of freedom
    swap data cannot observe."""
    keys = sorted(offsets)
    vals = np.array([offsets[k] for k in keys], dtype=float)
    vals -= vals.mean()
    if vals[int(np.argmax(np.abs(vals)))] < 0:
        vals = -vals
    return dict(zip(keys, vals))


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------


def _read_csv(path) -> tuple[list, np.ndarray]:
    """Row labels and values of a labelled CSV matrix (header row skipped)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r[0] for r in rows], np.array([[float(x) for x in r[1:]] for r in rows])


def _read_records(path, kind: str) -> list:
    out = []
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if doc["kind"] == kind:
                out.append(doc)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Walk:
    """Full-array two-walker walk: dim-1891 propagation, occupancies, 20k shots."""

    name = "walk"

    def __init__(self):
        self.labels = sorted(q.label for q in default_device().functional_qubits)

    def ops(self, rng) -> list:
        ops = []
        for _ in range(WALK_INPUTS):
            pair = sorted(str(s) for s in rng.choice(self.labels, 2, replace=False))
            argv = [
                "run", "--scenario", "ctqw-two",
                "--override", "sources=" + json.dumps(pair),
                "--override", f"n_shots={WALK_SHOTS}",
                "--seed", str(int(rng.integers(1, 2**31))),
            ]
            ops.append(Op(argv, {"sources": pair}))
        return ops

    def prepare(self, ops, rng) -> None:
        """Oracle for one seeded time column of the first input."""
        op = ops[0]
        k = int(rng.integers(1, 61))
        t_ns = 10.0 * k
        op.expect["oracle"] = (k, two_walker_populations(self.labels, {}, op.expect["sources"], t_ns))

    def check(self, op: Op, out: Path) -> str | None:
        labels, pops = _read_csv(out / "populations.csv")
        if labels != self.labels:
            return "populations.csv rows are not the 62 functional sites in order"
        drift = float(np.max(np.abs(pops.sum(axis=0) - 2.0)))
        if drift > WALK_SUM_TOL:
            return f"a population column sums to 2 +- {drift:.2e}"
        start = np.array([1.0 if label in op.expect["sources"] else 0.0 for label in labels])
        if np.max(np.abs(pops[:, 0] - start)) > 1e-12:
            return "the t=0 column is not the source pair"
        shots = sum(int(line.split()[1]) for line in (out / "shots.txt").read_text().splitlines() if line)
        if shots != WALK_SHOTS:
            return f"shot counts sum to {shots}, not {WALK_SHOTS}"
        if "oracle" in op.expect:
            k, expected = op.expect["oracle"]
            err = float(np.max(np.abs(pops[:, k] - expected)))
            if err > WALK_ORACLE_TOL:
                return f"column {k} differs from the expm_multiply oracle by {err:.2e}"
        return None


class Sweep:
    """11x11 disorder-step fringe grid of mz-two with a seeded residual disorder."""

    name = "sweep"

    def __init__(self):
        self.names = {name: q.label for name, q in default_mz_layout().named_sites().items()}
        self.labels = sorted(self.names.values())

    def ops(self, rng) -> list:
        ops = []
        for _ in range(SWEEP_INPUTS):
            residual = {label: float(rng.uniform(-SWEEP_RESIDUAL_MHZ, SWEEP_RESIDUAL_MHZ)) for label in self.labels}
            argv = ["sweep", "--scenario", "mz-two", "--override", "static_disorder_mhz=" + json.dumps(residual)]
            ops.append(Op(argv, {"residual": residual}))
        return ops

    def cell_offsets(self, residual: dict, d_left: float, d_right: float) -> dict:
        offsets = dict(residual)
        for arm, d in (("L", d_left), ("R", d_right)):
            for k, step in enumerate(STEP_PATTERN, start=1):
                label = self.names[f"{arm}{k}"]
                offsets[label] = offsets.get(label, 0.0) + step * d
        return offsets

    def prepare(self, ops, rng) -> None:
        """Dense-expm detector populations for a few seeded cells of every input."""
        detector = self.labels.index(self.names["D"])
        sources = (self.names["L1"], self.names["R1"])
        for op in ops:
            cells = {}
            for _ in range(SWEEP_ORACLE_CELLS):
                i, j = (int(x) for x in rng.integers(0, len(SWEEP_GRID), 2))
                offsets = self.cell_offsets(op.expect["residual"], SWEEP_GRID[i], SWEEP_GRID[j])
                pops = two_walker_populations(self.labels, offsets, sources, SWEEP_READOUT_NS, dense=True)
                cells[(i, j)] = pops[detector]
            op.expect["cells"] = cells

    def check(self, op: Op, out: Path) -> str | None:
        _, grid = _read_csv(out / "fringe.csv")
        if grid.shape != (len(SWEEP_GRID), len(SWEEP_GRID)):
            return f"fringe grid has shape {grid.shape}"
        if not np.all(np.isfinite(grid)) or grid.min() < -1e-12 or grid.max() > 1.0 + 1e-12:
            return "a fringe cell lies outside [0, 1]"
        for (i, j), expected in op.expect["cells"].items():
            err = abs(grid[i, j] - expected)
            if err > SWEEP_ORACLE_TOL:
                return f"cell ({i}, {j}) differs from the dense expm oracle by {err:.2e}"
        return None


class Ensemble:
    """32-realisation disorder ensemble on the 225-site grid, front fits, velocities."""

    name = "ensemble"

    def ops(self, rng) -> list:
        return [
            Op(["analyze", "--study", "distance-velocity", "--seeds", str(ENSEMBLE_SEEDS),
                "--seed", str(int(rng.integers(1, 2**31)))])
            for _ in range(ENSEMBLE_INPUTS)
        ]

    def prepare(self, ops, rng) -> None:
        pass

    def check(self, op: Op, out: Path) -> str | None:
        velocities = [doc["payload"]["velocity"] for doc in _read_records(out / "records.jsonl", "velocity")]
        if len(velocities) != ENSEMBLE_VELOCITIES:
            return f"{len(velocities)} velocity records, expected {ENSEMBLE_VELOCITIES}"
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in velocities):
            return "a velocity is not finite and positive"
        return None


class Calibrate:
    """Noiseless disorder-map fit of the 3x3 twin (calibration layer only)."""

    name = "calibrate"

    def __init__(self):
        self.qubits = subgrid_device(4, 0, 3, 3).functional_qubits

    def ops(self, rng) -> list:
        return [
            Op(["calibrate", "--task", "disorder", "--seed", str(s)], {"seed": s})
            for s in rng.permutation(CALIBRATE_PANEL).tolist()
        ]

    def prepare(self, ops, rng) -> None:
        for op in ops:
            planted = sample_disorder(self.qubits, CALIBRATE_BOUND_MHZ, op.expect["seed"])
            op.expect["truth"] = gauge({q.label: planted.get(q) for q in self.qubits})

    def check(self, op: Op, out: Path) -> str | None:
        fits = _read_records(out / "records.jsonl", "fit")
        if len(fits) != 1:
            return f"{len(fits)} fit records, expected 1"
        fitted = fits[0]["payload"]["disorder_mhz"]
        truth = op.expect["truth"]
        if set(fitted) != set(truth):
            return "the fitted map covers other qubits than the twin"
        err = max(abs(fitted[k] - truth[k]) for k in truth)
        if not err <= CALIBRATE_TOL_MHZ:
            return f"recovered map is {err:.4f} MHz from the planted map"
        return None


WORKLOADS = {w.name: w for w in (Walk, Sweep, Ensemble, Calibrate)}
