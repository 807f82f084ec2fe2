"""Results persistence: append-only structured records, CSV matrices, and
run manifests.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .device import QubitId

__all__ = [
    "FloatTable",
    "ResultRecord",
    "RecordWriter",
    "RunManifest",
    "populations_lines",
    "read_records",
    "shots_outputs",
    "write_csv_matrix",
]

RECORD_SCHEMA_VERSION = 1

RECORD_KINDS = (
    "populations",
    "correlation",
    "front_fit",
    "velocity",
    "fringe_grid",
    "fit",
    "calibration_step",
    "shots",
)


_JSON_SCALARS = (str, int, float, bool)


def _jsonable(value):
    # exact types only: a numpy scalar subclassing float still goes through .item()
    if value is None or type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):  # a numpy scalar: float, integer, bool or str
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if isinstance(value, QubitId):  # a tuple of coordinates, spelled by its label
            return value.label
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class ResultRecord:
    kind: str
    payload: dict
    coords: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}")

    def to_json(self) -> str:
        return _record_line(self.kind, _dumps(_jsonable(self.coords)), _dumps(_jsonable(self.payload)))


def _dumps(doc) -> str:
    """Canonical JSON: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# json.dumps spells the non-finite floats apart from their repr
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class FloatTable:
    """A float matrix spelled once, each entry as its `repr`.

    `json.dumps` spells a finite float as its `repr` too, so one table gives
    both the CSV rows and the JSON arrays of the columns.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"a float table needs a 2D matrix, got shape {m.shape}")
        self.shape = m.shape
        self.rows = [list(map(repr, row)) for row in m.tolist()]
        self._finite = bool(np.isfinite(m).all())

    def json_columns(self) -> list[str]:
        """Each column as its JSON array, as `json.dumps` spells it."""
        if not self.rows:
            return ["[]"] * self.shape[1]
        columns = zip(*self.rows)
        if not self._finite:
            columns = ([_JSON_NON_FINITE.get(s, s) for s in column] for column in columns)
        return ["[" + ",".join(column) + "]" for column in columns]


def _record_line(kind: str, coords: str, payload: str) -> str:
    """A record's JSON line, canonical JSON with its keys in sorted order, from
    its coords and payload objects already spelled as canonical JSON."""
    return f'{{"coords":{coords},"kind":"{kind}","payload":{payload},"schema_version":{RECORD_SCHEMA_VERSION}}}'


def populations_lines(sites, times_ns, table: FloatTable) -> list[str]:
    """One `populations` record per time, as its JSON line, from the table of
    populations (sites x times): byte for byte the `to_json()` of
    `ResultRecord("populations", {"sites": sites, "values": column}, {"time_ns": t})`.
    """
    sites = _dumps(_jsonable(list(sites)))
    return [
        _record_line("populations", f'{{"time_ns":{_dumps(_jsonable(t))}}}', f'{{"sites":{sites},"values":{values}}}')
        for t, values in zip(times_ns, table.json_columns())
    ]


def shots_outputs(shots, retention, time_ns) -> tuple[str, str]:
    """The `shots` record's JSON line and the shots.txt text, both from the
    shots' one spelling, `ShotCounts.bitstrings()`, and their counts: byte for
    byte the `to_json()` of
    `ResultRecord("shots", {"counts": shots.counts, "retention": retention}, {"time_ns": time_ns})`
    and a "bits count" line per distinct row.
    """
    items = list(zip(shots.bitstrings(), shots.mults.tolist()))
    # the rows ascend in bitstring order, the order of sorted keys, and JSON
    # spells a 0/1 string as itself in quotes and an int as its digits
    spelled = ",".join([f'"{bits}":{count}' for bits, count in items])
    line = _record_line(
        "shots",
        f'{{"time_ns":{_dumps(_jsonable(time_ns))}}}',
        f'{{"counts":{{{spelled}}},"retention":{_dumps(_jsonable(retention))}}}',
    )
    return line, "".join([f"{bits} {count}\n" for bits, count in items])


class RecordWriter:
    """Line-delimited JSON sink; records land in deterministic call order."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "w")

    def write(self, record: ResultRecord) -> None:
        self._fh.write(record.to_json() + "\n")

    def write_lines(self, lines) -> None:
        """Records already spelled as their JSON lines, such as `populations_lines` gives."""
        self._fh.write("".join(line + "\n" for line in lines))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_records(path) -> list[ResultRecord]:
    out = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        out.append(ResultRecord(doc["kind"], doc["payload"], doc.get("coords", {})))
    return out


def write_csv_matrix(path, matrix, row_labels=None, col_labels=None, corner: str = "") -> None:
    """A float matrix, or a `FloatTable` already spelled, as CSV: each float as its `repr`."""
    table = matrix if isinstance(matrix, FloatTable) else FloatTable(matrix)
    lines = []
    if col_labels is not None:
        lines.append(corner + "," + ",".join(str(c) for c in col_labels))
    for i, row in enumerate(table.rows):
        cells = ",".join(row)
        if row_labels is not None:
            lines.append(f"{row_labels[i]},{cells}")
        else:
            lines.append(cells)
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class RunManifest:
    """Written before the run starts, finalized after it ends. Timestamps are
    wall-clock metadata and deliberately excluded from determinism checks.

    As a context manager it starts on entry and finishes on exit, "failed"
    when the body raised (the exception propagates) and "done" otherwise.
    """

    scenario: str
    seed: int
    code_version: str
    out_dir: str
    overrides: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    status: str = "running"
    started_at: str = ""
    finished_at: str = ""

    def path(self) -> Path:
        return Path(self.out_dir) / "manifest.json"

    def start(self) -> None:
        self.started_at = datetime.now(timezone.utc).isoformat()
        self.status = "running"
        self._dump()

    def finish(self, status: str = "done") -> None:
        self.finished_at = datetime.now(timezone.utc).isoformat()
        self.status = status
        self._dump()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.finish("failed" if exc_type is not None else "done")
        return False

    def add_output(self, name: str) -> None:
        if name not in self.outputs:
            self.outputs.append(name)

    def _dump(self) -> None:
        doc = {
            "schema_version": 1,
            "scenario": self.scenario,
            "seed": self.seed,
            "code_version": self.code_version,
            "overrides": _jsonable(self.overrides),
            "outputs": list(self.outputs),
            "status": self.status,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        self.path().write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

