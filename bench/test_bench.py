"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q bench/test_bench.py

They run the benchmark for a single pass of each workload's inputs, so the
whole file takes a minute or two.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run  # sets the BLAS thread pins before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    """One pass of the workload's inputs in a fresh process."""
    cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, section):
    doc = result(bench("walk", trace))
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == declared


def test_workload_names_match_the_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


class Corrupting:
    """A workload whose outputs are damaged before the real check reads them."""

    def __init__(self, workload, damage):
        self.workload, self.damage = workload, damage

    def check(self, op, out):
        self.damage(out, op)
        return self.workload.check(op, out)


def _edit_csv(name, edit):
    def damage(out, op):
        rows = [line.split(",") for line in (out / name).read_text().splitlines()]
        edit(rows, op)
        (out / name).write_text("".join(",".join(r) + "\n" for r in rows))
    return damage


def _unbalance_a_column(rows, op):
    rows[5][10] = "0.5"


def _move_a_walker_at_t0(rows, op):
    source = next(r for r in rows[1:] if r[0] in op.expect["sources"])
    empty = next(r for r in rows[1:] if r[0] not in op.expect["sources"])
    source[1], empty[1] = "0.0", "1.0"


def _nudge_the_oracle_column(rows, op):
    # moves 1e-6 between two sites, so the column still sums to 2
    col = op.expect["oracle"][0] + 1
    rows[1][col] = repr(float(rows[1][col]) + 1e-6)
    rows[2][col] = repr(float(rows[2][col]) - 1e-6)


def _cell_above_one(rows, op):
    rows[3][4] = "1.5"


def _edit_records(kind, edit):
    def damage(out, op):
        path = out / "records.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        edit(next(doc["payload"] for doc in docs if doc["kind"] == kind))
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return damage


def _drop_a_shot(out, op):
    lines = (out / "shots.txt").read_text().splitlines()
    bits, count = lines[0].split()
    lines[0] = f"{bits} {int(count) - 1}"
    (out / "shots.txt").write_text("\n".join(lines) + "\n")


def _first_op(name):
    workload = WORKLOADS[name]()
    rng = np.random.default_rng(5)
    ops = workload.ops(rng)
    if name == "calibrate":
        ops = [op for op in ops if op.expect["seed"] == 10]  # the cheapest fit of the panel
    ops = ops[:1]
    workload.prepare(ops, rng)
    return workload, ops[0]


CORRUPTIONS = [
    ("walk", _edit_csv("populations.csv", _unbalance_a_column)),
    ("walk", _edit_csv("populations.csv", _move_a_walker_at_t0)),
    ("walk", _edit_csv("populations.csv", _nudge_the_oracle_column)),
    ("walk", _drop_a_shot),
    ("sweep", _edit_csv("fringe.csv", _cell_above_one)),
    ("ensemble", _edit_records("velocity", lambda p: p.update(velocity=float("nan")))),
    ("calibrate", _edit_records("fit", lambda p: p["disorder_mhz"].update(
        {k: v + 0.1 for k, v in p["disorder_mhz"].items()}))),
]


@pytest.mark.parametrize("name,damage", CORRUPTIONS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(CORRUPTIONS)])
def test_a_corrupted_output_counts_as_failed(tmp_path, name, damage):
    workload, op = _first_op(name)
    clean = run.Runner(workload, tmp_path)
    clean.run(op)
    assert clean.errors == []
    broken = run.Runner(Corrupting(workload, damage), tmp_path)
    broken.run(op)
    assert broken.attempted == 1 and len(broken.errors) == 1


def test_sweep_oracle_catches_a_wrong_cell(tmp_path):
    workload, op = _first_op("sweep")
    (i, j), value = next(iter(op.expect["cells"].items()))
    op.expect["cells"][(i, j)] = value + 1e-6
    runner = run.Runner(workload, tmp_path)
    runner.run(op)
    assert len(runner.errors) == 1 and "oracle" in runner.errors[0]


def test_a_failing_command_counts_as_failed(tmp_path):
    workload, _ = _first_op("walk")
    runner = run.Runner(workload, tmp_path)
    runner.run(Op(["run", "--scenario", "no-such-scenario"]))
    runner.run(Op(["no-such-subcommand"]))
    assert runner.attempted == 2 and len(runner.errors) == 2


EXACT_COUNTS = ("hamiltonian.builds", "evolution.krylov_calls", "calibration.cost_evals", "measurement.shots")


@pytest.mark.parametrize("name", ["walk", "sweep"])
def test_traced_counts_repeat_exactly_across_runs(name):
    first, second = (result(bench(name, 1))["metrics"] for _ in range(2))
    for key in EXACT_COUNTS:
        assert first[key]["value"] == second[key]["value"], key
    assert first["hamiltonian.builds"]["value"] > 0


def test_calibration_counts_repeat_exactly(tmp_path):
    workload = WORKLOADS["calibrate"]()
    ops = [op for op in workload.ops(np.random.default_rng(0)) if op.expect["seed"] in (10, 11)]
    workload.prepare(ops, np.random.default_rng(0))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        runner = run.Runner(workload, tmp_path)
        for op in ops:
            with tracer:
                runner.run(op)
            tracer.end_op()
        assert runner.errors == []
        counts.append((tracer.counts["calibration.cost_evals"], tracer.counts["calibration.starts"],
                       tracer.useful_evals))
    assert counts[0] == counts[1] and counts[0][0] > 0
    assert 0 < counts[0][2] <= counts[0][0]


def test_tracer_restores_the_program():
    import qwalk.calibration
    import qwalk.cli
    import qwalk.scenarios
    from qwalk.sector import SectorBasis

    before = (qwalk.cli.main, qwalk.scenarios.build_hamiltonian, qwalk.calibration.single_excitation_populations,
              SectorBasis.__dict__["occupancy_matrix"])
    with Tracer():
        assert qwalk.scenarios.build_hamiltonian is not before[1]
        assert qwalk.calibration.single_excitation_populations is not before[2]
    after = (qwalk.cli.main, qwalk.scenarios.build_hamiltonian, qwalk.calibration.single_excitation_populations,
             SectorBasis.__dict__["occupancy_matrix"])
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (run.ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, "bench/run.py", "--workload", "walk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
