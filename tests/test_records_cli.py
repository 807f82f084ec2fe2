import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qwalk import analysis, calibration, evolution, scenarios
from qwalk.analysis import disorder_velocity_study, lr_bound
from qwalk.cli import build_parser, main
from qwalk.device import (
    DEFAULT_ANHARMONICITY_MHZ,
    DEFAULT_DISORDER_BOUND_MHZ,
    DEFAULT_J_EFF_MHZ,
    MAX_DISORDER_BOUND_MHZ,
    QubitId,
    default_device,
    sample_disorder,
    subgrid_device,
)
from qwalk.measurement import ShotCounts
from qwalk.records import (
    RECORD_KINDS,
    FloatTable,
    RecordWriter,
    ResultRecord,
    RunManifest,
    populations_lines,
    read_records,
    shots_outputs,
    write_csv_matrix,
)
from qwalk.records import _jsonable
from qwalk.svg import render_heatmap


def test_records_and_numpy_never_spell_a_qubit_as_its_coordinates(tmp_path):
    # a qubit is a tuple of its coordinates: records spell it by its label, numpy refuses it
    q, qubits = QubitId.parse("U12Q3"), default_device().functional_qubits
    assert _jsonable([q, (q, q), {q: q}]) == ["U12Q3", ["U12Q3", "U12Q3"], {"U12Q3": "U12Q3"}]
    rec = ResultRecord("fit", {"centre": q, "sites": tuple(qubits)}, {"qubit": q})
    with RecordWriter(tmp_path / "r.jsonl") as w:
        w.write(rec)
    (back,) = read_records(tmp_path / "r.jsonl")
    assert back.coords == {"qubit": "U12Q3"}
    assert back.payload == {"centre": "U12Q3", "sites": [p.label for p in qubits]}
    for make in (np.array, np.asarray):
        for value in (q, [q], qubits, [[q, q]]):
            with pytest.raises(TypeError, match="U12Q3|U00Q0"):
                make(value)
    with pytest.raises(TypeError):
        np.array(qubits, dtype=object)


def test_record_json_round_trip(tmp_path):
    rec = ResultRecord("populations", {"values": np.array([0.1, 0.9])}, {"time_ns": 10.0})
    path = tmp_path / "r.jsonl"
    with RecordWriter(path) as w:
        w.write(rec)
        w.write(ResultRecord("velocity", {"velocity": 22.2}, {}))
    back = read_records(path)
    assert len(back) == 2
    assert back[0].kind == "populations"
    assert back[0].payload["values"] == [0.1, 0.9]
    assert back[1].payload["velocity"] == 22.2


def test_record_rejects_unknown_kind():
    for kind in ("mystery", "error"):  # failures go to error.json, never to records
        with pytest.raises(ValueError):
            ResultRecord(kind, {})


def test_records_are_self_describing(tmp_path):
    path = tmp_path / "r.jsonl"
    with RecordWriter(path) as w:
        w.write(ResultRecord("fit", {"x": 1}, {"stage": 2}))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "fit"
    assert doc["coords"] == {"stage": 2}


def test_manifest_lifecycle(tmp_path):
    keys = {"schema_version", "scenario", "seed", "code_version", "overrides", "outputs", "status", "started_at",
            "finished_at"}
    m = RunManifest("demo", 7, "0.1.0", str(tmp_path), outputs=["records.jsonl"])
    with m:
        doc = json.loads(m.path().read_text())
        assert doc.keys() == keys and doc["schema_version"] == 1
        assert doc["status"] == "running" and doc["outputs"] == ["records.jsonl"] and doc["started_at"]
    doc = json.loads(m.path().read_text())
    assert doc.keys() == keys
    assert doc["status"] == "done" and doc["finished_at"]
    with pytest.raises(KeyError), m:
        raise KeyError("boom")
    assert json.loads(m.path().read_text())["status"] == "failed"


def test_write_csv_matrix(tmp_path):
    path = tmp_path / "m.csv"
    write_csv_matrix(path, np.array([[1.5, 2.0], [3.0, 4.0]]), row_labels=["a", "b"], col_labels=["x", "y"], corner="k")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x,y"
    assert lines[1].startswith("a,1.5,")
    # cells read as repr(float(x)) of each entry, integers included
    for m in (np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 0.1 + 0.2], [1e16, 1.0, -2.5]]),
              np.array([[3, -1], [0, 2**60]])):
        write_csv_matrix(path, m)
        assert path.read_text() == "".join(",".join(repr(float(x)) for x in row) + "\n" for row in m)
    assert path.read_text() == "3.0,-1.0\n0.0,1.152921504606847e+18\n"


def _csv_oracle(matrix, row_labels=None, col_labels=None, corner=""):
    """populations.csv as written before the float table: each row's floats spelled on their own."""
    lines = [] if col_labels is None else [corner + "," + ",".join(str(c) for c in col_labels)]
    for i, row in enumerate(np.asarray(matrix, dtype=np.float64)):
        cells = ",".join(map(repr, row.tolist()))
        lines.append(cells if row_labels is None else f"{row_labels[i]},{cells}")
    return "\n".join(lines) + "\n"


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.225e-308, 1e16, -1.2345678901234567e300, math.nan, math.inf, -math.inf)
_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_labels = st.text(st.characters(codec="utf-8"), min_size=1, max_size=6)
_times = st.one_of(st.integers(-(2**70), 2**70), st.floats())


@given(data=st.data(), n_rows=st.integers(0, 4), n_cols=st.integers(0, 4))
def test_float_table_writes_what_json_dumps_and_the_old_csv_write(data, n_rows, n_cols, tmp_path_factory):
    matrix = np.array(data.draw(st.lists(_floats, min_size=n_rows * n_cols, max_size=n_rows * n_cols)))
    matrix = matrix.reshape(n_rows, n_cols)
    sites = data.draw(st.lists(_labels, min_size=n_rows, max_size=n_rows))
    times = data.draw(st.lists(_times, min_size=n_cols, max_size=n_cols))
    table = FloatTable(matrix)
    expected = [
        _canonical({"coords": {"time_ns": t}, "kind": "populations", "schema_version": 1,
                    "payload": {"sites": sites, "values": matrix[:, k].tolist()}})
        for k, t in enumerate(times)
    ]
    assert populations_lines(sites, times, table) == expected
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    col_labels = [repr(float(t)) for t in times]
    for labels in ({}, {"row_labels": sites, "col_labels": col_labels, "corner": "site\\time_ns"}):
        oracle = _csv_oracle(matrix, **labels)
        for written in (table, matrix):
            write_csv_matrix(path, written, **labels)
            with open(path, newline="") as fh:  # a label may hold a carriage return
                assert fh.read() == oracle


@st.composite
def _shots(draw):
    """ShotCounts of distinct rows on 0 to 8 sites with positive counts, and
    the dict of bitstrings to counts they hold."""
    n = draw(st.integers(0, 8))
    counts = draw(st.dictionaries(st.text("01", min_size=n, max_size=n), st.integers(1, 10**6), min_size=1, max_size=20))
    bits = sorted(counts)
    rows = np.array([[ch == "1" for ch in b] for b in bits], dtype=bool).reshape(len(bits), n)
    return ShotCounts(rows, np.array([counts[b] for b in bits], dtype=np.int64)), counts


@given(shots=_shots(), retention=st.floats(0.0, 1.0), time_ns=st.one_of(st.none(), _times))
def test_shots_outputs_write_what_json_dumps_and_to_lines(shots, retention, time_ns):
    shots, counts = shots
    line, text = shots_outputs(shots, retention, time_ns)
    assert line == ResultRecord("shots", {"counts": counts, "retention": retention}, {"time_ns": time_ns}).to_json()
    # one "bits count" line per distinct row, in bitstring order
    assert text == "".join(f"{bits} {count}\n" for bits, count in sorted(counts.items()))


def test_records_spell_numpy_scalars_as_python_ones():
    # every numpy scalar goes through .item(): a bool as a JSON bool, a float32 as its double
    payload = {"a": np.bool_(True), "b": np.bool_(False), "c": np.float32(0.5), "d": np.int8(-3), "e": np.str_("x")}
    expected = _canonical({"kind": "fit", "schema_version": 1, "coords": {"flag": False},
                           "payload": {"a": True, "b": False, "c": 0.5, "d": -3, "e": "x"}})
    assert ResultRecord("fit", payload, {"flag": np.bool_(False)}).to_json() == expected
    assert _jsonable([np.bool_(True), {"k": np.float64(2.0)}]) == [True, {"k": 2.0}]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _floats | _labels,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_labels, inner, max_size=3),
    max_leaves=8,
)


@given(kind=st.sampled_from(RECORD_KINDS), payload=st.dictionaries(_labels, _json_values, max_size=4),
       coords=st.dictionaries(_labels, _json_values, max_size=2))
def test_record_line_is_canonical_json(kind, payload, coords):
    expected = _canonical({"kind": kind, "schema_version": 1, "coords": coords, "payload": payload})
    assert ResultRecord(kind, payload, coords).to_json() == expected


def test_float_table_needs_a_matrix():
    for bad in (np.zeros(3), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(ValueError, match="2D"):
            FloatTable(bad)


# sha256 of records.jsonl, populations.csv and shots.txt, measured before these
# files were written from one float table; their populations and shots are
# pinned under every BLAS kernel (test_measurement.OUTPUT_DIGESTS), so these
# bytes are too. The shots run's records.jsonl was re-measured when its shots
# record began to name the readout time (600.0 ns) instead of null, and every
# file but shots.txt when `run` began to propagate in one Chebyshev series.
RUN_OUTPUT_DIGESTS = {
    # the bench's walk: 20,000 shots
    ("--override", "n_shots=20000", "--seed", "7"): {
        "records.jsonl": "b95add2b8c2e9fce838d20829bbe3fd7953cb756c75b025f9c35d0e21084f0c3",
        "populations.csv": "9b4c3353320d54fc11a8486d42cce390dfdf9143069b0668e234fadf2ec05fa1",
        "shots.txt": "599db600d40f97d87046743c33f1db137bd02cf2fef4a25973a30e15c46095f1",
    },
    ("--override", "n_shots=2000", "--seed", "7"): {
        "records.jsonl": "0a60c73d11c1280185d19155e595538e7e873d1cbba10806f41da0fec54e3d61",
        "populations.csv": "9b4c3353320d54fc11a8486d42cce390dfdf9143069b0668e234fadf2ec05fa1",
        "shots.txt": "6a72330f3a870ad791c63ccea7933e743e5b0cc8e551cfb0e3be9d4551dae15a",
    },
    ("--override", 'static_disorder_mhz={"U00Q0": 0.7, "U11Q1": -0.4}'): {
        "records.jsonl": "99328907e8033e7acf0213d8049d85aa6c98f1efa862204e9b280db093605687",
        "populations.csv": "7d3d043a1e10dce561578f5c2263922ef5656d18685140fba67d95ac10cfc546",
    },
}


@pytest.mark.parametrize("flags", list(RUN_OUTPUT_DIGESTS))
def test_cli_run_outputs_pinned(tmp_path, flags):
    assert main(["run", "--scenario", "ctqw-two", *flags, "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in RUN_OUTPUT_DIGESTS[flags]}
    assert digests == RUN_OUTPUT_DIGESTS[flags]


def _svg_title(path) -> str:
    root = ET.parse(path).getroot()
    return root.find("{http://www.w3.org/2000/svg}text").text


def test_cli_svg_titles_parse_as_xml(tmp_path):
    name = "a<b & c> é\x01"
    run = tmp_path / "run"
    assert main(["run", "--scenario", "ctqw-single", "--override", "name=" + json.dumps(name),
                 "--override", "times_ns=[0, 10]", "--out", str(run)]) == 0
    assert _svg_title(run / "snapshot.svg") == "a<b & c> \u00e9\ufffd t=10 ns"
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--scenario", "mz-single", "--override", 'name="x&y"', "--d-left", "0:1:2",
                 "--d-right", "0:1:2", "--out", str(sweep)]) == 0
    assert _svg_title(sweep / "fringe.svg").startswith("x&y detector at ")
    rendered = tmp_path / "r.svg"
    assert main(["render", "--input", str(sweep / "fringe.csv"), "--title", "<&>", "--out", str(rendered)]) == 0
    assert _svg_title(rendered) == "<&>"


def test_cli_bad_disorder_label_fails_before_the_run(tmp_path, capsys):
    code = main(["run", "--scenario", "ctqw-single", "--override", 'static_disorder_mhz={"BAD": 1}',
                 "--out", str(tmp_path)])
    assert code == 1 and "bad qubit label 'BAD'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["error.json"]  # no manifest: the run never started


def test_cli_disorder_on_a_qubit_the_device_does_not_run_fails_before_the_run(tmp_path, capsys):
    # U03Q2 is a broken qubit: a valid label, but no functional qubit carries its detuning
    disorder = 'static_disorder_mhz={"U00Q0": 0.5, "U03Q2": 1}'
    sweep = ["sweep", "--scenario", "mz-single", "--d-left", "0:1:2", "--d-right", "0:1:2"]
    for argv in (["run", "--scenario", "ctqw-single"], sweep):
        out = tmp_path / argv[0]
        assert main([*argv, "--override", disorder, "--out", str(out)]) == 1
        error = json.loads((out / "error.json").read_text())["error"]
        assert "U03Q2" in error and "U00Q0" not in error and capsys.readouterr().err == f"error: {error}\n"
        assert os.listdir(out) == ["error.json"]  # no manifest: the run never started
    # a functional qubit outside the active set is allowed and leaves the walk as it is
    runs = [tmp_path / "plain", tmp_path / "inactive"]
    for out, flags in zip(runs, ([], ["--override", 'static_disorder_mhz={"U00Q0": 1}'])):
        assert main(["run", "--scenario", "mz-single", "--override", "times_ns=[0, 100]", *flags,
                     "--out", str(out)]) == 0
    assert (runs[0] / "populations.csv").read_bytes() == (runs[1] / "populations.csv").read_bytes()


def test_cli_shots_record_names_the_readout_time(tmp_path):
    base = ["run", "--scenario", "ctqw-single", "--override", "times_ns=[0, 10, 20]", "--override", "n_shots=20"]
    for flags, time_ns in (([], 20.0), (["--override", "readout_time_ns=13"], 13.0)):
        out = tmp_path / str(time_ns)
        assert main([*base, *flags, "--out", str(out)]) == 0
        (shots,) = [r for r in read_records(out / "records.jsonl") if r.kind == "shots"]
        assert shots.coords == {"time_ns": time_ns}


def test_cli_sweep_time_is_a_readout_time_override(tmp_path):
    grid = ["sweep", "--scenario", "mz-two", "--d-left", "0:1:3", "--d-right", "0:1:3"]
    runs = {
        "flag": ["--time", "500"],
        "override": ["--override", "readout_time_ns=500"],
        "both": ["--override", "readout_time_ns=600", "--time", "500"],  # the flag wins
    }
    for name, flags in runs.items():
        assert main([*grid, *flags, "--out", str(tmp_path / name)]) == 0
    for output in ("fringe.csv", "fringe.svg", "records.jsonl"):
        flag, *others = [(tmp_path / name / output).read_bytes() for name in runs]
        assert others == [flag, flag]
    assert read_records(tmp_path / "flag" / "records.jsonl")[0].coords["time_ns"] == 500.0


def test_cli_sweep_reads_out_at_zero_when_told_to(tmp_path, capsys):
    # at 0 ns no walker has reached the detector, so the fringe grid is all zero
    argv = ["sweep", "--scenario", "mz-two", "--d-left", "0:1:2", "--d-right", "0:1:2"]
    assert main([*argv, "--override", "readout_time_ns=0", "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "error.json").read_text())["error"] == "all-zero fringe grid"
    # the grid is checked before any output is written: no complete-looking fringe beside error.json
    assert sorted(os.listdir(tmp_path)) == ["error.json", "manifest.json"]
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def test_cli_sweep_manifest_records_its_overrides(tmp_path):
    override = 'static_disorder_mhz={"U00Q0": 0.1}'
    argv = ["sweep", "--scenario", "mz-single", "--d-left", "0:1:2", "--d-right", "0:1:1", "--override", override]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["overrides"] == {"static_disorder_mhz": {"U00Q0": 0.1}} and manifest["status"] == "done"


def test_cli_parser_is_built_once_and_parses_each_call_afresh(tmp_path):
    assert build_parser() is build_parser()
    shots = tmp_path / "shots"
    assert main(["run", "--scenario", "ctqw-single", "--seed", "3", "--override", "times_ns=[0, 10]",
                 "--override", "n_shots=5", "--out", str(shots)]) == 0
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--scenario", "mz-single", "--d-left", "0:1:2", "--d-right", "0:1:1",
                 "--out", str(sweep)]) == 0
    plain = tmp_path / "plain"
    assert main(["run", "--scenario", "ctqw-single", "--out", str(plain)]) == 0
    assert (shots / "shots.txt").exists() and not (plain / "shots.txt").exists()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (shots, sweep, plain)]
    assert [(m["seed"], m["overrides"]) for m in manifests] == [
        (3, {"times_ns": [0, 10], "n_shots": 5}), (0, {}), (0, {})
    ]
    assert read_records(sweep / "records.jsonl")[0].payload["d_right_mhz"] == [0.0]


def test_heatmap_title_without_markup_keeps_its_bytes():
    svg = render_heatmap(np.eye(2), title="ctqw-2walker t=550 ns")
    assert '>ctqw-2walker t=550 ns</text>' in svg


def test_cli_snapshot_names_the_time_it_draws(tmp_path):
    # the snapshot draws the sampled column nearest the readout time, 10 ns here
    assert main(["run", "--scenario", "ctqw-single", "--override", "times_ns=[0, 10, 20]",
                 "--override", "readout_time_ns=13", "--out", str(tmp_path)]) == 0
    assert _svg_title(tmp_path / "snapshot.svg") == "ctqw-1walker t=10 ns"


def test_heatmap_deterministic_and_structured():
    m = np.linspace(0, 1, 12).reshape(3, 4)
    a = render_heatmap(m, title="demo")
    b = render_heatmap(m, title="demo")
    assert a == b
    assert a.startswith("<svg") or a.startswith("<?xml") or "<svg" in a
    assert a.count("<rect") == 12 + 1  # cells plus background


def test_heatmap_single_cell_and_masking():
    one = render_heatmap(np.array([[0.5]]))
    assert one.count("<rect") == 2
    grid = np.zeros((8, 8))
    mask = np.zeros((8, 8), dtype=bool)
    mask[1, 7] = mask[4, 5] = True  # broken qubits appear as gaps
    svg = render_heatmap(grid, mask=mask)
    assert svg.count("<rect") == 64 - 2 + 1


def test_heatmap_rejects_bad_input():
    with pytest.raises(ValueError):
        render_heatmap(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        render_heatmap(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        render_heatmap(np.zeros((2, 2)), mask=np.zeros((3, 3), dtype=bool))


def test_cli_run_and_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "--scenario",
            "mz-single",
            "--out",
            str(out),
            "--override",
            "times_ns=[0.0, 50.0, 100.0]",
        ]
    )
    assert code == 0
    assert (out / "records.jsonl").exists()
    assert (out / "populations.csv").exists()
    assert (out / "snapshot.svg").exists()
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "done"
    recs = read_records(out / "records.jsonl")
    assert sum(1 for r in recs if r.kind == "populations") == 3


def test_cli_missing_scenario_no_partial_outputs(tmp_path):
    out = tmp_path / "nope"
    code = main(["run", "--scenario", str(tmp_path / "absent.json"), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_cli_scenario_file_round_trip(tmp_path):
    from qwalk.scenarios import mz_scenario

    sc = mz_scenario("S", t_max_ns=100.0, step_ns=50.0)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(sc.to_dict()))
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0


def test_cli_sweep_and_render(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--scenario", "mz-single", "--d-left", "0:1:3", "--d-right", "0:1:3", "--out", str(out)]
    )
    assert code == 0
    assert (out / "fringe.csv").exists() and (out / "fringe.svg").exists()
    dst = tmp_path / "re.svg"
    assert main(["render", "--input", str(out / "fringe.csv"), "--out", str(dst)]) == 0
    assert dst.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "text, line",
    [
        ("x,1,2\n0,1\n", "line 2"),  # a row shorter than the header
        ("", "line 1"),  # no header at all
        ("d_left_mhz\\d_right_mhz,0.0,1.0\n", "line 1"),  # a header and no data rows
        ("x,zz,1\n0,1,2\n", "line 1: cell 'zz' is not a number"),  # a d_right value
        ("x,0,1\nzz,1,2\n", "line 2: cell 'zz' is not a number"),  # a d_left value
        ("x,0,1\n0,1,2\n1,zz,2\n", "line 3: cell 'zz' is not a number"),  # a population
    ],
)
def test_cli_render_rejects_malformed_csv(tmp_path, capsys, text, line):
    src = tmp_path / "fringe.csv"
    src.write_text(text)
    assert main(["render", "--input", str(src), "--out", str(tmp_path / "r.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line in err and "Traceback" not in err
    assert not (tmp_path / "r.svg").exists()


def test_cli_bad_override_is_domain_error(tmp_path):
    code = main(["run", "--scenario", "mz-single", "--out", str(tmp_path / "x"), "--override", "nonsense=1"])
    assert code == 1


def test_cli_removed_scenario_field_is_unknown(tmp_path, capsys):
    removed = (("interaction_frequency_ghz", "7.0"), ("kind", '"mz"'), ("blocked", "1"), ("removed", "null"),
               ("post_select", "true"))
    for field, value in removed:
        out = tmp_path / field
        argv = ["run", "--scenario", "mz-two", "--out", str(out), "--override", f"{field}={value}"]
        assert main(argv) == 1
        doc = json.loads((out / "error.json").read_text())
        assert doc["type"] == "ValueError" and doc["error"] == f"unknown scenario field {field!r}"
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "records.jsonl").exists()
    # a schema-2 document carries post_select; its version is refused before its fields are read
    out = tmp_path / "schema-2"
    argv = ["run", "--scenario", _scenario_file(tmp_path, "mz-two", schema_version=2, post_select=True), "--out", str(out)]
    assert main(argv) == 1
    doc = json.loads((out / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"] == "unsupported scenario schema version 2"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def _scenario_file(tmp_path, scenario="ctqw-single", **changes):
    from qwalk.cli import _BUILTIN_SCENARIOS
    from qwalk.device import default_device

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_BUILTIN_SCENARIOS[scenario](default_device()).to_dict(), **changes}))
    return str(path)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"step_d_left_mhz": 1.0}, "step_d_left_mhz needs an interferometer"),
        ({"n_shot": 100}, "unknown scenario field 'n_shot'"),
        ({"kind": "ctqw", "blocked": False, "removed": False, "schema_version": 1}, "unsupported scenario schema"),
    ],
)
def test_cli_bad_scenario_file_is_domain_error(tmp_path, capsys, changes, message):
    out = tmp_path / "out"
    assert main(["run", "--scenario", _scenario_file(tmp_path, **changes), "--out", str(out)]) == 1
    doc = json.loads((out / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith(message)
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("override", ["step_d_left_mhz=true", 'step_d_right_mhz="1"'])
def test_cli_interferometer_steps_are_strict_numbers(tmp_path, capsys, override):
    # an interferometer may carry steps, so only the number check rejects these
    assert main(["run", "--scenario", "mz-single", "--override", override, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith(override.split("=")[0])
    assert "is not a number" in doc["error"] and "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


@pytest.mark.parametrize("content", [b'{"schema_version": 2,', b"\xff\xfe not text"])
def test_cli_malformed_scenario_file_is_domain_error(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    doc = json.loads((out / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith(f"scenario file {str(path)!r} is not valid JSON")
    assert capsys.readouterr().err == f"error: {doc['error']}\n"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("scenario", ["ctqw-single", "ctqw-two", "mz-single", "mz-two", "mz-blocked", "mz-removed"])
def test_cli_builtin_and_its_file_write_the_same_records(tmp_path, scenario):
    # short times keep the six runs fast; the shots exercise the readout fields
    times = [0.0, 25.0, 50.0]
    overrides = ["--override", f"times_ns={json.dumps(times)}", "--override", "n_shots=200"]
    assert main(["run", "--scenario", scenario, *overrides, "--out", str(tmp_path / "builtin")]) == 0
    path = _scenario_file(tmp_path, scenario, times_ns=times, n_shots=200)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "file")]) == 0
    records = [(tmp_path / run / "records.jsonl").read_bytes() for run in ("builtin", "file")]
    assert records[0] == records[1]


@pytest.mark.parametrize(
    "task, flags, field",
    [
        ("disorder", ["--bound", "nan"], "disorder bound"),
        ("disorder", ["--bound", "inf"], "disorder bound"),
        ("interferometer", ["--bound", "inf"], "disorder bound"),
        ("disorder", ["--shots", "0"], "n_shots"),
        ("disorder", ["--shots", "-5"], "n_shots"),
        ("align", ["--shots", "0"], "n_shots"),
        ("disorder", ["--shots", "1"], "n_shots"),
        ("align", ["--shots", "1"], "n_shots"),
        ("interferometer", ["--shots", "5"], "--shots"),
        ("disorder", ["--rounds", "7"], "--rounds"),
        ("interferometer", ["--rounds", "7"], "--rounds"),
        # past MAX_SHOTS the binomial draw overflowed, and a bound of 1e308 the
        # uniform draw's 2 * bound: both raised OverflowError with a traceback
        ("disorder", ["--shots", "100000000000000000000"], "n_shots"),
        ("align", ["--shots", str(scenarios.MAX_SHOTS + 1)], "n_shots"),
        ("disorder", ["--bound", "1e308"], "disorder bound"),
        ("align", ["--bound", repr(MAX_DISORDER_BOUND_MHZ + 0.1)], "disorder bound"),
        ("interferometer", ["--bound", "1e308"], "disorder bound"),
    ],
)
def test_cli_calibrate_bad_bound_or_shots_is_domain_error(tmp_path, capsys, task, flags, field):
    assert main(["calibrate", "--task", task, *flags, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith(field)
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def test_calibration_shot_and_bound_caps_are_inclusive():
    device = subgrid_device(4, 0, 3, 3)
    hidden = sample_disorder(device.functional_qubits, MAX_DISORDER_BOUND_MHZ, seed=0)
    assert max(abs(v) for v in hidden.offsets.values()) <= MAX_DISORDER_BOUND_MHZ
    assert calibration.CalibrationTwin(device, hidden, n_shots=scenarios.MAX_SHOTS).n_shots == scenarios.MAX_SHOTS


def test_calibrate_bound_defaults_to_the_device_constant():
    args = build_parser().parse_args(["calibrate", "--task", "disorder", "--out", "unused"])
    assert args.bound == DEFAULT_DISORDER_BOUND_MHZ


def test_cli_calibrate_exhausted_start_budget_is_domain_error(tmp_path, capsys, monkeypatch, trapped_seed):
    # the trapped seed's first start ends in a local minimum; with a budget of
    # one start the fit refuses the map instead of writing it
    monkeypatch.setattr(calibration, "N_STARTS", 1)
    assert main(["calibrate", "--task", "disorder", "--seed", str(trapped_seed), "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "CalibrationError"
    assert "best cost" in doc["error"] and "zero-map cost" in doc["error"]
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def test_cli_analyze_records_the_seed_it_runs(tmp_path):
    def analyze(name, *seed_flags):
        out = tmp_path / name
        argv = ["analyze", "--study", "distance-velocity", "--seeds", "2", *seed_flags, "--out", str(out)]
        assert main(argv) == 0
        return json.loads((out / "manifest.json").read_text())["seed"], (out / "records.jsonl").read_text()

    default_seed, default_records = analyze("default")
    assert (default_seed, default_records) == analyze("explicit", "--seed", "2024")
    assert default_seed == 2024
    zero_seed, zero_records = analyze("zero", "--seed", "0")
    assert zero_seed == 0 and zero_records != default_records


def test_cli_analyze_past_the_seed_cap_fails_before_the_study(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the study started")

    monkeypatch.setattr(analysis, "disorder_velocity_study", unreachable)
    seeds = str(analysis.MAX_STUDY_SEEDS + 1)
    assert main(["analyze", "--study", "distance-velocity", "--seeds", seeds, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError"
    assert doc["error"] == (
        f"--seeds {analysis.MAX_STUDY_SEEDS + 1} exceeds MAX_STUDY_SEEDS = {analysis.MAX_STUDY_SEEDS} "
        "disorder realisations"
    )
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, FloatingPointError])
def test_cli_arithmetic_error_is_domain_error(tmp_path, monkeypatch, capsys, error):
    # an ArithmeticError from an input no check covers exits 1 with error.json, not a traceback
    def overflowing(*args, **kwargs):
        raise error("math range error")

    monkeypatch.setattr(analysis, "disorder_velocity_study", overflowing)
    assert main(["analyze", "--study", "distance-velocity", "--seeds", "2", "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc == {"error": "math range error", "type": error.__name__}
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def test_cli_analyze_seed_cap_is_inclusive(tmp_path, monkeypatch):
    monkeypatch.setattr(analysis, "MAX_STUDY_SEEDS", 2)
    argv = ["analyze", "--study", "distance-velocity", "--seeds"]
    assert main([*argv, "2", "--out", str(tmp_path / "at")]) == 0
    assert main([*argv, "3", "--out", str(tmp_path / "past")]) == 1
    assert (tmp_path / "past" / "error.json").exists()
    with pytest.raises(ValueError, match="MAX_STUDY_SEEDS = 2"):
        disorder_velocity_study(n_seeds=3)


def test_cli_distance_velocity_records_flag_unweighted_windows(tmp_path, fronts_8_and_11_without_error):
    argv = ["analyze", "--study", "distance-velocity", "--seeds", "8", "--seed", "11000", "--out", str(tmp_path)]
    assert main(argv) == 0
    docs = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
    study = disorder_velocity_study(n_seeds=8, seed=11000)
    assert [doc["payload"]["velocity"] for doc in docs] == list(study.velocities)
    assert [doc["payload"]["unweighted_front_distances"] for doc in docs] == [list(u) for u in study.unweighted]
    assert [doc["payload"]["weighted"] for doc in docs] == [not u for u in study.unweighted]
    assert not all(doc["payload"]["weighted"] for doc in docs)


def test_cli_distance_velocity_flags_windows_above_the_lr_bound(tmp_path, capsys):
    # a one-realisation ensemble reads 93.7 and 87.5 sites/us in its last two
    # windows, far above the bound; the run still succeeds but says so
    argv = ["analyze", "--study", "distance-velocity", "--seeds", "1", "--seed", "11000", "--out", str(tmp_path)]
    assert main(argv) == 0
    payloads = [json.loads(line)["payload"] for line in (tmp_path / "records.jsonl").read_text().splitlines()]
    vmax = lr_bound(DEFAULT_J_EFF_MHZ, DEFAULT_ANHARMONICITY_MHZ)
    assert all(p["lr_bound"] == vmax for p in payloads)
    flags = [p["above_lr_bound"] for p in payloads]
    assert flags == [p["velocity"] > vmax for p in payloads]
    assert flags[-2:] == [True, True]
    assert capsys.readouterr().out.count("above the Lieb-Robinson bound") == sum(flags)


def test_cli_analyze_velocity_records(tmp_path):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["analyze", "--study", "velocity", "--out", str(out)]) == 0
        runs.append((out / "records.jsonl").read_bytes())
    assert runs[0] == runs[1]
    docs = [json.loads(line) for line in runs[0].splitlines()]
    assert [doc["kind"] for doc in docs] == ["correlation"] * 4 + ["front_fit"] * 4 + ["velocity"]
    velocity = docs[-1]["payload"]
    assert 0.0 < velocity["velocity"] < velocity["lr_bound"]


@pytest.mark.parametrize(
    "flags, flag",
    [(["--seed", "7"], "--seed"), (["--seeds", "5"], "--seeds"), (["--seed", "7", "--seeds", "5"], "--seed")],
)
def test_cli_analyze_velocity_rejects_ensemble_flags(tmp_path, capsys, flags, flag):
    # the ideal-array study samples no disorder, so a seed would be ignored
    assert main(["analyze", "--study", "velocity", *flags, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith(f"{flag} does not apply")
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def test_cli_non_finite_override_is_domain_error(tmp_path):
    code = main(
        ["run", "--scenario", "mz-single", "--out", str(tmp_path), "--override", 'static_disorder_mhz={"U00Q0": NaN}']
    )
    assert code == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and "finite" in doc["error"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning must not leak out first
@pytest.mark.parametrize("flag", ["--d-left", "--d-right"])
@pytest.mark.parametrize("spec", ["0:nan:3", "0:inf:3"])
def test_cli_sweep_non_finite_range_is_domain_error(tmp_path, capsys, flag, spec):
    argv = ["sweep", "--scenario", "mz-single", "--d-left", "0:1:2", "--d-right", "0:1:2", flag, spec]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and spec in doc["error"] and "finite" in doc["error"]
    assert capsys.readouterr().err == f"error: {doc['error']}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


@pytest.mark.parametrize("flag", ["--d-left", "--d-right"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_sweep_range_without_values_is_domain_error(tmp_path, capsys, flag, count):
    spec = f"0:1:{count}"
    argv = ["sweep", "--scenario", "mz-single", "--d-left", "0:1:2", "--d-right", "0:1:2", flag, spec]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and spec in doc["error"] and "at least 1" in doc["error"]
    assert capsys.readouterr().err == f"error: {doc['error']}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


@pytest.mark.parametrize(
    "overrides",
    [
        ("n_shots=2.5",),
        ("n_shots=true",),
        ('n_shots="10"',),
        ("n_shots=0",),
        ('seed="abc"',),
        ("n_shots=100", 'seed="abc"'),
        ("n_shots=100", "seed=1.5"),
        ("n_shots=100", "seed=-1"),
        ("times_ns=5",),
        ("active=5",),
        ("sources=5",),
        ("sources=[5]",),
        ('active=["U00Q0", "X"]',),
        ("static_disorder_mhz=[1]",),
        ('readout_time_ns="x"',),
        ("step_d_left_mhz=null",),
        ("step_d_left_mhz=1.0",),  # a step without an interferometer layout
        ('layout_names={"S": "U00Q0"}',),
        ("layout_names=5",),
        ("step_d_left_mhz=true",),  # a JSON bool is not a number
        ('times_ns=["0", "650"]',),  # nor is a numeric string
        ('readout_time_ns="5"',),
        ('static_disorder_mhz={"U00Q0": true}',),
        ("readout_time_ns=1" + "0" * 400,),  # an int past the float range
    ],
)
def test_cli_bad_seed_or_shots_is_domain_error(tmp_path, overrides, capsys):
    argv = ["run", "--scenario", "ctqw-single", "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    field = overrides[-1].split("=", 1)[0]
    assert doc["type"] == "ValueError" and doc["error"].startswith(field)
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


@pytest.mark.parametrize(
    "command",
    [["run", "--scenario", "ctqw-single"], ["sweep", "--scenario", "mz-single", "--d-left", "0:1:2", "--d-right", "0:1:2"]],
)
def test_cli_error_json_in_fresh_nested_out(tmp_path, command):
    out = tmp_path / "new" / "dir"
    assert main([*command, "--out", str(out), "--override", "n_shots=0"]) == 1
    doc = json.loads((out / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith("n_shots")
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_cli_shot_count_past_the_cap_fails_before_allocating(tmp_path, monkeypatch, capsys):
    # ten trillion shots would ask the sampler for 72.8 TiB; the scenario
    # rejects the count before any state is built or sampled
    def unreachable(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(scenarios, "_scenario_setup", unreachable)
    monkeypatch.setattr(scenarios, "sample_shots", unreachable)
    argv = ["run", "--scenario", "ctqw-two", "--override", "n_shots=10000000000000", "--out", str(tmp_path)]
    assert main(argv) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith("n_shots must be a positive integer up to MAX_SHOTS")
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


def test_cli_sweep_past_the_entry_cap_fails_before_allocating(tmp_path, monkeypatch, capsys):
    # a 100,000 x 100,000 grid would ask np.repeat for 10^10 cells before the
    # dimension-276 block; the sweep rejects cells x dimension before any state is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(scenarios, "_scenario_setup", unreachable)
    monkeypatch.setattr(scenarios, "propagate_block", unreachable)
    argv = ["sweep", "--scenario", "mz-two", "--d-left", "0:1:100000", "--d-right", "0:1:100000", "--out", str(tmp_path)]
    assert main(argv) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError"
    assert doc["error"] == (
        f"sweep of 10000000000 cells at sector dimension 276 exceeds "
        f"MAX_SWEEP_ENTRIES = {scenarios.MAX_SWEEP_ENTRIES} cells x dimension"
    )
    assert "Traceback" not in capsys.readouterr().err


def test_cli_sweep_entry_cap_is_inclusive(tmp_path, monkeypatch):
    # mz-two's sector has dimension 276: a 3 x 3 grid holds the lowered cap exactly, 3 x 4 passes it
    monkeypatch.setattr(scenarios, "MAX_SWEEP_ENTRIES", 9 * 276)
    base = ["sweep", "--scenario", "mz-two", "--d-left", "0:1:3"]
    assert main([*base, "--d-right", "0:1:3", "--out", str(tmp_path / "at")]) == 0
    assert main([*base, "--d-right", "0:1:4", "--out", str(tmp_path / "past")]) == 1
    assert "MAX_SWEEP_ENTRIES = 2484" in json.loads((tmp_path / "past" / "error.json").read_text())["error"]


def test_cli_run_past_the_sample_time_cap_fails_before_allocating(tmp_path, monkeypatch, capsys):
    # 2,645 sample times of ctqw-two's dimension-1891 states pass 5 * 10**6
    # entries; the run rejects them before any basis, state or propagation
    def unreachable(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(scenarios, "_scenario_setup", unreachable)
    monkeypatch.setattr(evolution, "propagate_block", unreachable)
    times = json.dumps([float(t) for t in range(2645)])
    argv = ["run", "--scenario", "ctqw-two", "--override", f"times_ns={times}", "--out", str(tmp_path)]
    assert main(argv) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError"
    assert doc["error"] == (
        f"run of 2645 sample times at sector dimension 1891 on 62 sites exceeds "
        f"MAX_RUN_ENTRIES = {scenarios.MAX_RUN_ENTRIES} sample times x max(dimension, sites)"
    )
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json", "manifest.json"]
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def test_cli_run_sample_time_cap_is_inclusive(tmp_path, monkeypatch):
    # ctqw-single's sector has dimension 62 on 62 sites: three sample times hold
    # the lowered cap exactly, four pass it, and a readout time off the grid counts
    monkeypatch.setattr(scenarios, "MAX_RUN_ENTRIES", 3 * 62)
    base = ["run", "--scenario", "ctqw-single"]
    shots = ["--override", "n_shots=50", "--override", "readout_time_ns=25.0"]
    assert main([*base, "--override", "times_ns=[0.0, 10.0, 20.0]", "--out", str(tmp_path / "at")]) == 0
    assert main([*base, "--override", "times_ns=[0.0, 10.0]", *shots, "--out", str(tmp_path / "read")]) == 0
    assert main([*base, "--override", "times_ns=[0.0, 10.0, 20.0, 30.0]", "--out", str(tmp_path / "past")]) == 1
    assert main([*base, "--override", "times_ns=[0.0, 10.0, 20.0]", *shots, "--out", str(tmp_path / "rpast")]) == 1
    for past in ("past", "rpast"):
        error = json.loads((tmp_path / past / "error.json").read_text())["error"]
        assert error.startswith("run of 4 sample times at sector dimension 62") and "MAX_RUN_ENTRIES = 186" in error


def test_cli_sweep_past_the_window_cap_fails_fast(tmp_path):
    # an uncapped window would build a ~1e8-term Bessel table here and run for minutes
    argv = ["sweep", "--scenario", "mz-single", "--d-left", "0:1:2", "--d-right", "0:1:2", "--time", "1e9"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "qwalk.cli", *argv, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "EvolutionError" and "1000000000.0 ns" in doc["error"]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required flags
    assert exc.value.code == 2


def test_cli_two_walker_default_matrix_shape(tmp_path):
    out = tmp_path / "walk"
    assert main(["run", "--scenario", "ctqw-two", "--out", str(out)]) == 0
    lines = (out / "populations.csv").read_text().splitlines()
    assert len(lines) == 1 + 62  # header plus one row per functional qubit
    assert len(lines[1].split(",")) == 1 + 61  # label plus times 0..600 ns, 10 ns step


def test_cli_seed_override_wins(tmp_path):
    out = tmp_path / "r"
    code = main(
        [
            "run",
            "--scenario",
            "mz-single",
            "--seed",
            "9",
            "--out",
            str(out),
            "--override",
            "times_ns=[0.0, 10.0]",
        ]
    )
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 9


# bounded inputs: at most 5 sample times up to 1000 ns, at most two walkers and
# 20 shots, so every example runs in well under a second
_RUN_OVERRIDES = {
    "times_ns": st.one_of(
        st.lists(st.integers(0, 1000), min_size=1, max_size=5, unique=True).map(sorted),
        st.lists(st.floats(-10.0, 1000.0), max_size=5),
    ),
    "n_shots": st.one_of(st.none(), st.integers(1, 20), st.integers(-3, 0), st.just(2.5), st.just("7")),
    "sources": st.lists(st.sampled_from(["U00Q0", "U00Q1", "U33Q2", "U03Q2", "U99Q0", "x"]), max_size=2),
    "readout_time_ns": st.one_of(st.none(), st.floats(0.0, 1000.0), st.just(-1.0)),
    "static_disorder_mhz": st.dictionaries(
        st.sampled_from(["U00Q0", "U11Q1", "U03Q2", "BAD"]), st.floats(-5.0, 5.0), max_size=2
    ),
    "name": st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from("<&>\u00e9\u6f22")), max_size=8),
}


@given(
    overrides=st.fixed_dictionaries({}, optional=_RUN_OVERRIDES),
    raw_name=st.booleans(),
)
def test_cli_run_exits_0_with_consistent_outputs_or_1_with_error_json(overrides, raw_name):
    # a name is passed as JSON text or as it is (read as JSON where it parses)
    flags = []
    for key, value in overrides.items():
        text = value if key == "name" and raw_name else json.dumps(value)
        flags += ["--override", f"{key}={text}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        code = main(["run", "--scenario", "ctqw-single", *flags, "--out", str(out)])
        event(f"exit {code}")
        if code != 0:
            assert code == 1 and os.listdir(out) == ["error.json"]
            return
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        rows = [line.split(",") for line in (out / "populations.csv").read_text().splitlines()]
        sites, columns = [row[0] for row in rows[1:]], list(zip(*(row[1:] for row in rows[1:])))
        populations = [r for r in records if r["kind"] == "populations"]
        assert [r["coords"]["time_ns"] for r in populations] == [float(t) for t in rows[0][1:]]
        assert len(populations) == len(columns)
        for record, column in zip(populations, columns):
            assert record["payload"]["sites"] == sites
            assert record["payload"]["values"] == [float(v) for v in column]
        ET.parse(out / "snapshot.svg")


# bounded inputs: at most 3 x 3 cells on the 24-site single-walker interferometer,
# read out at most 1000 ns in, so every example runs in well under a second; each
# input is valid more often than not, so that a fair share of examples exits 0
_valid_range = st.builds("{!r}:{!r}:{}".format, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(1, 3))
_SWEEP_RANGES = st.one_of(
    _valid_range,
    _valid_range,
    st.sampled_from(["0:1", "0:1:2:3", "a:b:2", "0:1:0", "0:1:-2", "0:1:2.5", "0:nan:2", "0:inf:2", ""]),
)
_readout = st.floats(1.0, 1000.0)
_SWEEP_TIMES = st.one_of(st.none(), _readout, _readout, st.sampled_from([0.0, -1.0, math.nan, math.inf]))
_step = st.floats(-2.0, 2.0)
_SWEEP_OVERRIDES = {
    "readout_time_ns": st.one_of(_readout, _readout, st.sampled_from([None, 0.0, -1.0])),
    "static_disorder_mhz": st.dictionaries(
        st.sampled_from(["U00Q0", "U03Q2", "U12Q1", "BAD", "U22Q2"]), st.floats(-5.0, 5.0), max_size=2
    ),
    "step_d_left_mhz": st.one_of(_step, _step, st.sampled_from([0.5, None, "x"])),
}


@given(
    d_left=_SWEEP_RANGES,
    d_right=_SWEEP_RANGES,
    time=_SWEEP_TIMES,
    overrides=st.fixed_dictionaries({}, optional=_SWEEP_OVERRIDES),
)
@settings(max_examples=120)  # most examples exit 1 at one of five inputs; these take milliseconds each
@example(d_left="0:1:3", d_right="-1:1:2", time=None, overrides={"static_disorder_mhz": {"U03Q2": 1.0}})
@example(d_left="0:1:3", d_right="-1:1:2", time=None, overrides={"readout_time_ns": 0.0})
@example(d_left="0:1:3", d_right="-1:1:2", time=500.0, overrides={"readout_time_ns": 0.0, "step_d_left_mhz": 0.5})
def test_cli_sweep_exits_0_with_consistent_outputs_or_1_with_error_json(d_left, d_right, time, overrides):
    flags = [f"--d-left={d_left}", f"--d-right={d_right}"]  # the = keeps a leading minus from reading as a flag
    if time is not None:
        flags.append(f"--time={time!r}")
    for key, value in overrides.items():
        flags += ["--override", f"{key}={json.dumps(value)}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep"
        code = main(["sweep", "--scenario", "mz-single", *flags, "--out", str(out)])
        event(f"exit {code}")
        if code != 0:
            assert code == 1 and (out / "error.json").is_file()
            assert not (out / "fringe.csv").exists() and not (out / "fringe.svg").exists()
            return
        assert json.loads((out / "manifest.json").read_text())["overrides"] == overrides
        (record,) = read_records(out / "records.jsonl")
        rows = [line.split(",") for line in (out / "fringe.csv").read_text().splitlines()]
        assert record.payload["d_right_mhz"] == [float(v) for v in rows[0][1:]]
        assert record.payload["d_left_mhz"] == [float(row[0]) for row in rows[1:]]
        assert record.payload["values"] == [[float(v) for v in row[1:]] for row in rows[1:]]
        # the flag wins over the field; mz-single reads at 650 ns, or at its last sample when the field is null
        readout = overrides.get("readout_time_ns", 650.0) if time is None else time
        assert record.coords["time_ns"] == (1000.0 if readout is None else readout)
        ET.parse(out / "fringe.svg")


# analyze: the two studies and junk; realisation counts at most 3 or past the
# cap, so that every example runs in well under a second; seeds on both sides
# of the range a SeedSequence takes. Valid values come up more often than
# not, so that a fair share of examples exits 0
_ANALYZE_STUDIES = st.sampled_from(["velocity", *["distance-velocity"] * 3, "junk", ""])
_small = st.integers(1, 3)
_ANALYZE_SEEDS = st.one_of(st.none(), _small, _small, st.integers(-3, 0), st.just(analysis.MAX_STUDY_SEEDS + 1))
_ANALYZE_SEED = st.one_of(st.none(), st.integers(0, 2**16), st.integers(-(2**70), -1), st.integers(2**64 + 1, 2**80))


@given(study=_ANALYZE_STUDIES, seeds=_ANALYZE_SEEDS, seed=_ANALYZE_SEED)
@example(study="distance-velocity", seeds=3, seed=2**64 + 7)
@example(study="distance-velocity", seeds=2, seed=None)
@example(study="velocity", seeds=None, seed=None)
def test_cli_analyze_exits_0_with_its_velocities_or_1_with_error_json(study, seeds, seed):
    flags = [f"--study={study}"]  # the = keeps a value from reading as a flag
    flags += [] if seeds is None else [f"--seeds={seeds}"]
    flags += [] if seed is None else [f"--seed={seed}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "analyze"
        code = main(["analyze", *flags, "--out", str(out)])
        event(f"exit {code}")
        if code != 0:
            assert code == 1 and (out / "error.json").is_file()
            assert json.loads((out / "error.json").read_text())["type"]
            return
        kinds = [record.kind for record in read_records(out / "records.jsonl")]
        # one velocity per window of the distance-velocity study, one for the velocity study
        assert kinds.count("velocity") == (8 if study == "distance-velocity" else 1)
        assert kinds[-1] == "velocity"


# calibrate: the three tasks and every flag. Shot counts at most 40 or past
# MAX_SHOTS, bounds at most 2 MHz or past MAX_DISORDER_BOUND_MHZ and at most two
# align rounds (five when the flag is left out), so that no example fits a
# twin for long; seeds on both sides of the range a SeedSequence takes. Valid
# values come up more often than not, so that a fair share of examples exits 0
_CALIBRATE_TASKS = st.sampled_from(["disorder", "disorder", "align", "interferometer"])
_small_seed = st.integers(0, 2**16)
_CALIBRATE_SEED = st.one_of(
    st.none(), _small_seed, _small_seed, st.integers(-(2**70), -1), st.integers(2**64 + 1, 2**80)
)
_CALIBRATE_SHOTS = st.one_of(
    st.none(), st.none(), st.none(), st.integers(2, 40), st.integers(-3, 1), st.just(scenarios.MAX_SHOTS + 1)
)
_bound = st.floats(0.0, 2.0)
_CALIBRATE_BOUND = st.one_of(
    st.none(), _bound, _bound, _bound, st.sampled_from([-0.5, math.nan, math.inf, 2 * MAX_DISORDER_BOUND_MHZ])
)
_CALIBRATE_ROUNDS = st.one_of(st.none(), st.none(), st.none(), st.integers(-1, 2))


@given(task=_CALIBRATE_TASKS, seed=_CALIBRATE_SEED, shots=_CALIBRATE_SHOTS, bound=_CALIBRATE_BOUND,
       rounds=_CALIBRATE_ROUNDS)
@settings(max_examples=50)  # most examples exit 1 in milliseconds; a twin's fit takes tens of them
@example(task="disorder", seed=8, shots=None, bound=None, rounds=None)  # a fit that takes two starts
@example(task="align", seed=5, shots=2000, bound=None, rounds=2)
def test_cli_calibrate_exits_0_with_its_fit_or_1_with_error_json(task, seed, shots, bound, rounds):
    flags = [f"--task={task}"]  # the = keeps a value from reading as a flag
    for flag, value in (("seed", seed), ("shots", shots), ("bound", bound), ("rounds", rounds)):
        flags += [] if value is None else [f"--{flag}={value!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "calibrate"
        code = main(["calibrate", *flags, "--out", str(out)])
        event(f"{task} exit {code}")
        status = json.loads((out / "manifest.json").read_text())["status"]
        if code != 0:
            assert code == 1 and status == "failed"
            assert json.loads((out / "error.json").read_text())["type"]
            return
        assert not (out / "error.json").exists()
        *steps, fit = read_records(out / "records.jsonl")
        assert {record.kind for record in steps} == {"calibration_step"}
        assert fit.kind == "fit" and fit.coords == {"task": task}
        if task == "disorder":
            assert len(fit.payload["disorder_mhz"]) == 9  # the 3x3 twin's qubits
            assert fit.payload["starts"] >= 1 and fit.payload["cost"] <= fit.payload["accept_cost"]
        elif task == "align":
            assert 1 <= fit.payload["rounds_run"] <= (5 if rounds is None else rounds)
        else:
            assert 0.0 <= fit.payload["detector_population"] <= 1.0
