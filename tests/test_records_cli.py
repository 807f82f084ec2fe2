import json

import numpy as np
import pytest

from qwalk import calibration
from qwalk.analysis import disorder_velocity_study, lr_bound
from qwalk.cli import main
from qwalk.device import DEFAULT_ANHARMONICITY_MHZ, DEFAULT_J_EFF_MHZ
from qwalk.records import RecordWriter, ResultRecord, RunManifest, read_records, write_csv_matrix
from qwalk.svg import render_heatmap


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
    m = RunManifest("demo", 7, "0.1.0", str(tmp_path), outputs=["records.jsonl"])
    with m:
        doc = RunManifest.validate_file(m.path())
        assert doc["status"] == "running" and doc["outputs"] == ["records.jsonl"]
    doc = RunManifest.validate_file(m.path())
    assert doc["status"] == "done" and doc["finished_at"]
    with pytest.raises(KeyError), m:
        raise KeyError("boom")
    assert RunManifest.validate_file(m.path())["status"] == "failed"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(ValueError):
        RunManifest.validate_file(bad)


def test_write_csv_matrix(tmp_path):
    path = tmp_path / "m.csv"
    write_csv_matrix(path, np.array([[1.5, 2.0], [3.0, 4.0]]), row_labels=["a", "b"], col_labels=["x", "y"], corner="k")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x,y"
    assert lines[1].startswith("a,1.5,")


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
    doc = RunManifest.validate_file(out / "manifest.json")
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


def test_cli_bad_override_is_domain_error(tmp_path):
    code = main(["run", "--scenario", "mz-single", "--out", str(tmp_path / "x"), "--override", "nonsense=1"])
    assert code == 1


def test_cli_removed_scenario_field_is_unknown(tmp_path, capsys):
    out = tmp_path / "x"
    argv = ["run", "--scenario", "mz-two", "--out", str(out), "--override", "interaction_frequency_ghz=7.0"]
    assert main(argv) == 1
    doc = json.loads((out / "error.json").read_text())
    assert doc["type"] == "ValueError" and "unknown scenario field" in doc["error"]
    assert "Traceback" not in capsys.readouterr().err


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
    ],
)
def test_cli_calibrate_bad_bound_or_shots_is_domain_error(tmp_path, capsys, task, flags, field):
    assert main(["calibrate", "--task", task, *flags, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "ValueError" and doc["error"].startswith(field)
    assert "Traceback" not in capsys.readouterr().err
    assert RunManifest.validate_file(tmp_path / "manifest.json")["status"] == "failed"


def test_cli_calibrate_exhausted_start_budget_is_domain_error(tmp_path, capsys, monkeypatch):
    # seed 23's first start ends in a local minimum; with a budget of one
    # start the fit refuses the map instead of writing it
    monkeypatch.setattr(calibration, "N_STARTS", 1)
    assert main(["calibrate", "--task", "disorder", "--seed", "23", "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc["type"] == "CalibrationError"
    assert "best cost" in doc["error"] and "zero-map cost" in doc["error"]
    assert "Traceback" not in capsys.readouterr().err
    assert RunManifest.validate_file(tmp_path / "manifest.json")["status"] == "failed"


def test_cli_analyze_records_the_seed_it_runs(tmp_path):
    def analyze(name, *seed_flags):
        out = tmp_path / name
        argv = ["analyze", "--study", "distance-velocity", "--seeds", "2", *seed_flags, "--out", str(out)]
        assert main(argv) == 0
        return RunManifest.validate_file(out / "manifest.json")["seed"], (out / "records.jsonl").read_text()

    default_seed, default_records = analyze("default")
    assert (default_seed, default_records) == analyze("explicit", "--seed", "2024")
    assert default_seed == 2024
    zero_seed, zero_records = analyze("zero", "--seed", "0")
    assert zero_seed == 0 and zero_records != default_records


@pytest.mark.filterwarnings("ignore:Covariance of the parameters could not be estimated")
def test_cli_distance_velocity_records_flag_unweighted_windows(tmp_path):
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
    assert RunManifest.validate_file(tmp_path / "manifest.json")["status"] == "failed"


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
    assert RunManifest.validate_file(out / "manifest.json")["seed"] == 9
