"""Command line entry point.

Subcommands: run, sweep, calibrate, analyze, render. Exit codes: 0 ok,
1 domain or numerical error, 2 usage error.

Each `_cmd_*` imports the modules its command runs, so a command loads only
those: `calibrate --task disorder|align` and `render` load no SciPy module,
and `run`, `sweep` and `analyze` load `scipy.sparse` on their first
propagation.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .device import (
    DEFAULT_ANHARMONICITY_MHZ,
    DEFAULT_DISORDER_BOUND_MHZ,
    DEFAULT_J_EFF_MHZ,
    QubitId,
    default_device,
    sample_disorder,
    subgrid_device,
)


def _scenarios():
    from . import scenarios

    return scenarios


# each builtin is built on the device its command runs on, by `scenarios` imported on use
_BUILTIN_SCENARIOS = {
    "ctqw-single": lambda device: _scenarios().ctqw_scenario({"U00Q0"}, device=device),
    "ctqw-two": lambda device: _scenarios().ctqw_scenario({"U00Q0", "U33Q2"}, device=device),
    "mz-single": lambda device: _scenarios().mz_scenario("S", device=device),
    "mz-two": lambda device: _scenarios().mz_scenario({"L1", "R1"}, device=device),
    "mz-blocked": lambda device: _scenarios().mz_scenario("S", blocked=True, device=device),
    "mz-removed": lambda device: _scenarios().mz_scenario({"L1", "R1"}, removed=True, device=device),
}


def _scenario_document(ref: str, out: Path, device) -> dict:
    """The scenario document of a builtin name or a JSON file.

    Once the scenario is found the output directory is made, so any later
    failure, a file that is not JSON included, leaves error.json there.
    """
    builtin = _BUILTIN_SCENARIOS.get(ref)
    path = Path(ref)
    if builtin is None and not path.exists():
        raise ValueError(f"scenario file {ref!r} does not exist (builtins: {', '.join(sorted(_BUILTIN_SCENARIOS))})")
    out.mkdir(parents=True, exist_ok=True)
    if builtin is not None:
        return builtin(device).to_dict()
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ValueError(f"scenario file {ref!r} is not valid JSON: {exc}") from None


def _load_scenario(args, out: Path, device):
    """The command's `Scenario` and its `--override` map: the document of
    `--scenario` with the overrides applied, then `--seed` where the command
    has it. A static disorder on a label that is not a functional qubit of
    `device` is rejected here, before any manifest is written."""
    from .scenarios import Scenario

    doc = _scenario_document(args.scenario, out, device)
    overrides = _parse_overrides(args.override)
    seed = {} if getattr(args, "seed", None) is None else {"seed": args.seed}
    scenario = Scenario.from_dict({**doc, **overrides, **seed})
    scenario.check_static_disorder(device)
    return scenario, overrides


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _parse_range(spec: str) -> np.ndarray:
    try:
        start, stop, n = spec.split(":")
        start, stop, count = float(start), float(stop), int(n)
    except ValueError:
        raise ValueError(f"range {spec!r} is not start:stop:count") from None
    if count < 1:
        raise ValueError(f"range {spec!r} has count {count}; a sweep axis needs at least 1 value")
    try:
        with np.errstate(all="ignore"):  # a non-finite bound is reported below, not warned about
            values = np.linspace(start, stop, count)
    except MemoryError:
        raise ValueError(f"range {spec!r} has too many values to hold") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"range {spec!r} does not give finite values")
    return values


def _grid_snapshot(result, t_ns: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Map the population column sampled nearest t_ns onto the 8x8 grid, inactive
    cells masked; also the time of that column."""
    k = int(np.argmin(np.abs(np.array(result.times_ns) - t_ns)))
    grid = np.zeros((8, 8))
    mask = np.ones((8, 8), dtype=bool)
    for label, value in zip(result.sites, result.populations[:, k]):
        r, c = QubitId.parse(label).grid_position
        grid[r, c] = value
        mask[r, c] = False
    return grid, mask, result.times_ns[k]


def _cmd_run(args) -> int:
    from .records import FloatTable, RecordWriter, RunManifest, populations_lines, shots_outputs, write_csv_matrix
    from .scenarios import run_scenario
    from .svg import render_heatmap

    out = Path(args.out)
    device = default_device()
    scenario, overrides = _load_scenario(args, out, device)
    outputs = ["records.jsonl", "populations.csv", "snapshot.svg"]
    with RunManifest(scenario.name, scenario.seed, __version__, str(out), overrides, outputs) as manifest:
        result = run_scenario(scenario, device)
        # the populations are spelled once, for their records and their CSV
        populations = FloatTable(result.populations)
        with RecordWriter(out / "records.jsonl") as writer:
            writer.write_lines(populations_lines(result.sites, result.times_ns, populations))
            if result.shots is not None:
                # the shots record and shots.txt from one spelling of the shots
                shots_line, shots_text = shots_outputs(result.shots, result.retention, scenario.readout_time)
                writer.write_lines([shots_line])
        write_csv_matrix(
            out / "populations.csv",
            populations,
            row_labels=result.sites,
            col_labels=[repr(float(t)) for t in result.times_ns],
            corner="site\\time_ns",
        )
        grid, mask, t_snap = _grid_snapshot(result, scenario.readout_time)
        (out / "snapshot.svg").write_text(
            render_heatmap(grid, vmin=0.0, title=f"{scenario.name} t={t_snap:g} ns", mask=mask)
        )
        if result.shots is not None:
            (out / "shots.txt").write_text(shots_text)
            manifest.add_output("shots.txt")
    return 0


def _cmd_sweep(args) -> int:
    from .analysis import fringe_stats
    from .records import RecordWriter, ResultRecord, RunManifest, write_csv_matrix
    from .scenarios import disorder_sweep
    from .svg import render_heatmap

    out = Path(args.out)
    device = default_device()
    scenario, overrides = _load_scenario(args, out, device)
    if args.time is not None:  # the flag wins over a readout_time_ns override
        scenario = replace(scenario, readout_time_ns=args.time)
    d_left = _parse_range(args.d_left)
    d_right = _parse_range(args.d_right)
    outputs = ["fringe.csv", "fringe.svg", "records.jsonl"]
    with RunManifest(scenario.name + "-sweep", scenario.seed, __version__, str(out), overrides, outputs):
        grid = disorder_sweep(scenario, d_left, d_right, device)
        stats = fringe_stats(grid.values)  # a grid with no fringe fails here, before any output is written
        write_csv_matrix(
            out / "fringe.csv",
            grid.values,
            row_labels=[repr(float(d)) for d in grid.d_left_values],
            col_labels=[repr(float(d)) for d in grid.d_right_values],
            corner="d_left_mhz\\d_right_mhz",
        )
        (out / "fringe.svg").write_text(
            render_heatmap(
                grid.values,
                vmin=0.0,
                title=f"{scenario.name} detector at {grid.readout_time_ns:g} ns",
            )
        )
        with RecordWriter(out / "records.jsonl") as writer:
            writer.write(
                ResultRecord(
                    "fringe_grid",
                    {
                        "d_left_mhz": list(grid.d_left_values),
                        "d_right_mhz": list(grid.d_right_values),
                        "values": grid.values,
                        "visibility": stats.visibility,
                        "variance": stats.variance,
                        "mean": stats.mean,
                    },
                    {"time_ns": grid.readout_time_ns, "detector": grid.detector},
                )
            )
    print(f"fringe grid {grid.values.shape}: visibility={stats.visibility:.3f}")
    return 0


def _cmd_calibrate(args) -> int:
    from .calibration import (
        CalibrationTwin,
        alignment_loop,
        fit_disorder_map,
        generate_swap_datasets,
        optimize_interferometer,
    )
    from .records import RecordWriter, ResultRecord, RunManifest
    from .scenarios import default_mz_layout

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed or 0
    manifest = RunManifest(f"calibrate-{args.task}", seed, __version__, str(out), outputs=["records.jsonl"])
    with manifest, RecordWriter(out / "records.jsonl") as writer:
        if args.rounds is not None and args.task != "align":
            raise ValueError(f"--rounds does not apply to the {args.task} task: only align runs rounds")
        # each task gives its calibration_step (payload, coords) pairs, its fit payload and its summary line
        if args.task == "interferometer":
            if args.shots is not None:
                raise ValueError("--shots does not apply to the interferometer task: it optimizes noiseless populations")
            layout = default_mz_layout()
            twin = CalibrationTwin(default_device(), sample_disorder(layout.sites, args.bound, seed), seed=seed)
            res = optimize_interferometer(twin, layout)
            steps = [
                ({"cost": cost, "stage": stage, "parameters_mhz": x}, {"iteration": it})
                for stage, hist in ((1, res.stage1_history), (2, res.stage2_history))
                for it, cost, x in hist
            ]
            fit = {
                "detector_population": res.detector_population,
                "initial_detector_population": res.initial_detector_population,
                "stage1_product": res.stage1_product,
            }
            summary = f"detector population {res.initial_detector_population:.3f} -> {res.detector_population:.3f}"
        else:  # disorder and align calibrate one twin of a 3x3 subgrid
            device = subgrid_device(4, 0, 3, 3)
            hidden = sample_disorder(device.functional_qubits, args.bound, seed)
            twin = CalibrationTwin(device, hidden, n_shots=args.shots, seed=seed)
            if args.task == "disorder":
                res = fit_disorder_map(generate_swap_datasets(twin, device.functional_qubits))
                steps = [({"cost": cost, "parameters_mhz": x}, {"iteration": it}) for it, cost, x in res.history]
                fit = {
                    "disorder_mhz": {q.label: v for q, v in res.disorder.offsets.items()},
                    "cost": res.cost,
                    "overall_distance": res.overall_distance,
                    "accept_cost": res.accept_cost,
                    "starts": res.n_starts,
                    "evaluations": res.n_evaluations,
                }
                summary = f"fitted disorder map, final cost {res.cost:.3e}"
            else:
                res = alignment_loop(twin, rounds=5 if args.rounds is None else args.rounds)
                steps = [
                    ({"overall_distance": dist, "sign": sign, "accepted": accepted}, {"round": round_no})
                    for round_no, sign, dist, accepted in res.history
                ]
                fit = {"residual_max_mhz": res.residual_max_mhz, "rounds_run": res.rounds_run}
                summary = f"alignment residual {res.residual_max_mhz:.3f} MHz after {res.rounds_run} rounds"
        for payload, coords in steps:
            writer.write(ResultRecord("calibration_step", payload, coords))
        writer.write(ResultRecord("fit", fit, {"task": args.task}))
        print(summary)
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import MAX_STUDY_SEEDS, ctqw_velocity_pipeline, disorder_velocity_study, lr_bound
    from .records import RecordWriter, ResultRecord, RunManifest

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.study not in ("velocity", "distance-velocity"):  # before the manifest, which is named after the study
        raise ValueError(f"unknown study {args.study!r}: choose velocity or distance-velocity")
    seed = 2024 if args.seed is None and args.study == "distance-velocity" else args.seed
    manifest = RunManifest(f"analyze-{args.study}", seed, __version__, str(out), outputs=["records.jsonl"])
    vmax = lr_bound(DEFAULT_J_EFF_MHZ, DEFAULT_ANHARMONICITY_MHZ)
    with manifest, RecordWriter(out / "records.jsonl") as writer:
        if args.study == "velocity":
            for flag, value in (("--seed", args.seed), ("--seeds", args.seeds)):
                if value is not None:
                    raise ValueError(f"{flag} does not apply to the velocity study: it samples no disorder")
            res = ctqw_velocity_pipeline()
            for s in res.series:
                writer.write(
                    ResultRecord(
                        "correlation",
                        {"times_ns": s.times_ns, "values": s.values},
                        {"site_pair": list(s.site_pair)},
                    )
                )
            for f in res.fronts:
                payload = {name: value for name, value in asdict(f).items() if name != "distance"}
                writer.write(ResultRecord("front_fit", payload, {"distance": f.distance}))
            writer.write(
                ResultRecord(
                    "velocity",
                    {"velocity": res.velocity, "std_err": res.std_err, "lr_bound": vmax},
                    {"study": "velocity"},
                )
            )
            print(f"propagation velocity {res.velocity:.2f} +- {res.std_err:.2f} sites/us (bound {vmax:.1f})")
        else:
            n_seeds = 32 if args.seeds is None else args.seeds
            if n_seeds > MAX_STUDY_SEEDS:  # before the study samples any disorder
                raise ValueError(f"--seeds {n_seeds} exceeds MAX_STUDY_SEEDS = {MAX_STUDY_SEEDS} disorder realisations")
            res = disorder_velocity_study(n_seeds=n_seeds, seed=seed)
            for d0, v, e, bad in zip(res.d0_values, res.velocities, res.std_errs, res.unweighted):
                payload = {"velocity": v, "std_err": e, "lr_bound": vmax, "above_lr_bound": v > vmax,
                           "weighted": not bad, "unweighted_front_distances": bad}
                writer.write(ResultRecord("velocity", payload, {"d0_sites": d0}))
                note = f" (unweighted: no time error at d = {', '.join(f'{d:.2f}' for d in bad)})" if bad else ""
                note += f" (above the Lieb-Robinson bound {vmax:.2f})" if v > vmax else ""
                print(f"d0={d0:6.3f} sites: v = {v:6.2f} +- {e:.2f} sites/us{note}")
    return 0


def _cmd_render(args) -> int:
    from .scenarios import FringeGrid
    from .svg import render_heatmap

    grid = FringeGrid.from_csv(Path(args.input).read_text())
    svg = render_heatmap(
        grid.values,
        title=args.title or Path(args.input).stem,
        vmin=args.vmin,
        vmax=args.vmax,
    )
    Path(args.out).write_text(svg)
    return 0


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qwalk", description="Hard-core walker simulations on a programmable qubit lattice")
    parser.add_argument("--version", action="version", version=f"qwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path or builtin name")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="disorder-step fringe grid")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--d-left", default="0:1:11", help="start:stop:count in MHz per step")
    p_sweep.add_argument("--d-right", default="0:1:11")
    p_sweep.add_argument("--time", type=float, default=None, help="readout time ns")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="twin-based calibration demos")
    p_cal.add_argument("--task", choices=("disorder", "align", "interferometer"), required=True)
    p_cal.add_argument("--seed", type=int)
    p_cal.add_argument("--bound", type=float, default=DEFAULT_DISORDER_BOUND_MHZ, help="planted disorder bound MHz")
    p_cal.add_argument("--shots", type=int, default=None)
    p_cal.add_argument("--rounds", type=int, default=None, help="align rounds (default 5)")
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_an = sub.add_parser("analyze", help="correlation and velocity studies")
    # no argparse choices: an unknown study exits 1 with error.json, as other bad input does
    p_an.add_argument("--study", required=True, help="velocity or distance-velocity")
    p_an.add_argument("--seed", type=int, default=None, help="distance-velocity ensemble seed (default 2024)")
    p_an.add_argument("--seeds", type=int, default=None, help="distance-velocity ensemble size (default 32)")
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=_cmd_analyze)

    p_render = sub.add_parser("render", help="render a fringe CSV as SVG")
    p_render.add_argument("--input", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--title")
    p_render.add_argument("--vmin", type=float)
    p_render.add_argument("--vmax", type=float)
    p_render.set_defaults(func=_cmd_render)
    return parser


def _write_error(out_dir: str | None, exc: Exception) -> None:
    if not out_dir:
        return
    try:
        path = Path(out_dir)
        if path.is_dir():
            doc = {"error": str(exc), "type": type(exc).__name__}
            (path / "error.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    except OSError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ArithmeticError: an overflow or a zero division from an input that no check covers is a domain error too
    except (ValueError, KeyError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_error(getattr(args, "out", None), exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
