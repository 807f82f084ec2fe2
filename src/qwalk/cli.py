"""Command line entry point.

Subcommands: run, sweep, calibrate, analyze, render. Exit codes: 0 ok,
1 domain or numerical error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ctqw_velocity_pipeline,
    disorder_velocity_study,
    fringe_stats,
    lr_bound,
)
from .calibration import (
    CalibrationTwin,
    alignment_loop,
    fit_disorder_map,
    generate_swap_data,
    optimize_interferometer,
)
from .device import (
    DEFAULT_ANHARMONICITY_MHZ,
    DEFAULT_J_EFF_MHZ,
    QubitId,
    default_device,
    sample_disorder,
    subgrid_device,
)
from .records import RecordWriter, ResultRecord, RunManifest, write_csv_matrix
from .scenarios import (
    FringeGrid,
    Scenario,
    ctqw_scenario,
    default_mz_layout,
    disorder_sweep,
    mz_scenario,
    run_scenario,
)
from .svg import render_heatmap

_BUILTIN_SCENARIOS = {
    "ctqw-single": lambda: ctqw_scenario({"U00Q0"}),
    "ctqw-two": lambda: ctqw_scenario({"U00Q0", "U33Q2"}),
    "mz-single": lambda: mz_scenario("S"),
    "mz-two": lambda: mz_scenario({"L1", "R1"}),
    "mz-blocked": lambda: mz_scenario("S", blocked=True),
    "mz-removed": lambda: mz_scenario({"L1", "R1"}, removed=True),
}


def _load_scenario(ref: str) -> Scenario:
    if ref in _BUILTIN_SCENARIOS:
        return _BUILTIN_SCENARIOS[ref]()
    path = Path(ref)
    if not path.exists():
        raise ValueError(f"scenario file {ref!r} does not exist (builtins: {', '.join(sorted(_BUILTIN_SCENARIOS))})")
    return Scenario.from_dict(json.loads(path.read_text()))


def _apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    if not overrides:
        return scenario
    doc = scenario.to_dict()
    for key, value in overrides.items():
        if key not in doc:
            raise ValueError(f"unknown scenario field {key!r}")
        doc[key] = value
    return Scenario.from_dict(doc)


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
        with np.errstate(all="ignore"):  # a non-finite bound is reported below, not warned about
            values = np.linspace(float(start), float(stop), int(n))
    except Exception:
        raise ValueError(f"range {spec!r} is not start:stop:count") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"range {spec!r} does not give finite values")
    return values


def _grid_snapshot(result, t_ns: float) -> tuple[np.ndarray, np.ndarray]:
    """Map a scenario population column onto the 8x8 grid; inactive cells masked."""
    k = int(np.argmin(np.abs(np.array(result.times_ns) - t_ns)))
    grid = np.zeros((8, 8))
    mask = np.ones((8, 8), dtype=bool)
    for label, value in zip(result.sites, result.populations[:, k]):
        r, c = QubitId.parse(label).grid_position
        grid[r, c] = value
        mask[r, c] = False
    return grid, mask


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # once the scenario is known, any failure leaves error.json here
    overrides = _parse_overrides(args.override)
    scenario = _apply_overrides(scenario, overrides)
    if args.seed is not None:
        scenario = _apply_overrides(scenario, {"seed": args.seed})
    outputs = ["records.jsonl", "populations.csv", "snapshot.svg"]
    with RunManifest(scenario.name, scenario.seed, __version__, str(out), overrides, outputs) as manifest:
        result = run_scenario(scenario)
        with RecordWriter(out / "records.jsonl") as writer:
            for k, t in enumerate(result.times_ns):
                writer.write(
                    ResultRecord(
                        "populations",
                        {"sites": list(result.sites), "values": result.populations[:, k]},
                        {"time_ns": t},
                    )
                )
            if result.shots is not None:
                writer.write(
                    ResultRecord(
                        "shots",
                        {"counts": result.shots.counts, "retention": result.retention},
                        {"time_ns": scenario.readout_time_ns},
                    )
                )
        write_csv_matrix(
            out / "populations.csv",
            result.populations,
            row_labels=result.sites,
            col_labels=[repr(float(t)) for t in result.times_ns],
            corner="site\\time_ns",
        )
        t_snap = scenario.readout_time_ns if scenario.readout_time_ns is not None else result.times_ns[-1]
        grid, mask = _grid_snapshot(result, t_snap)
        (out / "snapshot.svg").write_text(
            render_heatmap(grid, vmin=0.0, title=f"{scenario.name} t={t_snap:g} ns", mask=mask)
        )
        if result.shots is not None:
            (out / "shots.txt").write_text(result.shots.to_lines())
            manifest.add_output("shots.txt")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # once the scenario is known, any failure leaves error.json here
    scenario = _apply_overrides(scenario, _parse_overrides(args.override))
    if scenario.kind != "mz":
        raise ValueError("sweep needs an interferometer scenario")
    d_left = _parse_range(args.d_left)
    d_right = _parse_range(args.d_right)
    outputs = ["fringe.csv", "fringe.svg", "records.jsonl"]
    with RunManifest(scenario.name + "-sweep", scenario.seed, __version__, str(out), outputs=outputs):
        grid = disorder_sweep(scenario, d_left, d_right, args.time)
        (out / "fringe.csv").write_text(grid.to_csv())
        (out / "fringe.svg").write_text(
            render_heatmap(
                grid.values,
                vmin=0.0,
                title=f"{scenario.name} detector at {grid.readout_time_ns:g} ns",
            )
        )
        stats = fringe_stats(grid.values)
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
    print(f"fringe grid {grid.values.shape}: visibility={fringe_stats(grid.values).visibility:.3f}")
    return 0


def _cmd_calibrate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed or 0
    manifest = RunManifest(f"calibrate-{args.task}", seed, __version__, str(out), outputs=["records.jsonl"])
    with manifest, RecordWriter(out / "records.jsonl") as writer:
        if args.rounds is not None and args.task != "align":
            raise ValueError(f"--rounds does not apply to the {args.task} task: only align runs rounds")
        if args.task == "disorder":
            device = subgrid_device(4, 0, 3, 3)
            hidden = sample_disorder(device.functional_qubits, args.bound, seed)
            twin = CalibrationTwin(device, hidden, n_shots=args.shots, seed=seed)
            datasets = [generate_swap_data(twin, q) for q in device.functional_qubits]
            fit = fit_disorder_map(datasets)
            for it, cost, x in fit.history:
                writer.write(
                    ResultRecord("calibration_step", {"cost": cost, "parameters_mhz": x}, {"iteration": it})
                )
            writer.write(
                ResultRecord(
                    "fit",
                    {
                        "disorder_mhz": {q.label: v for q, v in fit.disorder.offsets.items()},
                        "cost": fit.cost,
                        "overall_distance": fit.overall_distance,
                        "accept_cost": fit.accept_cost,
                        "starts": fit.n_starts,
                        "evaluations": fit.n_evaluations,
                    },
                    {"task": "disorder"},
                )
            )
            print(f"fitted disorder map, final cost {fit.cost:.3e}")
        elif args.task == "align":
            device = subgrid_device(4, 0, 3, 3)
            hidden = sample_disorder(device.functional_qubits, args.bound, seed)
            twin = CalibrationTwin(device, hidden, n_shots=args.shots, seed=seed)
            res = alignment_loop(twin, rounds=5 if args.rounds is None else args.rounds)
            for round_no, sign, dist, accepted in res.history:
                writer.write(
                    ResultRecord(
                        "calibration_step",
                        {"overall_distance": dist, "sign": sign, "accepted": accepted},
                        {"round": round_no},
                    )
                )
            writer.write(
                ResultRecord(
                    "fit",
                    {"residual_max_mhz": res.residual_max_mhz, "rounds_run": res.rounds_run},
                    {"task": "align"},
                )
            )
            print(f"alignment residual {res.residual_max_mhz:.3f} MHz after {res.rounds_run} rounds")
        elif args.task == "interferometer":
            if args.shots is not None:
                raise ValueError("--shots does not apply to the interferometer task: it optimizes noiseless populations")
            device = default_device()
            layout = default_mz_layout()
            hidden = sample_disorder(layout.sites, args.bound, seed)
            twin = CalibrationTwin(device, hidden, seed=seed)
            res = optimize_interferometer(twin, layout)
            for stage, hist in ((1, res.stage1_history), (2, res.stage2_history)):
                for it, cost, x in hist:
                    writer.write(
                        ResultRecord(
                            "calibration_step",
                            {"cost": cost, "stage": stage, "parameters_mhz": x},
                            {"iteration": it},
                        )
                    )
            writer.write(
                ResultRecord(
                    "fit",
                    {
                        "detector_population": res.detector_population,
                        "initial_detector_population": res.initial_detector_population,
                        "stage1_product": res.stage1_product,
                    },
                    {"task": "interferometer"},
                )
            )
            print(
                f"detector population {res.initial_detector_population:.3f} -> {res.detector_population:.3f}"
            )
        else:
            raise ValueError(f"unknown calibration task {args.task!r}")
    return 0


def _cmd_analyze(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
                writer.write(
                    ResultRecord(
                        "front_fit",
                        {
                            "peak_time_ns": f.peak_time_ns,
                            "peak_time_err_ns": f.peak_time_err_ns,
                            "amplitude": f.amplitude,
                            "width_ns": f.width_ns,
                            "offset": f.offset,
                        },
                        {"distance": f.distance},
                    )
                )
            writer.write(
                ResultRecord(
                    "velocity",
                    {"velocity": res.velocity, "std_err": res.std_err, "lr_bound": vmax},
                    {"study": "velocity"},
                )
            )
            print(f"propagation velocity {res.velocity:.2f} +- {res.std_err:.2f} sites/us (bound {vmax:.1f})")
        elif args.study == "distance-velocity":
            res = disorder_velocity_study(n_seeds=32 if args.seeds is None else args.seeds, seed=seed)
            for d0, v, e, bad in zip(res.d0_values, res.velocities, res.std_errs, res.unweighted):
                payload = {"velocity": v, "std_err": e, "lr_bound": vmax, "above_lr_bound": v > vmax,
                           "weighted": not bad, "unweighted_front_distances": bad}
                writer.write(ResultRecord("velocity", payload, {"d0_sites": d0}))
                note = f" (unweighted: no time error at d = {', '.join(f'{d:.2f}' for d in bad)})" if bad else ""
                note += f" (above the Lieb-Robinson bound {vmax:.2f})" if v > vmax else ""
                print(f"d0={d0:6.3f} sites: v = {v:6.2f} +- {e:.2f} sites/us{note}")
        else:
            raise ValueError(f"unknown study {args.study!r}")
    return 0


def _cmd_render(args) -> int:
    grid = FringeGrid.from_csv(Path(args.input).read_text())
    svg = render_heatmap(
        grid.values,
        title=args.title or Path(args.input).stem,
        vmin=args.vmin,
        vmax=args.vmax,
    )
    Path(args.out).write_text(svg)
    return 0


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
    p_cal.add_argument("--bound", type=float, default=1.6, help="planted disorder bound MHz")
    p_cal.add_argument("--shots", type=int, default=None)
    p_cal.add_argument("--rounds", type=int, default=None, help="align rounds (default 5)")
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_an = sub.add_parser("analyze", help="correlation and velocity studies")
    p_an.add_argument("--study", choices=("velocity", "distance-velocity"), required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_error(getattr(args, "out", None), exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
