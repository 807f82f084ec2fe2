"""qwalk benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload walk --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Each operation is one `qwalk` subcommand run in-process through
`qwalk.cli.main(argv)` into a fresh output directory under `.bench_tmp/`.
The run passes over its seeded inputs, always whole passes, until `--seconds`
have elapsed, checks every operation's output, and prints one JSON object as
its last line.

--trace 0 reports the end-to-end metrics with tracing off, with times scaled
to nominal machine speed (see speed.py; the raw wall-clock medians are printed
in the notes line). --trace 1 runs each operation twice, untraced then traced
(see spans.py), and reports per-layer metrics per traced operation, in raw
wall seconds, plus the tracing overhead.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with the default two OpenBLAS
# threads on a two-core machine, one of 24 ctqw-two runs took four times the
# median.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import NOMINAL_PROBE_S, SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_REPEATS = 7
SETUP_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import qwalk.cli; print('ready', flush=True)"

END_TO_END_UNITS = {"op_s_p50": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


def setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter until `qwalk.cli` is imported."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        returncode = proc.wait(timeout=120)
    if line.strip() != "ready" or returncode != 0:
        raise RuntimeError(f"importing qwalk.cli in a fresh interpreter failed (exit {returncode})")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of its build config
        blas_vendor = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nominal_probe_s": NOMINAL_PROBE_S,
    }


class Runner:
    """Runs operations through `qwalk.cli.main` and checks their outputs."""

    def __init__(self, workload, scratch: Path):
        import qwalk.cli

        self.cli = qwalk.cli
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.errors = []  # one per failed operation
        self.run_errors = []  # failed checks of the run as a whole

    def run(self, op) -> tuple[float, float]:
        """Run one operation; return the wall seconds of the `main` call and
        of the whole step, output check included. Failures are recorded."""
        self.attempted += 1
        t_step = perf_counter()
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        sink = io.StringIO()
        error = None
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = perf_counter()
                try:
                    code = self.cli.main(op.argv + ["--out", str(out)])
                except (Exception, SystemExit) as exc:
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0
            if code != 0:
                error = f"exit {code}"
            else:
                try:
                    error = self.workload.check(op, out)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if error:
            self.errors.append(f"{' '.join(op.argv[:2])}: {error}")
        return elapsed, perf_counter() - t_step


def run_passes(ops, seconds: float, run_op, between=None) -> float:
    """Run whole passes over the operations until `seconds` of passes have
    elapsed, at least one; call `between` after each pass, off the clock.
    Returns the seconds the passes took."""
    wall = 0.0
    while True:
        t0 = perf_counter()
        for op in ops:
            run_op(op)
        wall += perf_counter() - t0
        if between:
            between()
        if wall >= seconds:
            return wall


def run_untraced(runner, ops, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics. Times are scaled to nominal machine speed (speed.py);
    the raw wall-clock medians are reported alongside in the notes."""
    speed = SpeedProbe()
    # Set-up samples are spread over the run, one before and one after each
    # pass, so that they see the same machine as the operations.
    setup, times, steps = [], [], []

    def sample_setup():
        if len(setup) < SETUP_REPEATS:
            setup.append(setup_seconds())
            speed.sample()

    def run_op(op):
        op_s, step_s = runner.run(op)
        speed.sample()
        times.append(op_s)
        steps.append(step_s)

    sample_setup()
    run_passes(ops, seconds, run_op, sample_setup)
    while len(setup) < SETUP_REPEATS:
        sample_setup()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    factor = speed.factor()
    metrics = {
        "op_s_p50": statistics.median(times) * factor,
        "ops_per_s": len(times) / (sum(steps) * factor),
        "setup_s": statistics.median(setup) * factor,
        "peak_rss_mib": peak_kib / 1024.0,
    }
    notes = {
        "op_samples": len(times),
        "setup_samples": len(setup),
        "speed_factor": factor,
        "wall_op_s_p50": statistics.median(times),
        "wall_setup_s": statistics.median(setup),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def run_traced(runner, ops, seconds: float) -> tuple[dict, dict]:
    from spans import LAYERS, Tracer

    tracer = Tracer()
    plain, traced = [], []

    def run_pair(op):
        plain.append(runner.run(op)[0])
        with tracer:
            traced.append(runner.run(op)[0])
        tracer.end_op()

    run_passes(ops, seconds, run_pair)
    n = len(traced)
    c = tracer.counts
    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    metrics = {f"{layer}.self_s": (self_s[layer] / n, "s") for layer in LAYERS}
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics.update({
        "sector.calls": (calls["sector"] / n, "count"),
        "hamiltonian.builds": (c["hamiltonian.builds"] / n, "count"),
        "hamiltonian.nnz": (ratio(c["hamiltonian.nnz_total"], c["hamiltonian.builds"]), "count"),
        "evolution.propagations": (c["evolution.propagations"] / n, "count"),
        "evolution.dense_propagations": (c["evolution.dense_propagations"] / n, "count"),
        "evolution.krylov_calls": (c["evolution.krylov_calls"] / n, "count"),
        "evolution.krylov_calls_per_interval": (
            ratio(c["evolution.krylov_calls"], c["evolution.krylov_intervals"]), "ratio"),
        "measurement.shots": (c["measurement.shots"] / n, "count"),
        "measurement.retention": (ratio(c["measurement.kept"], c["measurement.drawn"]), "ratio"),
        "analysis.front_fits": (c["analysis.front_fits"] / n, "count"),
        "calibration.cost_evals": (c["calibration.cost_evals"] / n, "count"),
        "calibration.starts": (c["calibration.starts"] / n, "count"),
        "calibration.useful_eval_frac": (ratio(tracer.useful_evals, c["calibration.cost_evals"]), "ratio"),
        "records.bytes": (c["records.bytes"] / n, "B"),
        "trace.op_s": (sum(traced) / n, "s"),
        "trace.overhead_frac": (statistics.median(t / p for t, p in zip(traced, plain)) - 1.0, "ratio"),
    })
    spans_s = sum(self_s.values())
    if abs(spans_s - sum(traced)) > 0.01 * sum(traced):
        runner.run_errors.append(f"layer self times add up to {spans_s:.4f} s, traced ops took {sum(traced):.4f} s")
    notes = {
        "traced_ops": n,
        "span_s_minus_op_s": spans_s - sum(traced),
        "top_functions": [
            (key, tracer.calls[key] / n, s / n)
            for key, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:25]
        ],
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qwalk" / "cli.py").is_file():
        print(f"error: no qwalk source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qwalk

    if Path(qwalk.__file__).resolve().parent != (SRC / "qwalk").resolve():
        print(f"error: imported qwalk from {qwalk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    ops = workload.ops(rng)
    workload.prepare(ops, rng)

    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP))
    try:
        runner = Runner(workload, scratch)
        if args.trace:
            metrics, notes = run_traced(runner, ops, args.seconds)
        else:
            metrics, notes = run_untraced(runner, ops, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = len(runner.errors)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(notes, sort_keys=True))
    for error in runner.run_errors + runner.errors[:10]:
        print(f"# FAILED {error}")
    for name, (value, unit) in metrics.items():
        samples = f" (n={notes['op_samples']})" if name == "op_s_p50" else ""
        print(f"{args.workload} {name} {value:.6g} {unit}{samples}")
    print(f"{args.workload} failed_frac {failed / runner.attempted:.6g} 1 ({failed}/{runner.attempted} ops)")
    result = {
        "correct": failed == 0 and not runner.run_errors,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
