"""Cold start: `import qwalk.cli` and the propagating subcommands load numpy
and scipy.sparse only. The Chebyshev coefficients' Bessel functions are
computed in numpy, so scipy.special is not needed; scipy.optimize and
scipy.integrate (and the scipy.linalg and scipy.special they pull in) are
imported on use by the three functions that call them, so each check runs in
a fresh interpreter.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.special")


def fresh_python(code: str, cwd: Path) -> dict:
    """Run `code` in a new interpreter with src on the path; return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_and_sweep_never_load_optimize_integrate_or_linalg(tmp_path):
    got = fresh_python(f"""
        import json, sys
        deferred = {DEFERRED!r}
        loaded = lambda: sorted(m for m in deferred if m in sys.modules)
        from qwalk.cli import main
        after_import = loaded()
        codes = [main(["run", "--scenario", "ctqw-single", "--out", "run"]),
                 main(["sweep", "--scenario", "mz-two", "--d-left", "0:1:2", "--d-right", "0:1:2", "--out", "sweep"])]
        after_ops = loaded()
        codes.append(main(["analyze", "--study", "distance-velocity", "--seeds", "2", "--out", "analyze"]))
        print(json.dumps({{"after_import": after_import, "after_ops": after_ops, "codes": codes}}))
    """, tmp_path)
    assert got == {"after_import": [], "after_ops": [], "codes": [0, 0, 0]}


def test_deferred_imports_resolve_in_a_fresh_interpreter(tmp_path):
    # fit_disorder_map and evolve_lindblad each pay their own import here,
    # with nothing loaded before them
    got = fresh_python("""
        import json
        from qwalk.cli import main
        from qwalk import ActiveGraph, LindbladModel, evolve_lindblad, initial_density
        code = main(["calibrate", "--task", "disorder", "--seed", "5", "--out", "cal"])
        model = LindbladModel.from_graph(ActiveGraph((0,), ()), t1_us=12.26)
        snaps = evolve_lindblad(model, initial_density(model, {0}), (100.0,))
        print(json.dumps({"code": code, "snapshots": len(snaps)}))
    """, tmp_path)
    assert got == {"code": 0, "snapshots": 1}
