"""Cold start: `import qwalk.cli`, the propagating subcommands, `analyze`
and the disorder and alignment calibrations load numpy and scipy.sparse only.
The Chebyshev coefficients' Bessel functions are computed in numpy, so
scipy.special is not needed; the front fits and the disorder fit's polish run
one numpy Levenberg-Marquardt, and the disorder fit's Nelder-Mead is a numpy
port of SciPy's. scipy.optimize and scipy.integrate (and the scipy.linalg and
scipy.special they pull in) are imported on use, by the interferometer
optimization (L-BFGS-B) and by `evolve_lindblad`, so each check runs in a
fresh interpreter.
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
        print(json.dumps({{"after_import": after_import, "after_ops": after_ops, "codes": codes}}))
    """, tmp_path)
    assert got == {"after_import": [], "after_ops": [], "codes": [0, 0]}


def test_analyze_never_loads_optimize_integrate_or_linalg(tmp_path):
    # both studies fit their fronts without loading any SciPy module beyond
    # those `import qwalk.cli` already loaded for scipy.sparse
    got = fresh_python(f"""
        import json, sys
        scipy_modules = lambda: {{m for m in sys.modules if m.split(".")[0] == "scipy"}}
        from qwalk.cli import main
        after_import = scipy_modules()
        codes = [main(["analyze", "--study", "velocity", "--out", "velocity"]),
                 main(["analyze", "--study", "distance-velocity", "--seeds", "2", "--out", "distance"])]
        print(json.dumps({{"deferred": sorted(m for m in {DEFERRED!r} if m in sys.modules),
                          "added": sorted(scipy_modules() - after_import), "codes": codes}}))
    """, tmp_path)
    assert got == {"deferred": [], "added": [], "codes": [0, 0]}


def test_disorder_and_align_calibrations_never_load_optimize_linalg_or_special(tmp_path):
    got = fresh_python(f"""
        import json, sys
        from qwalk.cli import main
        codes = [main(["calibrate", "--task", "disorder", "--seed", "5", "--out", "cal"]),
                 main(["calibrate", "--task", "align", "--seed", "5", "--rounds", "1", "--out", "align"])]
        print(json.dumps({{"deferred": sorted(m for m in {DEFERRED!r} if m in sys.modules), "codes": codes}}))
    """, tmp_path)
    assert got == {"deferred": [], "codes": [0, 0]}


def test_deferred_imports_resolve_in_a_fresh_interpreter(tmp_path):
    # optimize_interferometer and evolve_lindblad each pay their own import
    # here, with nothing loaded before them
    got = fresh_python(f"""
        import json, sys
        from qwalk.cli import main
        from qwalk import ActiveGraph, LindbladModel, evolve_lindblad, initial_density
        code = main(["calibrate", "--task", "interferometer", "--seed", "5", "--out", "interferometer"])
        after_interferometer = sorted(m for m in {DEFERRED!r} if m in sys.modules)
        model = LindbladModel.from_graph(ActiveGraph((0,), ()), t1_us=12.26)
        snaps = evolve_lindblad(model, initial_density(model, {{0}}), (100.0,))
        print(json.dumps({{"code": code, "after_interferometer": after_interferometer, "snapshots": len(snaps)}}))
    """, tmp_path)
    assert got == {"code": 0, "after_interferometer": ["scipy.linalg", "scipy.optimize", "scipy.special"],
                   "snapshots": 1}


def test_module_exports_resolve(tmp_path):
    # a deleted function cannot stay behind in an `__all__` or in the package namespace
    got = fresh_python("""
        import importlib, json, pkgutil
        import qwalk
        missing = {}
        for info in pkgutil.iter_modules(qwalk.__path__):
            module = importlib.import_module(f"qwalk.{info.name}")
            stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
            if stale:
                missing[info.name] = stale
        namespace = {}
        exec("from qwalk import *", namespace)
        print(json.dumps({"missing": missing, "star_import": "run_scenario" in namespace}))
    """, tmp_path)
    assert got == {"missing": {}, "star_import": True}
