"""Cold start: each command loads only what it runs.

`import qwalk.cli` loads no SciPy module: the package resolves its re-exports
on first access, and each `_cmd_*` imports its own modules. `build_hamiltonian`
keeps numpy triplets, and `scipy.sparse` is imported only when a CSR matrix is
first needed (`HamiltonianMatrix.matrix`, `propagate_block`). So the disorder
and alignment calibrations, whose swap stars are scattered dense in numpy, and
`render` load no SciPy module at all, and the calibrations load no
`qwalk.analysis`: their Levenberg-Marquardt is `qwalk.optimize`'s. `run`,
`sweep` and `analyze` load what a bare `import scipy.sparse` loads and nothing
more: the Chebyshev coefficients' Bessel functions are computed in numpy, the
front fits run the same numpy Levenberg-Marquardt, and the disorder fit's
Nelder-Mead is a numpy port of SciPy's. scipy.optimize and scipy.integrate (and the scipy.linalg and
scipy.special they pull in) are imported on use, by the interferometer
optimization (L-BFGS-B) and by `evolve_lindblad`. Each check runs in a fresh
interpreter.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.special")

# prints the scipy modules loaded so far, and the deferred ones among them
REPORT = f"""
import json, sys
def loaded():
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    return {{"scipy": scipy, "deferred": sorted(m for m in {DEFERRED!r} if m in sys.modules)}}
"""


def fresh_python(code: str, cwd: Path) -> dict:
    """Run `code` in a new interpreter with src on the path; return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", REPORT + textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def sparse_modules(tmp_path_factory) -> set:
    """The scipy modules a bare fresh `import scipy.sparse` loads."""
    got = fresh_python("""
        import scipy.sparse
        print(json.dumps(loaded()))
    """, tmp_path_factory.mktemp("sparse"))
    assert "scipy.sparse" in got["scipy"]
    return set(got["scipy"])


def run_commands(commands, cwd: Path, layers=()) -> dict:
    """Import qwalk.cli and run each argv through `main` in one fresh
    interpreter; with `layers`, also report which of those qwalk modules the
    commands loaded."""
    return fresh_python(f"""
        from qwalk.cli import main
        after_import = loaded()
        codes = [main(argv) for argv in {commands!r}]
        got = {{"after_import": after_import, "after_ops": loaded(), "codes": codes}}
        if {list(layers)!r}:
            got["layers"] = [m for m in {list(layers)!r} if f"qwalk.{{m}}" in sys.modules]
        print(json.dumps(got))
    """, cwd)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    got = run_commands([], tmp_path)
    assert got["after_import"] == {"scipy": [], "deferred": []}


def test_disorder_and_align_calibrations_never_load_optimize_linalg_or_special(tmp_path):
    # nor any other SciPy module, nor the analysis layer: the disorder fit
    # takes its Levenberg-Marquardt from qwalk.optimize
    got = run_commands([
        ["calibrate", "--task", "disorder", "--seed", "5", "--out", "cal"],
        ["calibrate", "--task", "align", "--seed", "5", "--rounds", "1", "--out", "align"],
    ], tmp_path, layers=("analysis", "optimize"))
    assert got == {"after_import": {"scipy": [], "deferred": []}, "after_ops": {"scipy": [], "deferred": []},
                   "codes": [0, 0], "layers": ["optimize"]}


def test_render_loads_no_scipy(tmp_path):
    (tmp_path / "fringe.csv").write_text("d_left_mhz\\d_right_mhz,0.0,1.0\n0.0,0.5,0.25\n1.0,0.125,0.0\n")
    got = run_commands([["render", "--input", "fringe.csv", "--out", "fringe.svg"]], tmp_path)
    assert got == {"after_import": {"scipy": [], "deferred": []}, "after_ops": {"scipy": [], "deferred": []},
                   "codes": [0]}
    assert (tmp_path / "fringe.svg").read_text().startswith("<svg")


def test_run_and_sweep_never_load_optimize_integrate_or_linalg(tmp_path, sparse_modules):
    # they load scipy.sparse on their first propagation, and nothing else from SciPy
    got = run_commands([
        ["run", "--scenario", "ctqw-single", "--out", "run"],
        ["sweep", "--scenario", "mz-two", "--d-left", "0:1:2", "--d-right", "0:1:2", "--out", "sweep"],
    ], tmp_path)
    assert got["codes"] == [0, 0]
    assert got["after_ops"]["deferred"] == []
    assert "scipy.sparse" in got["after_ops"]["scipy"]
    assert sorted(set(got["after_ops"]["scipy"]) - sparse_modules) == []


def test_analyze_never_loads_optimize_integrate_or_linalg(tmp_path, sparse_modules):
    # both studies fit their fronts without any SciPy module beyond those
    # a bare `import scipy.sparse` loads
    got = run_commands([
        ["analyze", "--study", "velocity", "--out", "velocity"],
        ["analyze", "--study", "distance-velocity", "--seeds", "2", "--out", "distance"],
    ], tmp_path)
    assert got["codes"] == [0, 0]
    assert got["after_ops"]["deferred"] == []
    assert sorted(set(got["after_ops"]["scipy"]) - sparse_modules) == []


def test_deferred_imports_resolve_in_a_fresh_interpreter(tmp_path):
    # optimize_interferometer and evolve_lindblad each pay their own import
    # here, with nothing loaded before them
    got = fresh_python("""
        from qwalk.cli import main
        from qwalk import ActiveGraph, LindbladModel, evolve_lindblad, initial_density
        code = main(["calibrate", "--task", "interferometer", "--seed", "5", "--out", "interferometer"])
        after_interferometer = loaded()["deferred"]
        model = LindbladModel.from_graph(ActiveGraph((0,), ()), t1_us=12.26)
        snaps = evolve_lindblad(model, initial_density(model, {0}), (100.0,))
        print(json.dumps({"code": code, "after_interferometer": after_interferometer, "snapshots": len(snaps)}))
    """, tmp_path)
    assert got == {"code": 0, "after_interferometer": ["scipy.linalg", "scipy.optimize", "scipy.special"],
                   "snapshots": 1}


def test_module_exports_resolve(tmp_path):
    # a deleted function cannot stay behind in an `__all__` or in the package namespace
    got = fresh_python("""
        import importlib, pkgutil
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
