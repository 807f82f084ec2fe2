"""Simulator and analysis toolkit for hard-core walker dynamics on a
programmable 2D qubit lattice: sector-truncated unitary evolution, two-path
interferometry, light-cone velocity analysis, readout simulation, and
twin-based device calibration.

The names in `__all__` are re-exported from their modules on first access,
through a module-level `__getattr__` (PEP 562; Scientific Python's SPEC 1,
"Lazy loading of submodules and functions"). `import qwalk` therefore loads
no submodule, and each command loads only the modules it runs.
"""
import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "analysis": (
        "ctqw_velocity_pipeline",
        "disorder_velocity_study",
        "fit_gaussian_front",
        "fit_velocity",
        "fringe_stats",
        "instantaneous_velocity",
        "interaction_signature",
        "lr_bound",
    ),
    "calibration": (
        "CalibrationTwin",
        "alignment_loop",
        "fit_disorder_map",
        "generate_swap_data",
        "generate_swap_datasets",
        "nelder_mead",
        "optimize_interferometer",
    ),
    "device": (
        "ActiveGraph",
        "CouplingEdge",
        "DeviceModel",
        "DisorderMap",
        "QubitId",
        "QubitParams",
        "active_subgraph",
        "default_device",
        "grid_graph",
        "sample_disorder",
        "subgrid_device",
    ),
    "evolution": (
        "LindbladModel",
        "evolve_lindblad",
        "evolve_unitary",
        "initial_density",
        "propagate_block",
        "site_populations",
    ),
    "hamiltonian": ("HamiltonianMatrix", "build_hamiltonian"),
    "measurement": ("ReadoutModel", "ShotCounts", "overlap_fidelity", "post_select", "sample_shots"),
    "scenarios": (
        "DisorderStepProtocol",
        "FringeGrid",
        "MZLayout",
        "Scenario",
        "ctqw_scenario",
        "default_mz_layout",
        "disorder_sweep",
        "mz_scenario",
        "run_scenario",
    ),
    "sector": ("QuantumState", "SectorBasis", "basis_state", "enumerate_basis", "populations"),
    "svg": ("render_heatmap",),
}
_SOURCE = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # Not cached in the package namespace: each access reads the defining
    # module's current attribute, so a patch applied there is seen here too.
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
