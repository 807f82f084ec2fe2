"""Simulator and analysis toolkit for hard-core walker dynamics on a
programmable 2D qubit lattice: sector-truncated unitary evolution, two-path
interferometry, light-cone velocity analysis, readout simulation, and
twin-based device calibration.
"""

__version__ = "0.1.0"

from .analysis import (
    correlation,
    ctqw_velocity_pipeline,
    disorder_velocity_study,
    fit_gaussian_front,
    fit_velocity,
    fringe_stats,
    instantaneous_velocity,
    interaction_signature,
    lr_bound,
)
from .calibration import (
    CalibrationTwin,
    alignment_loop,
    fit_disorder_map,
    generate_swap_data,
    nelder_mead,
    optimize_interferometer,
)
from .device import (
    ActiveGraph,
    CouplingEdge,
    DeviceModel,
    DisorderMap,
    QubitId,
    QubitParams,
    active_subgraph,
    default_device,
    grid_graph,
    sample_disorder,
    subgrid_device,
)
from .evolution import (
    LindbladModel,
    evolve_lindblad,
    evolve_unitary,
    initial_density,
    propagate_block,
    site_populations,
)
from .hamiltonian import HamiltonianMatrix, build_hamiltonian
from .measurement import (
    ReadoutModel,
    ShotCounts,
    overlap_fidelity,
    post_select,
    sample_shots,
)
from .scenarios import (
    DisorderStepProtocol,
    FringeGrid,
    MZLayout,
    Scenario,
    ctqw_scenario,
    default_mz_layout,
    disorder_sweep,
    mz_scenario,
    run_scenario,
)
from .sector import QuantumState, SectorBasis, basis_state, enumerate_basis, populations
from .svg import render_heatmap
