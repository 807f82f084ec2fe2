import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize

import qwalk.calibration as calibration
from qwalk import optimize
from qwalk.calibration import (
    CalibrationError,
    CalibrationTwin,
    SwapDataset,
    alignment_loop,
    canonical_gauge,
    fit_disorder_map,
    generate_swap_data,
    generate_swap_datasets,
    nelder_mead,
    optimize_interferometer,
    single_excitation_populations,
)
from qwalk.device import (
    ActiveGraph,
    CouplingEdge,
    DeviceModel,
    DisorderMap,
    QubitId,
    QubitParams,
    default_device,
    rng_stream,
    sample_disorder,
    subgrid_device,
)
from qwalk.evolution import evolve_unitary
from qwalk.hamiltonian import TWO_PI, build_hamiltonian
from qwalk.scenarios import default_mz_layout, mz_scenario, run_scenario
from qwalk.sector import basis_state, enumerate_basis, populations

J = 2.01


def _tight_simplex(monkeypatch, scale):
    # the toy problems converge fully, past the disorder fit's loose stop
    monkeypatch.setattr(calibration, "SIMPLEX_SCALE_MHZ", scale)
    monkeypatch.setattr(calibration, "GLOBAL_COST_SPREAD", 1e-12)
    monkeypatch.setattr(calibration, "GLOBAL_PARAM_SPREAD_MHZ", 1e-6)


def test_nelder_mead_quadratic(monkeypatch):
    _tight_simplex(monkeypatch, 1.0)
    res = nelder_mead(lambda x: float(np.sum((x - 3.0) ** 2)), np.zeros(4))
    assert res.converged
    assert np.allclose(res.x, 3.0, atol=1e-5)
    assert res.fun < 1e-10


def test_nelder_mead_anisotropic_valley(monkeypatch):
    def f(x):
        return float((x[0] - 1) ** 2 + 30 * (x[1] + 2) ** 2 + 0.5)

    _tight_simplex(monkeypatch, 0.7)
    res = nelder_mead(f, np.array([4.0, 4.0]))
    assert res.fun == pytest.approx(0.5, abs=1e-8)
    assert np.allclose(res.x, [1.0, -2.0], atol=1e-4)


def test_nelder_mead_history_monotone(monkeypatch):
    monkeypatch.setattr(calibration, "RECORD_EVERY", 10)
    _tight_simplex(monkeypatch, 0.5)
    res = nelder_mead(lambda x: float(np.sum(x**2)), np.ones(3))
    costs = [c for _, c, _ in res.history]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    assert all(len(x) == 3 for _, _, x in res.history)


def test_nelder_mead_counts_every_objective_call_and_ends_its_history_on_the_result():
    calls = []

    def f(x):
        calls.append(x)
        return float(np.sum((x - 1.0) ** 2))

    res = nelder_mead(f, np.zeros(4))
    assert res.n_evaluations == len(calls)  # calibration.cost_evals relies on it
    iteration, cost, x = res.history[-1]
    assert (iteration, cost) == (res.n_iterations, res.fun) and np.array_equal(x, res.x)


def test_nelder_mead_iteration_cap_is_not_convergence(monkeypatch):
    monkeypatch.setattr(calibration, "MAX_ITERATIONS", 3)
    res = nelder_mead(lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(4))
    assert not res.converged
    assert res.n_iterations == 3


def _scipy_nelder_mead(f, x0):
    """SciPy's Nelder-Mead in the configuration `nelder_mead` ports, read from
    the same module constants, with its history taken from the callback."""
    history = []
    iteration = 0

    def record(intermediate_result):
        nonlocal iteration
        iteration += 1
        if iteration == 1 or iteration % calibration.RECORD_EVERY == 0:
            history.append((iteration, float(intermediate_result.fun), intermediate_result.x.copy()))

    options = {
        "initial_simplex": np.vstack([x0, x0 + calibration.SIMPLEX_SCALE_MHZ * np.eye(len(x0))]),
        "xatol": calibration.GLOBAL_PARAM_SPREAD_MHZ,
        "fatol": calibration.GLOBAL_COST_SPREAD,
        "maxiter": calibration.MAX_ITERATIONS,
    }
    res = minimize(f, x0, method="Nelder-Mead", callback=record, options=options)
    return res, [*history, (res.nit, float(res.fun), res.x.copy())]


def _assert_matches_scipy(f, x0):
    ours = nelder_mead(f, x0)
    res, history = _scipy_nelder_mead(f, x0)
    assert np.array_equal(ours.x, res.x) and ours.fun == res.fun
    assert (ours.n_evaluations, ours.n_iterations, ours.converged) == (res.nfev, res.nit, res.success)
    assert len(ours.history) == len(history)
    for (it, cost, x), (it_ref, cost_ref, x_ref) in zip(ours.history, history):
        assert (it, cost) == (it_ref, cost_ref) and np.array_equal(x, x_ref)
    return ours


@pytest.mark.parametrize("seed", [5, 8, 11])
def test_nelder_mead_is_scipys_on_the_fit_kernel(seed):
    # the fit's own configuration, from the zero map and from the first drawn start
    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed), seed=seed)
    kernel = calibration._SwapResiduals([generate_swap_data(twin, q) for q in qubits],
                                        {q: i for i, q in enumerate(qubits)})
    drawn = rng_stream(0xF17).uniform(-calibration.START_SPREAD_MHZ, calibration.START_SPREAD_MHZ, len(qubits))
    for x0 in (np.zeros(len(qubits)), drawn):
        assert _assert_matches_scipy(kernel.cost, x0).converged


def test_nelder_mead_is_scipys_on_toy_functions(monkeypatch):
    def valley(x):
        return float((x[0] - 1) ** 2 + 30 * (x[1] + 2) ** 2 + 0.5)

    def quadratic(x):
        return float(np.sum((x - 3.0) ** 2))

    _tight_simplex(monkeypatch, 1.0)
    monkeypatch.setattr(calibration, "RECORD_EVERY", 10)
    assert _assert_matches_scipy(quadratic, np.zeros(4)).converged
    monkeypatch.setattr(calibration, "SIMPLEX_SCALE_MHZ", 0.7)
    assert _assert_matches_scipy(valley, np.array([4.0, 4.0])).converged
    monkeypatch.setattr(calibration, "MAX_ITERATIONS", 3)
    assert not _assert_matches_scipy(quadratic, np.zeros(4)).converged


def test_single_excitation_kernel_matches_engine():
    # the fast calibration kernel and the generic sector engine are two routes
    # to the same populations
    rng = np.random.default_rng(10)
    g = ActiveGraph((0, 1, 2, 3, 4), ((0, 1, J), (0, 2, 1.7), (0, 3, 2.2), (3, 4, 2.01)))
    offsets_mhz = rng.uniform(-2, 2, 5)  # in g.sites order
    times = tuple(np.arange(0.0, 900.0, 30.0))
    fast = single_excitation_populations(g, offsets_mhz, 0, times)
    b = enumerate_basis(5, 1)
    h = build_hamiltonian(g, b, DisorderMap(dict(zip(g.sites, offsets_mhz.tolist()))))
    snaps = evolve_unitary(h, basis_state(b, {0}), times)
    slow = np.column_stack([populations(s) for _, s in snaps])
    assert np.max(np.abs(fast - slow)) < 1e-10


def two_qubit_device():
    a, b = QubitId.parse("U00Q0"), QubitId.parse("U00Q1")
    return DeviceModel({a: QubitParams(), b: QubitParams()}, [CouplingEdge(a, b)]), a, b


def test_swap_data_textbook_oscillation():
    device, a, _ = two_qubit_device()
    twin = CalibrationTwin(device, DisorderMap())
    ds = generate_swap_data(twin, a, times_ns=np.arange(0.0, 250.0, 1.0))
    # first full transfer at 1/(4J)
    neighbour = ds.populations[1]
    t_full = ds.times_ns[int(np.argmax(neighbour))]
    assert t_full == pytest.approx(1e3 / (4 * J), abs=1.0)
    # 1 ns sampling sits within (2 pi J dt)^2 of the analytic full transfer
    assert neighbour.max() == pytest.approx(1.0, abs=5e-5)


def test_swap_data_detuned_contrast():
    # hidden disorder delta on the neighbour caps the transfer at J^2/(J^2+(delta/2)^2)
    device, a, b = two_qubit_device()
    delta = 3.0
    twin = CalibrationTwin(device, DisorderMap({b: delta}))
    ds = generate_swap_data(twin, a, times_ns=np.arange(0.0, 1000.0, 0.5))
    expected = J**2 / (J**2 + (delta / 2.0) ** 2)
    assert ds.populations[1].max() == pytest.approx(expected, abs=1e-3)


def test_swap_data_star_matches_dense_oracle():
    device = subgrid_device(4, 0, 3, 3)
    center = QubitId.from_grid(5, 1)  # middle of the patch: 4 neighbours
    hidden = sample_disorder(device.functional_qubits, 1.2, seed=3)
    twin = CalibrationTwin(device, hidden)
    ds = generate_swap_data(twin, center, times_ns=np.arange(0.0, 600.0, 20.0))
    sites = ds.graph.sites
    assert len(sites) == 5 and sites[0] == center
    assert sorted(sites[1:]) == device.neighbors(center)
    # the oracle takes its couplings from the device, not from the dataset's graph
    h = np.zeros((5, 5))
    for k, q in enumerate(sites[1:], start=1):
        h[0, k] = h[k, 0] = 2 * np.pi * device.edge(center, q).j_eff_mhz
    for k, q in enumerate(sites):
        h[k, k] = 2 * np.pi * hidden.get(q)
    for col, t in enumerate(ds.times_ns):
        ref = np.abs(expm(-1j * h * t * 1e-3)[:, 0]) ** 2
        assert np.max(np.abs(ds.populations[:, col] - ref)) < 1e-8


def test_swap_data_shot_noise_deterministic():
    device, a, _ = two_qubit_device()
    twin = CalibrationTwin(device, DisorderMap(), n_shots=2000, seed=5)
    d1 = generate_swap_data(twin, a)
    d2 = generate_swap_data(twin, a)
    assert np.array_equal(d1.populations, d2.populations)
    clean = generate_swap_data(CalibrationTwin(device, DisorderMap()), a)
    assert np.max(np.abs(d1.populations - clean.populations)) < 0.05
    assert not np.array_equal(d1.populations, clean.populations)


@pytest.mark.parametrize("n_shots", [0, -5, 2.5, True, "10"])
def test_twin_rejects_bad_shot_counts(n_shots):
    device, _, _ = two_qubit_device()
    with pytest.raises(ValueError, match="n_shots"):
        CalibrationTwin(device, DisorderMap(), n_shots=n_shots)


def test_canonical_gauge():
    fixed = canonical_gauge({"a": 1.0, "b": 2.0, "c": 3.0})
    assert sum(fixed.values()) == pytest.approx(0.0, abs=1e-12)
    flipped = canonical_gauge({k: -v for k, v in fixed.items()})
    assert flipped == pytest.approx(fixed)


def test_fit_recovers_planted_disorder_2x2():
    device = subgrid_device(0, 4, 2, 2)
    qubits = device.functional_qubits
    hidden = sample_disorder(qubits, 1.6, seed=21)
    twin = CalibrationTwin(device, hidden)
    datasets = [generate_swap_data(twin, q, times_ns=np.arange(0.0, 1000.0, 10.0)) for q in qubits]
    fit = fit_disorder_map(datasets)
    truth = canonical_gauge({q: hidden.get(q) for q in qubits})
    err = max(abs(fit.disorder.get(q) - truth[q]) for q in qubits)
    assert err < 0.05
    assert fit.cost <= fit.overall_distance


def test_fit_zero_disorder_returns_near_zero():
    device = subgrid_device(0, 4, 2, 2)
    qubits = device.functional_qubits
    twin = CalibrationTwin(device, DisorderMap())
    datasets = [generate_swap_data(twin, q, times_ns=np.arange(0.0, 1000.0, 10.0)) for q in qubits]
    fit = fit_disorder_map(datasets)
    assert max(abs(v) for v in fit.disorder.offsets.values()) < 0.02


def test_fit_builds_each_star_hopping_once(monkeypatch):
    # the fit reuses the star graph each dataset carries, so the site-order
    # hopping is built once per star (when the data are generated), not again
    # by the fit
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args[0])
        return build_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(calibration, "build_hamiltonian", counting_build)
    device = subgrid_device(0, 4, 2, 2)
    twin = CalibrationTwin(device, DisorderMap())
    datasets = [generate_swap_data(twin, q, times_ns=np.arange(0.0, 1000.0, 10.0)) for q in device.functional_qubits]
    assert len(builds) == len(datasets)
    assert all(built is ds.graph for built, ds in zip(builds, datasets))
    fit_disorder_map(datasets)
    assert len(builds) == len(datasets)


@st.composite
def uniform_grids(draw):
    """A uniform time grid t0 + j dt (ns), factored into giant and baby steps by
    the kernel: one or two samples, a perfect-square count, the swap data's
    101, or any count in between, from t0 = 0 or a later start."""
    n_t = draw(st.one_of(st.sampled_from([1, 2, 16, 101]), st.integers(3, 40)))
    t0 = draw(st.one_of(st.just(0.0), st.floats(1.0, 500.0)))
    return tuple(t0 + draw(st.floats(0.5, 10.0)) * np.arange(n_t))


def _per_centre_swap_data(twin, center, correction, times_ns):
    """One centre's swap data as `generate_swap_data` made them before it
    became a batch of one: its own one-star kernel, then its shot noise."""
    graph = calibration._star_graph(twin, center)
    offsets = [twin.hidden.get(q) + correction.get(q) for q in graph.sites]
    pops = single_excitation_populations(graph, offsets, 0, times_ns)
    if twin.n_shots is not None:
        rng = rng_stream(twin.seed, 0xCA, zlib.crc32(center.label.encode()))
        pops = rng.binomial(twin.n_shots, np.clip(pops, 0.0, 1.0)) / twin.n_shots
    return pops


@given(
    st.integers(0, 2**16),
    st.one_of(st.none(), st.integers(2, 50)),
    st.one_of(st.none(), st.integers(0, 2**16)),
    st.one_of(
        uniform_grids(),
        st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=8, unique=True).map(lambda ts: tuple(sorted(ts))),
    ),
    st.data(),
)
def test_one_stack_swap_data_are_the_per_centre_data(seed, n_shots, correction_seed, times_ns, data):
    # the 3x3 twin's stars hold 3, 4 and 5 sites, so the one stack pads most
    # of them; any subset of centres, in any order, may share it
    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed), n_shots, seed)
    correction = DisorderMap() if correction_seed is None else sample_disorder(qubits, 0.8, correction_seed)
    centers = data.draw(st.permutations(qubits))[: data.draw(st.integers(1, len(qubits)))]
    datasets = generate_swap_datasets(twin, centers, correction, times_ns)
    assert [ds.center for ds in datasets] == centers
    for ds in datasets:
        assert ds.times_ns == tuple(times_ns) and ds.n_shots == n_shots
        assert ds.populations.tobytes() == _per_centre_swap_data(twin, ds.center, correction, times_ns).tobytes()
    # the alignment loop's distance, from the one stack, keeps its bits too
    per_centre = [
        SwapDataset(q, ds.graph, ds.times_ns, _per_centre_swap_data(twin, q, correction, times_ns), n_shots)
        for q, ds in zip(qubits, generate_swap_datasets(twin, qubits, correction, times_ns))
    ]
    sites = sorted({q for ds in per_centre for q in ds.graph.sites})
    distance = calibration._SwapResiduals(per_centre, {q: i for i, q in enumerate(sites)}).cost(np.zeros(len(sites)))
    assert calibration._overall_distance(twin, correction, qubits, times_ns) == distance


@st.composite
def star_fits(draw):
    """Stars of 2-5 sites in any order of size over one shared parameter
    vector, each releasing the walker on its hub (site 0) or on a leaf, and
    each on one of two time grids (scattered times that include t=0, or a
    uniform grid), grouped by grid in order of first appearance (the
    kernel's residual order); random data and a parameter point. Zero
    offsets on equal-coupling stars give degenerate eigenvalues."""
    n_params = 6
    symmetric = draw(st.booleans())
    grid = st.one_of(
        st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=6).map(lambda ts: tuple(sorted({0.0, *ts}))),
        uniform_grids(),
    )
    grids = [draw(grid), draw(grid)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for n in draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)):
        sites = tuple(draw(st.permutations(range(n_params)))[:n])
        edges = tuple((0, k, J if symmetric else draw(st.floats(0.5, 3.0))) for k in range(1, n))
        times = draw(st.sampled_from(grids))
        data = rng.uniform(0.0, 1.0, (n, len(times)))
        datasets.append(SwapDataset(draw(st.sampled_from(sites)), ActiveGraph(sites, edges), times, data))
    first = list(dict.fromkeys(ds.times_ns for ds in datasets))
    datasets.sort(key=lambda ds: first.index(ds.times_ns))
    x = np.zeros(n_params) if symmetric else rng.uniform(-3.0, 3.0, n_params)
    return datasets, x


@pytest.mark.parametrize(
    ("times_ns", "n_giant", "n_baby"),
    [
        (np.arange(0.0, 1000.1, 10.0), 10, 11),  # the swap data's grid
        (250.0 + 2.5 * np.arange(16), 4, 4),
        ((0.0, 7.0), 1, 2),
        ((550.0,), 1, 1),  # an interferometer stage
        ((0.0, 10.0, 30.0), 3, 1),  # not uniform: the times themselves
    ],
)
def test_phase_steps_factor_uniform_grids(times_ns, n_giant, n_baby):
    t_us = 1e-3 * np.asarray(times_ns, dtype=float)
    giant, baby = calibration._phase_steps(t_us)
    assert (len(giant), len(baby)) == (n_giant, n_baby)
    sums = (giant[:, None] + baby[None, :]).ravel()
    assert np.max(np.abs(sums[: len(t_us)] - t_us)) <= 4 * np.spacing(np.max(t_us))


@given(star_fits())
def test_batched_residuals_and_jacobian(case):
    datasets, x = case
    kernel = calibration._SwapResiduals(datasets, {q: q for q in range(len(x))})
    per_star = []
    for ds in datasets:
        h = calibration._site_hopping(ds.graph) + TWO_PI * np.diag(x[list(ds.graph.sites)])
        src = ds.graph.index[ds.center]
        pops = np.column_stack([np.abs(expm(-1j * 1e-3 * t * h)[:, src]) ** 2 for t in ds.times_ns])
        per_star.append(pops - ds.populations)
    residuals, jacobian = kernel.evaluate(x)
    assert np.max(np.abs(residuals - np.concatenate([r.ravel() for r in per_star]))) < 1e-12
    assert kernel.cost(x) == pytest.approx(float(residuals @ residuals), rel=1e-12)
    jac = jacobian()
    assert jac.shape == (len(residuals), len(x))
    h = 1e-5
    central = np.column_stack(
        [(kernel.evaluate(x + h * e)[0] - kernel.evaluate(x - h * e)[0]) / (2 * h) for e in np.eye(len(x))]
    )
    assert np.max(np.abs(jac - central)) <= 1e-6 * max(1.0, np.max(np.abs(central)))


def test_polish_evaluates_each_accepted_point_once(monkeypatch):
    # an accepted step takes the Jacobian from the trial point's own
    # evaluation instead of a second eigh
    device = subgrid_device(0, 4, 2, 2)
    qubits = device.functional_qubits
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed=21))
    datasets = [generate_swap_data(twin, q, times_ns=np.arange(0.0, 1000.0, 10.0)) for q in qubits]
    kernel = calibration._SwapResiduals(datasets, {q: i for i, q in enumerate(qubits)})
    fresh = calibration._SwapResiduals(datasets, {q: i for i, q in enumerate(qubits)})
    amplitudes, calls = calibration._StarStack.amplitudes, []

    def counting(stack, x):
        calls.append(x.copy())
        return amplitudes(stack, x)

    monkeypatch.setattr(calibration._StarStack, "amplitudes", counting)
    x0 = np.array([twin.hidden.get(q) for q in qubits]) + np.array([0.05, -0.04, 0.03, -0.02])  # near the planted map
    polish = calibration.levenberg_marquardt(kernel.evaluate, x0[None])
    assert polish.failure == (None,) and polish.n_jacobians[0] > 1
    # one evaluation per trial and one at the start: none for the Jacobians at accepted points
    assert len(calls) == (polish.n_trials[0] + 1) * len(kernel.stacks)
    calls.clear()
    trial = polish.p[0] + 0.01
    r, jacobian = kernel.evaluate(trial)
    jac = jacobian()
    assert len(calls) == len(kernel.stacks)  # one call, not two
    r_fresh, jacobian_fresh = fresh.evaluate(trial.copy())
    jac_fresh = jacobian_fresh()
    assert len(calls) == 2 * len(kernel.stacks)  # a new point, equal or not, is evaluated anew
    assert r.tobytes() == r_fresh.tobytes() and jac.tobytes() == jac_fresh.tobytes()


def test_fit_recovers_a_map_trapped_in_its_first_start(trapped_seed):
    # the first start of this planted map ends in a local minimum; the fit
    # keeps drawing starts until one reaches the acceptance cost
    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    hidden = sample_disorder(qubits, 1.6, seed=trapped_seed)
    twin = CalibrationTwin(device, hidden)
    fit = fit_disorder_map([generate_swap_data(twin, q) for q in qubits])
    truth = canonical_gauge({q: hidden.get(q) for q in qubits})
    assert max(abs(fit.disorder.get(q) - truth[q]) for q in qubits) < 0.05
    assert fit.n_starts > 1 and fit.cost <= fit.accept_cost


# Starts the 3x3 fits of `calibrate --task disorder --seed N`, N = 0-39, took
# before the Levenberg-Marquardt stages stopped at STAGE_COST_TOL (they ran at
# the fronts' LM_COST_TOL), noiseless and at 2000 shots alike; 1 for the rest
STARTS_BEFORE_STALL_STOP = {8: 2, 10: 2, 22: 2, 30: 2}


def _assert_3x3_recovery(seed, n_shots):
    # the stall stop costs no recovery: within c11's noiseless 0.05 MHz, and
    # no seed takes more starts than it took before
    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    hidden = sample_disorder(qubits, 1.6, seed)
    fit = fit_disorder_map(generate_swap_datasets(CalibrationTwin(device, hidden, n_shots, seed), qubits))
    truth = canonical_gauge({q: hidden.get(q) for q in qubits})
    assert max(abs(fit.disorder.get(q) - truth[q]) for q in qubits) < 0.05
    assert fit.n_starts <= STARTS_BEFORE_STALL_STOP.get(seed, 1)


@pytest.mark.parametrize("seed", range(40))
def test_fit_recovers_planted_disorder_3x3(seed):
    # noiseless twins of `calibrate --task disorder`, some of whose early
    # starts end in local minima
    _assert_3x3_recovery(seed, None)


# `calibrate --task disorder --shots 2000`: the seeds whose fits take two
# starts, and some that take one
SHOT_SEEDS = (0, 5, 8, 10, 17, 22, 30, 39)


@pytest.mark.parametrize("seed", SHOT_SEEDS)
def test_shot_data_fit_recovers_planted_disorder_3x3(seed):
    _assert_3x3_recovery(seed, 2000)


def _record_stages(monkeypatch) -> list:
    """Wrap the fit's optimizers. The returned list gets one entry per start,
    the (kernel, result) of each of its Levenberg-Marquardt stages in order."""
    starts = []
    coarse, polish = calibration.nelder_mead, calibration.levenberg_marquardt

    def recording_coarse(*args):
        starts.append([])
        return coarse(*args)

    def recording_polish(evaluate, *args):
        starts[-1].append((evaluate.__self__, polish(evaluate, *args)))
        return starts[-1][-1][1]

    monkeypatch.setattr(calibration, "nelder_mead", recording_coarse)
    monkeypatch.setattr(calibration, "levenberg_marquardt", recording_polish)
    return starts


def _cost(least_squares) -> float:
    r = least_squares.residuals[0]
    return float(r @ r)


@pytest.mark.parametrize("seed, n_shots", [(seed, None) for seed in range(40)] + [(s, 2000) for s in SHOT_SEEDS])
def test_fit_rejects_after_its_last_window_only_what_the_full_data_reject(monkeypatch, seed, n_shots):
    # a start above its acceptance cost on the window ending at
    # STAGE_ENDS_NS[-1] runs no full-data stage (on these panels every
    # rejected start stops there): polished on the full data, each such start
    # would still have been rejected there
    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed), n_shots, seed)
    datasets = generate_swap_datasets(twin, qubits)
    starts = _record_stages(monkeypatch)
    fit = fit_disorder_map(datasets)
    full = calibration._SwapResiduals(datasets, {q: i for i, q in enumerate(sorted(qubits))})
    assert len(starts) == fit.n_starts
    for stages in starts[:-1]:
        kernel, last = stages[-1]
        assert kernel.end_ns == calibration.STAGE_ENDS_NS[-1] and _cost(last) > kernel.accept_cost
        polished = optimize.levenberg_marquardt(full.evaluate, last.p, calibration.STAGE_COST_TOL)
        assert _cost(polished) > fit.accept_cost
    assert starts[-1][-1][0].end_ns is None


def test_fit_without_an_accepted_start_raises(monkeypatch, trapped_seed):
    monkeypatch.setattr(calibration, "N_STARTS", 1)
    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed=trapped_seed))
    datasets = [generate_swap_data(twin, q) for q in qubits]
    with pytest.raises(CalibrationError, match="best cost .*zero-map cost") as info:
        fit_disorder_map(datasets)
    assert set(info.value.best.offsets) == set(qubits)
    assert "above the acceptance cost" in str(info.value)
    # the start was rejected before the full data; the cost named is its
    # map's on the full data, which the gauge leaves as it is
    pos = {q: i for i, q in enumerate(sorted(qubits))}
    best = np.array([info.value.best.get(q) for q in sorted(qubits)])
    assert info.value.cost == pytest.approx(calibration._SwapResiduals(datasets, pos).cost(best), rel=1e-9)
    assert f"best cost {info.value.cost:.3e} above" in str(info.value)


def test_fit_whose_polish_gives_up_within_the_acceptance_cost_names_the_failure():
    # swap data at t = 0 only carry no information: every map fits them, the
    # Jacobian is zero, and every full-data polish ends in singular normal
    # equations at a cost far below the acceptance cost
    device = subgrid_device(0, 4, 2, 2)
    qubits = sorted(device.functional_qubits)
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed=3))
    datasets = [generate_swap_data(twin, q, times_ns=(0.0,)) for q in qubits]
    with pytest.raises(CalibrationError, match="best cost .*zero-map cost") as info:
        fit_disorder_map(datasets)
    message = str(info.value)
    assert "within the acceptance cost" in message and "polish gave up: singular normal equations" in message
    assert "above the acceptance cost" not in message


def test_shot_data_fit_is_accepted_near_its_noise_floor():
    device = subgrid_device(0, 4, 2, 2)
    qubits = device.functional_qubits
    hidden = sample_disorder(qubits, 1.6, seed=21)
    twin = CalibrationTwin(device, hidden, n_shots=20000, seed=3)
    datasets = [generate_swap_data(twin, q, times_ns=np.arange(0.0, 1000.0, 10.0)) for q in qubits]
    assert all(ds.n_shots == 20000 for ds in datasets)
    fit = fit_disorder_map(datasets)
    noise = sum(float(np.sum(ds.populations * (1 - ds.populations))) / (ds.n_shots - 1) for ds in datasets)
    assert fit.accept_cost == pytest.approx(calibration.NOISE_COST_MULTIPLE * noise, rel=1e-6)
    assert 0.5 * noise < fit.cost <= fit.accept_cost
    truth = canonical_gauge({q: hidden.get(q) for q in qubits})
    assert max(abs(fit.disorder.get(q) - truth[q]) for q in qubits) < 0.1


@given(
    st.one_of(
        st.just(tuple(np.arange(0.0, 800.0, 20.0))),  # the alignment loop's grid
        uniform_grids(),
        st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=8, unique=True).map(lambda ts: tuple(sorted(ts))),
    ),
    st.integers(0, 2**16),
)
def test_staged_fit_is_accepted_on_the_full_data_or_raises(times_ns, seed):
    # grids that start late, end before the first stage's end or hold one
    # time: each stage holds the data up to its end, a stage with no times or
    # with the next one's is skipped, and only the full data accept a map
    device = subgrid_device(0, 4, 2, 2)
    qubits = sorted(device.functional_qubits)
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed))
    datasets = [generate_swap_data(twin, q, times_ns=times_ns) for q in qubits]
    pos = {q: i for i, q in enumerate(qubits)}
    windows = []
    for end in (*calibration.STAGE_ENDS_NS, np.inf):
        window = tuple(t for t in times_ns if t <= end)
        if window and window not in windows:
            windows.append(window)
    kernels = calibration._stage_kernels(datasets, pos)
    assert [[stack.t_us.tolist() for stack in kernel.stacks] for kernel in kernels] == [
        [(1e-3 * np.array(window)).tolist()] for window in windows
    ]
    # every star in every stage: four 3-site stars, 12 site rows
    assert all(kernel.stacks[0].data.shape == (12, len(w)) for kernel, w in zip(kernels, windows))
    try:
        fit = fit_disorder_map(datasets)
    except CalibrationError:
        return
    x = fit.history[-1][2]
    assert fit.cost == calibration._SwapResiduals(datasets, pos).cost(x) <= fit.accept_cost


def test_polish_singular_along_the_gauge_leaves_its_start_unaccepted(monkeypatch):
    # some starts polish into a local minimum, where the damping shrinks until
    # J^T J + mu diag(J^T J), singular along the global offset (the gauge
    # direction), cannot be solved; the fit moves on to later starts. Which
    # starts end that way rides on the swap data's low bits, so the case is
    # the first calibration seed whose fit records such a polish on a window
    # that decides its start, the full data or the one ending at
    # STAGE_ENDS_NS[-1] (182: most stuck starts stop at STAGE_COST_TOL before
    # their damping collapses, and since rejected starts stop after the
    # STAGE_ENDS_NS[-1] window no full-data polish of seeds 0-199 ends so).
    # On an earlier window a singular polish hands its point on (42, 98).
    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    starts = _record_stages(monkeypatch)
    deciding = (calibration.STAGE_ENDS_NS[-1], None)
    handed_on = 0
    for seed in range(200):
        starts.clear()
        twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed), seed=seed)
        datasets = [generate_swap_data(twin, q) for q in qubits]
        fit = fit_disorder_map(datasets)
        singular = [
            (start, stage)
            for start, stages in enumerate(starts)
            for stage, (_, p) in enumerate(stages)
            if p.failure == ("singular normal equations",)
        ]
        for start, stage in singular:
            if starts[start][stage][0].end_ns not in deciding:
                assert stage + 1 < len(starts[start])  # the next window polishes on from its point
                handed_on += 1
        found = next(((start, *starts[start][stage]) for start, stage in singular
                      if starts[start][stage][0].end_ns in deciding), None)
        if found is not None:
            break
    assert found is not None, "no fit of calibration seeds 0-199 records a singular polish on a deciding window"
    assert handed_on > 0
    start, kernel, singular = found
    assert _cost(singular) > kernel.accept_cost and start < fit.n_starts - 1
    jac = kernel.evaluate(singular.p[0])[1]()
    assert np.max(np.abs(jac @ np.ones(len(qubits)))) <= 1e-9 * np.max(np.abs(jac))
    # each start polishes every window after the first, or stops after the
    # STAGE_ENDS_NS[-1] one above its acceptance cost; each polish is a batch of one
    pos = {q: i for i, q in enumerate(sorted(qubits))}
    windows = [kernel.end_ns for kernel in calibration._stage_kernels(datasets, pos)[1:]]
    assert len(starts) == fit.n_starts > 1
    for stages in starts:
        assert [kernel.end_ns for kernel, _ in stages] in (windows, windows[:-1])
        assert all(len(p.failure) == 1 for _, p in stages)
    assert starts[-1][-1][1].failure == (None,) and fit.cost <= fit.accept_cost

    monkeypatch.setattr(calibration, "N_STARTS", 1)
    with pytest.raises(CalibrationError, match="accepted none of 1 starts"):
        fit_disorder_map(datasets)


def test_alignment_builds_each_star_graph_once(monkeypatch):
    # every swap experiment on a twin reuses the centre's star graph and its
    # site-order hopping, across rounds and overall-distance checks
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args[0])
        return build_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(calibration, "build_hamiltonian", counting_build)
    device = subgrid_device(0, 4, 2, 2)
    twin = CalibrationTwin(device, sample_disorder(device.functional_qubits, 1.5, seed=8))
    res = alignment_loop(twin, rounds=2, times_ns=np.arange(0.0, 800.0, 20.0))
    assert res.rounds_run == 2
    assert len(builds) == len(device.functional_qubits)


def test_alignment_fixed_point_without_disorder():
    device = subgrid_device(0, 4, 2, 2)
    twin = CalibrationTwin(device, DisorderMap())
    res = alignment_loop(twin, rounds=2, times_ns=np.arange(0.0, 800.0, 20.0))
    assert res.residual_max_mhz < 0.02
    assert max(abs(res.correction.get(q)) for q in device.functional_qubits) < 0.02


def test_alignment_overall_distance_monotone():
    device = subgrid_device(0, 4, 2, 2)
    hidden = sample_disorder(device.functional_qubits, 1.5, seed=8)
    twin = CalibrationTwin(device, hidden)
    res = alignment_loop(twin, rounds=3, times_ns=np.arange(0.0, 800.0, 20.0))
    assert all(b <= a for a, b in zip(res.overall_distances, res.overall_distances[1:]))
    assert res.residual_max_mhz < 1.6 * 0.8


@pytest.mark.parametrize("n_shots", [None, 2000])
def test_alignment_distance_is_the_fit_overall_distance(n_shots):
    # the alignment loop's distance and the fit's zero-map cost are one
    # definition on the same data, equal to the last bit
    device = subgrid_device(0, 4, 2, 2)
    qubits = device.functional_qubits
    twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed=21), n_shots=n_shots, seed=3)
    times = tuple(np.arange(0.0, 1000.0, 10.0))
    fit = fit_disorder_map([generate_swap_data(twin, q, times_ns=times) for q in qubits])
    assert calibration._overall_distance(twin, DisorderMap({}), qubits, times) == fit.overall_distance


def test_interferometer_correction_is_keyed_by_layout_site():
    # the optimizer works on the stage graphs' sorted site order; the returned
    # correction, applied to the device on top of the hidden map, must give
    # the detector population the optimizer reports
    layout = default_mz_layout()
    hidden = sample_disorder(layout.sites, 1.6, seed=13)
    opt = optimize_interferometer(CalibrationTwin(default_device(), hidden), layout)
    applied = DisorderMap({q: hidden.get(q) + opt.correction.get(q) for q in layout.sites})
    sc = mz_scenario("S", t_max_ns=650.0, step_ns=650.0).with_static_disorder(applied)
    detector = run_scenario(sc).site_series(sc.layout_names["D"])[-1]
    assert detector == pytest.approx(opt.detector_population, abs=1e-8)
    assert opt.detector_population > opt.initial_detector_population


def test_interferometer_stage_gradients_match_central_differences(monkeypatch):
    # each stage hands L-BFGS-B a (cost, gradient) objective; capture both
    # and check the analytic gradients away from the optimizer's path
    import scipy.optimize

    real_minimize = scipy.optimize.minimize
    objectives = []

    def capturing_minimize(fun, x0, **kwargs):
        objectives.append((fun, np.array(x0)))
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", capturing_minimize)
    layout = default_mz_layout()
    optimize_interferometer(CalibrationTwin(default_device(), sample_disorder(layout.sites, 1.6, seed=4)), layout)
    assert [len(x0) for _, x0 in objectives] == [len(layout.sites) - 2, len(layout.sites)]
    rng = np.random.default_rng(12)
    h = 1e-5
    for objective, x0 in objectives:
        x = x0 + rng.uniform(-1.0, 1.0, len(x0))
        cost, grad = objective(x)
        assert cost < 0.0
        central = np.array([(objective(x + h * e)[0] - objective(x - h * e)[0]) / (2 * h) for e in np.eye(len(x))])
        assert np.max(np.abs(grad - central)) < 1e-7


def test_interferometer_reaches_the_shared_optimum_from_seed_4():
    # the correction has one free offset per site, so it cancels any hidden
    # map and every seed reaches the same optimum; this seed's surface has a
    # local optimum (product 0.1427, detector 0.8081) that traps a simplex
    layout = default_mz_layout()
    hidden = sample_disorder(layout.sites, 1.6, seed=4)
    opt = optimize_interferometer(CalibrationTwin(default_device(), hidden), layout)
    assert opt.stage1_product == pytest.approx(0.1670, abs=1e-4)
    assert opt.detector_population == pytest.approx(0.8972, abs=1e-4)
    for history in (opt.stage1_history, opt.stage2_history):
        assert [it for it, _, _ in history] == list(range(1, len(history) + 1))
        costs = [cost for _, cost, _ in history]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert opt.stage2_history[-1][1] == pytest.approx(-opt.detector_population, abs=1e-12)

