import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import constants
from scipy.stats import chi2

from qwalk.device import default_device, rng_stream
from qwalk.evolution import evolve_unitary
from qwalk import measurement
from qwalk.measurement import (
    MAX_NOISY_SHOT_ENTRIES,
    ReadoutModel,
    ShotCounts,
    overlap_fidelity,
    post_select,
    sample_shots,
    thermal_excited_probability,
)
from qwalk.measurement import _inverse_cdf_counts
from qwalk.records import ResultRecord, shots_outputs
from qwalk.scenarios import MAX_SHOTS, _scenario_setup, ctqw_scenario, run_scenario
from qwalk.sector import QuantumState, basis_state, enumerate_basis, populations


def shot_counts(counts: dict) -> ShotCounts:
    """ShotCounts from a dict of bitstrings of one length to their counts."""
    bits = sorted(counts)
    rows = np.array([[ch == "1" for ch in b] for b in bits], dtype=bool).reshape(len(bits), len(bits[0]))
    return ShotCounts(rows, np.array([counts[b] for b in bits], dtype=np.int64))


def test_perfect_readout_basis_state():
    b = enumerate_basis(2, 1)
    counts = sample_shots(basis_state(b, {0}), ReadoutModel.perfect(2), 1000, seed=1)
    assert counts.counts == {"10": 1000}


def test_readout_fidelity_one_statistics():
    # one qubit prepared excited; observed "1" frequency tracks F1 = 0.919
    b = enumerate_basis(1, 1)
    model = ReadoutModel.uniform(1, f0=1.0, f1=0.919)
    n = 50000
    counts = sample_shots(basis_state(b, {0}), model, n, seed=3)
    freq = counts.counts.get("1", 0) / n
    sigma = np.sqrt(0.919 * 0.081 / n)
    assert abs(freq - 0.919) < 3 * sigma


def test_born_rule_equal_superposition():
    b = enumerate_basis(2, 1)
    plus = QuantumState(b, np.array([1, 1]) / np.sqrt(2))
    n = 50000
    counts = sample_shots(plus, ReadoutModel.perfect(2), n, seed=9)
    for bits in ("01", "10"):
        freq = counts.counts[bits] / n
        assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / n)


def test_sampling_deterministic_in_seed():
    b = enumerate_basis(3, 1)
    s = QuantumState(b, np.array([0.5, 0.5, np.sqrt(0.5)]))
    model = ReadoutModel.uniform(3, 0.97, 0.92, 0.01)
    a = sample_shots(s, model, 2000, seed=4)
    c = sample_shots(s, model, 2000, seed=4)
    assert a.counts == c.counts
    assert a.counts != sample_shots(s, model, 2000, seed=5).counts


def test_sample_shots_validation():
    b = enumerate_basis(2, 1)
    with pytest.raises(ValueError):
        sample_shots(basis_state(b, {0}), ReadoutModel.perfect(2), 0, seed=1)
    with pytest.raises(ValueError):
        sample_shots(basis_state(b, {0}), ReadoutModel.perfect(3), 10, seed=1)


def test_noisy_readout_past_its_entry_bound_is_refused_before_any_draw(monkeypatch):
    # MAX_SHOTS shots on the 62-site device would ask a noisy model for about
    # 11 GB of draws; the call is refused before the first of them (a stream
    # that fails on creation keeps a missing check from drawing)
    state = basis_state(enumerate_basis(62, 1), {0})
    noisy = ReadoutModel.uniform(62, f0=0.966, f1=0.919)

    def no_stream(*args):
        raise AssertionError("a shot stream was created")

    monkeypatch.setattr(measurement, "rng_stream", no_stream)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_NOISY_SHOT_ENTRIES"):
            sample_shots(state, noisy, MAX_SHOTS, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    # c13's 50,000 shots on 62 sites are within the bound
    assert 50000 * 62 <= MAX_NOISY_SHOT_ENTRIES


def test_noisy_readout_entry_bound_is_inclusive(monkeypatch):
    # the bound counts shots x sites, and a call at it runs; perfect readout is not bounded by it
    monkeypatch.setattr(measurement, "MAX_NOISY_SHOT_ENTRIES", 30)
    state = basis_state(enumerate_basis(3, 1), {0})
    noisy = ReadoutModel.uniform(3, thermal=0.01)
    assert sample_shots(state, noisy, 10, seed=2).n_shots == 10
    with pytest.raises(ValueError, match="11 shots on 3 sites exceed MAX_NOISY_SHOT_ENTRIES = 30"):
        sample_shots(state, noisy, 11, seed=2)
    assert sample_shots(state, ReadoutModel.perfect(3), 11, seed=2).counts == {"100": 11}


def test_chi_square_goodness_of_fit_three_sites():
    rng = np.random.default_rng(12)
    b = enumerate_basis(3, 1)
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    amp /= np.linalg.norm(amp)
    state = QuantumState(b, amp)
    n = 50000
    counts = sample_shots(state, ReadoutModel.perfect(3), n, seed=100)
    p = np.abs(amp) ** 2
    strings = ["001", "010", "100"]  # ascending bitstrings, site 0 first
    observed = np.array([counts.counts.get(s, 0) for s in strings], dtype=float)
    expected = n * p
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, df=len(strings) - 1)


def test_post_select_definition():
    counts = shot_counts({"11": 5, "10": 3, "00": 2})
    kept, retention = post_select(counts, 2)
    assert kept.counts == {"11": 5}
    assert retention == pytest.approx(0.5)


def test_post_select_perfect_readout_keeps_everything():
    b = enumerate_basis(4, 2)
    rng = np.random.default_rng(2)
    amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
    amp /= np.linalg.norm(amp)
    counts = sample_shots(QuantumState(b, amp), ReadoutModel.perfect(4), 5000, seed=8)
    kept, retention = post_select(counts, 2)
    assert retention == 1.0
    assert kept.counts == counts.counts


def test_post_select_zero_retention_is_error():
    with pytest.raises(ValueError):
        post_select(shot_counts({"00": 4}), 2)


def test_post_selected_populations_match_conditional_born():
    b = enumerate_basis(3, 1)
    state = QuantumState(b, np.array([np.sqrt(0.5), np.sqrt(0.3), np.sqrt(0.2)]))
    counts = sample_shots(state, ReadoutModel.perfect(3), 50000, seed=77)
    kept, _ = post_select(counts, 1)
    pops = kept.populations()
    # states ascend "001","010","100" -> site populations reverse the amplitudes
    assert np.allclose(pops, [0.2, 0.3, 0.5], atol=0.01)


def test_shot_counts_round_trip():
    # shots.txt's lines read back into the same shots
    counts = shot_counts({"010": 3, "100": 7})
    _, text = shots_outputs(counts, 1.0, None)
    parsed = {bits: int(raw) for bits, raw in (line.split() for line in text.splitlines())}
    again = shot_counts(parsed)
    assert again.counts == counts.counts and again.n_shots == 10
    assert np.array_equal(again.rows, counts.rows) and np.array_equal(again.mults, counts.mults)


def test_zero_site_shots_read_the_empty_bitstring():
    shots = sample_shots(basis_state(enumerate_basis(0, 0), set()), ReadoutModel.perfect(0), 5, seed=1)
    assert shots.counts == {"": 5} and shots.n_shots == 5
    line, text = shots_outputs(shots, 1.0, 0.0)
    assert line == ResultRecord("shots", {"counts": {"": 5}, "retention": 1.0}, {"time_ns": 0.0}).to_json()
    assert '"counts":{"":5}' in line and text == " 5\n"
    assert shots.populations().shape == (0,)


def post_select_by_strings(counts: dict, n_excitations: int):
    """post_select's definition on bitstrings: the kept counts and the retention."""
    kept = {bits: c for bits, c in counts.items() if bits.count("1") == n_excitations}
    return kept, sum(kept.values()) / sum(counts.values())


def populations_by_strings(counts: dict, n_sites: int) -> np.ndarray:
    """Per-site excitation frequency, summed character by character."""
    pops = np.zeros(n_sites)
    for bits, c in counts.items():
        for j, ch in enumerate(bits):
            if ch == "1":
                pops[j] += c
    return pops / sum(counts.values())


@st.composite
def shot_tables(draw):
    """Distinct bitstrings on 0 to 8 sites with positive counts, and a walker number."""
    n = draw(st.integers(0, 8))
    counts = draw(st.dictionaries(st.text("01", min_size=n, max_size=n), st.integers(1, 10**6), min_size=1, max_size=40))
    return counts, n, draw(st.integers(0, n))


@given(shot_tables())
@example(({"": 3}, 0, 0))
@example(({"00": 4}, 2, 2))  # nothing kept
def test_array_paths_match_their_bitstring_definitions(case):
    counts, n, k = case
    shots = shot_counts(counts)
    assert list(shots.counts.items()) == sorted(counts.items()) and shots.n_sites == n
    assert np.array_equal(shots.populations(), populations_by_strings(counts, n))
    expected, retention = post_select_by_strings(counts, k)
    if not expected:
        with pytest.raises(ValueError, match="zero shots"):
            post_select(shots, k)
        return
    kept, got_retention = post_select(shots, k)
    assert list(kept.counts.items()) == sorted(expected.items())
    assert got_retention == retention and kept.n_shots == sum(expected.values())
    assert np.array_equal(kept.populations(), populations_by_strings(expected, n))


def test_overlap_fidelity_examples():
    assert overlap_fidelity([0.2, 0.8], [0.2, 0.8]) == pytest.approx(1.0)
    assert overlap_fidelity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert overlap_fidelity([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)


def test_overlap_fidelity_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rng.random(6)
        q = rng.random(6)
        f = overlap_fidelity(p, q)
        assert 0.0 <= f <= 1.0 + 1e-12
        assert f == pytest.approx(overlap_fidelity(q, p))
        assert f == pytest.approx(overlap_fidelity(3.7 * p, 0.2 * q))
    with pytest.raises(ValueError):
        overlap_fidelity([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        overlap_fidelity([1.0], [0.5, 0.5])


def test_thermal_excited_probability_closed_form():
    # the two-level Boltzmann fraction x / (1 + x), x = exp(-h f / k_B T), from SciPy's constants
    x = np.exp(-constants.h * 5.02e9 / (constants.k * 66e-3))
    assert abs(thermal_excited_probability(66.0, 5.02) - x / (1.0 + x)) <= 1e-12
    assert thermal_excited_probability(0.0, 5.02) == thermal_excited_probability(-10.0, 5.02) == 0.0
    warmer = [thermal_excited_probability(t, 5.02) for t in (1.0, 10.0, 20.0, 66.0, 150.0, 1000.0)]
    assert all(a < b for a, b in zip(warmer, warmer[1:]))


def test_thermal_excitation_inflates_weight():
    b = enumerate_basis(10, 1)
    model = ReadoutModel.uniform(10, f0=1.0, f1=1.0, thermal=0.2)
    counts = sample_shots(basis_state(b, {0}), model, 20000, seed=6)
    heavy = sum(c for bits, c in counts.counts.items() if bits.count("1") > 1)
    assert heavy / 20000 > 0.5  # 9 idle qubits at 20% each


def test_readout_model_validation():
    with pytest.raises(ValueError):
        ReadoutModel.uniform(2, f0=1.2)


def test_readout_model_from_device():
    device = default_device()
    sites = device.functional_qubits[:4]
    model = ReadoutModel.from_device(device, sites)
    assert np.allclose(model.f0, 0.966) and np.allclose(model.f1, 0.919)
    assert np.allclose(model.thermal_excitation, 0.0)
    warm = ReadoutModel.from_device(device, sites, thermal_from_temperature=True)
    assert np.all(warm.thermal_excitation > 0.02) and np.all(warm.thermal_excitation < 0.04)


def test_post_select_exact_on_pure_bitstring():
    # single-support state: post-selected populations equal the conditional
    # Born distribution exactly
    b = enumerate_basis(4, 2)
    counts = sample_shots(basis_state(b, {1, 3}), ReadoutModel.perfect(4), 1234, seed=2)
    kept, retention = post_select(counts, 2)
    assert retention == 1.0
    assert np.array_equal(kept.populations(), np.array([0.0, 1.0, 0.0, 1.0]))


def reference_counts(state, readout, n_shots, seed):
    """The shot draws of sample_shots, histogrammed row by row with the
    structured-row np.unique and a per-bit string join."""
    basis = state.basis
    # the sector's strings as ascending ints, site 0 the top bit
    values = np.array(sorted(sum(1 << (basis.n_sites - 1 - j) for j in sites)
                             for sites in combinations(range(basis.n_sites), basis.n_excitations)), dtype=object)
    p = np.abs(state.amplitudes) ** 2
    rng = rng_stream(seed, 0x5A)
    drawn = rng.choice(basis.dimension, size=n_shots, p=p / p.sum())
    bits = np.array([[bool(v >> (basis.n_sites - 1 - j) & 1) for j in range(basis.n_sites)] for v in values[drawn]])
    u = rng.random(size=bits.shape)
    bits = bits | (~bits & (u < readout.thermal_excitation))
    u = rng.random(size=bits.shape)
    observed = (bits & ~(bits & (u >= readout.f1))) | (~bits & (u >= readout.f0))
    patterns, mults = np.unique(observed, axis=0, return_counts=True)
    return [("".join("1" if b else "0" for b in row), int(m)) for row, m in zip(patterns, mults)]


@st.composite
def readout_cases(draw):
    # byte-boundary and word-boundary site counts, then any count up to 130
    n = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 62, 64, 65, 128, 130]), st.integers(1, 130)))
    k = draw(st.integers(1, min(n, 3 if n <= 40 else 2)))
    kind = draw(st.sampled_from(["perfect", "thermal", "confusion", "noisy"]))
    if kind == "perfect":
        readout = ReadoutModel.perfect(n)
    elif kind == "thermal":
        readout = ReadoutModel.uniform(n, 1.0, 1.0, thermal=draw(st.sampled_from([0.02, 0.3])))
    elif kind == "confusion":
        # no thermal excitation, yet its draw must still be made: skipping it
        # alone would shift the confusion draw onto the thermal draw's numbers
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        readout = ReadoutModel.validate_arrays(rng.uniform(0.8, 1.0, n), rng.uniform(0.8, 1.0, n), np.zeros(n))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        readout = ReadoutModel.validate_arrays(
            rng.uniform(0.8, 1.0, n), rng.uniform(0.8, 1.0, n), rng.uniform(0.0, 0.1, n)
        )
    return n, k, readout, draw(st.integers(1, 2000)), draw(st.integers(0, 2**32))


@given(readout_cases())
def test_histogram_matches_row_unique_reference(case):
    n, k, readout, n_shots, seed = case
    basis = enumerate_basis(n, k)
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    state = QuantumState(basis, amp / np.linalg.norm(amp))
    got = sample_shots(state, readout, n_shots, seed)
    assert list(got.counts.items()) == reference_counts(state, readout, n_shots, seed)


@pytest.mark.parametrize(
    "thermal, digest, patterns, kept",
    [
        (None, "599db600d40f97d87046743c33f1db137bd02cf2fef4a25973a30e15c46095f1", 1407, 20000),
        (0.02, "67f86bd5809958a92492d0a82438ebb85d8c6121bceaba621f3736ed6bfa8b8b", 709, 1173),
    ],
)
def test_two_walker_shot_digests_pinned(thermal, digest, patterns, kept):
    scenario = replace(ctqw_scenario({"U00Q0", "U33Q2"}), n_shots=20000, seed=7)
    readout = None if thermal is None else ReadoutModel.uniform(62, thermal=thermal)
    result = run_scenario(scenario, readout=readout)
    _, text = shots_outputs(result.shots, result.retention, scenario.readout_time)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(result.shots.counts) == patterns
    assert result.shots.n_shots == kept and result.retention == kept / 20000


@given(st.integers(6, 10), st.integers(1, 3), st.integers(1, 3000), st.integers(0, 2**32))
def test_perfect_readout_histogram_matches_the_general_path(n, k, n_shots, seed):
    # the general path makes its corruption draws, which flip nothing under a
    # perfect model, and histograms the observed rows by their keys
    basis = enumerate_basis(n, k)
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    state = QuantumState(basis, amp / np.linalg.norm(amp))
    readout = ReadoutModel.perfect(n)
    counted = sample_shots(state, readout, n_shots, seed)
    with mock.patch.object(ReadoutModel, "is_perfect", property(lambda self: False)):
        general = sample_shots(state, readout, n_shots, seed)
    assert list(counted.counts.items()) == list(general.counts.items())
    assert counted.rows.dtype == general.rows.dtype == bool
    assert np.array_equal(counted.rows, general.rows) and np.array_equal(counted.mults, general.mults)


@st.composite
def perfect_readout_cases(draw):
    """A state whose probabilities hold a run of zeros (leading, trailing or
    interior), a scattered third of zeros, or a single nonzero entry."""
    n = draw(st.integers(1, 12))
    basis = enumerate_basis(n, draw(st.integers(1, min(n, 3))))
    dim = basis.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["run", "scattered", "single"]))
    if kind == "run":
        lo, hi = sorted(draw(st.lists(st.integers(0, dim), min_size=2, max_size=2)))
        nonzero = np.ones(dim, bool)
        nonzero[lo:hi] = False  # leading when lo is 0, trailing when hi is dim
    elif kind == "scattered":
        nonzero = rng.random(dim) >= 1 / 3
    else:
        nonzero = np.zeros(dim, bool)
    if not nonzero.any():
        nonzero[draw(st.integers(0, dim - 1))] = True
    amp = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * nonzero
    return QuantumState(basis, amp / np.linalg.norm(amp)), draw(st.integers(1, 5000)), draw(st.integers(0, 2**32))


@given(perfect_readout_cases())
@example((basis_state(enumerate_basis(1, 1), {0}), 1, 0))  # dimension 1, one shot
@example((basis_state(enumerate_basis(6, 2), {1, 4}), 3, 11))  # one interior nonzero entry
def test_perfect_readout_counts_are_the_bincount_of_choice(case):
    state, n_shots, seed = case
    basis = state.basis
    got = sample_shots(state, ReadoutModel.perfect(basis.n_sites), n_shots, seed)
    p = state.amplitudes.real**2 + state.amplitudes.imag**2
    drawn = rng_stream(seed, 0x5A).choice(basis.dimension, n_shots, p=p / p.sum())
    mults = np.bincount(drawn, minlength=basis.dimension)
    expected = [("".join("1" if b else "0" for b in basis.rows[i]), int(mults[i])) for i in np.flatnonzero(mults)]
    assert list(got.counts.items()) == expected
    assert all(type(c) is int for c in got.counts.values())


@given(st.lists(st.integers(0, 8), min_size=1, max_size=12), st.lists(st.integers(0, 7), max_size=40))
@example([0, 0, 4, 4, 8], [0, 0, 4, 4, 7])  # uniforms on zero-width and repeated cdf entries
def test_inverse_cdf_counts_are_the_bincount_of_the_right_search(steps, draws):
    # on a grid of eighths, many uniforms fall exactly on a cdf entry
    cdf = np.append(np.sort(steps) / 8, 1.0)
    u = np.sort(np.array(draws, dtype=float) / 8)
    expected = np.bincount(cdf.searchsorted(u, side="right"), minlength=len(cdf))
    assert np.array_equal(_inverse_cdf_counts(cdf, u), expected)


def test_two_walker_state_digest_pinned():
    # The engine's states for ctqw-two at all 61 times, the ones its
    # populations are computed from; the populations' own bytes are pinned
    # per BLAS kernel in test_outputs_pinned_under_every_blas_kernel.
    scenario = ctqw_scenario({"U00Q0", "U33Q2"})
    _graph, _basis, psi0, h = _scenario_setup(scenario, default_device(), scenario.disorder())
    states = [state for _t, state in evolve_unitary(h, psi0, scenario.times_ns)]
    digest = hashlib.sha256(np.array([s.amplitudes for s in states]).tobytes()).hexdigest()
    assert digest == "c858a23dc89e48dedca5d83d44531e5430f394e2b95908c78ee2ff90a0d5b50d"
    expected = np.column_stack([populations(s) for s in states])
    assert run_scenario(scenario).populations.tobytes() == expected.tobytes()


# OpenBLAS kernels, selected with OPENBLAS_CORETYPE, and the CPU flags each needs
OPENBLAS_CORETYPES = {
    "SkylakeX": {"avx512f", "avx512dq", "avx512bw", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Nehalem": {"sse4_2"},
}

# The engine's states for the default `sweep --scenario mz-two` block: the
# block disorder_sweep builds (121 cells at the 550 ns readout), propagated
# again with observe=None
SWEEP_BLOCK_DIGEST = """
import hashlib
from unittest import mock
import numpy as np
from qwalk import scenarios
from qwalk.evolution import propagate_block

calls = []
spy = lambda *args, **kwargs: calls.append(args) or propagate_block(*args, **kwargs)
grid = np.linspace(0.0, 1.0, 11)  # the CLI's default --d-left and --d-right
with mock.patch.object(scenarios, "propagate_block", spy):
    scenarios.disorder_sweep(scenarios.mz_scenario({"L1", "R1"}), grid, grid)
((h0, diagonals, block, times),) = calls
assert times == (550.0,) and block.shape == (276, 121)
(states,) = propagate_block(h0, diagonals, block, times)
print(hashlib.sha256(states.tobytes()).hexdigest())
"""


def _cpu_flags() -> set:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines if line.startswith("flags")), set())


def _numpy_simd_caps() -> dict:
    """NPY_DISABLE_CPU_FEATURES values that cap numpy's dispatch at its
    baseline and at each SIMD level this CPU has below the highest, keyed by
    the cap. `show_config` lists the levels found in ascending order, and
    disabling one level leaves the levels above it on, so a cap disables
    every level above it."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    found = simd["found"]
    caps = {"+".join(simd["baseline"]): found, **{level: found[i + 1 :] for i, level in enumerate(found[:-1])}}
    return {cap: " ".join(above) for cap, above in caps.items()}


def _digests_per_kernel(script: str) -> dict:
    """The script's output, one line per digest, under the default BLAS kernel
    and every OpenBLAS kernel the CPU can run, and under numpy's baseline and
    every numpy SIMD level the CPU has, each in a fresh interpreter."""
    flags = _cpu_flags()
    runs = {None: {}}
    runs.update({kernel: {"OPENBLAS_CORETYPE": kernel} for kernel, needs in OPENBLAS_CORETYPES.items()
                 if needs <= flags})
    runs.update({f"numpy {cap}": {"NPY_DISABLE_CPU_FEATURES": off} for cap, off in _numpy_simd_caps().items()})
    src = Path(__file__).resolve().parents[1] / "src"
    digests = {}
    for name, settings in runs.items():
        env = {**os.environ, "PYTHONPATH": str(src), **settings}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests[name] = tuple(proc.stdout.split())
    return digests


def test_sweep_block_state_digest_pinned():
    # The engine's states, before the detector read-out, give one digest under
    # every BLAS kernel and numpy SIMD level
    digests = _digests_per_kernel(SWEEP_BLOCK_DIGEST)
    assert set(digests.values()) == {("50b02dba7eaf35c0f65889c68fd5c31ba0e1c670ce5b66b25afc0354e2f440ac",)}, digests


# ctqw-two's populations, the default `sweep --scenario mz-two` fringe grid,
# and ctqw-two's populations with static disorder on two sites
OUTPUT_DIGESTS = """
import hashlib
from dataclasses import replace
import numpy as np
from qwalk.scenarios import ctqw_scenario, disorder_sweep, mz_scenario, run_scenario

result = run_scenario(ctqw_scenario({"U00Q0", "U33Q2"}))
print(hashlib.sha256(result.populations.tobytes()).hexdigest())
grid = np.linspace(0.0, 1.0, 11)  # the CLI's default --d-left and --d-right
fringe = disorder_sweep(mz_scenario({"L1", "R1"}), grid, grid)
print(hashlib.sha256(fringe.values.tobytes()).hexdigest())
disordered = replace(ctqw_scenario({"U00Q0", "U33Q2"}), static_disorder_mhz={"U00Q0": 0.7, "U11Q1": -0.4})
print(hashlib.sha256(run_scenario(disordered).populations.tobytes()).hexdigest())
"""


def test_outputs_pinned_under_every_blas_kernel():
    # site populations and the detector read-out are order-fixed sums over
    # the basis's occupied-site table, not BLAS products, so their bytes do
    # not depend on the BLAS kernel; the populations and the sweep square
    # amplitudes as re^2 + im^2, which no numpy SIMD level rounds differently
    # (complex np.abs does, at the X86_V2 baseline), and the engine's products
    # with a coefficient have an exactly zero part, so disorder moves no byte
    digests = _digests_per_kernel(OUTPUT_DIGESTS)
    assert set(digests.values()) == {(
        "31fa6f854913ecd38a115036e0b5003974931375c14823adfc62f0730fc67e0c",
        "691f2024b960279a1bad20910088f85addf58064feda903c7ddc63150b531189",
        "b6f519b9d170fec21be741e7c60d47b99087217b61322af7c700a8ee85dc1714",
    )}, digests
