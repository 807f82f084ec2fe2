"""Shared test configuration.

Property tests run under a deterministic hypothesis profile: the same examples
on every run, no per-example deadline (timings on a loaded machine vary too
much to gate on), and a bounded example count so the suite stays short.
"""
import numpy as np
import pytest
from hypothesis import settings

from qwalk import analysis

settings.register_profile("qwalk", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("qwalk")


@pytest.fixture
def fronts_8_and_11_without_error(monkeypatch):
    """Give the distance-velocity study's fronts at diagonals 8 and 11 an
    all-inf covariance, so their time errors are not finite and the windows
    holding them are fitted unweighted. The study fits its diagonals 1..11 in
    one batch, in order, so the row tells the diagonal."""
    fit = analysis._fit_gaussians

    def fit_without_error(t, y, inside, p0):
        popt, pcov, failures = fit(t, y, inside, p0)
        assert len(pcov) == analysis.STUDY_DIAGONALS
        pcov = pcov.copy()
        pcov[[8 - 1, 11 - 1]] = np.inf
        return popt, pcov, failures

    monkeypatch.setattr(analysis, "_fit_gaussians", fit_without_error)


@pytest.fixture(scope="session")
def trapped_seed():
    """The first calibration seed whose noiseless 3x3 disorder fit, the one
    `calibrate --task disorder --seed N` runs, accepts no map on its first
    start. Which starts end in local minima rides on the swap data's low
    bits, so the tests that need such a map search for it."""
    from qwalk.calibration import CalibrationTwin, fit_disorder_map, generate_swap_data
    from qwalk.device import sample_disorder, subgrid_device

    device = subgrid_device(4, 0, 3, 3)
    qubits = device.functional_qubits
    for seed in range(40):
        twin = CalibrationTwin(device, sample_disorder(qubits, 1.6, seed), seed=seed)
        if fit_disorder_map([generate_swap_data(twin, q) for q in qubits]).n_starts > 1:
            return seed
    raise AssertionError("every fit of calibration seeds 0-39 is accepted on its first start")
