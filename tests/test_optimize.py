"""The least-squares engine on its own: SciPy's MINPACK Levenberg-Marquardt
(`least_squares(method="lm")`) as the oracle on small well-posed problems,
and each problem of a batch as its batch of one, bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from qwalk.optimize import LM_MAX_ITERATIONS, levenberg_marquardt

T = np.linspace(0.0, 4.0, 12)


def _decay(t, y):
    """Residuals a exp(-b t) + c - y (B x M) and their Jacobian, for rows of (a, b, c)."""

    def evaluate(p):
        a, b, c = p.T[:, :, None]
        e = np.exp(-b * t)
        r = a * e + c - y

        def jacobian():
            return np.stack([e, -a * t * e, np.ones_like(e)], axis=-1)

        return r, jacobian

    return evaluate


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_decays_match_minpack(seed):
    rng = np.random.default_rng(seed)
    truth = rng.uniform([0.5, 0.3, -0.2], [2.0, 1.5, 0.2], (4, 3))
    y = truth[:, :1] * np.exp(-truth[:, 1:2] * T) + truth[:, 2:] + rng.normal(0.0, 0.02, (4, len(T)))
    p0 = truth * rng.uniform(0.7, 1.3, truth.shape)
    fit = levenberg_marquardt(_decay(T, y), p0)
    assert fit.failure == (None,) * 4
    for k in range(4):
        oracle = least_squares(lambda q: _decay(T, y[k])(q[None])[0][0], p0[k],
                               jac=lambda q: _decay(T, y[k])(q[None])[1]()[0], method="lm", xtol=1e-14, ftol=1e-14)
        assert oracle.success
        assert fit.p[k] == pytest.approx(oracle.x, rel=1e-7, abs=1e-9)
        assert float(fit.residuals[k] @ fit.residuals[k]) == pytest.approx(2.0 * oracle.cost, rel=1e-9)


def test_random_linear_problem_matches_minpack_and_lstsq():
    rng = np.random.default_rng(7)
    a, y = rng.normal(size=(20, 5)), rng.normal(size=20)

    def evaluate(p):
        return p @ a.T - y, lambda: np.broadcast_to(a, (len(p), *a.shape))

    fit = levenberg_marquardt(evaluate, np.zeros((1, 5)))
    oracle = least_squares(lambda q: a @ q - y, np.zeros(5), jac=lambda q: a, method="lm", xtol=1e-14, ftol=1e-14)
    exact = np.linalg.lstsq(a, y, rcond=None)[0]
    assert fit.failure == (None,)
    # the stop at LM_COST_TOL leaves the point within about sqrt(LM_COST_TOL) of the minimum
    assert fit.p[0] == pytest.approx(oracle.x, rel=1e-7) and fit.p[0] == pytest.approx(exact, rel=1e-7)
    assert float(fit.residuals[0] @ fit.residuals[0]) == pytest.approx(float(np.sum((a @ exact - y) ** 2)), rel=1e-14)
    assert fit.jtj[0] == pytest.approx(a.T @ a, rel=1e-12)


# Problems of two parameters and M residuals, evaluated row by row, so a
# batch can mix them. Each takes its row of P and its own constants.
M = 6


def _converging(p, y):
    """p0 exp(-p1 t) - y on the first M samples of T: converges."""
    e = np.exp(-p[1] * T[:M])
    return p[0] * e - y, np.column_stack([e, -p[0] * T[:M] * e])


def _valley(p, scale):
    """Rosenbrock's valley as residuals, scale (p1 - p0^2) and 1 - p0: from
    p0 < -1 it converges to (1, 1) past rejected steps, while the batch's
    other problems accept theirs."""
    r = np.zeros(M)
    r[0], r[1] = scale * (p[1] - p[0] ** 2), 1.0 - p[0]
    jac = np.zeros((M, 2))
    jac[0], jac[1, 0] = (-2.0 * scale * p[0], scale), -1.0
    return r, jac


def _gated(p, k):
    """p0 pulled to a target below 1, and p1 seen only through (p0 - 1)_+:
    once an accepted step takes p0 to 1 or below, p1's column is zero and the
    damped normal equations are singular."""
    target, scale = k
    gate = max(p[0] - 1.0, 0.0)
    r = np.zeros(M)
    r[0], r[1] = p[0] - target, scale * p[1] * gate
    jac = np.zeros((M, 2))
    jac[0, 0], jac[1] = 1.0, (scale * p[1] * (gate > 0.0), scale * gate)
    return r, jac


def _runaway(p, k):
    """s exp(-p0) falls by about e each step and never stops; p1 converges."""
    s, c = k
    r = np.zeros(M)
    r[0], r[1] = s * np.exp(-p[0]), p[1] - c
    jac = np.zeros((M, 2))
    jac[0, 0], jac[1, 1] = -r[0], 1.0
    return r, jac


def _batch(problems):
    """One evaluate over a list of (model, constants), row i the i-th problem."""

    def evaluate(P):
        pairs = [model(p, k) for p, (model, k) in zip(P, problems)]
        return np.array([r for r, _ in pairs]), lambda: np.array([jac for _, jac in pairs])

    return evaluate


# (model, constants, start): noisy decays from within 30% of their truth
converging = st.tuples(
    st.floats(0.5, 2.0), st.floats(0.3, 1.5), st.floats(0.7, 1.3), st.floats(0.7, 1.3), st.integers(0, 2**32 - 1)
).map(lambda d: (
    _converging,
    d[0] * np.exp(-d[1] * T[:M]) + np.random.default_rng(d[4]).normal(0.0, 0.01, M),
    [d[0] * d[2], d[1] * d[3]],
))
valley = st.tuples(st.floats(-2.0, -1.1), st.floats(0.5, 2.0)).map(lambda d: (_valley, 10.0, list(d)))
gated = st.tuples(st.floats(0.0, 0.9), st.floats(0.5, 2.0), st.floats(1.5, 4.0), st.floats(0.5, 2.0)).map(
    lambda d: (_gated, (d[0], d[1]), [d[2], d[3]])
)
runaway = st.tuples(st.floats(0.5, 3.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
    lambda d: (_runaway, (d[0], d[1]), [0.0, d[2]])
)


@settings(max_examples=20)
@given(st.lists(converging, max_size=3), valley, gated, runaway, st.randoms(use_true_random=False))
def test_each_problem_of_a_mixed_batch_is_its_batch_of_one(converging_problems, valley_problem, gated_problem,
                                                           runaway_problem, order):
    problems = [*converging_problems, valley_problem, gated_problem, runaway_problem]
    order.shuffle(problems)
    fit = levenberg_marquardt(_batch([(m, k) for m, k, _ in problems]), np.array([p0 for *_, p0 in problems]))
    for i, (model, k, p0) in enumerate(problems):
        alone = levenberg_marquardt(_batch([(model, k)]), np.array([p0]))
        # the residuals returned are those at the point returned
        assert fit.residuals[i].tobytes() == model(fit.p[i], k)[0].tobytes()
        assert fit.p[i].tobytes() == alone.p[0].tobytes()
        assert fit.residuals[i].tobytes() == alone.residuals[0].tobytes()
        assert fit.jtj[i].tobytes() == alone.jtj[0].tobytes()
        assert (fit.n_trials[i], fit.n_jacobians[i], fit.failure[i]) == (
            alone.n_trials[0], alone.n_jacobians[0], alone.failure[0]
        )
        if model is _converging:
            assert fit.failure[i] is None and fit.n_trials[i] < LM_MAX_ITERATIONS
        elif model is _valley:  # it rejected some trials: fewer Jacobians than trials plus the start's
            assert fit.failure[i] is None and fit.n_jacobians[i] < fit.n_trials[i] + 1 <= LM_MAX_ITERATIONS
            assert fit.p[i] == pytest.approx([1.0, 1.0])
        elif model is _gated:
            # it accepted a step before its system went singular
            assert fit.failure[i] == "singular normal equations" and fit.n_jacobians[i] > 1
        else:
            assert fit.failure[i] == f"no stop within {LM_MAX_ITERATIONS} steps"
            assert fit.n_trials[i] == LM_MAX_ITERATIONS
