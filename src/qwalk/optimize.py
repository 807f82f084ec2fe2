"""Least squares: one batched numpy Levenberg-Marquardt, shared by the
light-cone front fits (`analysis`) and the disorder map's polish
(`calibration`), and the stacked linear algebra it runs on.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["LeastSquares", "levenberg_marquardt", "row_dots", "solved"]

# A fit stops when no parameter would move by more than LM_STEP_TOL of its
# value plus LM_STEP_TOL (Madsen, Nielsen & Tingleff 2004, so that a parameter
# driven to zero stops too), or when the step would lower the sum of squared
# residuals by at most a relative cost tolerance of it, LM_COST_TOL unless the
# caller passes its own; a fit that has not stopped after LM_MAX_ITERATIONS
# damped steps did not converge
LM_STEP_TOL = 1e-10
LM_COST_TOL = 1e-15
LM_MAX_ITERATIONS = 200


class LeastSquares(NamedTuple):
    """A `levenberg_marquardt` batch of B problems, each entry per problem."""

    p: np.ndarray  # B x n: the last accepted points
    residuals: np.ndarray  # B x M, at p
    jtj: np.ndarray  # B x n x n: J^T J at p
    n_trials: tuple  # residual evaluations at trial points
    n_jacobians: tuple  # Jacobians taken at accepted points, the start included
    failure: tuple  # None where the fit stopped, else why it gave up


def row_dots(a, b) -> np.ndarray:
    """a_i . b_i for each row of two k x n stacks: a stacked matmul, which
    takes each row's product as the 1D `a_i @ b_i` does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def solved(solver, *stacks) -> tuple:
    """solver(*stacks) on stacks of linear systems (`np.linalg.solve` or
    `inv`), shaped like the last stack, and the indices of the systems it
    could not solve, which are left NaN.

    numpy raises for a whole stack when one system is singular; the systems
    are then solved one at a time, each as a stack of one, so each solved
    system keeps its bits."""
    try:
        return solver(*stacks), []
    except np.linalg.LinAlgError:
        out, singular = np.full(np.shape(stacks[-1]), np.nan), []
        for i in range(len(out)):
            try:
                out[i] = solver(*(s[i : i + 1] for s in stacks))[0]
            except np.linalg.LinAlgError:
                singular.append(i)
        return out, singular


def _normal_equations(jac, r) -> tuple:
    """J^T J, -J^T r (k x n x 1) and the diagonal matrix diag(J^T J) for a
    stack of Jacobians (k x M x n) and residuals (k x M). The stacked matmul
    runs each problem's 2D product on its own (syrk for J^T J, gemv for
    J^T r)."""
    jt = jac.transpose(0, 2, 1)
    jtj = jt @ jac
    k, n, _ = jtj.shape
    marquardt = np.zeros_like(jtj)
    marquardt.reshape(k, -1)[:, :: n + 1] = jtj.reshape(k, -1)[:, :: n + 1]  # the diagonals, as strided rows
    return jtj, -(jt @ r[:, :, None]), marquardt


def levenberg_marquardt(evaluate, p0, cost_tol=LM_COST_TOL) -> LeastSquares:
    """Least squares by Levenberg-Marquardt (Moré 1978) for a batch of B
    independent problems from their starting points p0 (B x n).

    `evaluate(P)` gives the residuals (B x M) at the points P (B x n) and a
    callable of no arguments that gives the Jacobians (B x M x n) at P from
    that same evaluation; it is called at p0 and at a trial point some
    problem accepts. A row of P whose problem has stopped holds that
    problem's current point, and what comes back for it is not used.

    Each problem steps on its own: it solves (J^T J + mu diag(J^T J)) step =
    -J^T r, so the damping is scaled per parameter, its mu follows Nielsen's
    gain-ratio update (Nielsen 1999), and it accepts, stops or gives up on
    its own. Every array keeps all B rows, and masks tell which problems
    still step (`live`) and which accept (`accepted`). The normal equations
    are stacked matmuls and the damped systems one stacked solve, each of
    which acts on every problem alone, so a problem's steps are bit for bit
    those of its batch of one. A problem stops when its step moves no
    parameter p by more than LM_STEP_TOL (|p| + LM_STEP_TOL), or would lower
    its SSR by at most `cost_tol` of it. It gives up, naming why in
    `failure`, when its damped normal equations are singular or no stop
    comes within LM_MAX_ITERATIONS steps.
    """
    p = np.array(p0, dtype=float)
    n_problems = len(p)
    r, jacobian = evaluate(p)
    jtj, minus_grad, marquardt = _normal_equations(jacobian(), r)
    ssr = row_dots(r, r)
    mu, nu = np.full(n_problems, 1e-3), [2.0] * n_problems
    n_trials, n_jacobians = [0] * n_problems, [1] * n_problems
    failure = [f"no stop within {LM_MAX_ITERATIONS} steps"] * n_problems
    live = np.ones(n_problems, dtype=bool)  # the problems still stepping
    for _ in range(LM_MAX_ITERATIONS):
        # a stopped problem's system is solved too, and its step never read
        step, singular = solved(np.linalg.solve, jtj + mu[:, None, None] * marquardt, minus_grad)
        step = step[:, :, 0]
        for i in singular:
            if live[i]:
                failure[i], live[i] = "singular normal equations", False
        # the linear model's fall in SSR; -grad is added, which rounds as subtracting grad
        diag = marquardt.diagonal(axis1=1, axis2=2)
        predicted = row_dots(step, mu[:, None] * diag * step + minus_grad[:, :, 0])
        stop = live & (
            (predicted <= cost_tol * ssr) | (np.abs(step) <= LM_STEP_TOL * (np.abs(p) + LM_STEP_TOL)).all(axis=1)
        )
        for i in np.flatnonzero(stop).tolist():
            failure[i] = None
        live &= ~stop
        if not live.any():
            break
        trial = np.where(live[:, None], p + step, p)
        r_trial, jacobian = evaluate(trial)
        ssr_trial = row_dots(r_trial, r_trial)
        accepted = np.zeros(n_problems, dtype=bool)
        for i in np.flatnonzero(live).tolist():
            n_trials[i] += 1
            g = (ssr[i] - ssr_trial[i]) / predicted[i]  # a numpy scalar: its power is libm's pow
            if g > 0.0:
                accepted[i] = True
                n_jacobians[i] += 1
                mu[i] *= max(1.0 / 3.0, 1.0 - (2.0 * g - 1.0) ** 3)
                nu[i] = 2.0
            else:
                mu[i] *= nu[i]
                nu[i] *= 2.0
        if accepted.any():
            p = np.where(accepted[:, None], trial, p)
            ssr = np.where(accepted, ssr_trial, ssr)
            r = np.where(accepted[:, None], r_trial, r)
            equations = zip(_normal_equations(jacobian(), r_trial), (jtj, minus_grad, marquardt))
            jtj, minus_grad, marquardt = (np.where(accepted[:, None, None], new, old) for new, old in equations)
    return LeastSquares(p, r, jtj, tuple(n_trials), tuple(n_jacobians), tuple(failure))
