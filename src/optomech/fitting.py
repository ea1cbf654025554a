"""Damped (Levenberg-Marquardt) least-squares core shared by the curve fits.

Small and self-contained: callers provide a function returning the model
values at a parameter vector together with a zero-argument callable that
builds the Jacobian there from the model's intermediates, plus per-point
sigmas.  The Jacobian is built only where it is used: at the start point
and at every accepted step, never for a rejected trial step.  Callers are
expected to nondimensionalise data and parameters to O(1) before calling
in here (the public fit routines do).
"""

from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps


@dataclass
class LMResult:
    params: np.ndarray
    cov: np.ndarray          # inv(J^T W J); caller applies chi^2/dof etc.
    cost: float              # sum of squared weighted residuals
    converged: bool          # gradient criterion met (see lm_fit)
    n_iter: int
    grad_cosine: float


def lm_fit(model_jac, p0, y, sigma, max_iter=200, gtol=1e-8, ftol=1e-12,
           lam0=1e-3):
    """Minimise sum(((y - model(p)) / sigma)^2) over p.

    model_jac(p) must return (yhat, jac), where jac() builds the Jacobian
    J of shape (npoints, nparams) at p; it is called only for the start
    point and for accepted steps.
    Convergence is the scale-free cosine test: every component of the
    gradient must be small relative to the corresponding Jacobian column
    norm times the residual norm (or the cost must sit at the numerical
    floor of an exact fit).  Running out of iterations or stalling away
    from a stationary point returns converged=False with the best
    parameters found.
    """
    p = np.asarray(p0, dtype=float).copy()
    y = np.asarray(y, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    n = y.size
    cost_floor = n * (1e4 * _EPS) ** 2

    def evaluate(params, accept_below=None):
        """(cost, residuals, weighted Jacobian) at params, for the start
        point (accept_below None) or a trial whose cost is finite and below
        accept_below.  A rejected trial returns None and builds no
        Jacobian; nothing of it outlives the call."""
        yhat, jac = model_jac(params)
        r = (y - yhat) / sigma
        cost = float(r @ r)
        if accept_below is not None and not (np.isfinite(cost)
                                             and cost < accept_below):
            return None
        return cost, r, jac() / sigma[:, None]

    def cosine(g, a, cost):
        denom = np.sqrt(np.maximum(np.diag(a), 1e-300)) * np.sqrt(max(cost, 1e-300))
        return float(np.max(np.abs(g) / denom))

    cost, r, jw = evaluate(p)
    lam = lam0
    converged = False
    grad_cos = np.inf
    improvement = None
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        a = jw.T @ jw
        g = jw.T @ r                     # -0.5 * gradient of the cost
        grad_cos = cosine(g, a, cost)
        if cost <= cost_floor or grad_cos <= gtol:
            converged = True
            break
        if improvement is not None and improvement <= ftol * max(cost, 1e-300):
            converged = grad_cos <= 1e-4     # stationary in cost
            break
        d = np.diag(a).copy()
        d[d <= 0] = 1.0
        stepped = False
        for _ in range(60):
            try:
                step = np.linalg.solve(a + lam * np.diag(d), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = evaluate(p + step, cost)
            if trial is not None:
                improvement = cost - trial[0]
                p = p + step
                cost, r, jw = trial
                lam = max(lam / 3.0, 1e-14)
                stepped = True
                break
            lam *= 3.0
        if not stepped:
            # No improving step exists at float precision: stationary.
            a = jw.T @ jw
            g = jw.T @ r
            grad_cos = cosine(g, a, cost)
            converged = cost <= cost_floor or grad_cos <= 1e-4
            break

    a = jw.T @ jw
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(a)
    return LMResult(params=p, cov=cov, cost=cost, converged=converged,
                    n_iter=n_iter, grad_cosine=grad_cos)
