"""Damped (Levenberg-Marquardt) least-squares core shared by the curve fits.

Small and self-contained: callers provide a function returning the model
values at a parameter vector together with a zero-argument callable that
builds the Jacobian there from the model's intermediates, plus per-point
sigmas.  The Jacobian is built only where it is used: at the start point
and at every accepted step, never for a rejected trial step.  Callers are
expected to nondimensionalise data and parameters to O(1) before calling
in here (the public fit routines do).

The Jacobian is a C-contiguous float array of shape (n_params,
n_points), one row per parameter, which lm_fit weights in place.  Like
the model values, it may be a work array that the model refills on every
call: it need only stay valid until the next model evaluation, so a fit
allocates its arrays once, not once per iteration.  The normal equations
J^T W J and J^T W r and the cost r.r are sums over those contiguous rows
taken with np.einsum, never with a BLAS product (``@``, ``np.dot`` and
the like): a multithreaded BLAS splits such a sum by its thread count,
so the last digits of every fit would depend on how many CPUs the
process may use, and its worker threads spin for the whole fit.  Only
the small solve and inverse of the (n_params, n_params) system go to
LAPACK.
"""

from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps
_TRIAL = {"over": "ignore", "invalid": "ignore"}   # a trial step's errstate

# the stopping tests and start damping of every fit (see lm_fit)
_MAX_ITER = 200          # iterations at most
_GTOL = 1e-8             # gradient cosine that counts as converged
_FTOL = 1e-12            # relative cost improvement that ends the fit
_LAM0 = 1e-3             # initial Levenberg-Marquardt damping


@dataclass
class LMResult:
    params: np.ndarray
    cov: np.ndarray          # inv(J^T W J); caller applies chi^2/dof etc.
    cost: float              # sum of squared weighted residuals
    converged: bool          # gradient criterion met (see lm_fit)
    n_iter: int
    grad_cosine: float


def _dot(x, y):
    """Sum of x * y over two 1-D arrays, in an order fixed by their length."""
    return float(np.einsum("i,i->", x, y))


def _normal_equations(jw, r):
    """(J^T W J, J^T W r) from the weighted Jacobian rows jw and the
    weighted residuals r; the upper triangle is summed and mirrored."""
    m = jw.shape[0]
    a = np.empty((m, m))
    g = np.empty(m)
    for i in range(m):
        for k in range(i, m):
            a[i, k] = a[k, i] = _dot(jw[i], jw[k])
        g[i] = _dot(jw[i], r)
    return a, g


def lm_fit(model_jac, p0, y, sigma):
    """Minimise sum(((y - model(p)) / sigma)^2) over p.

    model_jac(p) must return (yhat, jac), where jac() returns the Jacobian
    at p as a C-contiguous array of shape (nparams, npoints); it is called
    only for the start point and for accepted steps.  Both may live in
    buffers that the next model_jac call refills: lm_fit uses yhat before
    it calls jac(), weights the Jacobian in place and is done with both
    before it calls model_jac again.
    Convergence is the scale-free cosine test: every component of the
    gradient must be at most _GTOL relative to the corresponding Jacobian
    column norm times the residual norm (or the cost must sit at the
    numerical floor of an exact fit).  Running out of _MAX_ITER iterations
    or stalling away from a stationary point returns converged=False with
    the best parameters found.
    """
    p = np.asarray(p0, dtype=float).copy()
    y = np.asarray(y, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    n = y.size
    cost_floor = n * (1e4 * _EPS) ** 2
    r = np.empty(y.shape)            # weighted residuals, refilled per call

    def evaluate(params, accept_below=None):
        """(cost, J^T W J, J^T W r) at params, for the start point
        (accept_below None) or a trial whose cost is finite and below
        accept_below.  A rejected trial returns None and builds no
        Jacobian; nothing of it outlives the call."""
        # a trial may leave the float range: its cost is then not finite
        with np.errstate(**({} if accept_below is None else _TRIAL)):
            yhat, jac = model_jac(params)
            np.subtract(y, yhat, out=r)      # r = (y - yhat) / sigma
            np.divide(r, sigma, out=r)
            cost = _dot(r, r)
        if accept_below is not None and not (np.isfinite(cost)
                                             and cost < accept_below):
            return None
        jw = jac()
        jw /= sigma
        return (cost,) + _normal_equations(jw, r)

    def cosine(g, a, cost):
        denom = np.sqrt(np.maximum(np.diag(a), 1e-300)) * np.sqrt(max(cost, 1e-300))
        return float(np.max(np.abs(g) / denom))

    cost, a, g = evaluate(p)         # g = -0.5 * gradient of the cost
    lam = _LAM0
    converged = False
    grad_cos = np.inf
    improvement = None
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        grad_cos = cosine(g, a, cost)
        if cost <= cost_floor or grad_cos <= _GTOL:
            converged = True
            break
        if improvement is not None and improvement <= _FTOL * max(cost, 1e-300):
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
                cost, a, g = trial
                lam = max(lam / 3.0, 1e-14)
                stepped = True
                break
            lam *= 3.0
        if not stepped:
            # No improving step exists at float precision: stationary.
            converged = cost <= cost_floor or grad_cos <= 1e-4
            break

    # a is always the normal matrix at p, the last accepted point
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(a)
    return LMResult(params=p, cov=cov, cost=cost, converged=converged,
                    n_iter=n_iter, grad_cosine=grad_cos)
