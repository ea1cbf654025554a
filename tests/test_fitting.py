"""lm_fit builds the Jacobian only at accepted points; the fits it serves
must return exactly what the eager version (a Jacobian at every trial)
returned."""

import numpy as np
import pytest

from optomech import (MechMode, TimeSeries, fit_exp_decay, fit_lorentzian,
                      synth_brownian, thermal_psd, welch_psd)
from optomech import estimate
from optomech.fitting import LMResult, lm_fit

_EPS = np.finfo(float).eps


def _eager_lm_fit(model_jac, p0, y, sigma, max_iter=200, gtol=1e-8,
                  ftol=1e-12, lam0=1e-3):
    """The Levenberg-Marquardt loop as it was with model_jac(p) -> (yhat, J):
    every trial step builds and weights the full Jacobian."""
    p = np.asarray(p0, dtype=float).copy()
    y = np.asarray(y, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    n = y.size
    cost_floor = n * (1e4 * _EPS) ** 2

    def cost_res(params):
        yhat, jac = model_jac(params)
        r = (y - yhat) / sigma
        return float(r @ r), r, jac / sigma[:, None]

    def cosine(g, a, cost):
        denom = np.sqrt(np.maximum(np.diag(a), 1e-300)) * np.sqrt(max(cost, 1e-300))
        return float(np.max(np.abs(g) / denom))

    cost, r, jw = cost_res(p)
    lam = lam0
    converged = False
    grad_cos = np.inf
    improvement = None
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        a = jw.T @ jw
        g = jw.T @ r
        grad_cos = cosine(g, a, cost)
        if cost <= cost_floor or grad_cos <= gtol:
            converged = True
            break
        if improvement is not None and improvement <= ftol * max(cost, 1e-300):
            converged = grad_cos <= 1e-4
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
            cost_try, r_try, jw_try = cost_res(p + step)
            if np.isfinite(cost_try) and cost_try < cost:
                improvement = cost - cost_try
                p = p + step
                cost, r, jw = cost_try, r_try, jw_try
                lam = max(lam / 3.0, 1e-14)
                stepped = True
                break
            lam *= 3.0
        if not stepped:
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


def _eager_lorentzian_model(u, p):
    du, wdt, a, b = p
    c = 0.5 * wdt
    s = u - du
    den = s * s + c * c
    core = c * c / den
    m = a * core + b
    jac = np.empty((u.size, 4))
    jac[:, 0] = 2.0 * a * c * c * s / den ** 2
    jac[:, 1] = a * c * s * s / den ** 2
    jac[:, 2] = core
    jac[:, 3] = 1.0
    return m, jac


def _eager_exp_model(t, p):
    a, inv_tau, b = p
    e = np.exp(-t * inv_tau)
    m = a * e + b
    jac = np.empty((t.size, 3))
    jac[:, 0] = e
    jac[:, 1] = -a * t * e
    jac[:, 2] = 1.0
    return m, jac


def _eager(monkeypatch):
    monkeypatch.setattr(estimate, "lm_fit", _eager_lm_fit)
    monkeypatch.setattr(estimate, "_lorentzian_model", _eager_lorentzian_model)
    monkeypatch.setattr(estimate, "_exp_model", _eager_exp_model)


def _assert_same_fit(got, ref):
    assert got.params.keys() == ref.params.keys()
    assert got.sigmas.keys() == ref.sigmas.keys()
    for key in ref.params:
        assert got.params[key] == ref.params[key], key
        assert got.sigmas[key] == ref.sigmas[key], key
    assert got.residual_norm == ref.residual_norm
    assert got.n_iter == ref.n_iter
    assert got.converged is ref.converged
    assert got.warnings == ref.warnings


def _brownian_spectrum(seed, duration=300.0):
    m = MechMode(250e3, 418000.0, 5e-11, 300.0)
    ts = synth_brownian(m, 400.0, duration, seed,
                        noise_floor=1e-3 * thermal_psd(m.f0, m),
                        center_freq=m.f0)
    fwhm = m.f0 / m.q
    return welch_psd(ts, 2048), (m.f0 - 30 * fwhm, m.f0 + 30 * fwhm)


def _decay(n=3000, fs=1e4, tau=0.05, noise=0.01, seed=8):
    t = np.arange(n) / fs
    rng = np.random.default_rng(seed)
    y = 2.0 * np.exp(-t / tau) + 0.1 + noise * rng.standard_normal(n)
    return TimeSeries(fs, 0.0, y)


class TestFitsMatchEagerJacobian:
    @pytest.mark.parametrize("weighting", ["statistical", "uniform"])
    @pytest.mark.parametrize("seed, max_iter", [(14, 200), (7, 200), (3, 4)])
    def test_fit_lorentzian(self, monkeypatch, weighting, seed, max_iter):
        spec, window = _brownian_spectrum(seed=seed)
        got = fit_lorentzian(spec, window, weighting=weighting,
                             max_iter=max_iter)
        _eager(monkeypatch)
        ref = fit_lorentzian(spec, window, weighting=weighting,
                             max_iter=max_iter)
        _assert_same_fit(got, ref)
        if max_iter < 200:
            assert not got.converged

    @pytest.mark.parametrize("kwargs, max_iter", [
        ({}, 200),
        ({"cavity_length": 0.05}, 200),
        ({"f0": 2.5e3}, 3),
    ])
    def test_fit_exp_decay(self, monkeypatch, kwargs, max_iter):
        ts = _decay()
        got = fit_exp_decay(ts, max_iter=max_iter, **kwargs)
        _eager(monkeypatch)
        ref = fit_exp_decay(ts, max_iter=max_iter, **kwargs)
        _assert_same_fit(got, ref)

    def test_fit_exp_decay_tau_beyond_record(self, monkeypatch):
        ts = _decay(n=500, fs=1e3, tau=2.5, noise=1e-4, seed=2)
        got = fit_exp_decay(ts)
        _eager(monkeypatch)
        ref = fit_exp_decay(ts)
        _assert_same_fit(got, ref)
        assert "tau_exceeds_record_length" in got.warnings


class TestJacobianOnlyAtAcceptedPoints:
    def _counting_fit(self, model, p0, y, sigma, **kw):
        """Run lm_fit and record, per model evaluation, its cost and how
        often its Jacobian was built."""
        evals = []

        def model_jac(p):
            yhat, jac = model(p)
            r = (y - yhat) / sigma
            rec = {"cost": float(r @ r), "jac_calls": 0}
            evals.append(rec)

            def counted():
                rec["jac_calls"] += 1
                return jac()
            return yhat, counted

        res = lm_fit(model_jac, p0, y, sigma, **kw)
        return res, evals

    def _accepted(self, evals):
        """lm_fit accepts the start point, then every trial with a finite
        cost below the current one."""
        cost = None
        flags = []
        for rec in evals:
            ok = cost is None or (np.isfinite(rec["cost"]) and rec["cost"] < cost)
            if ok:
                cost = rec["cost"]
            flags.append(ok)
        return flags

    def test_lorentzian_statistical_weights(self):
        spec, (lo, hi) = _brownian_spectrum(seed=7)
        mask = (spec.freqs >= lo) & (spec.freqs <= hi)
        f, y = spec.freqs[mask], spec.psd[mask]
        f0, fwhm0, amp0, off0 = estimate._initial_lorentzian_guess(f, y)
        u = (f - f0) / fwhm0
        model = lambda p: estimate._lorentzian_model(u, p)
        p0 = np.array([0.0, 1.0, 1.0, off0 / amp0])
        sigma = np.maximum(np.abs(model(p0)[0]), 1e-6)
        res, evals = self._counting_fit(model, p0, y / amp0, sigma)
        flags = self._accepted(evals)
        assert not all(flags), "no rejected trial to check"
        assert [rec["jac_calls"] for rec in evals] == [int(ok) for ok in flags]
        assert sum(flags) - 1 <= res.n_iter

    def test_exp_decay_far_start(self):
        t = np.linspace(0.0, 1.0, 400)
        y = 1.5 * np.exp(-t * 6.0) + 0.05
        with np.errstate(over="ignore"):     # trials that overflow: rejected
            res, evals = self._counting_fit(
                lambda p: estimate._exp_model(t, p),
                np.array([0.2, 40.0, 0.5]), y, np.ones_like(y), lam0=1e-6)
        flags = self._accepted(evals)
        assert res.converged
        assert not all(flags), "no rejected trial to check"
        assert [rec["jac_calls"] for rec in evals] == [int(ok) for ok in flags]
