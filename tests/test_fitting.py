"""lm_fit builds the Jacobian only at accepted points; the fits it serves
must return exactly what the eager version (a Jacobian at every trial)
returned.  Its reductions use no BLAS: the fits stay within the last
digits of other summation orders, and the normal equations do not depend
on the alignment of their operands.  It sums over blocks of points: a fit
of several blocks stays within the last digits of the one-block fit and
holds no work array as long as the fit."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from optomech import (MechMode, Spectrum, TimeSeries, fit_exp_decay,
                      fit_lorentzian, synth_brownian, thermal_psd, welch_psd)
from optomech import estimate, fitting
from optomech.fitting import LMResult, _normal_equations, lm_fit

_EPS = np.finfo(float).eps


def _einsum_products(jw, r):
    """(J^T W J, J^T W r, r.r) for the (n_params, n_points) weighted
    Jacobian, summed along its contiguous rows."""
    a = np.array([[np.einsum("i,i->", u, v) for v in jw] for u in jw])
    g = np.array([np.einsum("i,i->", u, r) for u in jw])
    return a, g, float(np.einsum("i,i->", r, r))


def _blas_products(jw, r):
    """The same products as the fits formed them through BLAS, on the
    (n_points, n_params) Jacobian: their last digits depend on the BLAS
    thread count."""
    jw = np.ascontiguousarray(jw.T)
    return jw.T @ jw, jw.T @ r, float(r @ r)


def _fsum_products(jw, r):
    """The products with each sum correctly rounded (math.fsum): the
    reference the other summation orders are judged against."""
    a = np.array([[math.fsum(u * v) for v in jw] for u in jw])
    g = np.array([math.fsum(u * r) for u in jw])
    return a, g, math.fsum(r * r)


def _eager_lm_fit(model_jac, p0, y, sigma, products=_einsum_products):
    """The Levenberg-Marquardt loop over all n points as one block, with
    model_jac(p, 0, n) -> (yhat, J): every trial step builds and weights
    the full Jacobian, and the normal matrix is rebuilt after the loop.  It reads lm_fit's stopping constants
    when called, so a test that sets them sets them for both."""
    max_iter, gtol, ftol, lam0 = (fitting._MAX_ITER, fitting._GTOL,
                                  fitting._FTOL, fitting._LAM0)
    p = np.asarray(p0, dtype=float).copy()
    y = np.asarray(y, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    n = y.size
    cost_floor = n * (1e4 * _EPS) ** 2

    def cost_res(params):
        yhat, jac = model_jac(params, 0, n)
        r = (y - yhat) / sigma
        jw = jac / sigma
        return products(jw, r)[2], r, jw

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
        a, g, _ = products(jw, r)
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
            a, g, _ = products(jw, r)
            grad_cos = cosine(g, a, cost)
            converged = cost <= cost_floor or grad_cos <= 1e-4
            break

    a = products(jw, r)[0]
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(a)
    return LMResult(params=p, cov=cov, cost=cost, converged=converged,
                    n_iter=n_iter, grad_cosine=grad_cos)


def _eager_lorentzian_model(u, p, work=None):
    """_lorentzian_model as whole-array expressions with fresh arrays and
    the Jacobian built with the values; work is not used."""
    du, wdt, a, b = p
    c = 0.5 * wdt
    s = u - du
    den = s * s + c * c
    core = c * c / den
    m = a * core + b
    jac = np.empty((4, u.size))
    jac[0] = 2.0 * a * c * c * s / den ** 2
    jac[1] = a * c * s * s / den ** 2
    jac[2] = core
    jac[3] = 1.0
    return m, jac


def _eager_aliased_lorentzian_model(rot, p, work, h):
    """_aliased_lorentzian_model likewise."""
    du, wdt, a, b = p
    c = 0.5 * wdt
    sh, ch = math.sinh(h * c), math.cosh(h * c)
    g = c * h * sh * ch
    dg = h * sh * ch + c * h * h * (ch * ch + sh * sh)
    cd, sd = math.cos(h * du), math.sin(h * du)
    sn = rot[1] * cd - rot[0] * sd
    den = sn * sn + sh * sh
    m = a * g / den + b
    jac = np.empty((4, rot.shape[1]))
    jac[0] = (rot[0] * cd + rot[1] * sd) * sn * (2.0 * a * g * h) / den ** 2
    jac[1] = 0.5 * a * dg / den - a * g * h * sh * ch / den ** 2
    jac[2] = g / den
    jac[3] = 1.0
    return m, jac


def _eager_exp_model(t, p, work=None):
    """_exp_model likewise."""
    a, inv_tau, b = p
    e = np.exp(-t * inv_tau)
    m = a * e + b
    jac = np.empty((3, t.size))
    jac[0] = e
    jac[1] = -a * t * e
    jac[2] = 1.0
    return m, jac


def _eager(monkeypatch, products=_einsum_products):
    monkeypatch.setattr(estimate, "lm_fit",
                        functools.partial(_eager_lm_fit, products=products))
    monkeypatch.setattr(estimate, "_lorentzian_model", _eager_lorentzian_model)
    monkeypatch.setattr(estimate, "_aliased_lorentzian_model",
                        _eager_aliased_lorentzian_model)
    monkeypatch.setattr(estimate, "_exp_model", _eager_exp_model)


def _assert_same_fit(got, ref):
    assert got.params.keys() == ref.params.keys()
    assert got.sigmas.keys() == ref.sigmas.keys()
    for key in ref.params:
        assert got.params[key] == ref.params[key], key
        assert got.sigmas[key] == ref.sigmas[key], key
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


def _statistical(*values):
    """The test id of a Lorentzian case: its values and the statistical
    weighting, the one weighting fit_lorentzian has."""
    return "-".join(map(str, values + ("statistical",)))


class TestFitsMatchEagerJacobian:
    @pytest.mark.parametrize("seed, max_iter", [(14, 200), (7, 200), (3, 4)],
                             ids=[_statistical(14, 200), _statistical(7, 200),
                                  _statistical(3, 4)])
    def test_fit_lorentzian(self, monkeypatch, seed, max_iter):
        spec, window = _brownian_spectrum(seed=seed)
        monkeypatch.setattr(fitting, "_MAX_ITER", max_iter)
        got = fit_lorentzian(spec, window)
        _eager(monkeypatch)
        ref = fit_lorentzian(spec, window)
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
        monkeypatch.setattr(fitting, "_MAX_ITER", max_iter)
        got = fit_exp_decay(ts, **kwargs)
        _eager(monkeypatch)
        ref = fit_exp_decay(ts, **kwargs)
        _assert_same_fit(got, ref)

    def test_fit_exp_decay_tau_beyond_record(self, monkeypatch):
        ts = _decay(n=500, fs=1e3, tau=2.5, noise=1e-4, seed=2)
        got = fit_exp_decay(ts)
        _eager(monkeypatch)
        ref = fit_exp_decay(ts)
        _assert_same_fit(got, ref)
        assert "tau_exceeds_record_length" in got.warnings


def _assert_close_fit(got, ref, rtol_params, rtol_sigmas):
    assert got.params.keys() == ref.params.keys()
    for key in ref.params:
        np.testing.assert_allclose(got.params[key], ref.params[key],
                                   rtol=rtol_params, atol=0, err_msg=key)
        np.testing.assert_allclose(got.sigmas[key], ref.sigmas[key],
                                   rtol=rtol_sigmas, atol=0, err_msg=key)
    assert got.n_iter == ref.n_iter
    assert got.converged is ref.converged
    assert got.warnings == ref.warnings


_DECAY_CASES = [{}, {"cavity_length": 0.05}, {"f0": 2.5e3}]


class TestFitsNearOtherSummationOrders:
    """Summing the normal equations along the Jacobian rows with einsum
    moves the fits only in their last digits: they match correctly rounded
    sums to 1e-12 and the former BLAS products (whose order depends on the
    BLAS thread count) to 1e-9 in the parameters.  The sigmas of the
    two-pass statistical fit follow the first pass's stopping point, which
    the BLAS rounding moves by up to 2e-9 (seed 7), so they are held to
    1e-8 against BLAS."""

    @pytest.mark.parametrize("seed", [14, 7, 3], ids=_statistical)
    def test_fit_lorentzian(self, monkeypatch, seed):
        spec, window = _brownian_spectrum(seed=seed)
        got = fit_lorentzian(spec, window)
        _eager(monkeypatch, _fsum_products)
        exact = fit_lorentzian(spec, window)
        _assert_close_fit(got, exact, 1e-12, 1e-12)
        _eager(monkeypatch, _blas_products)
        blas = fit_lorentzian(spec, window)
        _assert_close_fit(got, blas, 1e-9, 1e-8)

    @pytest.mark.parametrize("kwargs", _DECAY_CASES)
    def test_fit_exp_decay(self, monkeypatch, kwargs):
        ts = _decay()
        got = fit_exp_decay(ts, **kwargs)
        _eager(monkeypatch, _fsum_products)
        exact = fit_exp_decay(ts, **kwargs)
        _assert_close_fit(got, exact, 1e-12, 1e-12)
        _eager(monkeypatch, _blas_products)
        blas = fit_exp_decay(ts, **kwargs)
        _assert_close_fit(got, blas, 1e-9, 1e-9)


# the aliased Lorentzian with its images every 2.5 pi in u: it takes the
# rotations of u, made once per fit, in place of u
_H = 0.4
_ALIASED = functools.partial(estimate._aliased_lorentzian_model, h=_H)
_MODELS = [
    (estimate._lorentzian_model, [0.1, 1.2, 0.9, 0.01]),
    (_ALIASED, [0.1, 1.2, 0.9, 0.01]),
    (estimate._exp_model, [1.0, 3.0, 0.1]),
]
# the rows of the work array each model fills
_WORK_ROWS = {estimate._lorentzian_model: 8, _ALIASED: 7,
              estimate._exp_model: 5}
_EAGER = {estimate._lorentzian_model: _eager_lorentzian_model,
          _ALIASED: functools.partial(_eager_aliased_lorentzian_model,
                                      work=None, h=_H),
          estimate._exp_model: _eager_exp_model}


def _abscissa(model, x):
    """What model takes for the abscissa x."""
    return estimate._rotations(x, _H) if model is _ALIASED else x


class TestModelsInWorkArrays:
    @pytest.mark.parametrize("model, p", _MODELS)
    @pytest.mark.parametrize("n", [1, 101, 4099])
    def test_same_bits_as_whole_array_expressions(self, model, p, n):
        x = _abscissa(model, np.linspace(-2.0, 2.0, n))
        work = np.empty((_WORK_ROWS[model], n))
        for scale in (1.0, 0.7, 1.3):          # refills the same work array
            q = np.array(p) * scale
            m_ref, j_ref = _EAGER[model](x, q)
            m, jac = model(x, q, work)
            assert m.tobytes() == m_ref.tobytes()
            j = jac()
            assert j.tobytes() == j_ref.tobytes()
            j /= 3.0                             # as lm_fit weights it
            assert jac().tobytes() == j_ref.tobytes()

    @pytest.mark.parametrize("model, p", _MODELS)
    def test_repeat_evaluation_allocates_no_record_sized_array(self, model, p):
        """Once its work array exists, a model evaluation and its Jacobian
        allocate less than one n-point float array between them."""
        n = 2 ** 17
        x = _abscissa(model, np.linspace(-2.0, 2.0, n))
        work = np.empty((_WORK_ROWS[model], n))
        p = np.array(p)
        tracemalloc.start()
        try:
            model(x, p, work)[1]()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            model(x, p * 1.1, work)[1]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < n * 8


class TestNormalEquations:
    @pytest.mark.parametrize("model, p", _MODELS)
    def test_jacobian_is_one_contiguous_row_per_parameter(self, model, p):
        x = _abscissa(model, np.linspace(-2.0, 2.0, 101))
        work = np.empty((_WORK_ROWS[model], 101))
        jac = model(x, np.array(p), work)[1]()
        assert jac.shape == (len(p), 101)
        assert jac.dtype == np.float64 and jac.flags.c_contiguous

    def test_matches_the_products(self):
        rng = np.random.default_rng(3)
        jw = rng.standard_normal((4, 1001))
        r = rng.standard_normal(1001)
        a, g = _normal_equations(jw, r)
        np.testing.assert_allclose(a, jw @ jw.T, rtol=1e-12)
        np.testing.assert_allclose(g, jw @ r, rtol=1e-12)
        assert np.array_equal(a, a.T)

    @pytest.mark.parametrize("n", [4099, 65536])
    def test_independent_of_operand_alignment(self, n):
        rng = np.random.default_rng(n)
        jw_ref = rng.standard_normal((4, n))
        r_ref = rng.standard_normal(n)
        a_ref, g_ref = _normal_equations(jw_ref.copy(), r_ref.copy())
        for off in range(1, 8):
            # views that start off * 8 bytes into their buffers
            jw = np.empty(4 * n + off)[off:].reshape(4, n)
            r = np.empty(n + off)[off:]
            jw[...] = jw_ref
            r[...] = r_ref
            a, g = _normal_equations(jw, r)
            assert a.tobytes() == a_ref.tobytes(), off
            assert g.tobytes() == g_ref.tobytes(), off


def _counting_fit(model, p0, y, sigma):
    """Run lm_fit and record, per model evaluation of a block, the block,
    its cost and how often its Jacobian was built."""
    evals = []

    def model_jac(p, lo, hi):
        yhat, jac = model(p, lo, hi)
        r = (y[lo:hi] - yhat) / sigma[lo:hi]
        rec = {"p": p.tobytes(), "lo": lo,
               "cost": float(np.einsum("i,i->", r, r)), "jac_calls": 0}
        evals.append(rec)

        def counted():
            rec["jac_calls"] += 1
            return jac()
        return yhat, counted

    res = lm_fit(model_jac, p0, y, sigma)
    return res, evals


def _points(evals):
    """The evaluations grouped by the point they evaluate, in order, and
    whether lm_fit accepts each: the start point, then every trial whose
    cost, summed over its blocks in order, is finite and below the current
    one."""
    points = []
    for rec in evals:
        if not points or points[-1][0]["p"] != rec["p"]:
            points.append([])
        points[-1].append(rec)
    cost = None
    flags = []
    for recs in points:
        seen = set()
        total = None
        for rec in recs:             # the first pass over the blocks
            if rec["lo"] in seen:
                break
            seen.add(rec["lo"])
            total = rec["cost"] if total is None else total + rec["cost"]
        ok = cost is None or bool(np.isfinite(total) and total < cost)
        if ok:
            cost = total
        flags.append(ok)
    return points, flags


def _lorentzian_case(seed=7):
    """A Lorentzian fit that starts at a third of the guessed width, whose
    first trials overshoot and are rejected: (model, p0, y, sigma)."""
    spec, (lo, hi) = _brownian_spectrum(seed=seed)
    mask = (spec.freqs >= lo) & (spec.freqs <= hi)
    f, y = spec.freqs[mask], spec.psd[mask]
    f0, fwhm0, amp0, off0 = estimate._initial_lorentzian_guess(f, y)
    u = (f - f0) / fwhm0
    work = fitting._work_rows(8, u.size)
    model = lambda p, lo, hi: estimate._lorentzian_model(u[lo:hi], p,
                                                         work(hi - lo))
    p0 = np.array([0.0, 0.3, 1.0, off0 / amp0])
    sigma = np.maximum(np.abs(_eager_lorentzian_model(u, p0)[0]), 1e-6)
    return model, p0, y / amp0, sigma


def _exp_case():
    """An exponential fit from far off, whose trials overflow and are
    rejected: (model, p0, y, sigma)."""
    t = np.linspace(0.0, 1.0, 400)
    y = 1.5 * np.exp(-t * 6.0) + 0.05
    work = fitting._work_rows(5, t.size)
    model = lambda p, lo, hi: estimate._exp_model(t[lo:hi], p, work(hi - lo))
    return model, np.array([0.2, 40.0, 0.5]), y, np.ones_like(y)


class TestJacobianOnlyAtAcceptedPoints:
    def test_lorentzian_statistical_weights(self):
        res, evals = _counting_fit(*_lorentzian_case())
        points, flags = _points(evals)
        assert res.converged
        assert not all(flags), "no rejected trial to check"
        assert [[rec["jac_calls"] for rec in recs] for recs in points] == [
            [int(ok)] for ok in flags]
        assert sum(flags) - 1 <= res.n_iter

    def test_exp_decay_far_start(self, monkeypatch):
        monkeypatch.setattr(fitting, "_LAM0", 1e-6)
        with np.errstate(over="ignore"):     # trials that overflow: rejected
            res, evals = _counting_fit(*_exp_case())
        points, flags = _points(evals)
        assert res.converged
        assert not all(flags), "no rejected trial to check"
        assert [[rec["jac_calls"] for rec in recs] for recs in points] == [
            [int(ok)] for ok in flags]


def _small_blocks(monkeypatch, n):
    """Set lm_fit's block so that n points make at least three blocks, the
    last one partial; the number of blocks."""
    block = (n - 1) // 3
    assert n % block and n // block >= 3
    monkeypatch.setattr(fitting, "_BLOCK", block)
    return len(fitting._blocks(n))


def _plain(spec):
    """spec as a real record's spectrum: fitted as a plain Lorentzian."""
    return Spectrum(spec.freqs, spec.psd, spec.n_avg, spec.resolution,
                    spec.var_inflation)


def _line_spectrum(n, aliased, seed=4):
    """A noisy 4 Hz line at 2 kHz over n bins of a 400 Hz band, its images
    summed when aliased (the spectrum of a complex-envelope record)."""
    fs, f0, fwhm = 400.0, 2e3, 4.0
    f = f0 + (np.arange(n) - n // 2) * (fs / n)
    if aliased:
        a = math.pi * fwhm / fs
        line = np.sinh(a) / (np.cosh(a) - np.cos(2 * math.pi * (f - f0) / fs))
    else:
        line = (0.5 * fwhm) ** 2 / ((f - f0) ** 2 + (0.5 * fwhm) ** 2)
    y = (line + 1e-3) * (1.0 + 0.1 * np.random.default_rng(seed).standard_normal(n))
    return Spectrum(f, y, 100, fs / n, envelope_rate=fs if aliased else None)


class TestBlockSums:
    """lm_fit adds the cost and the normal equations of blocks of points:
    a fit of several blocks moves only in the last digits, builds each
    block's Jacobian once per accepted point, and holds one block of work
    arrays, not arrays as long as the fit."""

    @pytest.mark.parametrize("aliased", [False, True], ids=["plain", "aliased"])
    @pytest.mark.parametrize("seed", [14, 7, 3], ids=_statistical)
    def test_fit_lorentzian_matches_one_block(self, monkeypatch, seed, aliased):
        spec, (lo, hi) = _brownian_spectrum(seed=seed)
        if not aliased:
            spec = _plain(spec)
        one = fit_lorentzian(spec, (lo, hi))
        _small_blocks(monkeypatch, int(np.count_nonzero(
            (spec.freqs >= lo) & (spec.freqs <= hi))))
        _assert_close_fit(fit_lorentzian(spec, (lo, hi)), one, 1e-9, 1e-9)

    @pytest.mark.parametrize("kwargs", _DECAY_CASES)
    def test_fit_exp_decay_matches_one_block(self, monkeypatch, kwargs):
        ts = _decay()
        one = fit_exp_decay(ts, **kwargs)
        _small_blocks(monkeypatch, ts.n)
        _assert_close_fit(fit_exp_decay(ts, **kwargs), one, 1e-9, 1e-9)

    @pytest.mark.parametrize("case", [_lorentzian_case, _exp_case],
                             ids=["lorentzian", "exp_decay"])
    def test_jacobian_once_per_block_at_accepted_points(self, monkeypatch,
                                                        case):
        model, p0, y, sigma = case()
        n_blocks = _small_blocks(monkeypatch, y.size)
        monkeypatch.setattr(fitting, "_LAM0", 1e-6)
        with np.errstate(over="ignore"):     # trials that overflow: rejected
            res, evals = _counting_fit(model, p0, y, sigma)
        points, flags = _points(evals)
        assert res.converged
        assert not all(flags), "no rejected trial to check"
        starts = [lo for lo, _ in fitting._blocks(y.size)]
        for recs, ok in zip(points, flags):
            # a rejected trial: each block's cost; an accepted point: each
            # block's cost, then each block again with its Jacobian
            assert [rec["lo"] for rec in recs] == starts * (1 + ok)
            assert [rec["jac_calls"] for rec in recs] == (
                [0] * n_blocks + [1] * n_blocks * ok)

    @pytest.mark.parametrize("aliased", [False, True], ids=["plain", "aliased"])
    def test_multi_block_fit_holds_no_work_array_as_long_as_the_fit(
            self, monkeypatch, aliased):
        n = 1 << 16
        spec = _line_spectrum(n, aliased)
        monkeypatch.setattr(fitting, "_BLOCK", 1 << 10)
        fit_lorentzian(spec)             # numpy's first-use allocations
        tracemalloc.start()
        try:
            fit = fit_lorentzian(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged
        assert fit.params["fwhm_hz"] == pytest.approx(4.0, rel=0.05)
        # the abscissa (two arrays, its cosines and sines, for the aliased
        # line), the scaled psd and the weights: four arrays as long as the
        # spectrum, and less than one more for the rest
        assert peak < 5 * 8 * n
