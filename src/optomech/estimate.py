"""Analysis pipeline: PSD estimation, line-shape fits, transfer estimation.

welch_psd produces one-sided power spectral densities normalised so that a
sine of amplitude A integrates to A^2/2 over its peak.  fit_lorentzian and
fit_exp_decay share the damped least-squares core in fitting.py and report
1-sigma parameter uncertainties from the local curvature, rescaled by the
reduced chi^2 and (for spectra) by the variance inflation that windowing
and segment overlap introduce between neighbouring bins.  estimate_transfer
demodulates with the one lock-in mixer (synth._phasor, synth._block_means).
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .fitting import lm_fit
from .synth import TWO_PI, TimeSeries, _all_finite, _block_means, _phasor


class EstimationError(ValueError):
    """Raised when an estimator cannot produce a meaningful result."""


@dataclass
class Spectrum:
    """One-sided PSD estimate.

    var_inflation is the variance inflation factor for averages of
    neighbouring bins caused by window leakage and segment overlap; fits use
    it to keep parameter uncertainties calibrated.  envelope_rate is the
    sample rate of a complex-envelope record, the width of the band into
    which a line's wings alias (fit_lorentzian); None for a real record.
    """

    freqs: np.ndarray
    psd: np.ndarray
    n_avg: int
    resolution: float
    var_inflation: float = 1.0
    envelope_rate: float | None = None

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if self.freqs.shape != self.psd.shape:
            raise ValueError("freqs and psd must have matching shapes")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(self.psd < 0):
            raise ValueError("psd must be >= 0")
        if self.n_avg < 1:
            raise ValueError("n_avg must be >= 1")


@dataclass
class FitResult:
    """Fitted parameters with 1-sigma uncertainties."""

    params: dict
    sigmas: dict
    converged: bool
    n_iter: int = 0
    warnings: tuple = ()


@dataclass
class TransferEstimate:
    """Log-binned transfer magnitude with within-bin scatter as error bars."""

    bin_centers: np.ndarray
    magnitude_db: np.ndarray
    errbar_db: np.ndarray
    dc_reference: float
    n_records: int = 0
    n_excluded: int = 0

    def __post_init__(self):
        self.bin_centers = np.asarray(self.bin_centers, dtype=float)
        if np.any(np.diff(self.bin_centers) <= 0):
            raise ValueError("bin centers must be strictly increasing")
        if np.any(np.asarray(self.errbar_db) < 0):
            raise ValueError("error bars must be >= 0")


_WINDOWS = {
    "boxcar": lambda n: np.ones(n),
    "hann": lambda n: 0.5 - 0.5 * np.cos(TWO_PI * np.arange(n) / n),
    "hamming": lambda n: 0.54 - 0.46 * np.cos(TWO_PI * np.arange(n) / n),
    "blackman": lambda n: (0.42 - 0.5 * np.cos(TWO_PI * np.arange(n) / n)
                           + 0.08 * np.cos(2 * TWO_PI * np.arange(n) / n)),
}


_MIN_SEGMENTS = 8          # segments of the default Welch segment length


def _default_segment_len(n, overlap_frac):
    """The longest power-of-two segment length (2 at least) that cuts n
    samples at overlap_frac into _MIN_SEGMENTS segments or more."""
    denom = 1.0 + (_MIN_SEGMENTS - 1) * (1.0 - overlap_frac)
    seg = int(2 ** math.floor(math.log2(max(n / denom, 2.0))))
    return max(seg, 2)


def _variance_inflation(w, hop, n_segments):
    """Variance inflation of local bin averages from windowing and overlap."""
    n = w.size
    sw2 = float(np.sum(w * w))
    nu_window = n * float(np.sum(w ** 4)) / sw2 ** 2
    nu_overlap = 1.0
    if n_segments > 1:
        j = 1
        acc = 0.0
        while j * hop < n and j < n_segments:
            c = float(np.sum(w[: n - j * hop] * w[j * hop:])) / sw2
            acc += (1.0 - j / n_segments) * c * c
            j += 1
        nu_overlap = 1.0 + 2.0 * acc
    return nu_window * nu_overlap


def _shift_left(buf, hop, keep):
    """buf[:keep] = buf[hop:hop + keep], in pieces that do not overlap:
    numpy would copy an overlapping source to a temporary first."""
    for i in range(0, keep, hop):
        j = min(i + hop, keep)
        buf[i:j] = buf[i + hop:j + hop]


def _segments(blocks, n, segment_len, hop, dtype):
    """The Welch segments [k*hop, k*hop + segment_len) of the n samples the
    blocks hold, in order, each built in one window that is valid until
    the next is requested.  The blocks are copied into the window; once
    full, it is yielded and its last segment_len - hop samples move to its
    front.  Every block is checked for finiteness, and the blocks must
    hold n samples.
    """
    buf = np.empty(segment_len, dtype)
    fill = total = 0                 # buf[:fill] holds the next segment's start
    for block in blocks:
        if not _all_finite(block):
            raise ValueError("input contains non-finite samples")
        total += block.size
        while block.size:
            take = min(segment_len - fill, block.size)
            buf[fill:fill + take] = block[:take]
            block = block[take:]
            fill += take
            if fill == segment_len:
                yield buf
                fill = segment_len - hop
                _shift_left(buf, hop, fill)
    if total != n:
        raise ValueError(f"the record's blocks held {total} samples, not {n}")


def welch_psd(ts, segment_len: int | None = None,
              overlap_frac: float = 0.5, window: str = "hann") -> Spectrum:
    """Averaged-periodogram PSD of calibrated TimeSeries or BlockSeries values.

    Real records give the one-sided density on [0, fs/2].  Complex-envelope
    records give the equivalent one-sided density of the underlying physical
    signal on [center_freq - fs/2, center_freq + fs/2); it sums to half the
    envelope mean square, i.e. to the in-band physical mean square.

    The record is read once, in order, a block at a time (ts.blocks()), so
    a BlockSeries read from a file is never held whole: Welch keeps one
    segment window (_segments) and the segment's work arrays.
    """
    if not 0.0 <= overlap_frac <= 0.9:
        raise ValueError("overlap_frac must be in [0, 0.9]")
    if window not in _WINDOWS:
        raise ValueError(f"unknown window {window!r}; use one of {sorted(_WINDOWS)}")
    n = ts.n
    fs = ts.sample_rate
    if segment_len is None:
        segment_len = _default_segment_len(n, overlap_frac)
    if segment_len > n:
        raise ValueError(f"segment_len {segment_len} exceeds record length {n}")
    if segment_len < 2:
        raise ValueError("segment_len must be >= 2")
    hop = max(1, int(round(segment_len * (1.0 - overlap_frac))))
    w = _WINDOWS[window](segment_len)
    sw2 = float(np.sum(w * w))
    n_avg = len(range(0, n - segment_len + 1, hop))

    # every segment reuses the same three arrays for its windowed samples,
    # spectrum and power, with the bits of np.abs(fft(x[s:s+L] * w)) ** 2
    if ts.is_complex:
        fft, nbins, dtype = np.fft.fft, segment_len, complex
    else:
        fft, nbins, dtype = np.fft.rfft, segment_len // 2 + 1, float
    seg = np.empty(segment_len, dtype)
    spec = np.empty(nbins, complex)
    power = np.empty(nbins)
    acc = np.zeros(nbins)
    with contextlib.closing(ts.blocks()) as blocks:
        for x in _segments(blocks, n, segment_len, hop, dtype):
            np.multiply(x, w, out=seg)
            fft(seg, out=spec)
            np.abs(spec, out=power)
            acc += np.square(power, out=power)
    acc /= n_avg
    if ts.is_complex:
        psd = np.fft.fftshift(acc) / (fs * sw2) / 2.0
        freqs = ts.center_freq + np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / fs))
    else:
        psd = acc * 2.0 / (fs * sw2)
        psd[0] /= 2.0
        if segment_len % 2 == 0:
            psd[-1] /= 2.0
        freqs = np.fft.rfftfreq(segment_len, 1.0 / fs)
    psd *= ts.calibration ** 2

    return Spectrum(freqs=freqs, psd=psd, n_avg=n_avg,
                    resolution=fs / segment_len,
                    var_inflation=_variance_inflation(w, hop, n_avg),
                    envelope_rate=fs if ts.is_complex else None)


def _lorentzian_model(u, p, work):
    """Values a*c^2/((u-du)^2+c^2) + b, c = wdt/2, at p = (du, wdt, a, b),
    and a jac() that fills the (4, u.size) Jacobian.

    work is an (8, u.size) float array that the fit allocates once and
    passes to every call.  The values and the Jacobian are views into it,
    valid only until the next call; each element is computed with the
    operations, in the order, of the whole-array expressions in the
    comments.
    """
    du, wdt, a, b = p
    c = 0.5 * wdt
    s, den, core, m = work[:4]
    j = work[4:]
    np.subtract(u, du, out=s)                # s = u - du
    np.multiply(s, s, out=den)               # den = s * s + c * c
    den += c * c
    np.divide(c * c, den, out=core)          # core = c * c / den
    np.multiply(a, core, out=m)              # m = a * core + b
    m += b

    def jac():
        den2 = np.square(den, out=j[3])      # den ** 2, until row 3 is set
        np.multiply(2.0 * a * c * c, s, out=j[0])
        j[0] /= den2                         # 2.0 * a * c * c * s / den2
        np.multiply(a * c, s, out=j[1])
        j[1] *= s
        j[1] /= den2                         # a * c * s * s / den2
        j[2] = core
        j[3] = 1.0
        return j

    return m, jac


def _aliased_lorentzian_model(rot, p, work, h):
    """_lorentzian_model with the line's images at u = du + k*pi/h, k any
    integer, summed: a*g/(sin(h*(u-du))^2 + sinh(h*c)^2) + b, c = wdt/2,
    g = c*h*sinh(h*c)*cosh(h*c), and a jac() that fills the (4, n)
    Jacobian.

    The sum is the spectrum of a line sampled at pi/h without an
    anti-alias filter (a band-centered record's), and tends to
    _lorentzian_model's values as h -> 0; sin^2 + sinh^2 is the
    cancellation-free form of (cosh(2hc) - cos(2h(u-du)))/2.  rot is the
    (2, n) array (cos(h*u), sin(h*u)) of the abscissa u (_rotations),
    made once per fit: each call turns it by h*du, sin(h*(u-du)) =
    sin(h*u)*cos(h*du) - cos(h*u)*sin(h*du), instead of taking a sine.
    work is a (7, n) float array, used as _lorentzian_model uses its own;
    each element is computed with the operations, in the order, of the
    whole-array expressions in the comments.
    """
    du, wdt, a, b = p
    c = 0.5 * wdt
    sh, ch = math.sinh(h * c), math.cosh(h * c)
    g = c * h * sh * ch
    dg = h * sh * ch + c * h * h * (ch * ch + sh * sh)     # dg/dc
    cd, sd = math.cos(h * du), math.sin(h * du)
    sn, den, m = work[:3]
    j = work[3:]
    np.multiply(rot[1], cd, out=sn)          # sn = rot[1] * cd - rot[0] * sd
    np.multiply(rot[0], sd, out=den)
    sn -= den
    np.square(sn, out=den)                   # den = sn * sn + sh * sh
    den += sh * sh
    np.divide(a * g, den, out=m)             # m = a * g / den + b
    m += b

    def jac():
        den2 = np.square(den, out=j[3])      # den ** 2, until row 3 is set
        np.multiply(rot[0], cd, out=j[0])    # cos(h*(u-du)) * sn, that is
        np.multiply(rot[1], sd, out=j[1])    # sin(2*h*(u-du)) / 2
        j[0] += j[1]
        j[0] *= sn
        j[0] *= 2.0 * a * g * h
        j[0] /= den2       # (rot[0] * cd + rot[1] * sd) * sn * (2.0 * a * g * h) / den2
        np.divide(0.5 * a * dg, den, out=j[1])
        np.divide(a * g * h * sh * ch, den2, out=j[2])
        j[1] -= j[2]       # 0.5 * a * dg / den - a * g * h * sh * ch / den2
        np.divide(g, den, out=j[2])          # g / den
        j[3] = 1.0
        return j

    return m, jac


def _rotations(u, h):
    """(cos(h*u), sin(h*u)) as one (2, n) array, _aliased_lorentzian_model's
    rot."""
    rot = np.empty((2, u.size))
    np.multiply(u, h, out=rot[0])
    np.sin(rot[0], out=rot[1])
    np.cos(rot[0], out=rot[0])
    return rot


def _initial_lorentzian_guess(f, y):
    i_pk = int(np.argmax(y))
    n_edge = max(3, y.size // 10)
    edges = np.concatenate([y[:n_edge], y[-n_edge:]])
    offset0 = float(np.median(edges))
    amp0 = float(y[i_pk] - offset0)
    edge_scatter = float(np.std(edges))
    if amp0 <= 0 or amp0 <= 5.0 * edge_scatter:
        raise EstimationError("no peak above the baseline offset")
    half = offset0 + 0.5 * amp0
    f0 = float(f[i_pk])
    f_lo = f[0]
    for i in range(i_pk, 0, -1):
        if y[i] < half:
            f_lo = f[i] + (f[i + 1] - f[i]) * (half - y[i]) / (y[i + 1] - y[i])
            break
    f_hi = f[-1]
    for i in range(i_pk, y.size):
        if y[i] < half:
            f_hi = f[i - 1] + (f[i] - f[i - 1]) * (half - y[i - 1]) / (y[i] - y[i - 1])
            break
    fwhm0 = max(float(f_hi - f_lo), float(f[1] - f[0]))
    return f0, fwhm0, amp0, offset0


def fit_lorentzian(spec: Spectrum, window_hint=None) -> FitResult:
    """Fit amplitude*(fwhm/2)^2/((f-f0)^2+(fwhm/2)^2) + offset to a PSD peak.

    A complex-envelope spectrum (spec.envelope_rate set) is fitted with the
    line's images at f0 + k*envelope_rate summed, the spectrum of a line
    sampled without an anti-alias filter, so that a line broad against its
    band is not read narrow (_aliased_lorentzian_model).

    The weights are statistical: sigma_i is proportional to the model PSD
    (the log-consistent choice for averaged-periodogram noise), taken from
    the initial guess for a first pass and from its fitted model for the
    second.  The derived quality factor q = f0/fwhm is attached with its
    propagated uncertainty, scaled by the reduced chi^2 and the spectrum's
    var_inflation.
    """
    f = spec.freqs
    y = spec.psd
    if window_hint is not None:
        lo, hi = window_hint
        mask = (f >= lo) & (f <= hi)
        if mask.sum() < 8:
            raise EstimationError("window_hint leaves too few bins to fit")
        f = f[mask]
        y = y[mask]

    f0_0, fwhm0, amp0, offset0 = _initial_lorentzian_guess(f, y)
    scale_f = fwhm0
    u = (f - f0_0) / scale_f
    v = y / amp0
    p0 = np.array([0.0, 1.0, 1.0, offset0 / amp0])

    if spec.envelope_rate is None:
        work = np.empty((8, u.size))
        model = lambda p: _lorentzian_model(u, p, work)
    else:
        h = math.pi * scale_f / spec.envelope_rate   # pi / the band, in u
        rot = _rotations(u, h)
        del u                                        # rot replaces it
        work = np.empty((7, rot.shape[1]))
        model = lambda p: _aliased_lorentzian_model(rot, p, work, h)
    floor = 1e-6
    p = p0
    sig = np.empty_like(v)           # the weights, refilled by each pass
    for _ in range(2):
        m0, _ = model(p)                 # a view into work: use it at once
        np.abs(m0, out=sig)              # max(|m0|, floor) / sqrt(n_avg)
        np.maximum(sig, floor, out=sig)
        sig /= math.sqrt(spec.n_avg)
        res = lm_fit(model, p, v, sig)
        p = res.params

    dof = max(v.size - 4, 1)
    cov = res.cov * (res.cost / dof * spec.var_inflation)
    # back to physical units
    tr = np.array([scale_f, scale_f, amp0, amp0])
    cov = cov * np.outer(tr, tr)
    du, wdt, a, b = res.params
    f0 = f0_0 + du * scale_f
    fwhm = abs(wdt) * scale_f
    amplitude = a * amp0
    offset = b * amp0
    sig_diag = np.sqrt(np.maximum(np.diag(cov), 0.0))

    q = f0 / fwhm
    var_q = (cov[0, 0] / fwhm ** 2 + cov[1, 1] * f0 ** 2 / fwhm ** 4
             - 2.0 * cov[0, 1] * f0 / fwhm ** 3)
    sigma_q = math.sqrt(max(var_q, 0.0))

    warnings = []
    if spec.resolution > fwhm / 5.0:
        warnings.append("resolution_exceeds_fwhm_over_5")
    if not res.converged:
        warnings.append("max_iterations_reached")

    return FitResult(
        params={"f0_hz": f0, "fwhm_hz": fwhm, "amplitude": amplitude,
                "offset": offset, "q": q},
        sigmas={"f0_hz": sig_diag[0], "fwhm_hz": sig_diag[1],
                "amplitude": sig_diag[2], "offset": sig_diag[3], "q": sigma_q},
        converged=res.converged,
        n_iter=res.n_iter,
        warnings=tuple(warnings),
    )


def line_psd(spec: Spectrum, fit: FitResult) -> np.ndarray:
    """fit_lorentzian's fitted line plus offset at spec.freqs, its images
    summed for a complex-envelope spectrum as the fit sums them."""
    p = fit.params
    if spec.envelope_rate is None:
        half = p["fwhm_hz"] / 2.0
        return (p["amplitude"] * half ** 2
                / ((spec.freqs - p["f0_hz"]) ** 2 + half ** 2) + p["offset"])
    h = math.pi / spec.envelope_rate
    return _aliased_lorentzian_model(
        _rotations(spec.freqs - p["f0_hz"], h),
        (0.0, p["fwhm_hz"], p["amplitude"], p["offset"]),
        np.empty((7, spec.freqs.size)), h)[0].copy()


_ONSET_FRAC = 0.95         # detect_onset's threshold, of the plateau level


def detect_onset(ts: TimeSeries) -> TimeSeries:
    """Trim pre-trigger samples: keep everything from the first crossing
    below 95% of the initial plateau level (_ONSET_FRAC)."""
    if ts.is_complex:
        raise ValueError("detect_onset needs a real record")
    x = np.asarray(ts.values, dtype=float)
    k = max(1, min(5, x.size // 10))
    padded = np.concatenate([np.full(k, x[0]), x, np.full(k, x[-1])])
    smooth = np.convolve(padded, np.ones(k) / k, mode="same")[k:-k]
    plateau = float(np.percentile(smooth, 98))
    below = np.nonzero(smooth < _ONSET_FRAC * plateau)[0]
    if below.size == 0:
        return ts
    start = max(int(below[0]) - 1, 0)
    if ts.n - start < 2:
        raise EstimationError("onset detection left fewer than 2 samples")
    return TimeSeries(ts.sample_rate, ts.t0 + start / ts.sample_rate,
                      x[start:], ts.calibration, ts.center_freq, ts.warnings)


def _exp_model(t, p, work):
    """Values a*exp(-t*inv_tau) + b at p = (a, inv_tau, b) and a jac() that
    fills the (3, t.size) Jacobian.

    work is a (5, t.size) float array that the fit allocates once and
    passes to every call, with the lifetime and operation order of
    _lorentzian_model's.
    """
    a, inv_tau, b = p
    e, m = work[:2]
    j = work[2:]
    np.negative(t, out=e)                    # e = exp(-t * inv_tau)
    e *= inv_tau
    np.exp(e, out=e)
    np.multiply(a, e, out=m)                 # m = a * e + b
    m += b

    def jac():
        j[0] = e
        np.multiply(-a, t, out=j[1])         # -a * t * e
        j[1] *= e
        j[2] = 1.0
        return j

    return m, jac


def fit_exp_decay(ts: TimeSeries, cavity_length: float | None = None,
                  f0: float | None = None) -> FitResult:
    """Fit amplitude*exp(-t/tau) + offset to a decaying record.

    The record must begin at the decay onset (see detect_onset for trimming).
    When cavity_length is given, the equivalent finesse pi*c*tau/L is
    attached; when f0 is given, the mechanical quality factor of an amplitude
    envelope, q = w0*tau/2, is attached.
    """
    if ts.is_complex:
        raise ValueError("fit_exp_decay needs a real record")
    y = np.asarray(ts.values, dtype=float) * ts.calibration
    n = y.size
    if n < 4:
        raise EstimationError(f"a decay fit of 3 parameters needs at least "
                              f"4 samples, got {n}")
    t = np.arange(n) / ts.sample_rate
    n_edge = max(2, n // 10)
    head = float(np.mean(y[:n_edge]))
    tail = float(np.mean(y[-n_edge:]))
    span = float(np.max(y) - np.min(y))
    if span == 0:
        raise EstimationError("record is flat: no decay to fit")
    if head < tail and (tail - head) > 0.02 * max(span, 1e-300):
        raise EstimationError("record trend is rising, not a decay")

    # initial guesses on nondimensional axes
    t_span = t[-1] if t[-1] > 0 else 1.0
    y_scale = span
    offset0 = tail
    amp0 = head - offset0
    drop = (y - offset0) / (amp0 if amp0 != 0 else 1.0)
    idx = np.nonzero(drop < math.exp(-1.0))[0]
    tau0 = t[idx[0]] if idx.size else 0.5 * t_span
    tau0 = min(max(tau0, t_span * 1e-4), t_span * 10.0)

    tn = t / t_span
    vn = y / y_scale
    p0 = np.array([amp0 / y_scale, t_span / tau0, offset0 / y_scale])
    work = np.empty((5, n))
    res = lm_fit(lambda p: _exp_model(tn, p, work), p0, vn,
                 np.ones_like(vn))
    a, inv_tau, b = res.params
    cov = res.cov * (res.cost / (n - 3))

    tau = t_span / inv_tau
    amplitude = a * y_scale
    offset = b * y_scale
    # propagate: tau = t_span/inv_tau -> dtau/dinv_tau = -t_span/inv_tau^2
    dtau = t_span / inv_tau ** 2
    sigma_tau = math.sqrt(max(cov[1, 1], 0.0)) * abs(dtau)
    sigma_amp = math.sqrt(max(cov[0, 0], 0.0)) * y_scale
    sigma_off = math.sqrt(max(cov[2, 2], 0.0)) * y_scale

    converged = res.converged
    warnings = []
    if tau > ts.duration:
        converged = False
        warnings.append("tau_exceeds_record_length")
    if not res.converged:
        warnings.append("max_iterations_reached")

    params = {"tau_s": tau, "amplitude": amplitude, "offset": offset}
    sigmas = {"tau_s": sigma_tau, "amplitude": sigma_amp, "offset": sigma_off}
    if cavity_length is not None:
        params["finesse"] = math.pi * SPEED_OF_LIGHT * tau / cavity_length
        sigmas["finesse"] = math.pi * SPEED_OF_LIGHT * sigma_tau / cavity_length
    if f0 is not None:
        params["q"] = math.pi * f0 * tau
        sigmas["q"] = math.pi * f0 * sigma_tau

    return FitResult(params=params, sigmas=sigmas, converged=converged,
                     n_iter=res.n_iter, warnings=tuple(warnings))


def _tone_phasor(ts: TimeSeries, freq: float):
    """exp(-2j*pi*freq*t) over the whole cycles of freq that ts holds; it
    depends on the record only through its sample rate, length and t0."""
    n, fs = ts.n, ts.sample_rate
    n_cyc = math.floor(freq * n / fs)
    if n_cyc < 1:
        raise EstimationError(f"record too short to demodulate at {freq} Hz")
    n_use = min(int(round(n_cyc * fs / freq)), n)
    return _phasor(freq, ts, 0, n_use)


def _demod(ts: TimeSeries, ph, detect=True):
    """(amplitude, detectable) of the calibrated tone of ts whose phasor is
    ph (_tone_phasor), the mixer's one-block case: whether the tone stands
    above the residual noise; detect=False gives None for detectable."""
    x = np.asarray(ts.values, dtype=float) * ts.calibration
    n_use = ph.size
    xm = x[:n_use] - np.mean(x[:n_use])
    z = 2.0 * _block_means(xm * ph, n_use)[0]
    amp = abs(z)
    if not detect:
        return amp, None
    resid = xm - np.real(z * np.conj(ph))  # subtract the fitted tone
    sigma_tone = float(np.std(resid)) * math.sqrt(2.0 / n_use)
    return amp, amp > 10.0 * sigma_tone


def _log_bin_edges(fmin, fmax, bins_per_decade):
    # top edge strictly above fmax so points on an edge land in a bin
    lo = math.floor(math.log10(fmin) * bins_per_decade + 1e-9)
    hi = math.floor(math.log10(fmax) * bins_per_decade + 1e-9) + 1
    return [10 ** (k / bins_per_decade) for k in range(lo, hi + 1)]


def bin_log_mean(freqs, values_db, bins_per_decade: int,
                 dc_cutoff_hz: float | None = None):
    """Average dB values in logarithmic frequency bins.

    Bin edges sit on the 10^(k/bins_per_decade) grid; bin centers are the
    geometric mean of the member frequencies and the error bar is the
    within-bin sample standard deviation.  With dc_cutoff_hz the mean of all
    bins below the cutoff (falling back to the lowest bin) is subtracted.
    Returns (centers, mean_db, std_db, dc_reference).
    """
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    freqs = np.asarray(freqs, dtype=float)
    values_db = np.asarray(values_db, dtype=float)
    edges = _log_bin_edges(freqs.min(), freqs.max(), bins_per_decade)
    centers, mags, errs = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (freqs >= lo) & (freqs < hi)
        if not mask.any():
            continue
        centers.append(float(np.exp(np.mean(np.log(freqs[mask])))))
        mags.append(float(np.mean(values_db[mask])))
        errs.append(float(np.std(values_db[mask], ddof=1)) if mask.sum() > 1
                    else 0.0)
    centers = np.array(centers)
    mags = np.array(mags)
    dc_reference = 0.0
    if dc_cutoff_hz is not None:
        ref = mags[centers < dc_cutoff_hz]
        if ref.size == 0:
            ref = mags[:1]          # fall back to the lowest bin
        dc_reference = float(np.mean(ref))
        mags = mags - dc_reference
    return centers, mags, np.array(errs), dc_reference


def estimate_transfer(records, bins_per_decade: int = 5,
                      dc_cutoff_hz: float | None = None) -> TransferEstimate:
    """Binned transfer magnitude from a list of DriveRecords.

    Each record is demodulated at its drive frequency; the response/base
    amplitude ratio becomes 20*log10(ratio) dB.  Results are averaged in
    logarithmic bins whose error bar is the within-bin sample standard
    deviation.  If dc_cutoff_hz is given, the mean of all bins below it is
    subtracted so the low-frequency height reads zero, and that offset is
    reported as dc_reference.  Records whose base record shows no detectable
    drive tone are excluded and counted.
    """
    if not records:
        raise ValueError("no records given")
    pts = []
    for rec in records:
        base, resp = rec.base_motion, rec.response_motion
        ph = _tone_phasor(base, rec.drive_freq)
        base_amp, base_ok = _demod(base, ph)
        if not base_ok:
            continue
        if resp.t0 != base.t0:       # sample rate and length already match
            ph = _tone_phasor(resp, rec.drive_freq)
        resp_amp, _ = _demod(resp, ph, detect=False)
        pts.append((rec.drive_freq, 20.0 * math.log10(resp_amp / base_amp)))
    if not pts:
        raise EstimationError("all records were excluded (no drive tone found)")

    centers, mags, errs, dc_reference = bin_log_mean(
        *np.array(pts).T, bins_per_decade, dc_cutoff_hz)
    return TransferEstimate(bin_centers=centers, magnitude_db=mags,
                            errbar_db=errs, dc_reference=dc_reference,
                            n_records=len(records),
                            n_excluded=len(records) - len(pts))
