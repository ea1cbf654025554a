"""Independent oracles used by the test suite.

These deliberately avoid the library code paths they check: a fixed-step
RK4 integration of the coupled equations of motion, adaptive quadrature
for spectral integrals, brute-force scans for extrema, the whole-record
mechanical ringdown that the chunked synthesis must reproduce bit for
bit, the baseband and band-centered Brownian records each as one
sequential recursion over the whole record, the Welch
average with fresh arrays for every segment, the transfer estimate with
its own whole-array tone phasor per demodulated record, and the
side-of-fringe lock as one per-step loop over the whole record.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad

from optomech import mech as _mech
from optomech.cavity import fringe_response
from optomech import synth as _synth
from optomech.estimate import _WINDOWS, TransferEstimate, bin_log_mean
from optomech.io import read_whole
from optomech.synth import TimeSeries, synth_brownian


def rk4_chain_amplitudes(outer, inner, mass_ratio, freqs, settle_taus=9.0,
                         cycles=3.0, steps_per_period=180):
    """Steady-state |x_inner| per unit base amplitude, by direct integration.

    Drives the two-mass chain with a unit sinusoidal base motion at each
    frequency, integrates with fixed-step RK4 until transients decay, and
    measures the response amplitude with a Hann-weighted IQ demodulation
    over the last few drive cycles.  Vectorised across frequencies.
    """
    freqs = np.asarray(freqs, dtype=float)
    w1s, w2s = outer.omega0 ** 2, inner.omega0 ** 2
    g1, g2 = outer.gamma, inner.gamma
    mu = mass_ratio
    wd = 2.0 * np.pi * freqs
    f_max = max(freqs.max(), inner.f0)
    dt = 1.0 / (steps_per_period * f_max)
    tau = max(2.0 * outer.q / outer.omega0, 2.0 * inner.q / inner.omega0)
    t_meas = cycles / freqs
    t_total = settle_taus * tau + t_meas.max()
    n = int(np.ceil(t_total / dt))
    t_start = t_total - t_meas

    def deriv(t, s):
        x1, v1, x2, v2 = s
        xb = np.sin(wd * t)
        vb = wd * np.cos(wd * t)
        a1 = (-w1s * (x1 - xb) - g1 * (v1 - vb)
              + mu * w2s * (x2 - x1) + mu * g2 * (v2 - v1))
        a2 = -w2s * (x2 - x1) - g2 * (v2 - v1)
        return np.array([v1, a1, v2, a2])

    s = np.zeros((4, freqs.size))
    acc = np.zeros(freqs.size, dtype=complex)
    wsum = np.zeros(freqs.size)
    t = 0.0
    for _ in range(n):
        k1 = deriv(t, s)
        k2 = deriv(t + dt / 2, s + dt / 2 * k1)
        k3 = deriv(t + dt / 2, s + dt / 2 * k2)
        k4 = deriv(t + dt, s + dt * k3)
        s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        rel = (t - t_start) / t_meas
        mask = (rel >= 0.0) & (rel <= 1.0)
        if mask.any():
            wgt = 0.5 - 0.5 * np.cos(2 * np.pi * np.clip(rel, 0.0, 1.0))
            wgt[~mask] = 0.0
            acc += wgt * s[2] * np.exp(-1j * wd * t)
            wsum += wgt
    return 2.0 * np.abs(acc) / np.maximum(wsum, 1e-300)


def integrate_psd(psd_func, f0):
    """Quadrature of a one-sided PSD with a sharp line at f0, over [0, inf)."""
    total = 0.0
    v, _ = quad(psd_func, 0.0, 2.0 * f0, points=[f0], limit=2000,
                epsabs=0.0, epsrel=1e-10)
    total += v
    v, _ = quad(psd_func, 2.0 * f0, np.inf, limit=2000, epsabs=0.0,
                epsrel=1e-10)
    return total + v


def scan_maximum(func, lo, hi, n_coarse=20001, n_refine=3):
    """Location of the maximum of func on [lo, hi] by iterated dense scans."""
    for _ in range(n_refine):
        x = np.linspace(lo, hi, n_coarse)
        y = func(x)
        i = int(np.argmax(y))
        lo = x[max(i - 2, 0)]
        hi = x[min(i + 2, n_coarse - 1)]
    return 0.5 * (lo + hi)


def full_array_demodulate(ts, f0, cycles_per_block=10):
    """In-phase lock-in envelope of ts, mixing the whole record in one
    array: twice the real part of the block means turned by the phase of
    their sum."""
    n_blk = int(round(cycles_per_block * ts.sample_rate / f0))
    if n_blk < 2:
        raise ValueError("too few samples per demodulation block")
    n_out = ts.n // n_blk
    if n_out < 2:
        raise ValueError("record too short for envelope demodulation")
    t = ts.times[:n_out * n_blk]
    x = np.asarray(ts.values[:n_out * n_blk], dtype=float)
    z = x * np.exp(-1j * 2.0 * np.pi * f0 * t)
    means = z.reshape(n_out, n_blk).mean(axis=1)
    env = 2.0 * (means * np.exp(-1j * np.angle(means.sum()))).real
    return TimeSeries(ts.sample_rate / n_blk,
                      ts.t0 + 0.5 * n_blk / ts.sample_rate, env, ts.calibration)


def full_array_mech_ringdown(mode, sample_rate, duration, x0, seed,
                             snr=np.inf, envelope_cycles=10):
    """(raw, envelope): the mechanical ringdown built as one array, then
    demodulated whole."""
    if sample_rate < 8.0 * mode.f0:
        raise ValueError("sample_rate must be >= 8*f0 to resolve the carrier")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration too short for the sample rate")
    t = np.arange(n) / sample_rate
    tau_a = 2.0 * mode.q / mode.omega0
    values = x0 * np.exp(-t / tau_a) * np.cos(mode.omega0 * t)
    if np.isfinite(snr):
        rng = np.random.default_rng(seed)
        values = values + (x0 / snr) * rng.standard_normal(n)
    raw = TimeSeries(sample_rate, 0.0, values, calibration=1.0)
    return raw, full_array_demodulate(raw, mode.f0, envelope_cycles)


def sequential_envelope_brownian(mode, sample_rate, duration, seed,
                                 noise_floor=0.0):
    """synth_brownian's band-centered record at center_freq = mode.f0, as
    one sequential loop z[k] = mu*z[k-1] + eta[k] over the whole record,
    from the same draws: the drive and the floor streams spawned from the
    seed, z[0] at the stationary rms and eta at rms*sqrt(1 - |mu|**2) per
    quadrature."""
    n = int(round(duration * sample_rate))
    dt = 1.0 / sample_rate
    omega1 = mode.omega0 * math.sqrt(1.0 - (0.5 / mode.q) ** 2)
    p_dt = complex(-mode.gamma / 2.0, omega1 - 2.0 * math.pi * mode.f0) * dt
    mu = cmath.exp(p_dt)
    drive, floor = np.random.default_rng(seed).spawn(2)
    eta = drive.standard_normal(2 * n).view(complex)
    rms = _mech.thermal_rms(mode)
    eta[0] *= rms
    eta[1:] *= rms * math.sqrt(-math.expm1(2.0 * p_dt.real))
    z, y = [], 0j
    for e in eta.tolist():
        y = mu * y + e
        z.append(y)
    z = np.array(z)
    if noise_floor > 0:
        z += (math.sqrt(noise_floor * sample_rate)
              * floor.standard_normal(2 * n).view(complex))
    return TimeSeries(sample_rate, 0.0, z, center_freq=mode.f0,
                      warnings=_warnings(mode, duration))


def _warnings(mode, duration):
    """synth_brownian's warnings for a record of this duration."""
    if duration * mode.f0 / mode.q < 10.0:
        return ("duration_too_short_to_resolve_linewidth",)
    return ()


def sequential_baseband_brownian(mode, sample_rate, duration, seed,
                                 noise_floor=0.0):
    """synth_brownian's baseband record as one sequential loop over the
    whole record, sample by sample, from the same draws: the drive and
    the floor streams spawned from the seed, each drive pair (xi0, xi1)
    made (a*xi0, c*xi1 + b*xi0), the lanes stepped by their poles (the
    second also by the coupling times the first's previous state), and x
    = w0*lane0 + w1*lane1 plus the floor at rms sqrt(noise_floor*fs/2).
    The recursion's coefficients are _baseband_recursion's, which
    test_baseband_coefficients_are_the_exact_discretisation checks
    against the matrix exponential."""
    n = int(round(duration * sample_rate))
    p_dts, first, step, coupling, (w0, w1) = _synth._baseband_recursion(
        mode, sample_rate)
    drive, floor = np.random.default_rng(seed).spawn(2)
    xi = drive.standard_normal((n, 2)).tolist()
    mus = [cmath.exp(p) if isinstance(p, complex) else math.exp(p)
           for p in p_dts]
    x = np.empty(n)
    lanes = [p * 0 for p in p_dts]
    for k, (xi0, xi1) in enumerate(xi):
        a, b, c = first if k == 0 else step
        e0, e1 = a * xi0, c * xi1 + b * xi0
        if len(mus) == 1:
            y = lanes[0] = mus[0] * lanes[0] + complex(e0, e1)
            pair = (y.real, y.imag)
        else:
            u_prev = lanes[0]
            lanes[0] = mus[0] * lanes[0] + e0
            lanes[1] = mus[1] * lanes[1] + (e1 + coupling * u_prev)
            pair = lanes
        x[k] = pair[0] * w0 + pair[1] * w1
    if noise_floor > 0:
        x += math.sqrt(0.5 * noise_floor * sample_rate) * floor.standard_normal(n)
    return TimeSeries(sample_rate, 0.0, x, warnings=_warnings(mode, duration))


def whole_array_welch(ts, segment_len, overlap_frac=0.5, window="hann"):
    """(freqs, psd) of welch_psd, with each segment windowed, transformed
    and squared into new arrays."""
    x = ts.values
    fs = ts.sample_rate
    hop = max(1, int(round(segment_len * (1.0 - overlap_frac))))
    w = _WINDOWS[window](segment_len)
    sw2 = float(np.sum(w * w))
    starts = range(0, x.size - segment_len + 1, hop)
    if ts.is_complex:
        acc = np.zeros(segment_len)
        for s in starts:
            seg = x[s:s + segment_len] * w
            acc += np.abs(np.fft.fft(seg)) ** 2
        acc /= len(starts)
        psd = np.fft.fftshift(acc) / (fs * sw2) / 2.0
        freqs = ts.center_freq + np.fft.fftshift(
            np.fft.fftfreq(segment_len, 1.0 / fs))
        return freqs, psd
    acc = np.zeros(segment_len // 2 + 1)
    for s in starts:
        seg = x[s:s + segment_len] * w
        acc += np.abs(np.fft.rfft(seg)) ** 2
    acc /= len(starts)
    psd = acc * 2.0 / (fs * sw2)
    psd[0] /= 2.0
    if segment_len % 2 == 0:
        psd[-1] /= 2.0
    return np.fft.rfftfreq(segment_len, 1.0 / fs), psd


def whole_array_demod(ts, freq):
    """(amplitude, detectable) of the tone at freq in ts: the whole cycles
    of the mean-subtracted record mixed with their own phasor, and the tone
    compared to the residual left after subtracting it."""
    n, fs = ts.n, ts.sample_rate
    n_use = min(int(round(math.floor(freq * n / fs) * fs / freq)), n)
    x = np.asarray(ts.values, dtype=float) * ts.calibration
    xm = x[:n_use] - np.mean(x[:n_use])
    ph = np.exp(-1j * 2.0 * np.pi * freq * (ts.t0 + np.arange(n_use) / fs))
    z = 2.0 * np.mean(xm * ph)
    resid = xm - np.real(z * np.conj(ph))
    sigma_tone = float(np.std(resid)) * math.sqrt(2.0 / n_use)
    return abs(z), abs(z) > 10.0 * sigma_tone


def per_record_transfer(records, bins_per_decade=5, dc_cutoff_hz=None):
    """estimate_transfer with each base and response record demodulated
    whole by whole_array_demod, so no tone phasor is shared between the two
    and no demodulation code of the library is used."""
    pts, n_excluded = [], 0
    for rec in records:
        base_amp, base_ok = whole_array_demod(rec.base_motion, rec.drive_freq)
        if not base_ok:
            n_excluded += 1
            continue
        resp_amp, _ = whole_array_demod(rec.response_motion, rec.drive_freq)
        pts.append((rec.drive_freq, 20.0 * math.log10(resp_amp / base_amp)))
    freqs = np.array([p[0] for p in pts])
    dbs = np.array([p[1] for p in pts])
    centers, mags, errs, dc_reference = bin_log_mean(
        freqs, dbs, bins_per_decade, dc_cutoff_hz)
    return TransferEstimate(bin_centers=centers, magnitude_db=mags,
                            errbar_db=errs, dc_reference=dc_reference,
                            n_records=len(records), n_excluded=n_excluded)


def whole_list_simulate_lock(model, cav, cfg, duration, seed):
    """simulate_lock as one per-step loop over the whole record as a list
    of Python floats: every run, the open loop's included, writes error,
    actuator and detuning one element at a time over all n steps."""
    fs = cfg.loop_rate
    dt = 1.0 / fs
    x = read_whole(synth_brownian(model.outer, fs, duration, seed)).values
    x = x.tolist()
    n = len(x)
    hz_per_m = 2.0 * cav.fsr / cav.wavelength
    lw = cav.linewidth_fwhm
    bias = cfg.detuning_bias
    setpoint = float(fringe_response(bias, cav))
    u_init = x[0]
    rng_range = cfg.actuator_range

    def run(kp, ki, kd):
        errs = np.empty(n)
        us = np.empty(n)
        dets = np.empty(n)
        u = u_init
        integ = 0.0
        e_prev = 0.0
        n_sat = 0
        for i in range(n):
            delta = bias + hz_per_m * (x[i] - u)
            r = 2.0 * delta / lw
            e = 1.0 / (1.0 + r * r) - setpoint
            errs[i] = e
            us[i] = u
            dets[i] = delta
            integ += ki * e * dt
            u = u_init + kp * e + integ + kd * (e - e_prev) / dt
            e_prev = e
            if u > rng_range:
                u = rng_range
                n_sat += 1
            elif u < -rng_range:
                u = -rng_range
                n_sat += 1
        return errs, us, dets, n_sat

    def tail_std(arr):
        return float(np.std(arr[int(round(arr.size * 0.8)):]))

    open_errs, _, open_dets, _ = run(0.0, 0.0, 0.0)
    errs, us, dets, n_sat = run(cfg.kp, cfg.ki, cfg.kd)
    open_rms = tail_std(open_errs)
    closed_rms = tail_std(errs)
    sat_frac = n_sat / n
    return {"error_signal": errs, "actuator": us, "detuning": dets,
            "lock_acquired": closed_rms <= 0.1 * open_rms and sat_frac <= 0.01,
            "saturation_fraction": sat_frac,
            "open_loop_error_rms": open_rms,
            "closed_loop_error_rms": closed_rms,
            "open_loop_detuning_rms": tail_std(open_dets),
            "closed_loop_detuning_rms": tail_std(dets)}
