"""Deterministic, seeded generation of synthetic measurement records.

Covers every bench experiment the analysis pipeline consumes: Brownian
motion of a mode (baseband or band-centered complex envelope), optical and
mechanical ringdowns, driven transfer-function sweeps, and the nonlinear
side-of-fringe optical transduction.  All generators are pure functions of
(inputs, seed): the same call returns a bit-identical record.

One lock-in mixer serves synthesis and analysis: _phasor builds
exp(-2j*pi*f*t) and _block_means averages a record times it over blocks,
many a run for the mechanical envelope, one a record in estimate_transfer.

Memory is bounded by the records themselves.  The band-centered Brownian
record is built and inverse transformed in its one complex array, _CHUNK
bins at a time (pocketfft's own scratch aside).  The mechanical ringdown
is never held whole: synth_mech_ringdown returns a BlockSeries that
regenerates it from the seed, a chunk at a time, on every read, and
demodulate_envelope cuts the blocks of any record into runs of whole
demodulation blocks, so the ringdown, its envelope and its written record
(io.write_timeseries) each take a few MB at any record length.  The
baseband Brownian path still builds its spectrum from whole-array
temporaries.
"""

import contextlib
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import cavity as _cavity
from . import mech as _mech
from .mech import TWO_PI, MechMode, NestedModel

# samples per chunk of a streamed record: a chunk and its temporaries stay
# a few MB at any record length
_CHUNK = 1 << 17


def _chunks(n: int):
    """(start, stop) of consecutive _CHUNK-sample slices covering n samples."""
    for start in range(0, n, _CHUNK):
        yield start, min(start + _CHUNK, n)


def _all_finite(values) -> bool:
    """Whether every value is finite, checked a chunk at a time: no
    record-sized mask beside the record."""
    return all(np.isfinite(values[start:stop]).all()
               for start, stop in _chunks(values.size))


def _check_record(rec, n):
    """The metadata of a TimeSeries or BlockSeries: finite, with a
    positive sample rate, and at least 2 samples."""
    for name in ("sample_rate", "t0", "calibration", "center_freq"):
        if not math.isfinite(getattr(rec, name)):
            raise ValueError(f"{name} must be finite, got {getattr(rec, name)}")
    if not rec.sample_rate > 0:
        raise ValueError(f"sample_rate must be > 0, got {rec.sample_rate}")
    if n < 2:
        raise ValueError("a TimeSeries needs at least 2 samples")


def _phasor(f: float, rec, start: int, stop: int, out=None):
    """The mixing phasor exp(-2j*pi*f*t) at the times of samples [start,
    stop) of rec, t = rec.t0 + np.arange(start, stop) / rec.sample_rate, as
    a new complex array or in the complex array out."""
    t = np.arange(start, stop, dtype=float)
    t /= rec.sample_rate
    t += rec.t0
    z = np.multiply(-1j * TWO_PI * f, t, out=out)
    return np.exp(z, out=z)


def _block_means(z, n_blk: int):
    """Complex means of a mixed record z, a record times its phasor, over
    consecutive n_blk-sample blocks."""
    return z.reshape(-1, n_blk).mean(axis=1)


@dataclass
class TimeSeries:
    """Uniformly sampled record.

    values are displacement in meters (or detector units with a calibration
    factor in m per unit).  center_freq > 0 marks a complex-envelope record
    z(t) whose physical signal is Re[z(t) * exp(2j*pi*center_freq*t)];
    baseband records are real with center_freq = 0.
    """

    sample_rate: float
    t0: float
    values: np.ndarray
    calibration: float = 1.0
    center_freq: float = 0.0
    warnings: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values)
        _check_record(self, self.values.size)
        if not _all_finite(self.values):
            raise ValueError("TimeSeries values must be finite")

    @property
    def n(self):
        return self.values.size

    @property
    def duration(self):
        return self.n / self.sample_rate

    @property
    def times(self):
        return self.t0 + np.arange(self.n) / self.sample_rate

    @property
    def is_complex(self):
        return np.iscomplexobj(self.values)

    def blocks(self):
        """The values as one block, the array itself (see BlockSeries)."""
        yield self.values


@dataclass
class BlockSeries:
    """A uniformly sampled record read in order, one block of samples at a
    time, so that it is never held whole (io.open_timeseries,
    synth_mech_ringdown).

    blocks() returns a generator of 1-D arrays of dtype that together hold
    the n samples, in order; each block is valid only until the next one is
    requested.  The other fields mean what they mean on TimeSeries, and
    welch_psd, demodulate_envelope and io.write_timeseries take either.
    """

    sample_rate: float
    t0: float
    n: int
    dtype: np.dtype
    blocks: Callable
    calibration: float = 1.0
    center_freq: float = 0.0
    warnings: tuple = ()

    def __post_init__(self):
        self.dtype = np.dtype(self.dtype)
        _check_record(self, self.n)

    @property
    def is_complex(self):
        return self.dtype.kind == "c"


@dataclass
class DriveRecord:
    """Base and response motion measured while driving at a single frequency."""

    drive_freq: float
    base_motion: TimeSeries
    response_motion: TimeSeries

    def __post_init__(self):
        if not 0 < self.drive_freq < math.inf:
            raise ValueError(f"drive_freq must be finite and > 0, got "
                             f"{self.drive_freq}")
        if self.base_motion.sample_rate != self.response_motion.sample_rate:
            raise ValueError("base and response must share a sample rate")
        if self.base_motion.n != self.response_motion.n:
            raise ValueError("base and response must have equal length")


def synth_brownian(mode: MechMode, sample_rate: float, duration: float,
                   seed: int, noise_floor: float = 0.0,
                   center_freq: float | None = None,
                   calibration: float = 1.0) -> TimeSeries:
    """Stationary Gaussian record whose PSD is thermal_psd(f) + noise_floor.

    Synthesis shapes a white Gaussian spectrum by sqrt of the target PSD and
    inverse transforms, so the target is hit exactly in expectation with no
    integrator bias even at Q ~ 1e5.

    With center_freq set, the record is a complex envelope covering
    [center_freq - sample_rate/2, center_freq + sample_rate/2]; use this for
    narrow lines where a baseband record would be enormous.
    """
    if noise_floor < 0:
        raise ValueError("noise_floor must be >= 0")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration too short for the sample rate")
    rng = np.random.default_rng(seed)
    warnings = ()
    if duration * mode.f0 / mode.q < 10.0:
        warnings = ("duration_too_short_to_resolve_linewidth",)

    if center_freq is None:
        if sample_rate <= 4.0 * mode.f0:
            raise ValueError("baseband synthesis needs sample_rate > 4*f0; "
                             "use center_freq for a band-centered record")
        freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
        target = _mech.thermal_psd(freqs, mode) + noise_floor
        a = rng.standard_normal(freqs.size)
        b = rng.standard_normal(freqs.size)
        amp = np.sqrt(target * sample_rate * n)
        spec = (a + 1j * b) * (amp / 2.0)
        spec[0] = a[0] * amp[0]                  # DC and Nyquist bins are real
        if n % 2 == 0:
            spec[-1] = a[-1] * amp[-1]
        values = np.fft.irfft(spec, n)
        return TimeSeries(sample_rate, 0.0, values, calibration, 0.0, warnings)

    if center_freq - sample_rate / 2.0 <= 0:
        raise ValueError("envelope band must lie at positive frequencies")
    # The spectrum is built in place, _CHUNK bins at a time: the amplitude
    # goes into spec.imag, the a draws into spec.real, then the b draws
    # replace the amplitude they multiply.  Chunked draws from one
    # default_rng stream equal one whole draw, and each element has the bits
    # of (a + 1j*b) * sqrt(target*fs*n/2) over whole arrays.
    spec = np.empty(n, dtype=np.complex128)
    df = 1.0 / (n * (1.0 / sample_rate))        # np.fft.fftfreq's bin width
    for start, stop in _chunks(n):
        f = np.arange(start, stop, dtype=float)
        f[f >= (n - 1) // 2 + 1] -= n            # fftfreq's bin order
        f *= df
        f += center_freq
        amp = _mech.thermal_psd(f, mode)
        amp += noise_floor
        amp *= 2.0
        amp *= sample_rate
        amp *= n
        amp /= 2.0
        spec.imag[start:stop] = np.sqrt(amp, out=amp)
    for start, stop in _chunks(n):
        np.multiply(rng.standard_normal(stop - start), spec.imag[start:stop],
                    out=spec.real[start:stop])
    for start, stop in _chunks(n):
        spec.imag[start:stop] *= rng.standard_normal(stop - start)
    values = np.fft.ifft(spec, out=spec)
    return TimeSeries(sample_rate, 0.0, values, calibration, center_freq,
                      warnings)


def synth_optical_ringdown(cav: _cavity.Cavity, sample_rate: float,
                           duration: float, snr: float, seed: int,
                           p0: float = 1.0) -> TimeSeries:
    """Transmitted power after shutoff at t=0: p0*exp(-t/tau) plus white noise.

    The additive Gaussian noise has rms p0/snr; pass snr=inf for a clean
    exponential.
    """
    tau = cav.decay_tau
    if sample_rate < 20.0 / tau:
        raise ValueError("sample_rate must be >= 20/decay_tau")
    if duration < 5.0 * tau:
        raise ValueError("duration must be >= 5*decay_tau")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    values = p0 * np.exp(-t / tau)
    if np.isfinite(snr):
        rng = np.random.default_rng(seed)
        values = values + (p0 / snr) * rng.standard_normal(n)
    return TimeSeries(sample_rate, 0.0, values, calibration=1.0)


def synth_mech_ringdown(mode: MechMode, sample_rate: float, duration: float,
                        x0: float, seed: int,
                        snr: float = np.inf) -> BlockSeries:
    """Free decay x(t) = x0*exp(-t/tau_a)*cos(w0*t) with tau_a = 2*Q/w0,
    plus white noise of rms x0/snr: the raw record of a lock-in amplitude
    measurement (demodulate_envelope).

    The record is a BlockSeries that every blocks() call regenerates from
    the seed, a _CHUNK-sample block at a time in two work arrays, so it is
    never held whole.  Chunked standard_normal draws from one default_rng
    stream are bit-identical to one draw of the whole record, and each
    sample has the bits of the whole-array expressions in the comments.
    """
    if sample_rate < 8.0 * mode.f0:
        raise ValueError("sample_rate must be >= 8*f0 to resolve the carrier")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration too short for the sample rate")
    tau_a = 2.0 * mode.q / mode.omega0

    def blocks():
        rng = np.random.default_rng(seed)
        work = np.empty((2, min(n, _CHUNK)))
        for start, stop in _chunks(n):
            x, t = work[:, :stop - start]
            # x = x0 * np.exp(-t / tau_a) * np.cos(mode.omega0 * t) with
            # t = np.arange(n) / sample_rate, plus
            # (x0 / snr) * rng.standard_normal(n) if snr is finite
            np.divide(np.arange(start, stop), sample_rate, out=t)
            np.negative(t, out=x)
            x /= tau_a
            np.exp(x, out=x)
            x *= x0
            t *= mode.omega0
            x *= np.cos(t, out=t)
            if np.isfinite(snr):
                rng.standard_normal(out=t)
                t *= x0 / snr
                x += t
            yield x

    return BlockSeries(sample_rate, 0.0, n, float, blocks)


def demodulate_envelope(rec, f0: float,
                        cycles_per_block: int = 10) -> TimeSeries:
    """Lock-in amplitude envelope of an oscillation at f0 in a real
    TimeSeries or BlockSeries.

    The record is mixed down at f0 and averaged over blocks of an integer
    number of carrier cycles; the output sample rate drops by the block
    length.  It is read once, in order (rec.blocks()), in runs of whole
    blocks, about _CHUNK samples but at least one block: each run's phasor
    is built in one reused array, multiplied in place by the samples as the
    blocks hand them over, and reduced to its block means at once.
    Samples past the last whole block are never mixed.
    """
    if rec.is_complex:
        raise ValueError("envelope demodulation needs a real record")
    fs = rec.sample_rate
    n_blk = int(round(cycles_per_block * fs / f0))
    if n_blk < 2:
        raise ValueError("too few samples per demodulation block")
    n_out = rec.n // n_blk
    if n_out < 2:
        raise ValueError("record too short for envelope demodulation")
    n_use = n_out * n_blk
    z = np.empty(min(max(1, _CHUNK // n_blk) * n_blk, n_use), complex)
    env = np.empty(n_out)
    start = fill = 0            # run[:fill]: samples start + [0, fill), mixed
    with contextlib.closing(rec.blocks()) as blocks:
        for block in blocks:
            block = block[:n_use - start - fill]
            while block.size:
                if not fill:
                    run = z[:min(z.size, n_use - start)]
                    _phasor(f0, rec, start, start + run.size, out=run)
                take = min(run.size - fill, block.size)
                part = run[fill:fill + take]
                np.multiply(block[:take], part, out=part)
                block = block[take:]
                fill += take
                if fill == run.size:
                    means = _block_means(run, n_blk)
                    k = start // n_blk
                    env[k:k + means.size] = 2.0 * np.abs(means)
                    start, fill = start + fill, 0
    return TimeSeries(fs / n_blk, rec.t0 + 0.5 * n_blk / fs, env,
                      rec.calibration)


def _steady_state_response(freq_hz, model, mass_ratio):
    """Complex displacement ratio response/base at one drive frequency."""
    w = TWO_PI * freq_hz
    if isinstance(model, NestedModel):
        if mass_ratio is None:
            raise ValueError("mass_ratio is required for a NestedModel sweep")
        return _mech.chain_response(w, model, mass_ratio)
    mode = model
    w02 = mode.omega0 ** 2
    return w02 / (w02 - w * w + 1j * mode.gamma * w)


def synth_drive_sweep(model, freqs, amplitude: float, cycles_per_point: int = 200,
                      seed: int = 0, mass_ratio: float | None = None,
                      samples_per_cycle: int = 32,
                      base_noise_rms: float = 0.0,
                      response_noise_rms: float = 0.0,
                      piezo_corner_hz: float | None = None) -> list:
    """Swept-sine vibration transmission experiment.

    For each drive frequency the base motion is a pure sine and the response
    is the steady-state chain output plus measurement noise; records start
    after the transient, i.e. each one is pure steady state.  model is a
    NestedModel (needs mass_ratio) or a single MechMode.  piezo_corner_hz
    optionally rolls off the drive amplitude with a first-order low pass,
    which affects base and response alike.
    """
    freqs = list(freqs)
    if any(f <= 0 for f in freqs):
        raise ValueError("drive frequencies must be > 0")
    if sorted(freqs) != freqs:
        raise ValueError("drive frequencies must be sorted ascending")
    if cycles_per_point < 50:
        raise ValueError("cycles_per_point must be >= 50")
    rng = np.random.default_rng(seed)
    records = []
    for f in freqs:
        fs = samples_per_cycle * f
        n = samples_per_cycle * cycles_per_point
        t = np.arange(n) / fs
        drive_amp = amplitude
        if piezo_corner_hz is not None:
            drive_amp = amplitude / math.sqrt(1.0 + (f / piezo_corner_hz) ** 2)
        h = _steady_state_response(f, model, mass_ratio)
        phase = TWO_PI * f * t
        base = drive_amp * np.sin(phase)
        resp = drive_amp * np.abs(h) * np.sin(phase + np.angle(h))
        if base_noise_rms > 0:
            base = base + base_noise_rms * rng.standard_normal(n)
        if response_noise_rms > 0:
            resp = resp + response_noise_rms * rng.standard_normal(n)
        records.append(DriveRecord(
            drive_freq=f,
            base_motion=TimeSeries(fs, 0.0, base),
            response_motion=TimeSeries(fs, 0.0, resp),
        ))
    return records


def transduce_side_of_fringe(x: TimeSeries, cav: _cavity.Cavity,
                             operating_detuning: float) -> TimeSeries:
    """Map displacement to detector signal through the full Lorentzian fringe.

    Mirror motion shifts the cavity resonance by cav.hz_per_m
    (2*fsr/wavelength); the output is the transmitted-power fringe evaluated
    at operating_detuning plus that shift, nonlinearity included.
    """
    if x.is_complex:
        raise ValueError("fringe transduction needs a real (baseband) record")
    delta = operating_detuning + cav.hz_per_m * (x.values * x.calibration)
    out = _cavity.fringe_response(delta, cav)
    return TimeSeries(x.sample_rate, x.t0, out, calibration=1.0)
