"""Per-layer tracing from outside the program.

Run as a script, this replays one ``optomech`` command in process with
every public function of each layer module wrapped in a span, then writes
the spans to a JSON file::

    PYTHONPATH=src python3 bench/tracer.py spans.json analyze q brownian.csv

A span is (name, start, end, parent index, counts).  ``counts`` holds the
work the call did, read from its arguments and return value.  The wrappers
replace the function at every attribute where callers look it up, including
names imported into other modules (``optomech.servo.synth_brownian``,
``optomech.estimate.lm_fit``).

``layer_metrics`` turns the spans of a pass into the per-layer metrics.
"""

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "config", "io", "synth", "estimate", "fitting", "servo",
          "mech", "cavity")
ROOT_SPAN = "cli.main"


def _samples(ret):
    if hasattr(ret, "raw"):                          # MechRingdown
        return ret.raw.n + ret.envelope.n
    if isinstance(ret, list):                        # drive records
        return sum(r.base_motion.n + r.response_motion.n for r in ret)
    return ret.n


_IO_WRITE = ("write_timeseries_csv", "write_timeseries_bin",
             "write_driverecord_csv", "write_result_doc", "write_table_csv")
_IO_READ = ("read_timeseries_csv", "read_timeseries_bin",
            "read_driverecord_csv", "read_result_doc")

# name -> function(args, kwargs, return value) -> counts
COUNTERS = {f"io.{n}": lambda a, k, r: {"bytes": os.path.getsize(a[0]),
                                        "files": 1}
            for n in _IO_WRITE}
COUNTERS.update({f"io.{n}": lambda a, k, r: {"bytes": os.path.getsize(a[0])}
                 for n in _IO_READ})
COUNTERS.update({f"synth.{n}": lambda a, k, r: {"samples": _samples(r)}
                 for n in ("synth_brownian", "synth_optical_ringdown",
                           "synth_mech_ringdown", "synth_drive_sweep")})
COUNTERS.update({
    "estimate.welch_psd": lambda a, k, r: {"segments": r.n_avg},
    "estimate.estimate_transfer": lambda a, k, r: {"records": len(a[0])},
    "fitting.lm_fit": lambda a, k, r: {
        "iters": r.n_iter, "points": len(a[2]), "converged": int(r.converged)},
    # simulate_lock runs the loop twice: open, then closed
    "servo.simulate_lock": lambda a, k, r: {
        "steps": 2 * r.error_signal.n, "acquired": int(r.lock_acquired),
        "saturation": r.saturation_fraction},
})


class Tracer:
    """Keeps the spans of one process in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = [name, start, end, parent, {}]
            if counter is not None:
                self.spans[idx][4] = counter(args, kwargs, ret)
            return ret

        return traced

    def install(self):
        """Wrap every public layer function wherever optomech names it."""
        import optomech.cli  # noqa: F401  (imports every layer)
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"optomech.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        modules = [m for n, m in sys.modules.items()
                   if n == "optomech" or n.startswith("optomech.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


_ESTIMATE_GROUPS = {"welch_psd": "welch_psd", "fit_lorentzian": "fit",
                    "fit_exp_decay": "fit", "detect_onset": "fit",
                    "estimate_transfer": "transfer", "bin_log_mean": "transfer",
                    "demod_amplitude": "transfer"}


def _group(spans, i):
    """The metric a span's self time counts toward.

    A span counts toward the group of its outermost caller in the same layer,
    so ``demod_amplitude`` under ``estimate_transfer`` is transfer time and
    ``write_timeseries_csv`` under ``write_timeseries`` is record writing.
    """
    layer = spans[i][0].split(".")[0]
    while spans[i][3] >= 0 and spans[spans[i][3]][0].split(".")[0] == layer:
        i = spans[i][3]
    func = spans[i][0].split(".", 1)[1]
    if layer == "io":
        if func.startswith("read"):
            return "io.read"
        return "io.table_write" if func == "write_table_csv" else "io.write"
    if layer == "estimate":
        return "estimate." + _ESTIMATE_GROUPS.get(func, "fit")
    return {"fitting": "fitting.lm_fit", "servo": "servo.simulate_lock"}.get(
        layer, layer)


TIME_GROUPS = ("cli", "config", "io.write", "io.read", "io.table_write",
               "synth", "estimate.welch_psd", "estimate.fit",
               "estimate.transfer", "fitting.lm_fit", "servo.simulate_lock",
               "mech", "cavity")


def layer_metrics(commands):
    """Per-layer metrics of one traced pass.

    ``commands`` holds, per command, its child wall time and its spans.
    Self times are summed per group; ``cli.startup.s`` is each child's wall
    time outside its root span (interpreter start, imports, wrapping).
    """
    secs = dict.fromkeys(TIME_GROUPS, 0.0)
    counts = {}
    startup = 0.0
    for wall, spans in commands:
        root = [s for s in spans if s[0] == ROOT_SPAN and s[3] < 0]
        startup += wall - sum(s[2] - s[1] for s in root)
        for i, own in enumerate(self_times(spans)):
            secs[_group(spans, i)] += own
        for name, _, _, _, c in spans:
            for key, val in c.items():
                counts[(name, key)] = counts.get((name, key), 0) + val

    def total(names, key):
        return sum(counts.get((n, key), 0) for n in names)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    write_names = [f"io.{n}" for n in _IO_WRITE if n != "write_table_csv"]
    read_names = [f"io.{n}" for n in _IO_READ]
    synth_names = [n for n in COUNTERS if n.startswith("synth.")]
    lm_calls = sum(1 for _, spans in commands for s in spans
                   if s[0] == "fitting.lm_fit")
    synth_calls = sum(1 for _, spans in commands for s in spans
                      if s[0].startswith("synth."))
    locks = sum(1 for _, spans in commands for s in spans
                if s[0] == "servo.simulate_lock")
    m = {f"{g}.s": secs[g] for g in TIME_GROUPS}
    m.update({
        "io.write.mb": total(write_names, "bytes") / 1e6,
        "io.files_written": total(write_names + ["io.write_table_csv"], "files"),
        "io.read.mb": total(read_names, "bytes") / 1e6,
        "io.table_write.mb": counts.get(("io.write_table_csv", "bytes"), 0) / 1e6,
        "synth.calls": synth_calls,
        "synth.samples": total(synth_names, "samples"),
        "estimate.welch_psd.segments": counts.get(
            ("estimate.welch_psd", "segments"), 0),
        "estimate.transfer.records": counts.get(
            ("estimate.estimate_transfer", "records"), 0),
        "fitting.lm_fit.calls": lm_calls,
        "fitting.lm_fit.iters": counts.get(("fitting.lm_fit", "iters"), 0),
        "fitting.lm_fit.points": counts.get(("fitting.lm_fit", "points"), 0),
        "fitting.lm_fit.converged_frac": rate(
            counts.get(("fitting.lm_fit", "converged"), 0), lm_calls),
        "servo.steps": counts.get(("servo.simulate_lock", "steps"), 0),
        "servo.acquired_frac": rate(
            counts.get(("servo.simulate_lock", "acquired"), 0), locks),
        "servo.saturation_frac": rate(
            counts.get(("servo.simulate_lock", "saturation"), 0), locks),
        "cli.startup.s": startup,
        "cli.commands": len(commands),
    })
    m["io.write.mb_per_s"] = rate(m["io.write.mb"], m["io.write.s"])
    m["io.read.mb_per_s"] = rate(m["io.read.mb"], m["io.read.s"])
    m["synth.msamples_per_s"] = rate(m["synth.samples"] / 1e6, m["synth.s"])
    m["servo.msteps_per_s"] = rate(m["servo.steps"] / 1e6,
                                   m["servo.simulate_lock.s"])
    return m


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import optomech.cli
    try:
        code = optomech.cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
