"""The benchmark's workloads: the config each one passes to ``optomech`` and
the command sequence that makes up one pass.

Every workload pins the device and cavity values the output checks use as
truth, so the checks never depend on the program's own defaults.  Those
pinned values equal the program defaults, so ``csv_default`` runs exactly
the default config.
"""

from dataclasses import dataclass

# The configured truths the fit checks compare against (equal to the
# program defaults: inner 250 kHz / Q 418,000, outer Q 1e5, finesse 181,000).
TRUTH_CONFIG = {
    "device": {"inner": {"q": 418000.0}, "outer": {"q": 1e5}},
    "cavity": {"finesse": 181000.0},
}


@dataclass(frozen=True)
class Command:
    """One ``optomech`` invocation.

    ``argv`` follows the program name and may name ``{inputs}``, the
    directory holding the records the command reads.  ``check`` selects the
    output check in ``checks.py``; ``doc`` is the result document the
    command must write.
    """

    argv: tuple
    doc: str
    check: str = "schema"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    commands: tuple
    # commands run once, before timing, to make the records the pass reads;
    # empty when the pass makes its own records
    inputs: tuple = ()

    def truths(self):
        """The configured value each fit check compares against."""
        dev, cav = self.config["device"], self.config["cavity"]
        return {"q_inner": dev["inner"]["q"], "q_outer": dev["outer"]["q"],
                "finesse": cav["finesse"]}


def _merge(base, over):
    out = dict(base)
    for key, val in over.items():
        out[key] = _merge(base.get(key, {}), val) if isinstance(val, dict) else val
    return out


def _simulate(exp, fmt):
    argv = ("simulate", exp) if fmt == "csv" else ("simulate", exp, "--format", fmt)
    check = "lock" if exp == "lock" else "schema"
    return Command(argv, f"simulate_{exp.replace('-', '_')}_manifest.json", check)


def _analyze(quantity, infile, check):
    return Command(("analyze", quantity, "{inputs}/" + infile),
                   f"analyze_{quantity.replace('-', '_')}_result.json", check)


EXPERIMENTS = ("brownian", "ringdown-optical", "ringdown-mech", "sweep")


def _analyses(ext, with_psd):
    """The analyze commands that read each experiment's records."""
    brownian = [_analyze("q", f"brownian.{ext}", "q_inner")]
    if with_psd:
        brownian.append(_analyze("psd", f"brownian.{ext}", "schema"))
    return {
        "brownian": brownian,
        "ringdown-optical": [_analyze("finesse", f"ringdown_optical.{ext}",
                                      "finesse")],
        "ringdown-mech": [_analyze("mech-q", f"ringdown_mech_envelope.{ext}",
                                   "q_outer")],
        "sweep": [_analyze("transfer", "simulate_sweep_manifest.json",
                           "transfer")],
    }


def _user_session(fmt, with_psd):
    """simulate -> analyze per experiment, then the lock, in a user's order."""
    analyses = _analyses("csv" if fmt == "csv" else "bin", with_psd)
    cmds = []
    for exp in EXPERIMENTS:
        cmds += [_simulate(exp, fmt), *analyses[exp]]
    return cmds + [_simulate("lock", fmt)]


LONG_RECORDS = {"synth": {
    "brownian": {"duration_s": 7200.0},          # 2.88 M complex samples
    "ringdown_mech": {"duration_s": 240.0},      # 6 M samples
    "sweep": {"points_per_decade": 100},         # ~320 drive records
    "lock": {"duration_s": 0.2},                 # 2 M loop steps per loop run
}}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="csv_default",
        why="the everyday session on the default config with text records; "
            "CSV writing dominates, so io writer and cli changes show here",
        config=TRUTH_CONFIG,
        commands=tuple(_user_session("csv", with_psd=True) + [
            Command(("design-check",), "design_check_result.json"),
            Command(("report",), "report.json")]),
    ),
    Workload(
        name="csv_analyze",
        why="re-analysis of recorded default CSV files; reads and interpreter "
            "start-up dominate, so writer-only changes must not move it",
        config=TRUTH_CONFIG,
        commands=tuple(c for cmds in _analyses("csv", True).values()
                       for c in cmds),
        inputs=tuple(_simulate(exp, "csv") for exp in EXPERIMENTS),
    ),
    Workload(
        name="bin_long",
        why="long binary records: synth FFTs, Welch, LM fits, transfer "
            "estimation and the servo loop dominate while file I/O is small",
        config=_merge(TRUTH_CONFIG, LONG_RECORDS),
        commands=tuple(_user_session("bin", with_psd=False)),
    ),
)}
