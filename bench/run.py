"""End-to-end and per-layer benchmark of the ``optomech`` command line.

    python3 bench/run.py --workload csv_default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each pass runs the workload's
command sequence as sequential ``optomech`` subprocesses (a closed loop with
one client, since ``analyze`` reads what ``simulate`` wrote), each with
``--config``, ``--seed`` and a fresh ``--out`` directory under
``.bench_work/``.  Every command's outputs are checked (``checks.py``); the
pass directory is deleted after its checks.

``--trace 0`` reports the end-to-end metrics as medians over the timed
passes.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (``tracer.py``).  The last line of
standard output is one JSON object; the exit code is 0 only when every
output check passed.  See README.md for the metrics and workloads.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

ENTRY = "from optomech.cli import main_entry; main_entry()"  # the console script
IMPORT_ONLY = "import optomech.cli"

MIN_PASSES = 2          # a reference pass and one compared against it
SETUP_EDGE = 2          # interpreter starts timed before and after the passes
SETUP_EVERY = 2         # ... and after every second command of each pass
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "out_mb": "MB",
             "ok_frac": "ratio", "setup_s": "s"}


def quartiles(values):
    """(q1, median, q3) of at least two values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def calibrate():
    """Seconds for a fixed pure-Python loop: a machine-speed probe only."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - start


def _fs_type(path):
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def metadata(seed, work_dir):
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy, "nproc": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
            "out_fs": _fs_type(work_dir), "seed": seed}


class Run:
    """One benchmark run of one workload: its work directory, counters and
    the reference pass every later pass is compared with."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.config = os.path.join(work_dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(workload.config, fh)
        self.stderr = os.path.join(work_dir, "stderr.log")
        self.truth = workload.truths()
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.n_passes = 0

    def spawn(self, argv, cwd):
        """Start one child; returns the Popen."""
        with open(self.stderr, "ab") as err:
            return subprocess.Popen([sys.executable] + argv, cwd=cwd,
                                    env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)

    @staticmethod
    def reap(proc):
        """Wait for a child: (exit code, CPU s, peak RSS MB)."""
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024

    def setup_sample(self):
        start = time.perf_counter()
        code, _, _ = self.reap(self.spawn(["-c", IMPORT_ONLY], ROOT))
        if code != 0:
            raise RuntimeError(f"importing optomech.cli failed (exit {code})")
        return time.perf_counter() - start

    def cli_argv(self, cmd, inputs, out):
        args = [a.format(inputs=inputs) for a in cmd.argv]
        return args + ["--config", self.config, "--seed", str(self.seed),
                       "--out", out]

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))

    def make_inputs(self):
        """Run the workload's input commands, two at a time, before timing."""
        inputs = os.path.join(self.dir, "inputs")
        os.makedirs(inputs)
        start = time.perf_counter()
        pending = list(self.workload.inputs)
        running = []
        try:
            while pending or running:
                while pending and len(running) < 2:
                    cmd = pending.pop(0)
                    argv = self.cli_argv(cmd, inputs, inputs)
                    running.append((cmd, self.spawn(["-c", ENTRY] + argv,
                                                    inputs)))
                cmd, proc = running[0]
                code, _, _ = self.reap(proc)
                running.pop(0)
                # commands run concurrently here, so only the manifest is
                # attributed to its command
                written = {cmd.doc: None} if os.path.isfile(
                    os.path.join(inputs, cmd.doc)) else {}
                problems, _ = checks.check_command(cmd, self.truth, code,
                                                   inputs, written, None)
                self.record("inputs " + " ".join(cmd.argv), problems)
        finally:
            for _, proc in running:
                proc.kill()
                self.reap(proc)
        return inputs, time.perf_counter() - start

    def run_pass(self, inputs, traced):
        """Run the command sequence once in a fresh output directory."""
        out = os.path.join(self.dir, f"pass_{self.n_passes:03d}")
        self.n_passes += 1
        os.makedirs(out)
        reference = [] if self.reference is None else None
        res = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
               "clobbered": [], "diags": [], "spans": [], "command_s": [],
               "setup_s": [], "calib_s": calibrate()}
        spans_path = os.path.join(self.dir, "spans.json")
        for i, cmd in enumerate(self.workload.commands):
            argv = self.cli_argv(cmd, inputs or out, out)
            argv = ([TRACER, spans_path] if traced else ["-c", ENTRY]) + argv
            before = checks.snapshot(out)
            start = time.perf_counter()
            code, cpu, rss = self.reap(self.spawn(argv, out))
            wall = time.perf_counter() - start
            new, replaced = checks.changes(before, checks.snapshot(out))
            hashes = {n: checks.digest(os.path.join(out, n))
                      for n in new + replaced}
            problems, diag = checks.check_command(
                cmd, self.truth, code, out, hashes,
                None if reference is not None else self.reference[i])
            self.record(" ".join(cmd.argv), problems)
            if reference is not None:
                reference.append(hashes)
            if not traced and i % SETUP_EVERY == SETUP_EVERY - 1:
                res["setup_s"].append(self.setup_sample())
            res["wall_s"] += wall
            res["command_s"].append(wall)
            res["cpu_s"] += cpu
            res["peak_rss_mb"] = max(res["peak_rss_mb"], rss)
            res["clobbered"] += replaced
            if diag:
                res["diags"].append(diag)
            if traced:
                try:
                    with open(spans_path, encoding="utf-8") as fh:
                        spans = json.load(fh)
                    os.unlink(spans_path)
                except (OSError, ValueError) as exc:
                    self.record(" ".join(cmd.argv) + " (trace)", [str(exc)])
                    spans = []
                res["spans"].append((wall, spans))
        res["out_mb"] = sum(s[2] for s in checks.snapshot(out).values()) / 1e6
        shutil.rmtree(out)
        if reference is not None:
            self.reference = reference
        return res


def _time_left(start, seconds, walls):
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def run_untraced(run, inputs, seconds):
    """Timed passes.  Set-up samples are spread over the whole run: some
    before and after the passes, the rest between commands of each pass."""
    start = time.perf_counter()
    setup = [run.setup_sample() for _ in range(SETUP_EDGE)]
    passes = []
    while len(passes) < MIN_PASSES or _time_left(
            start, seconds, [p["wall_s"] for p in passes]):
        passes.append(run.run_pass(inputs, traced=False))
    setup += [run.setup_sample() for _ in range(SETUP_EDGE)]
    series = {k: [p[k] for p in passes]
              for k in ("wall_s", "cpu_s", "peak_rss_mb", "out_mb")}
    series["setup_s"] = setup + [s for p in passes for s in p["setup_s"]]
    stats = {k: quartiles(v) for k, v in series.items()}
    ok = (run.attempted - run.failed) / run.attempted
    stats["ok_frac"] = (ok, ok, ok)
    counts = {k: len(v) for k, v in series.items()}
    counts["ok_frac"] = run.attempted
    metrics = {k: {"value": stats[k][1], "unit": u} for k, u in E2E_UNITS.items()}
    return metrics, stats, counts, passes


def run_traced(run, inputs, seconds):
    """Pairs of (untraced, traced) passes; per-layer metrics are medians
    over the traced passes."""
    start = time.perf_counter()
    pairs = []
    while not pairs or _time_left(start, seconds,
                                  [u["wall_s"] + t["wall_s"] for u, t in pairs]):
        untraced = run.run_pass(inputs, traced=False)
        pairs.append((untraced, run.run_pass(inputs, traced=True)))
    layers = []
    for untraced, traced in pairs:
        m = tracer.layer_metrics(traced["spans"])
        m["io.clobbered_files"] = len(traced["clobbered"])
        m["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
        accounted = sum(m[f"{g}.s"] for g in tracer.TIME_GROUPS) + m["cli.startup.s"]
        m["trace.accounted_frac"] = accounted / traced["wall_s"]
        layers.append(m)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    return metrics, pairs


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def benchmark(workload, seed, seconds, trace, work_dir):
    """Run one workload; returns (final JSON object, full report)."""
    run = Run(workload, seed, work_dir)
    meta = metadata(seed, work_dir)
    run.setup_sample()          # untimed: byte-compiles and warms caches
    inputs, inputs_s = run.make_inputs() if workload.inputs else (None, None)
    report = {"workload": workload.name, "metadata": meta, "inputs_s": inputs_s}
    if trace:
        layer, pairs = run_traced(run, inputs, seconds)
        if abs(layer["trace.accounted_frac"] - 1.0) > 0.03:
            run.record("trace accounting", [
                f"layer self times cover {layer['trace.accounted_frac']:.3f} "
                "of the traced wall"])
        units = per_layer_units()
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
        passes = [p for pair in pairs for p in pair]
        report.update(layers=layer, spans=[p["spans"] for _, p in pairs])
    else:
        metrics, stats, counts, passes = run_untraced(run, inputs, seconds)
        report["stats"] = {k: {"q1": q[0], "median": q[1], "q3": q[2],
                               "n": counts[k]} for k, q in stats.items()}
    report["calib_s"] = [p["calib_s"] for p in passes]
    report["command_s"] = {" ".join(c.argv): [p["command_s"][i] for p in passes]
                           for i, c in enumerate(workload.commands)}
    diags = [d for p in passes for d in p["diags"]]
    locks = [d for d in diags if "lock_acquired" in d]
    pulls = {}
    for d in diags:
        for key, val in d.items():
            if key.endswith("_pull") and val is not None:
                pulls.setdefault(key, []).append(val)
    known = {d["known_defect"] for d in diags if "known_defect" in d}
    if any(not d["lock_acquired"] for d in locks):
        known.add("lock_not_acquired: the lock saturates its actuator")
    clobbered = sorted({n for p in passes for n in p["clobbered"]})
    if clobbered:
        known.add("clobbered_files: a command overwrote " + ", ".join(clobbered))
    report["diagnostics"] = {
        "lock_runs": len(locks),
        "servo.acquired_frac": (sum(d["lock_acquired"] for d in locks) / len(locks)
                                if locks else None),
        "servo.saturation_frac": (sum(d["saturation_fraction"] for d in locks)
                                  / len(locks) if locks else None),
        "io.clobbered_files_per_pass": statistics.median(
            len(p["clobbered"]) for p in passes),
        **{k: statistics.median(v) for k, v in sorted(pulls.items())},
        "known_defects": sorted(known),
    }
    report["problems"] = run.problems
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, report


def print_report(result, report):
    for name, stat in report.get("stats", {}).items():
        print(f"{name:<12} {stat['median']:12.6g} {E2E_UNITS[name]:<6}"
              f" q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  n {stat['n']}")
    for name, value in report.get("layers", {}).items():
        print(f"{name:<32} {value:14.6g}")
    print("diagnostics " + json.dumps(
        {"inputs_s": report["inputs_s"], "calib_s": report["calib_s"],
         **report["diagnostics"], "metadata": report["metadata"]}))
    for problem in report["problems"]:
        print("FAILED " + problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "optomech", "cli.py")):
        print(f"no optomech source under {ROOT}/src", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result, report = benchmark(WORKLOADS[args.workload], args.seed,
                                   args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(WORK, f"{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, **report}, fh)
    print_report(result, report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
