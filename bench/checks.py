"""Output checks: what a command must leave behind for it to count as ok.

A command passes when it exits 0, writes its result document, every JSON
document it writes carries the ``optomech.result/1`` schema, its fitted
value lies within ``N_SIGMA`` of the configured truth, and every file it
writes is byte-identical to the same command's files in the run's
reference pass (reruns of the program are documented as byte-identical).
"""

import hashlib
import json
import math
import os

SCHEMA = "optomech.result/1"
N_SIGMA = 5.0

_FIT_KEYS = {"q_inner": "q", "q_outer": "q", "finesse": "finesse"}

# Fit checks the program is known to fail at N_SIGMA, with the accuracy the
# project documents for that fit (acceptance criterion 7: mech Q within
# 10%).  Within that accuracy the outcome is reported as a diagnostic in
# every run, with the pull, instead of failing the command; beyond it the
# command fails.  The outer mech-Q from ``analyze mech-q`` sits ~1% (tens of
# sigma) below the configured Q on the default ringdown, because the record
# runs ~9 amplitude decay times into the noise floor, where the demodulated
# envelope's noise bias is not the constant offset the fit assumes.
KNOWN_DEFECTS = {"q_outer": ("mech_q_bias", 0.10)}


def snapshot(out_dir):
    """{file name: (inode, mtime_ns, size)} of the flat output directory."""
    with os.scandir(out_dir) as it:
        return {e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size)
                for e in it if e.is_file()}


def changes(before, after):
    """(files the command created, files it replaced) between snapshots."""
    new = sorted(set(after) - set(before))
    replaced = sorted(n for n in before if n in after and after[n] != before[n])
    return new, replaced


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        return exc


def _listed_files(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, (dict, list)):
        for val in node.values() if isinstance(node, dict) else node:
            yield from _listed_files(val)


def check_fit(outputs, key, truth):
    """(problem text or None, pull) for a fitted outputs[key].

    The pull is (value - truth) / sigma; the fit fails when it did not
    converge, is not finite, or misses ``truth`` by more than N_SIGMA.
    """
    value, sigma = outputs.get(key), outputs.get(f"{key}_sigma")
    if not outputs.get("converged", False):
        return f"{key} fit did not converge", None
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in (value, sigma)) or sigma <= 0:
        return f"{key}={value!r} sigma={sigma!r} is not a finite estimate", None
    pull = (value - truth) / sigma
    if abs(pull) > N_SIGMA:
        return (f"{key}={value:.6g} is {pull:+.1f} sigma from the configured "
                f"{truth:.6g}"), pull
    return None, pull


def check_command(cmd, truth, rc, out_dir, hashes, reference):
    """Check one finished command.

    ``hashes`` maps each file the command wrote to its sha256, ``reference``
    is the same map from the reference pass (None in the reference pass
    itself) and ``truth`` maps a fit check name to its configured value.
    Returns (problems, diagnostics); the command failed if problems is
    non-empty.
    """
    problems, diag = [], {}
    if rc != 0:
        problems.append(f"exit code {rc}")
    if cmd.doc not in hashes:
        problems.append(f"did not write {cmd.doc}")
    docs = {}
    for name in sorted(hashes):
        if not name.endswith(".json"):
            continue
        doc = _load(os.path.join(out_dir, name))
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            problems.append(f"{name}: not an {SCHEMA} document")
        else:
            docs[name] = doc
    outputs = docs.get(cmd.doc, {}).get("outputs", {})
    for name in _listed_files(outputs.get("files", {})):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{cmd.doc} lists missing file {name}")
    if cmd.doc in docs:
        if cmd.check in _FIT_KEYS:
            key = _FIT_KEYS[cmd.check]
            problem, pull = check_fit(outputs, key, truth[cmd.check])
            diag = {f"{cmd.check}_pull": pull}
            defect, accuracy = KNOWN_DEFECTS.get(cmd.check, (None, 0.0))
            if problem and pull is not None and defect and abs(
                    outputs[key] / truth[cmd.check] - 1.0) <= accuracy:
                diag["known_defect"] = f"{defect}: {problem}"
            elif problem:
                problems.append(problem)
        elif cmd.check == "transfer" and outputs.get("n_excluded") != 0:
            problems.append(f"transfer excluded {outputs.get('n_excluded')!r} "
                            "records")
        elif cmd.check == "lock":
            diag = {"lock_acquired": bool(outputs.get("lock_acquired")),
                    "saturation_fraction": outputs.get("saturation_fraction")}
    if reference is not None and hashes != reference:
        differ = sorted(n for n in set(hashes) | set(reference)
                        if hashes.get(n) != reference.get(n))
        problems.append("not byte-identical to the reference pass: "
                        + ", ".join(differ[:5]))
    return problems, diag
