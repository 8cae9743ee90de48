#!/usr/bin/env python3
"""Byte-identity oracle: two gest binaries must record the same runs.

Runs every shipped configuration (configs/*.xml) with every output on
(analytics, stats, provenance, coverage, health, waveforms="3",
attribution, trace and listen) through binary A and then binary B,
each into the same output path, and compares the two run directories
file by file. Everything must be byte-identical except what depends on
wall-clock time, scheduling or the build:

  * status.json: elapsed_seconds, eta_seconds, evals_per_sec, git_sha,
    build, listen and the alerts block (it counts timing alerts too);
  * history.csv: the *_ms columns;
  * the trace and metrics.json;
  * alerts.csv rows of the timing rules (throughput_collapse,
    worker_starvation);
  * manifest.json: created, build, run.digest_ms_total and each
    artifact's sha256 and bytes (the files themselves are compared),
    and the artifacts of kind "individual".

Fitness, digests.csv, population checkpoints, lineage, analytics,
coverage, waveforms and attribution are compared whole.

The §III.D per-individual sources, <gen>_<id>_<m1>_....txt, are compared
whole too, wherever they come from. A run directory that holds none
(its binary writes only the population checkpoints) is exported with
the same binary, `gest fittest <run> --out <run>.individuals`, and the
two sides' file sets and bytes are compared: written against written,
written against exported, or exported against exported. A binary that
still writes them in-run lists them in its manifest with kind
"individual", which is why those entries are dropped there.

Usage:
  check_identity.py <gest-a> <gest-b> [--generations N] [--threads N]
                                      [--config FILE ...]
      compare the two binaries (default: 20 generations, 4 threads,
      all shipped configs)
  check_identity.py --drive <gest-binary>
      self-check at 2 generations with the same binary on both sides:
      the runs must match, a rewritten digests.csv must be caught, and
      so must one flipped byte in one individual's source

Exit status 0 when the run directories match; 1 with a list of the
differing files otherwise.
"""

import argparse
import csv
import glob
import io
import json
import os
import re
import shutil
import sys
import xml.etree.ElementTree as ET

from gestcheck import fail, ok, run, run_gest, scratch

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.xml")))

EVERY_OUTPUT = {
    "directory": "out",
    "analytics": "true",
    "stats": "true",
    "provenance": "true",
    "coverage": "true",
    "health": "true",
    "waveforms": "3",
    "attribution": "true",
    "trace": "trace.json",
    "listen": "127.0.0.1:0",
}
UNCOMPARED = {"trace.json", "metrics.json"}
STATUS_VOLATILE = {"elapsed_seconds", "eta_seconds", "evals_per_sec",
                   "git_sha", "build", "listen", "alerts"}
TIMING_RULES = {"throughput_collapse", "worker_starvation"}
INDIVIDUAL = re.compile(r"^\d+_\d+(_[^_/]+)*\.txt$")


def oracle_config(path, generations):
    """The shipped config at `path` with every output on, its output in
    "out" next to the written config and its file references absolute."""
    root = ET.parse(path).getroot()
    base = os.path.dirname(os.path.abspath(path))
    for element in root.iter():
        if "file" in element.attrib:
            element.set("file", os.path.join(base, element.get("file")))
    ga = root.find("ga")
    if ga is None:
        fail(f"{path} has no <ga> element")
    ga.set("generations", str(generations))
    output = root.find("output")
    if output is None:
        output = ET.SubElement(root, "output")
    output.attrib.clear()
    output.attrib.update(EVERY_OUTPUT)
    return ET.tostring(root, encoding="unicode")


def record(gest, work, config, threads, dest):
    """Run `config` in `work` with `gest` and move the run to `dest`.
    Return the directory holding the run's individual sources: `dest`
    when the run wrote them, else their export by the same binary."""
    out = run_gest(gest, work, config, "--threads", str(threads))
    shutil.move(out, dest)
    if _individuals(dest):
        return dest
    exported = dest + ".individuals"
    run([gest, "fittest", dest, "--quiet", "--out", exported], work)
    return exported


# ----------------------------------------------------------- comparison

def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def _history(text):
    lines = text.splitlines()
    rows = _csv_rows("\n".join(lines[1:]))
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("_ms")]
    return [lines[0]] + [[row[i] for i in keep if i < len(row)]
                         for row in rows]


def _alerts(text):
    lines = text.splitlines()
    rows = _csv_rows("\n".join(lines[1:]))
    rule = rows[0].index("rule") if rows and "rule" in rows[0] else None
    return [lines[0]] + [row for row in rows
                         if rule is None or rule >= len(row)
                         or row[rule] not in TIMING_RULES]


def _status(text):
    doc = json.loads(text)
    return {k: v for k, v in doc.items() if k not in STATUS_VOLATILE}


def _manifest(text):
    doc = json.loads(text)
    doc.pop("created", None)
    doc.pop("build", None)
    doc.get("run", {}).pop("digest_ms_total", None)
    if "artifacts" in doc:
        doc["artifacts"] = [a for a in doc["artifacts"]
                            if a.get("kind") != "individual"]
    for artifact in doc.get("artifacts", []):
        artifact.pop("sha256", None)
        artifact.pop("bytes", None)
    return doc


NORMALIZE = {
    "status.json": _status,
    "history.csv": _history,
    "alerts.csv": _alerts,
    "manifest.json": _manifest,
}


def _individuals(directory):
    """The individual sources directly under `directory`."""
    return {name for name in os.listdir(directory) if INDIVIDUAL.match(name)}


def _files(run_dir):
    found = set()
    for parent, _, names in os.walk(run_dir):
        for name in names:
            found.add(os.path.relpath(os.path.join(parent, name), run_dir))
    return found - UNCOMPARED - _individuals(run_dir)


def _diff_files(dir_a, files_a, dir_b, files_b):
    """Relative paths (with a reason) that differ between the sets."""
    diffs = [f"{p}: only in A" for p in sorted(files_a - files_b)]
    diffs += [f"{p}: only in B" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        with open(os.path.join(dir_a, rel), "rb") as handle:
            bytes_a = handle.read()
        with open(os.path.join(dir_b, rel), "rb") as handle:
            bytes_b = handle.read()
        if bytes_a == bytes_b:
            continue
        normalize = NORMALIZE.get(rel)
        if normalize is not None:
            try:
                if normalize(bytes_a.decode()) == normalize(bytes_b.decode()):
                    continue
            except (ValueError, IndexError) as err:
                diffs.append(f"{rel}: unreadable ({err})")
                continue
        diffs.append(f"{rel}: contents differ")
    return diffs


def diff_runs(run_a, individuals_a, run_b, individuals_b):
    """Relative paths (with a reason) that differ between the runs:
    their artifacts, then their individual sources (see record())."""
    return (_diff_files(run_a, _files(run_a), run_b, _files(run_b)) +
            _diff_files(individuals_a, _individuals(individuals_a),
                        individuals_b, _individuals(individuals_b)))


# --------------------------------------------------------------- modes

def compare(gest_a, gest_b, generations, threads, configs, work):
    """Record every config with both binaries; {config: diffs}."""
    results = {}
    for path in configs:
        name = os.path.splitext(os.path.basename(path))[0]
        config = oracle_config(path, generations)
        case = os.path.join(work, name)
        run_a, run_b = os.path.join(case, "a"), os.path.join(case, "b")
        individuals_a = record(gest_a, case, config, threads, run_a)
        individuals_b = record(gest_b, case, config, threads, run_b)
        results[name] = diff_runs(run_a, individuals_a, run_b,
                                  individuals_b)
    return results


def report(results):
    bad = {name: diffs for name, diffs in results.items() if diffs}
    if bad:
        fail("run directories differ:\n" + "\n".join(
            f"  {name}: {diff}" for name, diffs in bad.items()
            for diff in diffs))


def _recorded(case):
    """diff_runs()'s arguments for a case compare() recorded."""
    sides = []
    for side in ("a", "b"):
        run_dir = os.path.join(case, side)
        exported = run_dir + ".individuals"
        sides += [run_dir, exported if os.path.isdir(exported) else run_dir]
    return sides


def drive(gest):
    with scratch("check_identity") as work:
        results = compare(gest, gest, 2, 2, CONFIGS, work)
        report(results)
        ok(f"{len(results)} shipped configs record identical runs "
           "with the same binary")

        # A rewritten digests.csv (one fitness digit changed) must be
        # reported, and reported as exactly that file.
        case = os.path.join(work, os.path.splitext(
            os.path.basename(CONFIGS[0]))[0])
        digests = os.path.join(case, "b", "digests.csv")
        with open(digests, encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        last = lines[-1]
        digit = next(i for i, c in enumerate(last) if c.isdigit()
                     and i > last.index(","))
        lines[-1] = (last[:digit] + str((int(last[digit]) + 1) % 10)
                     + last[digit + 1:])
        with open(digests, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        diffs = diff_runs(*_recorded(case))
        if diffs != ["digests.csv: contents differ"]:
            fail(f"a rewritten digests.csv gave {diffs}")
        ok("a rewritten digests.csv is caught")

        # So must one flipped byte in one individual's source.
        case = os.path.join(work, os.path.splitext(
            os.path.basename(CONFIGS[1]))[0])
        recorded = _recorded(case)
        name = sorted(_individuals(recorded[3]))[0]
        path = os.path.join(recorded[3], name)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data[len(data) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(data)
        diffs = diff_runs(*recorded)
        if diffs != [f"{name}: contents differ"]:
            fail(f"a flipped byte in {name} gave {diffs}")
        ok(f"a flipped byte in an individual's source ({name}) is caught")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    parser = argparse.ArgumentParser(
        description="Compare the run directories two gest binaries "
                    "record for the shipped configs.")
    parser.add_argument("gest_a")
    parser.add_argument("gest_b")
    parser.add_argument("--generations", type=int, default=20)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--config", action="append",
                        help="a config to run instead of configs/*.xml "
                             "(repeatable)")
    args = parser.parse_args(argv[1:])
    with scratch("check_identity") as work:
        results = compare(args.gest_a, args.gest_b, args.generations,
                          args.threads, args.config or CONFIGS, work)
        report(results)
    ok(f"{len(results)} configs record identical runs at "
       f"{args.generations} generations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
