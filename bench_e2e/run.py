#!/usr/bin/env python3
"""End-to-end benchmark of GeST++: whole `gest run` searches, timed.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload power_a15 --seed 1 --seconds 20 --trace 0

The first run builds GeST++ from the checkout into .bench_build/ (the
`gest` CLI plus the two harness programs of this directory). Every run
then measures one workload and prints, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}:

  --trace 0  the end-to-end metrics, medians over the short untraced
             `gest run` searches that fit in --seconds;
  --trace 1  the per-layer metrics, from one traced run (gest_bench) and
             a replay of the bodies it measured through the layer
             functions.

`--json FILE` also appends the run's result with its per-search samples
to FILE, the input of compare.py. `--smoke` runs every workload at
3 generations in both modes and checks the results against
BENCHMARK.json (the bench_e2e_smoke ctest). `--freeze` regenerates the
frozen start populations in workloads/. See README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_DIR = HERE / "workloads"

SETUP_PROBES_PER_SEARCH = 4
SMOKE_GENERATIONS = 3
SMOKE_REPLAY = 20


@dataclass
class Workload:
    template: str
    # Generations of one search, continued from the frozen population.
    # Searches are short so that a run makes many of them: the cost of
    # one search depends on its GA seed, and the median over many seeds
    # is what stays steady from run to run.
    generations: int
    # Written out explicitly; each equals its measurement's default.
    min_cycles: int
    replay_samples: int
    ga: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


# Why each workload exists is in README.md.
WORKLOADS = {
    "power_a15": Workload("a15_power.xml", 10, 4096, 500),
    "didt_athlon": Workload("athlon_didt.xml", 10, 8192, 500),
    "ipc_xgene2": Workload("xgene2_ipc.xml", 12, 4096, 500),
    "llc_xgene2": Workload("xgene2_llc_stress.xml", 3, 16384, 100),
    "outputs_a7": Workload(
        "a7_power.xml", 6, 4096, 500,
        ga={"population_size": 200, "fitness_cache_size": 4096},
        output={"coverage": "true", "health": "true", "waveforms": "3",
                "attribution": "true"}),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or harness failure)."""


def threads():
    # 4 evaluation threads, never more than the CPUs this process may use.
    return min(4, len(os.sched_getaffinity(0)))


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no GeST++ sources in {ROOT}: run from the root "
                         "of a checkout")
    tree = BUILD / "cmake"
    BUILD.mkdir(exist_ok=True)
    steps = [["cmake", "--build", str(tree), "-j", str(threads()),
              "--target", *targets]]
    if not (tree / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(tree)])
    with open(BUILD / "build.log", "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                raise BenchError(f"build failed: {' '.join(step)} "
                                 f"(see {BUILD / 'build.log'})")
    return tree / "gestpp" / "tools" / "gest", tree


def template_ga(name):
    """The <ga> element of the workload's template."""
    return ET.parse(WORKLOAD_DIR / WORKLOADS[name].template).getroot().find(
        "ga")


def write_config(name, ga_seed, out_dir, path, generations, frozen=True):
    """Write the workload's configuration; return population x generations."""
    wl = WORKLOADS[name]
    tree = ET.parse(WORKLOAD_DIR / wl.template)
    root = tree.getroot()
    ga = root.find("ga")
    ga.set("seed", str(ga_seed))
    ga.set("generations", str(generations))
    ga.set("threads", str(threads()))
    for key, value in wl.ga.items():
        ga.set(key, str(value))
    root.find("measurement/config").set("min_cycles", str(wl.min_cycles))
    out = root.find("output")
    out.set("directory", str(out_dir))
    for key, value in wl.output.items():
        out.set(key, value)
    template = root.find("template")
    if template is not None:
        template.set("file", str(WORKLOAD_DIR / template.get("file")))
    if frozen:
        ET.SubElement(root, "seed_population",
                      file=str(WORKLOAD_DIR / f"{name}.pop"))
    tree.write(path)
    return int(ga.get("population_size")) * generations


def spawn(argv, log, cpu=None):
    """Run argv to completion; return (exit code, wall s, rusage).

    With `cpu`, the child is pinned to that CPU: it inherits the
    affinity this process holds while it spawns and waits.
    """
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log,
                                env=dict(os.environ, GEST_LOG="quiet"))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, allowed)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def dir_usage(path):
    files = size = 0
    for parent, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(parent, name))
    return files, size


def search(gest, cfg, out_dir, individuals, log):
    """One timed `gest run`; return its sample and its digests.csv.

    Verifying the sealed run directory and reading it stay outside the
    timed window.
    """
    os.sync()  # no earlier writeback competes with the timed run
    code, wall, usage = spawn([str(gest), "run", str(cfg)], log)
    rep = {"ok": code == 0, "run_s": wall,
           "individuals_per_s": individuals / wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if code != 0:
        print(f"gest run {cfg} exited {code}", file=sys.stderr)
        return rep, None
    files, size = dir_usage(out_dir)
    rep["run_dir_mb"] = size / 2**20
    rep["run_dir_files"] = files
    if subprocess.run([str(gest), "verify", "--quick", str(out_dir)],
                      stdout=subprocess.DEVNULL, stderr=log).returncode:
        print(f"gest verify --quick {out_dir} failed", file=sys.stderr)
        rep["ok"] = False
    best = json.loads((out_dir / "manifest.json").read_text())["run"][
        "best_fitness"]
    rep["best_fitness"] = best
    if not math.isfinite(best):
        print(f"{out_dir}: best fitness {best}", file=sys.stderr)
        rep["ok"] = False
    return rep, (out_dir / "digests.csv").read_bytes()


def ga_seed(seed, k):
    return seed * 100000 + k


def untraced(name, seed, seconds, work, bins, log, smoke):
    gest, tree = bins
    wl = WORKLOADS[name]
    generations = SMOKE_GENERATIONS if smoke else wl.generations
    # The probe measures a one-instruction body drawn with the GA seed,
    # and what that body costs to simulate depends on the instruction
    # drawn, so every run probes with the template's own seed.
    probe_cfg = work / "probe.xml"
    write_config(name, int(template_ga(name).get("seed")), work / "probe",
                 probe_cfg, generations)

    # The first search runs twice, which checks that a search is
    # reproducible. Searches with GA seeds of their own follow until
    # --seconds have passed; a faster program makes more of them.
    minimum, budget = (2, 0) if smoke else (3, seconds)
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    setup, reps, digests, failed = [], [], [], 0
    k = 0
    while k < minimum or time.perf_counter() - start < budget:
        s = ga_seed(seed, max(0, k - 1))
        # Set-up probes are spread over the run like the searches, so
        # both see the same host conditions, and over the CPUs in turn:
        # a probe took 40% longer on one CPU of the reference host than
        # on the others, and a child otherwise tends to run on whichever
        # CPU this process happens to be on.
        for _ in range(SETUP_PROBES_PER_SEARCH):
            cpu = cpus[len(setup) % len(cpus)]
            code, wall, _ = spawn([str(tree / "gest_setup_probe"),
                                   str(probe_cfg)], log, cpu)
            setup.append(wall)
            failed += code != 0
        cfg, out = work / f"search{k}.xml", work / "runs" / f"search{k}"
        individuals = write_config(name, s, out, cfg, generations)
        rep, digest = search(gest, cfg, out, individuals, log)
        # On a file system mounted with online discard, creating files
        # costs several times more system time for a minute or more
        # after a delete. Deleting each directory before the next search
        # keeps every search in that state, instead of some searches in
        # it and some not (README.md, "Host noise").
        shutil.rmtree(out, ignore_errors=True)
        rep["ga_seed"] = s
        reps.append(rep)
        digests.append(digest)
        failed += not rep["ok"]
        k += 1
    if reps[0]["ok"] and reps[1]["ok"] and (
            digests[0] != digests[1] or
            reps[0]["best_fitness"] != reps[1]["best_fitness"]):
        print("one search ran twice with different results", file=sys.stderr)
        failed += 1

    samples = {"setup_s": setup}
    for metric in ("run_s", "individuals_per_s", "cpu_s", "user_s", "sys_s",
                   "peak_rss_mb", "run_dir_mb", "run_dir_files"):
        samples[metric] = [r[metric] for r in reps if metric in r]
    return {"attempted": len(setup) + len(reps), "failed": failed,
            "samples": samples,
            "best_fitness": {r["ga_seed"]: r.get("best_fitness")
                             for r in reps}}


def traced(name, seed, work, bins, log, smoke):
    gest, tree = bins
    wl = WORKLOADS[name]
    generations = SMOKE_GENERATIONS if smoke else wl.generations

    def run_search(tag):
        cfg, out = work / f"{tag}.xml", work / "runs" / tag
        individuals = write_config(name, ga_seed(seed, 0), out, cfg,
                                   generations)
        return search(gest, cfg, out, individuals, log)

    # The same search runs untraced before and after the traced run;
    # trace.overhead compares against their mean, which evens out a
    # slower start of the run.
    before, digest = run_search("untraced0")
    write_config(name, ga_seed(seed, 0), work / "runs" / "traced",
                 work / "traced.xml", generations)
    replay = SMOKE_REPLAY if smoke else wl.replay_samples
    proc = subprocess.run([str(tree / "gest_bench"), str(work / "traced.xml"),
                           str(work / "trace.json"), str(replay)],
                          stdout=subprocess.PIPE, stderr=log, text=True,
                          env=dict(os.environ, GEST_LOG="quiet"))
    if proc.returncode:
        raise BenchError(f"gest_bench exited {proc.returncode} "
                         f"(see {work / 'stderr.log'})")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    after, digest_after = run_search("untraced1")

    failed = (not before["ok"]) + (not after["ok"])
    traced_digest = (work / "runs" / "traced" / "digests.csv").read_bytes()
    if digest is None or traced_digest != digest or digest_after != digest:
        print("the traced and untraced runs of one search differ in "
              "digests.csv", file=sys.stderr)
        failed += 1
    mismatches = int(metrics["replay.mismatches"])
    if mismatches:
        print(f"{mismatches} replayed evaluations differ from "
              "evaluateInto", file=sys.stderr)
    metrics["trace.overhead"] = metrics.pop("run_wall_s") / statistics.mean(
        [before["run_s"], after["run_s"]]) - 1
    return {"attempted": 3 + int(metrics["replay.samples"]),
            "failed": failed + mismatches,
            "samples": {metric: [value] for metric, value in metrics.items()}}


def measure(name, seed, seconds, trace, bins, smoke=False):
    work = BUILD / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with open(work / "stderr.log", "w") as log:
            if trace:
                raw = traced(name, seed, work, bins, log, smoke)
            else:
                raw = untraced(name, seed, seconds, work, bins, log, smoke)
    finally:
        shutil.rmtree(work / "runs", ignore_errors=True)
    spec = json.loads(SPEC.read_text())
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        values = raw["samples"].get(m["name"])
        if not values:
            raise BenchError(f"{name}: no samples of {m['name']}")
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, raw


def smoke(bins):
    """Every workload at 3 generations, both modes; fail on any defect."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _ = measure(name, 1, 1, trace, bins, smoke=True)
            print(f"{name} --trace {trace}: {json.dumps(result)}")
            if not result["correct"]:
                problems.append(f"{name} --trace {trace}: "
                                f"{result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def freeze(gest):
    """Regenerate workloads/<name>.pop, each workload's start population.

    It is the final population of the workload's configuration run from
    random individuals with the template's own seed and generations,
    with every individual marked unevaluated so that a search measures
    its first generation.
    """
    for name in WORKLOADS:
        ga = template_ga(name)
        generations = int(ga.get("generations"))
        work = BUILD / "freeze" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / "config.xml"
        write_config(name, int(ga.get("seed")), work / "run", cfg,
                     generations, frozen=False)
        with open(work / "stderr.log", "w") as log:
            if spawn([str(gest), "run", str(cfg)], log)[0]:
                raise BenchError(f"freezing {name} failed")
        text = (work / "run" / f"population_{generations - 1}.pop").read_text()
        text = re.sub(r"^individual (\S+) (\S+) (\S+) \S+ \S+\n"
                      r"measurements .*$",
                      r"individual \1 \2 \3 0 0\nmeasurements 0", text,
                      flags=re.M)
        (WORKLOAD_DIR / f"{name}.pop").write_text(text)
        print(f"froze {WORKLOAD_DIR / f'{name}.pop'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path,
                        help="append the result with its samples to this "
                             "file (compare.py input)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick check of every workload in both modes")
    parser.add_argument("--freeze", action="store_true",
                        help="regenerate the frozen start populations")
    parser.add_argument("--gest", type=Path,
                        help="prebuilt gest CLI (with --bin-dir: no build)")
    parser.add_argument("--bin-dir", type=Path,
                        help="directory of prebuilt gest_setup_probe and "
                             "gest_bench")
    args = parser.parse_args()
    if not (args.smoke or args.freeze or args.workload):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        if args.gest and args.bin_dir:
            bins = (args.gest.resolve(), args.bin_dir.resolve())
        else:
            traced_phase = args.smoke or args.trace
            bins = build(["gest_setup_probe"] +
                         (["gest_bench"] if traced_phase else []))
        if args.freeze:
            freeze(bins[0])
            return 0
        if args.smoke:
            return smoke(bins)
        result, raw = measure(args.workload, args.seed, args.seconds,
                              args.trace, bins)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace,
                                  "result": result, **raw}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
