#!/usr/bin/env python3
"""Validate gest's fitness-attribution and coverage-ledger artifacts.

Checks the gest-attribution v1 CSV format (sealed by a run with
<output attribution="true"/> or written by `gest attribute`) and the
gest-coverage v1 per-generation ledger:

  * the version comment, `# annotation` lines, the `# filler` line and
    the per-gene rows are well-formed, with one row per declared gene;
  * the sum_delta annotation equals the sum of the per-gene
    delta_fitness values to 1e-9, every delta equals
    baseline - fitness_without, and the additive story stays inside the
    interaction sanity band: |sum_delta - whole_ablation_delta| must
    not exceed max(1, |baseline_fitness|) (gene interactions explain
    the gap; a violation means the deltas are nonsense);
  * a run directory's attribution/ holds nothing but
    individual_<id>.csv files;
  * coverage.csv declares the cell universe once and its rows are
    cumulative: cells_seen is non-decreasing, never exceeds
    cells_total, saturation_pct is recomputed exactly, per-class seen
    columns sum to cells_seen.

Usage:
  check_attribution.py <file.csv | run_dir>   validate artifacts
  check_attribution.py --drive <gest-binary>  run a tiny GA with
                                              coverage + attribution +
                                              --listen on, scrape
                                              /coverage while live,
                                              validate the sealed
                                              artifacts, `gest verify`
                                              the run, then cross-check
                                              `gest attribute` against
                                              the sealed result

On failure --drive keeps its scratch directory for post-mortem (see
gestcheck.py).

Exit status 0 when the artifacts are valid; 1 with a message otherwise.
"""

import math
import os
import re
import sys
import time

from gestcheck import (RunEnded, fail, live_run, load_json, number, ok,
                       read_framed, run, scratch)

TOLERANCE = 1e-9
ATTRIBUTION_FILE = re.compile(r"individual_[0-9]+\.csv")

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="24" individual_size="24" generations="200"
      seed="29" threads="2" fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimIpcMeasurement">
    <config platform="xgene2"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" coverage="true" attribution="true"
          listen="127.0.0.1:0"/>
</gest_configuration>
"""

CLASS_TOKENS = ("short_int", "long_int", "float_simd", "mem", "branch",
                "nop")

ATTRIBUTION_COLUMNS = ("gene", "instruction", "class", "operands",
                       "delta_fitness", "fitness_without")

COVERAGE_COLUMNS = (("generation", "cells_new", "cells_seen", "cells_total",
                     "saturation_pct", "novelty_rate") +
                    tuple(f"seen_{t}" for t in CLASS_TOKENS))


# ---------------------------------------------------------------------
# Attribution artifacts.

def parse_attribution_csv(path):
    """Parse one gest-attribution CSV into (annotations, filler, rows)."""
    framed = read_framed(path, "attribution", columns=ATTRIBUTION_COLUMNS,
                         preamble={"annotation": 2, "filler": 3})
    filler = None
    for where, (instruction, word, strategy) in framed.comment("filler"):
        if word != "strategy":
            fail(f"{where}: malformed filler line")
        if strategy not in ("nop", "same-class"):
            fail(f"{where}: unknown filler strategy '{strategy}'")
        filler = (instruction, strategy)
    if filler is None:
        fail(f"{path} has no filler line")
    annotations = framed.annotations
    for key in ("individual_id", "baseline_fitness", "sum_delta",
                "whole_ablation_delta", "evaluations", "genes"):
        if key not in annotations:
            fail(f"{path} lacks the '{key}' annotation")

    rows = []
    for row in framed.rows:
        gene = row.int("gene")
        if gene != len(rows):
            fail(f"{row.where}: gene index {gene} out of order")
        if not row["instruction"]:
            fail(f"{row.where}: empty instruction name")
        if row["class"] not in CLASS_TOKENS:
            fail(f"{row.where}: unknown class token '{row['class']}'")
        delta = row.float("delta_fitness")
        without = row.float("fitness_without")
        if not math.isfinite(delta) or not math.isfinite(without):
            fail(f"{row.where}: non-finite delta/fitness")
        rows.append({"gene": gene, "instruction": row["instruction"],
                     "class": row["class"], "operands": row["operands"],
                     "delta_fitness": delta,
                     "fitness_without": without})
    return annotations, filler, rows


def check_attribution_semantics(path, annotations, rows):
    if len(rows) != int(annotations["genes"]):
        fail(f"{path}: {len(rows)} gene rows but the 'genes' "
             f"annotation says {int(annotations['genes'])}")
    baseline = annotations["baseline_fitness"]
    if not math.isfinite(baseline):
        fail(f"{path}: non-finite baseline_fitness")

    derived_sum = 0.0
    for row in rows:
        expected = baseline - row["fitness_without"]
        if abs(row["delta_fitness"] - expected) > TOLERANCE:
            fail(f"{path}: gene {row['gene']} delta "
                 f"{row['delta_fitness']!r} != baseline - "
                 f"fitness_without = {expected!r}")
        derived_sum += row["delta_fitness"]
    if abs(annotations["sum_delta"] - derived_sum) > TOLERANCE:
        fail(f"{path}: sum_delta {annotations['sum_delta']!r} "
             f"disagrees with the row sum {derived_sum!r}")

    # The interaction sanity band: per-gene deltas need not add up to
    # the joint ablation (interactions are the point), but the two must
    # stay commensurate with the baseline — a divergence beyond the
    # baseline's own magnitude means the deltas are garbage.
    band = max(1.0, abs(baseline))
    gap = abs(annotations["sum_delta"] -
              annotations["whole_ablation_delta"])
    if gap > band:
        fail(f"{path}: |sum_delta - whole_ablation_delta| = {gap!r} "
             f"exceeds the sanity band {band!r}")

    evals = int(annotations["evaluations"])
    if not 1 <= evals <= len(rows) + 2:
        fail(f"{path}: evaluations {evals} outside [1, genes+2]")


def validate_attribution_file(path):
    annotations, filler, rows = parse_attribution_csv(path)
    check_attribution_semantics(path, annotations, rows)
    ok(f"{path}: {len(rows)} genes, filler {filler[0]} ({filler[1]}), "
       f"sum_delta {annotations['sum_delta']}")
    return annotations, rows


# ---------------------------------------------------------------------
# The coverage ledger.

def validate_coverage_csv(path):
    framed = read_framed(path, "coverage", columns=COVERAGE_COLUMNS,
                         preamble={"cells_total": 1, "class": 3})
    cells_total = None
    for where, (total,) in framed.comment("cells_total"):
        cells_total = number(total, where, int)
    class_cells = {}
    for where, (name, word, cells) in framed.comment("class"):
        if word != "cells":
            fail(f"{where}: malformed class line")
        class_cells[name] = number(cells, where, int)
    if cells_total is None or cells_total <= 0:
        fail(f"{path}: missing or non-positive cells_total")
    if set(class_cells) != set(CLASS_TOKENS):
        fail(f"{path}: class universe lines disagree with the class "
             f"set: {sorted(class_cells)}")
    if sum(class_cells.values()) != cells_total:
        fail(f"{path}: per-class cells sum to "
             f"{sum(class_cells.values())}, not cells_total "
             f"{cells_total}")

    prev_generation = None
    prev_seen = 0
    for row in framed.rows:
        generation, new, seen, total = (
            row.int("generation"), row.int("cells_new"),
            row.int("cells_seen"), row.int("cells_total"))
        saturation = row.float("saturation_pct")
        novelty = row.float("novelty_rate")
        per_class = [row.int(f"seen_{t}") for t in CLASS_TOKENS]
        if prev_generation is not None and \
                generation <= prev_generation:
            fail(f"{row.where}: generations not increasing")
        if total != cells_total:
            fail(f"{row.where}: cells_total changed mid-run")
        if seen != prev_seen + new:
            fail(f"{row.where}: cells_seen {seen} != previous "
                 f"{prev_seen} + cells_new {new}")
        if seen > total:
            fail(f"{row.where}: cells_seen exceeds the universe")
        if abs(saturation - 100.0 * seen / total) > 1e-3:
            fail(f"{row.where}: saturation_pct {saturation} != "
                 f"100 * {seen} / {total}")
        if not 0.0 <= novelty <= 1.0:
            fail(f"{row.where}: novelty_rate {novelty} outside "
                 f"[0, 1]")
        if sum(per_class) != seen:
            fail(f"{row.where}: per-class seen sums to "
                 f"{sum(per_class)}, not cells_seen {seen}")
        for token, cls_seen in zip(CLASS_TOKENS, per_class):
            if cls_seen > class_cells[token]:
                fail(f"{row.where}: seen_{token} {cls_seen} "
                     f"exceeds its universe {class_cells[token]}")
        prev_generation, prev_seen = generation, seen
    if not framed.rows:
        fail(f"{path} has no data rows")
    ok(f"{path}: {len(framed.rows)} generations, {prev_seen}/"
       f"{cells_total} cells ({100.0 * prev_seen / cells_total:.1f}%)")
    return cells_total, prev_seen


def validate_run_dir(run_dir):
    attribution_dir = os.path.join(run_dir, "attribution")
    results = []
    if os.path.isdir(attribution_dir):
        for name in sorted(os.listdir(attribution_dir)):
            if not ATTRIBUTION_FILE.fullmatch(name):
                fail(f"{attribution_dir} holds {name}, which is not an "
                     f"individual_<id>.csv artifact")
            results.append(validate_attribution_file(
                os.path.join(attribution_dir, name)))
    coverage_path = os.path.join(run_dir, "coverage.csv")
    coverage = None
    if os.path.exists(coverage_path):
        coverage = validate_coverage_csv(coverage_path)
    if not results and coverage is None:
        fail(f"{run_dir} holds neither attribution artifacts nor a "
             f"coverage.csv")
    return results, coverage


# ---------------------------------------------------------------------
# Drive mode.

def check_live_coverage(doc):
    for key in ("generation", "cells_seen", "cells_total", "cells_new",
                "saturation_pct", "novelty_rate", "classes"):
        if key not in doc:
            fail(f"/coverage lacks '{key}': {doc}")
    if doc["cells_total"] <= 0 or doc["cells_seen"] <= 0:
        fail(f"/coverage reports an empty universe: {doc}")
    if doc["cells_seen"] > doc["cells_total"]:
        fail(f"/coverage cells_seen exceeds cells_total: {doc}")
    if len(doc["classes"]) != len(CLASS_TOKENS):
        fail(f"/coverage lists {len(doc['classes'])} classes")
    if sum(c["seen"] for c in doc["classes"]) != doc["cells_seen"]:
        fail(f"/coverage class seen sums disagree: {doc}")


def drive(gest_binary):
    with scratch("check_attribution") as work:
        with live_run(gest_binary, work, DRIVE_CONFIG) as live:
            # /coverage must render live while the run is in flight.
            live_passes = 0
            last_seen = 0
            while live.alive() and live_passes < 10:
                try:
                    doc = live.get_json("/coverage")
                except RunEnded:
                    break
                if doc.get("cells_total", 0) > 0:
                    check_live_coverage(doc)
                    if doc["cells_seen"] < last_seen:
                        fail("/coverage cells_seen decreased between "
                             "scrapes")
                    last_seen = doc["cells_seen"]
                    live_passes += 1
                time.sleep(0.1)
            live.finish()
            if live_passes == 0:
                fail("the run finished before a single live /coverage "
                     "pass — raise generations in DRIVE_CONFIG")
            ok(f"{live_passes} live /coverage passes, final cells_seen "
               f"{last_seen}")

        out = os.path.join(work, "out")
        results, coverage = validate_run_dir(out)
        if not results:
            fail("the run sealed no attribution artifacts")
        if coverage is None:
            fail("the run wrote no coverage.csv")
        if coverage[1] < last_seen:
            fail(f"coverage.csv final cells_seen {coverage[1]} below "
                 f"the live scrape's {last_seen}")

        # The manifest must label and checksum the new artifacts.
        manifest = load_json(os.path.join(out, "manifest.json"))
        settings = manifest.get("settings", {})
        if settings.get("record_coverage") is not True or \
                settings.get("record_attribution") is not True:
            fail("manifest settings lack record_coverage/"
                 "record_attribution")
        kinds = {entry["path"]: entry["kind"]
                 for entry in manifest.get("artifacts", [])}
        if kinds.get("coverage.csv") != "coverage":
            fail(f"manifest labels coverage.csv as "
                 f"{kinds.get('coverage.csv')!r}")
        attribution_kinds = [kind for path, kind in kinds.items()
                             if path.startswith("attribution/")]
        if not attribution_kinds or \
                set(attribution_kinds) != {"attribution"}:
            fail(f"manifest attribution kinds wrong: "
                 f"{attribution_kinds}")

        run([gest_binary, "verify", out, "--quiet"], work)
        ok("gest verify replayed the sealed run")

        # `gest attribute` after the fact must reproduce the sealed
        # attribution exactly (deterministic simulated measurement).
        run([gest_binary, "attribute", os.path.join(work, "config.xml"),
             out, "--out", os.path.join(work, "re_attr"), "--quiet"], work)
        re_csvs = [name
                   for name in sorted(os.listdir(
                       os.path.join(work, "re_attr")))
                   if name.endswith(".csv")]
        if len(re_csvs) != 1:
            fail(f"expected one re-attribution CSV, found {re_csvs}")
        re_annotations, re_rows = validate_attribution_file(
            os.path.join(work, "re_attr", re_csvs[0]))

        sealed = {int(a["individual_id"]): (a, rows)
                  for a, rows in results}
        champion = int(re_annotations["individual_id"])
        if champion not in sealed:
            fail(f"gest attribute picked individual {champion}, which "
                 f"the run never sealed ({sorted(sealed)})")
        sealed_annotations, sealed_rows = sealed[champion]
        for key in ("baseline_fitness", "sum_delta",
                    "whole_ablation_delta"):
            if abs(re_annotations[key] -
                   sealed_annotations[key]) > TOLERANCE:
                fail(f"re-attribution {key} "
                     f"{re_annotations[key]!r} disagrees with the "
                     f"sealed {sealed_annotations[key]!r}")
        for sealed_row, re_row in zip(sealed_rows, re_rows):
            if abs(sealed_row["delta_fitness"] -
                   re_row["delta_fitness"]) > TOLERANCE:
                fail(f"re-attribution gene {re_row['gene']} delta "
                     f"disagrees with the sealed artifact")
        ok("gest attribute reproduced the sealed attribution bit-for-bit")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        if os.path.isdir(argv[1]):
            validate_run_dir(argv[1])
        else:
            validate_attribution_file(argv[1])
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
