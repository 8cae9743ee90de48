#!/usr/bin/env python3
"""Validate the cross-run observability surface: registry + alerts.

Standalone mode schema-checks a workspace's sealed index and every
run's alerts ledger (docs/fleet.md):

  * registry.csv opens with the gest-registry v1 tag, a column header
    and column-complete rows;
  * every <run>/alerts.csv opens with the gest-alerts v1 tag and carries
    well-typed rows (int generation, known severity, float
    value/threshold, comma-free message).

Drive mode builds a three-run workspace end to end and checks the
whole chain:

  * two same-seed, same-config runs (sealed) plus one provenance-off
    run with the health watchdog armed and a hair-trigger plateau rule
    (unsealed) — `gest runs` must index all three with the right
    statuses, and its --json rows must agree with the registry.csv it
    wrote;
  * the same-seed cohort must screen clean (`--baseline` exit 0, zero
    regression flags: identical trajectories give permutation p = 1);
  * the induced plateau must raise exactly one alert, visible in all
    four places: alerts.csv, /alerts while live, an `event: alert` SSE
    frame, and the `gest top --fleet` pane;
  * an SSE reconnect with Last-Event-ID must suppress already-seen
    generation frames but still redeliver the (keyless) alert frame;
  * a same-seed pair differing only in <output health="..."> must
    write byte-identical history.csv, lineage.csv and digests.csv —
    the watchdog is strictly observational.
  * every /history row read while the run is live and every SSE
    `generation` frame is that generation's history.csv row: exactly
    its columns plus the coverage_* keys, each value's text equal to
    its history.csv cell (coverage_<c> to coverage.csv's <c> cell);
  * the SSE stream attached while the run is live carries one
    `generation` frame per history.csv row and ends with `event: end`.

Usage:
  check_fleet.py <workspace>              schema checks only
  check_fleet.py --drive <gest-binary>    full end-to-end drive

Exit status 0 when everything validates; 1 with a message otherwise.
On failure --drive keeps its scratch directory for post-mortem (see
gestcheck.py).
"""

import json
import os
import shutil
import sys
import time

from gestcheck import (RunEnded, fail, get, live_run, ok, read_framed,
                       run, run_gest, scratch)

COHORT_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="16" individual_size="16" generations="12"
      seed="7" threads="1" fitness_cache_size="32"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out"/>
</gest_configuration>
"""

# health_plateau="3" trips on the first three-generation stall (all but
# certain within 200 generations); health_collapse_factor="0" disarms
# the only other rule wall-clock noise could trip on CI, and
# health_coverage_stall="0" the rule the coverage ledger would feed.
PLATEAU_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="24" individual_size="24" generations="200"
      seed="13" threads="1" fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" listen="127.0.0.1:0" provenance="false"
          coverage="true" health="true" health_plateau="3"
          health_collapse_factor="0" health_coverage_stall="0"/>
</gest_configuration>
"""

# Identical GA + seed, stats off (timing columns would differ between
# any two runs); only the health attribute differs between the pair.
IDENTITY_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="12" individual_size="12" generations="8"
      seed="5" threads="1" fitness_cache_size="32"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" stats="false" health="{health}"/>
</gest_configuration>
"""

REGISTRY_COLUMNS = (
    "run,status,state,config_hash,seed,git_sha,measurement,fitness,"
    "created,generations,generations_completed,evaluations,"
    "best_fitness,best_id,alerts,listen,note").split(",")

ALERTS_COLUMNS = ("generation", "rule", "severity", "value", "threshold",
                  "message")


# ------------------------------------------------------ schema checks

def validate_registry_csv(path):
    rows = read_framed(path, "registry", columns=REGISTRY_COLUMNS).rows
    for row in rows:
        if row["status"] not in ("sealed", "unsealed", "corrupt"):
            fail(f"{row.where}: bad status {row['status']!r}")
        row.int("alerts")
        row.float("best_fitness")
    return rows


def validate_registry_json(text, where):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        fail(f"{where} is not valid JSON: {err}")
    if doc.get("gest_registry_version") != 1:
        fail(f"{where}: gest_registry_version != 1: {doc!r}")
    if not isinstance(doc.get("runs"), list):
        fail(f"{where}: 'runs' is not an array")
    for row in doc["runs"]:
        for key in ("run", "status", "state", "config_hash", "seed",
                    "best_fitness", "alerts"):
            if key not in row:
                fail(f"{where}: run row lacks '{key}': {sorted(row)}")
    return doc["runs"]


def validate_alerts_csv(path):
    rows = read_framed(path, "alerts", columns=ALERTS_COLUMNS).rows
    for row in rows:
        row.int("generation")
        if row["severity"] not in ("warning", "critical"):
            fail(f"{row.where}: bad severity {row['severity']!r}")
        row.float("value")
        row.float("threshold")
    return rows


def check_json_matches_csv(json_rows, csv_rows):
    """`gest runs --json` prints the index registry.csv seals."""
    by_run = {row["run"]: row for row in csv_rows}
    json_runs = sorted(row["run"] for row in json_rows)
    if json_runs != sorted(by_run):
        fail(f"gest runs --json indexes {json_runs} but registry.csv "
             f"indexes {sorted(by_run)}")
    for row in json_rows:
        csv_row = by_run[row["run"]]
        for key in ("status", "state", "config_hash", "seed", "alerts"):
            value = "" if row[key] is None else str(row[key])
            if value != csv_row[key]:
                fail(f"{row['run']}: gest runs --json {key} {value!r} "
                     f"vs registry.csv {csv_row[key]!r}")


def validate_workspace(workspace):
    csv_rows = validate_registry_csv(os.path.join(workspace, "registry.csv"))
    alerts = 0
    for row in csv_rows:
        ledger = os.path.join(workspace, row["run"], "alerts.csv")
        if os.path.exists(ledger):
            parsed = validate_alerts_csv(ledger)
            if len(parsed) != row.int("alerts"):
                fail(f"{ledger}: {len(parsed)} rows but the registry "
                     f"says {row['alerts']}")
            alerts += len(parsed)
    return len(csv_rows), alerts


# ------------------------------------------------------ drive helpers

def cell_texts(text, where):
    """Parse a JSON history row keeping every number's text as written."""
    try:
        return json.loads(text, parse_int=str, parse_float=str)
    except json.JSONDecodeError as err:
        fail(f"{where} is not valid JSON: {err}\n{text[:400]}")


def drive_plateau_run(gest, scratch_dir):
    """Run the health-armed config; scrape /alerts, /history and SSE
    while live.

    Returns (run_dir, live_alert_rows, live_history_rows, sse_blocks,
    resumed_blocks).
    """
    work = os.path.join(scratch_dir, "plateau_work")
    with live_run(gest, work, PLATEAU_CONFIG) as live:
        sse = live.events()

        # Poll /history and /alerts until the induced plateau surfaces.
        live_alerts, live_history = [], []
        for _ in range(2000):
            if not live.alive():
                break
            try:
                status, body = get(f"http://{live.listen}/history",
                                   live.process)
                if status != 200:
                    fail(f"GET /history answered {status}: {body[:400]}")
                live_history = cell_texts(body, "/history")
                live_alerts = live.get_json("/alerts")
            except RunEnded:
                break
            if live_alerts:
                break
            time.sleep(0.025)
        if not live_alerts:
            live.finish()
            fail("the induced plateau never surfaced on /alerts while "
                 "the run was live")

        # Last-Event-ID resume: a huge id suppresses every generation
        # frame, but the keyless alert frame must be redelivered.
        resumed = live.events(last_event_id=10**6)

        live.finish()
        return (os.path.join(work, "out"), live_alerts, live_history,
                sse.blocks(), resumed.blocks())


def check_rows_match_history(run_dir, rows, what):
    """Each of `rows` (parsed by cell_texts) is the history.csv row of
    its generation, field by field, coverage_* keys included."""
    history = read_framed(os.path.join(run_dir, "history.csv"), "history",
                          version=2).rows
    coverage = read_framed(os.path.join(run_dir, "coverage.csv"),
                           "coverage",
                           preamble={"cells_total": 1, "class": 3}).rows
    if len(rows) > len(history):
        fail(f"{what}: {len(rows)} rows but history.csv has "
             f"{len(history)}")
    for row, csv_row, cov_row in zip(rows, history, coverage):
        expected = dict(csv_row)
        for column in ("cells_seen", "cells_total", "cells_new",
                       "saturation_pct", "novelty_rate"):
            expected["coverage_" + column] = cov_row[column]
        if list(row) != list(expected):
            fail(f"{what}: keys {list(row)} are not history.csv's "
                 f"columns plus coverage_*: {list(expected)}")
        for key, cell in expected.items():
            if row[key] != cell:
                fail(f"{what}: generation {csv_row['generation']} {key} "
                     f"is {row[key]!r}, history.csv {csv_row.where} "
                     f"says {cell!r}")


def check_observer_byte_identity(gest, scratch_dir):
    """health on vs off: history/lineage/digests must be byte-equal."""
    outs = {health: run_gest(gest,
                             os.path.join(scratch_dir, f"identity_{health}"),
                             IDENTITY_CONFIG.format(health=health))
            for health in ("false", "true")}
    for artifact in ("history.csv", "lineage.csv", "digests.csv"):
        paths = [os.path.join(outs[h], artifact)
                 for h in ("false", "true")]
        blobs = []
        for path in paths:
            try:
                with open(path, "rb") as handle:
                    blobs.append(handle.read())
            except OSError as err:
                fail(f"identity pair: cannot read {path}: {err}")
        if blobs[0] != blobs[1]:
            fail(f"{artifact} differs between health=false and "
                 "health=true — the watchdog must be strictly "
                 "observational")
    if not os.path.exists(os.path.join(outs["true"], "alerts.csv")):
        fail("health=true identity run left no alerts.csv (the eager "
             "header must prove the run was watched)")
    if os.path.exists(os.path.join(outs["false"], "alerts.csv")):
        fail("health=false identity run wrote an alerts.csv")
    ok("watchdog on/off artifacts byte-identical")


def drive(gest):
    with scratch("check_fleet") as scratch_dir:
        workspace = os.path.join(scratch_dir, "workspace")
        os.makedirs(workspace)

        # Two sealed same-seed/same-config runs + one unsealed
        # (provenance off) health-armed run.
        for name in ("run_a", "run_b"):
            shutil.move(run_gest(gest,
                                 os.path.join(scratch_dir, name + "_work"),
                                 COHORT_CONFIG),
                        os.path.join(workspace, name))
        plateau_out, live_alerts, live_history, sse_blocks, \
            resumed_blocks = drive_plateau_run(gest, scratch_dir)
        shutil.move(plateau_out, os.path.join(workspace, "run_c"))

        # /history and the SSE generation frames serve history.csv.
        run_c = os.path.join(workspace, "run_c")
        if not live_history:
            fail("/history served no row while the run was live")
        check_rows_match_history(run_c, live_history, "/history")
        frames = [cell_texts(b["data"], "SSE generation frame")
                  for b in sse_blocks if b.get("event") == "generation"]
        # Attached while the run was live, the stream carries every
        # generation and closes with the end event, though the server
        # stops as soon as the run ends.
        generations = len(read_framed(os.path.join(run_c, "history.csv"),
                                      "history", version=2).rows)
        if len(frames) != generations:
            fail(f"SSE carried {len(frames)} generation frames for "
                 f"{generations} history.csv rows")
        if not sse_blocks or sse_blocks[-1].get("event") != "end":
            fail("SSE stream did not close with the end event")
        check_rows_match_history(run_c, frames, "SSE generation frame")

        # The plateau raised exactly one alert, everywhere.
        if len(live_alerts) != 1:
            fail(f"/alerts carried {len(live_alerts)} alerts, "
                 f"expected exactly 1: {live_alerts!r}")
        if live_alerts[0].get("rule") != "fitness_plateau":
            fail(f"/alerts rule is not fitness_plateau: "
                 f"{live_alerts[0]!r}")
        rows = validate_alerts_csv(
            os.path.join(workspace, "run_c", "alerts.csv"))
        if len(rows) != 1 or rows[0]["rule"] != "fitness_plateau":
            fail(f"alerts.csv should hold exactly the plateau alert: "
                 f"{rows!r}")

        alert_frames = [b for b in sse_blocks
                        if b.get("event") == "alert"]
        if len(alert_frames) != 1:
            fail(f"SSE stream carried {len(alert_frames)} alert "
                 f"frames, expected exactly 1")
        if "id" in alert_frames[0]:
            fail("SSE alert frame carries an id — alerts must stay "
                 "keyless for at-least-once resume delivery")
        if json.loads(alert_frames[0]["data"]).get("rule") != \
                "fitness_plateau":
            fail(f"SSE alert payload is wrong: {alert_frames[0]!r}")

        # Resume with a huge Last-Event-ID: generation frames must be
        # suppressed, the keyless alert must be redelivered.
        resumed_gens = [b for b in resumed_blocks
                        if b.get("event") == "generation"]
        if resumed_gens:
            fail(f"resumed SSE replayed {len(resumed_gens)} generation "
                 "frames past Last-Event-ID")
        if not any(b.get("event") == "alert" for b in resumed_blocks):
            fail("resumed SSE did not redeliver the keyless alert "
                 "frame")

        # `gest runs` must index all three with the right statuses.
        runs_json = run([gest, "runs", workspace, "--json", "--quiet"],
                        scratch_dir).stdout
        json_rows = validate_registry_json(runs_json, "gest runs --json")
        check_json_matches_csv(json_rows, validate_registry_csv(
            os.path.join(workspace, "registry.csv")))
        indexed = {row["run"]: row for row in json_rows}
        if sorted(indexed) != ["run_a", "run_b", "run_c"]:
            fail(f"gest runs indexed {sorted(indexed)}")
        for name in ("run_a", "run_b"):
            if indexed[name]["status"] != "sealed":
                fail(f"{name} should index as sealed: {indexed[name]}")
        if indexed["run_c"]["status"] != "unsealed":
            fail(f"run_c (provenance off) should index as unsealed: "
                 f"{indexed['run_c']}")
        if indexed["run_c"]["alerts"] != 1:
            fail(f"run_c should carry 1 alert in the index: "
                 f"{indexed['run_c']}")
        if indexed["run_a"]["config_hash"] != \
                indexed["run_b"]["config_hash"]:
            fail("same-config runs got different config hashes")

        # Same-seed cohort screening: p = 1, no flags, exit 0.
        screening = json.loads(run(
            [gest, "runs", workspace, "--baseline", "run_a", "--json",
             "--quiet"], scratch_dir).stdout)
        if len(screening) != 1 or screening[0]["candidate"] != "run_b":
            fail(f"cohort should be exactly run_b: {screening!r}")
        if screening[0]["fitness_regression"] or \
                not screening[0]["same_seed"]:
            fail(f"same-seed twin flagged as regression: "
                 f"{screening[0]!r}")
        if screening[0]["fitness_p"] != 1.0:
            fail(f"identical trajectories must give p = 1: "
                 f"{screening[0]!r}")

        # The sealed index on disk validates, and the alert is counted.
        runs, alerts = validate_workspace(workspace)
        if runs != 3 or alerts != 1:
            fail(f"workspace index: {runs} runs / {alerts} alerts, "
                 "expected 3 / 1")

        # The fleet pane shows the run and its alert.
        pane = run([gest, "top", workspace, "--fleet", "--once",
                    "--quiet"], scratch_dir).stdout
        if "run_c" not in pane:
            fail(f"fleet pane does not list run_c:\n{pane}")
        if "1 alert(s)" not in pane:
            fail(f"fleet pane does not count the alert:\n{pane}")

        check_observer_byte_identity(gest, scratch_dir)
        ok("3-run workspace indexed, cohort screened clean, plateau "
           "alert visible in alerts.csv, /alerts, SSE and the fleet "
           "pane, /history and SSE rows equal to history.csv")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        runs, alerts = validate_workspace(argv[1])
        ok(f"{argv[1]}: {runs} runs indexed, {alerts} alerts, schemas "
           "valid")
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
