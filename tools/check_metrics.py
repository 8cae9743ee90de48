#!/usr/bin/env python3
"""Validate the live telemetry endpoints served by a gest run.

Checks the whole scrape surface (docs/observability.md, "Live
endpoints"):

  * /status and /history are valid JSON with the documented keys;
    history generations count up from 0;
  * /champion carries the best individual's id/fitness/code;
  * /metrics is well-formed Prometheus text exposition (HELP/TYPE
    comments, one sample per line, histogram buckets cumulative and
    consistent with _count);
  * /events is well-framed SSE: "event:"/"id:"/"data:" lines, blank-line
    separated, each data payload valid JSON with a generation number;
  * counters scraped from /metrics reappear in the run's final
    metrics.json with values >= the last scraped value (counters are
    monotonic and the artifacts outlive the server).

Usage:
  check_metrics.py <url>                  one validation pass against a
                                          live server (no file checks)
  check_metrics.py --drive <gest-binary>  run a GA with --listen
                                          127.0.0.1:0 in a temp dir,
                                          scrape it while it runs, then
                                          cross-check metrics.json

Exit status 0 when everything validates; 1 with a message otherwise.
On failure --drive keeps its scratch directory for post-mortem (see
gestcheck.py).
"""

import json
import os
import re
import sys
import time

from gestcheck import (RunEnded, fail, get, get_json, live_run, load_json,
                       ok, scratch)

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="24" individual_size="24" generations="200"
      seed="13" threads="2" fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" listen="127.0.0.1:0"/>
</gest_configuration>
"""

STATUS_KEYS = (
    "state", "generation", "total_generations", "best_fitness",
    "average_fitness", "diversity", "evaluations", "cache_hit_rate",
    "evals_per_sec", "elapsed_seconds", "eta_seconds", "steady_hits",
    "cycles_simulated", "cycles_tiled", "listen",
)

HISTORY_KEYS = (
    "generation", "best_fitness", "average_fitness", "best_id",
    "diversity", "cache_hits", "cache_misses", "evaluation_ms",
)

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$")


def check_status(doc, require_listen):
    if not isinstance(doc, dict):
        fail(f"/status is not a JSON object: {doc!r}")
    for key in STATUS_KEYS:
        if key not in doc:
            fail(f"/status lacks key '{key}': {sorted(doc)}")
    if doc["state"] not in ("running", "completed"):
        fail(f"/status state is {doc['state']!r}")
    if require_listen and not doc["listen"]:
        fail("/status 'listen' is empty although the server is up")


def check_history(doc):
    if not isinstance(doc, list):
        fail(f"/history is not a JSON array: {type(doc)}")
    for index, row in enumerate(doc):
        for key in HISTORY_KEYS:
            if key not in row:
                fail(f"/history row {index} lacks '{key}': {row}")
        if row["generation"] != index:
            fail(f"/history row {index} has generation "
                 f"{row['generation']} (rows must count up from 0)")
    return len(doc)


def check_champion(doc, expect_present):
    if not isinstance(doc, dict):
        fail(f"/champion is not a JSON object: {doc!r}")
    if not expect_present:
        return
    for key in ("generation", "id", "fitness", "code"):
        if key not in doc:
            fail(f"/champion lacks key '{key}': {sorted(doc)}")
    if not isinstance(doc["code"], list) or not doc["code"]:
        fail("/champion 'code' is empty — champions always have a body")


def check_metrics_text(text):
    """Validate Prometheus exposition; return {counter_name: value}."""
    typed = {}
    counters = {}
    histograms = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram"):
                fail(f"/metrics line {lineno}: bad TYPE comment: {line}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            fail(f"/metrics line {lineno}: unexpected comment: {line}")
        match = SAMPLE_RE.match(line)
        if not match:
            fail(f"/metrics line {lineno}: not a valid sample: {line!r}")
        name, labels, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            fail(f"/metrics line {lineno}: sample '{name}' has no "
                 "preceding # TYPE")
        kind = typed.get(name, typed.get(base))
        if kind == "counter":
            counters[name] = float(value)
        elif kind == "histogram" and name.endswith("_bucket"):
            le = re.search(r'le="([^"]+)"', labels or "")
            if not le:
                fail(f"/metrics line {lineno}: bucket without le label")
            histograms.setdefault(base, []).append(
                (le.group(1), float(value)))
        elif kind == "histogram" and name.endswith("_count"):
            histograms.setdefault(base, []).append(
                ("__count__", float(value)))
    for base, rows in histograms.items():
        buckets = [v for le, v in rows if le != "__count__"]
        counts = [v for le, v in rows if le == "__count__"]
        if any(b > a for a, b in zip(buckets[1:], buckets)):
            fail(f"/metrics histogram {base}: buckets not cumulative: "
                 f"{buckets}")
        if not buckets or not counts or buckets[-1] != counts[0]:
            fail(f"/metrics histogram {base}: le=+Inf bucket "
                 f"{buckets[-1] if buckets else None} != _count "
                 f"{counts[0] if counts else None}")
    if not counters:
        fail("/metrics exposes no counters at all")
    return counters


def check_sse(blocks):
    """Validate the /events blocks; return the number of generations."""
    generations = []
    for fields in blocks:
        if fields.get("event") == "end":
            continue
        if fields.get("event") == "alert":
            # Health-watchdog frames: keyless (no id line — a resumed
            # client must get them redelivered) JSON alert objects.
            if "id" in fields:
                fail(f"SSE alert frame carries an id: {fields!r}")
            try:
                alert = json.loads(fields.get("data", ""))
            except json.JSONDecodeError as err:
                fail(f"SSE alert data is not JSON: {err}")
            if "rule" not in alert:
                fail(f"SSE alert lacks 'rule': {alert!r}")
            continue
        if fields.get("event") != "generation":
            fail(f"SSE block with unexpected event: {fields!r}")
        for key in ("id", "data"):
            if key not in fields:
                fail(f"SSE generation block lacks '{key}': {fields!r}")
        try:
            payload = json.loads(fields["data"])
        except json.JSONDecodeError as err:
            fail(f"SSE data is not JSON: {err}: {fields['data']!r}")
        if payload.get("generation") != int(fields["id"]):
            fail(f"SSE id {fields['id']} != data generation "
                 f"{payload.get('generation')}")
        generations.append(payload["generation"])
    if generations != sorted(generations):
        fail(f"SSE generations out of order: {generations}")
    return len(generations)


def validate_endpoints(base, process=None):
    """One scrape pass; returns (generations_seen, counters).

    `process` is the driven run serving `base` (None for a standalone
    URL); once it has exited a GET raises RunEnded. A driven run was
    started with a listen address, so /status must report it."""
    check_status(get_json(base + "/status", process),
                 require_listen=process is not None)
    rows = check_history(get_json(base + "/history", process))
    check_champion(get_json(base + "/champion", process), rows > 0)
    code, metrics_text = get(base + "/metrics", process)
    if code != 200:
        fail(f"/metrics answered {code}: {metrics_text}")
    counters = check_metrics_text(metrics_text)
    health = get_json(base + "/healthz", process)
    if health.get("status") != "ok":
        fail(f"/healthz unhealthy: {health!r}")
    return rows, counters


def metrics_json_counters(path):
    """metrics.json "counters" as {prometheus_counter_name: value}."""
    counters = load_json(path).get("counters")
    if not isinstance(counters, dict):
        fail(f"{path} has no \"counters\" object")
    return {"gest_" + re.sub(r"[^a-zA-Z0-9]", "_", name) + "_total": value
            for name, value in counters.items()}


def cross_check(scraped, metrics_path):
    """Scraped counters must reappear in metrics.json, never smaller."""
    final = metrics_json_counters(metrics_path)
    for name, value in scraped.items():
        if name not in final:
            fail(f"counter {name} was scraped from /metrics but has no "
                 f"counterpart in {metrics_path}")
        if final[name] < value:
            fail(f"counter {name}: final metrics.json value {final[name]} "
                 f"< last scraped value {value} (counters are "
                 "monotonic; the artifacts must agree with the scrape)")
    ok(f"{len(scraped)} scraped counters cross-checked against "
       "metrics.json")


def drive(gest_binary):
    with scratch("check_metrics") as work, \
            live_run(gest_binary, work, DRIVE_CONFIG) as live:
        sse = live.events()
        scraped = {}
        passes = 0
        while live.alive() and passes < 50:
            try:
                _, counters = validate_endpoints(f"http://{live.listen}",
                                                 live.process)
            except RunEnded:
                break
            scraped.update(counters)
            passes += 1
            time.sleep(0.2)
        live.finish()
        if passes == 0:
            fail("the run finished before a single scrape pass — "
                 "raise generations in DRIVE_CONFIG")

        events = check_sse(sse.blocks())
        if events == 0:
            fail("SSE stream carried no generation events")

        cross_check(scraped, os.path.join(work, "out", "metrics.json"))
        ok(f"{passes} scrape passes, {events} SSE generation events, run "
           "exit 0")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        base = argv[1].rstrip("/")
        if not base.startswith("http://"):
            base = "http://" + base
        rows, counters = validate_endpoints(base)
        ok(f"{base}: {rows} history rows, {len(counters)} counters")
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
