#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file written by gest.

Checks the subset of the trace-event format that gest emits, so a trace
accepted here loads in chrome://tracing and https://ui.perfetto.dev:

  * the file is valid JSON with a "traceEvents" list;
  * complete events (ph "X") carry name/cat/pid/tid, a numeric ts and a
    non-negative dur;
  * instant events (ph "i") carry name/pid/tid/ts;
  * metadata events (ph "M") are process_name/thread_name with an
    args.name string;
  * every event's tid has a thread_name metadata record;
  * complete events on the same tid do not partially overlap (trace
    viewers require proper nesting per thread);
  * per tid, end timestamps (ts + dur) are non-decreasing in file
    order: each thread emits a complete event when it finishes, so a
    decreasing end time means reordered or corrupted emission (start
    timestamps may legitimately decrease — a nested inner span is
    emitted before its enclosing outer span).

Usage:
  check_trace.py <trace.json>            validate an existing trace
  check_trace.py --drive <gest-binary>   run a tiny GA with --trace in a
                                         temp dir, then validate the
                                         trace and metrics.json it wrote

Exit status 0 when the trace is valid; 1 with a message otherwise.
"""

import os
import sys

from gestcheck import fail, load_json, ok, run_gest, scratch

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="3" seed="11"
      threads="2" fitness_cache_size="32"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out"/>
</gest_configuration>
"""


def check_common(event, index, phase):
    for key in ("name", "pid", "tid"):
        if key not in event:
            fail(f"event {index} (ph '{phase}') lacks '{key}': {event}")
    if not isinstance(event["name"], str) or not event["name"]:
        fail(f"event {index} has a non-string or empty name")
    if not isinstance(event["ts"], (int, float)):
        fail(f"event {index} has non-numeric ts {event.get('ts')!r}")
    if event["ts"] < 0:
        fail(f"event {index} has negative ts {event['ts']}")


def validate(path):
    doc = load_json(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path} lacks a traceEvents object")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not a list")
    if not events:
        fail("traceEvents is empty")

    named_tids = set()
    spans_by_tid = {}
    last_end_by_tid = {}
    counts = {"X": 0, "i": 0, "M": 0}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {index} is not an object")
        phase = event.get("ph")
        if phase not in counts:
            fail(f"event {index} has unexpected ph {phase!r}")
        counts[phase] += 1
        if phase == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                fail(f"metadata event {index} has unexpected name "
                     f"{event.get('name')!r}")
            args = event.get("args", {})
            if not isinstance(args.get("name"), str):
                fail(f"metadata event {index} lacks args.name")
            if event["name"] == "thread_name":
                named_tids.add(event.get("tid"))
            continue
        check_common(event, index, phase)
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"complete event {index} has bad dur {dur!r}")
            spans_by_tid.setdefault(event["tid"], []).append(
                (event["ts"], event["ts"] + dur, index))
            # A thread emits each complete event at its end, so in file
            # order the end times of one tid never go backwards even
            # though start times may (inner spans precede outer ones).
            tid, end = event["tid"], event["ts"] + dur
            prev = last_end_by_tid.get(tid)
            if prev is not None and end < prev[0]:
                fail(f"event {index} (tid {tid}) ends at {end}, before "
                     f"event {prev[1]} on the same tid ended at "
                     f"{prev[0]}: per-tid end timestamps must be "
                     "non-decreasing in file order (events emitted out "
                     "of completion order, or ts/dur corrupted)")
            last_end_by_tid[tid] = (end, index)

    if counts["X"] == 0:
        fail("no complete ('X') events — nothing to display")

    used_tids = {e["tid"] for e in events if e.get("ph") != "M"}
    unnamed = used_tids - named_tids
    if unnamed:
        fail(f"tids {sorted(unnamed)} have events but no thread_name "
             "metadata")

    # Spans on one thread must nest: sorted by start, each span either
    # contains the next or ends before it starts.
    for tid, spans in spans_by_tid.items():
        spans.sort()
        stack = []
        for start, end, index in spans:
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(f"event {index} (tid {tid}) partially overlaps "
                     f"event {stack[-1][2]}: [{start}, {end}) vs "
                     f"[{stack[-1][0]}, {stack[-1][1]})")
            stack.append((start, end, index))

    ok(f"{path}: {counts['X']} complete, {counts['i']} instant, "
       f"{counts['M']} metadata events on {len(used_tids)} threads")


def drive(gest_binary):
    with scratch("check_trace") as work:
        out = run_gest(gest_binary, work, DRIVE_CONFIG, "--trace")
        validate(os.path.join(out, "trace.json"))
        doc = load_json(os.path.join(out, "metrics.json"))
        for section in ("counters", "gauges", "histograms"):
            if section not in doc:
                fail(f"metrics.json lacks '{section}'")
        if doc["counters"].get("engine.generations") != 3:
            fail("metrics.json engine.generations != 3: "
                 f"{doc['counters'].get('engine.generations')!r}")
        ok(f"metrics.json has {len(doc['counters'])} counters, "
           f"{len(doc['histograms'])} histograms")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        validate(argv[1])
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
