#!/usr/bin/env python3
"""Export a gest lineage ledger as a Graphviz dot graph.

Reads the `lineage.csv` a run records (one row per birth event: seed,
resumed, crossover, mutation, elite copy) and emits a digraph with one
node per individual and one edge per parent-child relationship, so the
full family tree of a GA run can be rendered with `dot -Tsvg`. Nodes
are colored by creating operator and labeled with id, birth generation
and fitness; the champion (highest fitness, earliest generation then
lowest id on ties) and its ancestry are outlined bold so the winning
line is visible in large graphs. `--champion-only` drops everything
else, which keeps graphs of long runs readable.

Usage:
  lineage_to_dot.py <run_dir|lineage.csv> [-o out.dot] [--champion-only]
  lineage_to_dot.py --drive <gest-binary>

--drive runs a tiny GA in a temp dir, polls status.json for well-formed
JSON and renders `gest top <run_dir> --once` while the run is live and
again after it, then schema-validates the lineage.csv and
analytics.csv it wrote, checks the champion's ancestry reaches
generation 0, and round-trips the ledger through the dot exporter.
Exit status 0 on success; 1 with a message otherwise.
"""

import json
import os
import sys
import time

from gestcheck import (fail, live_run, number, ok, read_framed, run,
                       scratch)

LINEAGE_COLUMNS = [
    "generation", "id", "op", "parent1", "parent2", "mutated_genes",
    "mutated_indices", "fitness",
]

ANALYTICS_COLUMNS = [
    "generation", "mix_short_int", "mix_long_int", "mix_float_simd",
    "mix_mem", "mix_branch", "mix_nop", "gene_entropy_bits",
    "pairwise_diversity", "fitness_min", "fitness_q1", "fitness_median",
    "fitness_q3", "fitness_max", "crossover_children",
    "crossover_improved", "mutation_children", "mutation_improved",
    "elite_copies",
]

OPS = ("seed", "resumed", "crossover", "mutation", "elite_copy")

OP_COLOR = {
    "seed": "lightblue",
    "resumed": "lightgrey",
    "crossover": "palegreen",
    "mutation": "gold",
    "elite_copy": "plum",
}

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="10" individual_size="10" generations="6" seed="7"
      fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out"/>
</gest_configuration>
"""


def parse_lineage(path):
    """Parse and schema-validate a lineage.csv; returns event dicts."""
    events = []
    for row in read_framed(path, "lineage", required=LINEAGE_COLUMNS).rows:
        event = {
            "generation": row.int("generation"),
            "id": row.int("id"),
            "op": row["op"],
            "parent1": row.int("parent1"),
            "parent2": row.int("parent2"),
            "mutated_genes": row.int("mutated_genes"),
            "mutated_indices": [
                number(g, f"{row.where}: mutated_indices", int)
                for g in row["mutated_indices"].split(";") if g],
            "fitness": row.float("fitness"),
        }
        if event["op"] not in OPS:
            fail(f"{row.where}: unknown op {event['op']!r}")
        if event["generation"] < 0 or event["id"] <= 0:
            fail(f"{row.where}: bad generation/id")
        if event["mutated_genes"] != len(event["mutated_indices"]):
            fail(f"{row.where}: mutated_genes={event['mutated_genes']} "
                 f"but {len(event['mutated_indices'])} indices listed")
        events.append(event)
    if not events:
        fail(f"{path} has no birth events — the run has not completed "
             "generation 0 yet")
    return events


def champion_ancestry(events):
    """Ids of the champion and every known ancestor (births only)."""
    birth = {}
    for event in events:
        birth.setdefault(event["id"], event)
    champ = max(
        events,
        key=lambda e: (e["fitness"], -e["generation"], -e["id"]))
    keep = set()
    queue = [champ["id"]]
    while queue:
        ident = queue.pop()
        if ident in keep or ident not in birth:
            continue
        keep.add(ident)
        event = birth[ident]
        if event["op"] in ("seed", "resumed"):
            continue
        for parent in (event["parent1"], event["parent2"]):
            if parent:
                queue.append(parent)
    return champ["id"], keep


def to_dot(events, champion_only=False):
    birth = {}
    for event in events:
        birth.setdefault(event["id"], event)
    champ_id, ancestry = champion_ancestry(events)

    out = ["digraph lineage {"]
    out.append('  rankdir=TB; node [shape=box, style=filled, '
               'fontname="monospace"];')
    for ident, event in sorted(birth.items()):
        if champion_only and ident not in ancestry:
            continue
        label = (f"id {ident}\\ngen {event['generation']} "
                 f"{event['op']}\\nfit {event['fitness']:.4f}")
        attrs = [f'label="{label}"',
                 f'fillcolor="{OP_COLOR[event["op"]]}"']
        if ident in ancestry:
            attrs.append("penwidth=2.5")
        if ident == champ_id:
            attrs.append('color="red"')
        out.append(f'  n{ident} [{", ".join(attrs)}];')
    for ident, event in sorted(birth.items()):
        if champion_only and ident not in ancestry:
            continue
        if event["op"] in ("seed", "resumed"):
            continue
        parents = {event["parent1"], event["parent2"]}
        for parent in sorted(parents):
            if parent == 0 or parent == ident:
                continue
            if champion_only and parent not in ancestry:
                continue
            if parent not in birth:
                # Resumed runs reference pre-ledger ancestors; show a
                # dashed stub so the cut is visible rather than silent.
                out.append(f'  n{parent} [label="id {parent}\\n'
                           '(before ledger)", fillcolor="white", '
                           'style="filled,dashed"];')
            out.append(f"  n{parent} -> n{ident};")
    out.append("}")
    return "\n".join(out) + "\n"


def check_dot(text, events):
    """Sanity-check generated dot output (used by --drive)."""
    if not text.startswith("digraph lineage {"):
        fail("dot output does not start with 'digraph lineage {'")
    if text.count("{") != text.count("}"):
        fail("dot output has unbalanced braces")
    ids = {e["id"] for e in events}
    nodes = sum(1 for line in text.splitlines()
                if line.strip().startswith("n") and "[" in line)
    if nodes < len(ids):
        fail(f"dot output has {nodes} nodes for {len(ids)} individuals")


def validate_analytics(path):
    rows = read_framed(path, "analytics", required=ANALYTICS_COLUMNS).rows
    for row in rows:
        mix = [row.int(c) for c in ANALYTICS_COLUMNS[1:7]]
        diversity = row.float("pairwise_diversity")
        quartiles = [row.float(c) for c in (
            "fitness_min", "fitness_q1", "fitness_median", "fitness_q3",
            "fitness_max")]
        if any(m < 0 for m in mix):
            fail(f"{row.where}: negative mix count")
        if not 0.0 <= diversity <= 1.0:
            fail(f"{row.where}: pairwise_diversity {diversity} outside "
                 "[0, 1]")
        if any(a > b + 1e-9 for a, b in zip(quartiles, quartiles[1:])):
            fail(f"{row.where}: fitness quartiles not monotonic: "
                 f"{quartiles}")
    if not rows:
        fail(f"{path} has no rows")
    return len(rows)


def check_status(path, require_completed=False):
    """status.json must be well-formed JSON at *every* read."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return None  # not written yet — fine while polling
    except (OSError, json.JSONDecodeError) as err:
        fail(f"status.json torn or invalid: {err}")
    for key in ("state", "generation", "total_generations",
                "best_fitness", "average_fitness", "diversity",
                "evaluations", "cache_hit_rate", "evals_per_sec",
                "eta_seconds"):
        if key not in doc:
            fail(f"status.json lacks '{key}': {doc}")
    if doc["state"] not in ("running", "completed"):
        fail(f"status.json has unexpected state {doc['state']!r}")
    if require_completed and doc["state"] != "completed":
        fail(f"final status.json state is {doc['state']!r}, "
             "expected 'completed'")
    return doc


def check_top(gest_binary, work, out):
    """`gest top <run_dir> --once` must exit 0 with a file-mode frame."""
    frame = run([gest_binary, "top", out, "--once"], work).stdout
    if "(files)" not in frame.partition("\n")[0]:
        fail(f"gest top frame lacks the '(files)' header:\n{frame}")
    return frame


def drive(gest_binary):
    with scratch("check_lineage") as work:
        out = os.path.join(work, "out")
        status = os.path.join(out, "status.json")

        # Poll status.json while the run is live: the atomic replace
        # must never expose a torn file to a concurrent reader. gest top
        # re-reads the same files, mid-append included.
        polls = tops = 0
        with live_run(gest_binary, work, DRIVE_CONFIG,
                      listen=False) as live:
            while live.alive():
                if check_status(status) is not None:
                    polls += 1
                if os.path.isdir(out):
                    check_top(gest_binary, work, out)
                    tops += 1
                time.sleep(0.001)
            live.finish()
        final = check_status(status, require_completed=True)
        if final is None:
            fail("run completed without writing status.json")
        ok(f"status.json valid on {polls} live polls; final state "
           f"'{final['state']}', generation "
           f"{final['generation']}/{final['total_generations'] - 1}")
        frame = check_top(gest_binary, work, out)
        if "state completed" not in frame:
            fail(f"final gest top frame is not completed:\n{frame}")
        ok(f"gest top rendered {tops} live frames and the final one")

        events = parse_lineage(os.path.join(out, "lineage.csv"))
        generations = {e["generation"] for e in events}
        expected = set(range(final["total_generations"]))
        if generations != expected:
            fail(f"lineage.csv covers generations {sorted(generations)},"
                 f" expected {sorted(expected)}")

        # The champion's ancestry must close: every chased parent known,
        # every terminal a generation-0 seed.
        champ_id, ancestry = champion_ancestry(events)
        birth = {}
        for event in events:
            birth.setdefault(event["id"], event)
        for ident in ancestry:
            event = birth[ident]
            if event["op"] in ("seed", "resumed"):
                if event["generation"] != 0:
                    fail(f"ancestor {ident} is a {event['op']} born at "
                         f"generation {event['generation']}, not 0")
                continue
            for parent in (event["parent1"], event["parent2"]):
                if parent and parent not in birth:
                    fail(f"ancestor {ident} references unknown parent "
                         f"{parent} in a non-resumed run")
        roots = sum(1 for i in ancestry
                    if birth[i]["op"] in ("seed", "resumed"))
        if roots == 0:
            fail("champion ancestry has no generation-0 root")
        ok(f"lineage.csv has {len(events)} birth events; champion id "
           f"{champ_id} closes over {len(ancestry)} ancestors down to "
           f"{roots} seed(s)")

        rows = validate_analytics(os.path.join(out, "analytics.csv"))
        if rows != final["total_generations"]:
            fail(f"analytics.csv has {rows} rows, expected "
                 f"{final['total_generations']}")
        ok(f"analytics.csv has {rows} schema-valid rows")

        for champion_only in (False, True):
            dot = to_dot(events, champion_only=champion_only)
            check_dot(dot, events if not champion_only else
                      [e for e in events if e["id"] in ancestry])
        ok("dot export is well-formed (full and --champion-only)")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    args = [a for a in argv[1:] if not a.startswith("-")]
    champion_only = "--champion-only" in argv
    out_path = None
    if "-o" in argv:
        index = argv.index("-o")
        if index + 1 >= len(argv):
            fail("-o requires a file name")
        out_path = argv[index + 1]
        args = [a for a in args if a != out_path]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = args[0]
    if os.path.isdir(path):
        path = os.path.join(path, "lineage.csv")
    dot = to_dot(parse_lineage(path), champion_only=champion_only)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
