#!/usr/bin/env python3
"""End-to-end validator for gest's provenance + replay-verification layer.

Static mode checks a sealed run directory's provenance artifacts:

  * manifest.json parses, carries the v1 schema, a 64-hex config hash,
    the RNG seed/generator and one checksum entry per artifact;
  * every checksummed artifact exists with its recorded SHA-256;
  * digests.csv carries the gest-digests v1 tag, its column header and
    one 64-hex population digest per recorded generation.

Drive mode exercises the whole audit loop against a gest binary:

  1. run a tiny deterministic GA and `gest verify` the sealed run
     (full replay and --quick must both exit 0);
  2. flip one byte of lineage.csv — verify must now fail naming
     exactly that artifact — then restore it;
  3. rewrite the manifest's seed — a full verify must fail naming the
     first divergent generation (generation 0) — then restore it;
  4. run the same configuration+seed into a second directory and
     `gest compare --json` the two: zero significant deltas.

Usage:
  check_repro.py <run_dir>              validate sealed artifacts
  check_repro.py --drive <gest-binary>  full run/verify/tamper/compare
                                        loop in a scratch directory

On failure --drive keeps its scratch directory for post-mortem (see
gestcheck.py).

Exit status 0 when everything holds; 1 with a message otherwise.
"""

import hashlib
import json
import os
import sys

from gestcheck import fail, load_json, ok, read_framed, run, run_gest, scratch

DIGESTS_COLUMNS = ("generation", "best_fitness", "population_digest")

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="4" seed="23"
      fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out"/>
</gest_configuration>
"""


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def is_hex_digest(text):
    return len(text) == 64 and all(c in "0123456789abcdef" for c in text)


def validate_run(run_dir):
    manifest = load_json(os.path.join(run_dir, "manifest.json"))

    version = manifest.get("gest_manifest_version")
    if version != 1:
        fail(f"unsupported gest_manifest_version {version!r}")
    config = manifest.get("config", {})
    if not is_hex_digest(config.get("hash", "")):
        fail(f"config.hash is not a SHA-256 hex digest: "
             f"{config.get('hash')!r}")
    rng = manifest.get("rng", {})
    if "seed" in rng and not str(rng["seed"]).isdigit():
        fail(f"rng.seed is not an unsigned integer: {rng['seed']!r}")
    if not rng.get("generator"):
        fail("rng.generator is missing or empty")

    artifacts = manifest.get("artifacts")
    if not isinstance(artifacts, list) or not artifacts:
        fail("manifest carries no artifact checksums")
    for entry in artifacts:
        rel = entry.get("path", "")
        recorded = entry.get("sha256", "")
        if not rel or not is_hex_digest(recorded):
            fail(f"malformed artifact entry: {entry!r}")
        path = os.path.join(run_dir, rel)
        if not os.path.isfile(path):
            fail(f"checksummed artifact {rel} is missing")
        actual = sha256_of(path)
        if actual != recorded:
            fail(f"artifact {rel}: recorded sha256 {recorded[:12]}… "
                 f"but file hashes {actual[:12]}…")
        if entry.get("bytes") != os.path.getsize(path):
            fail(f"artifact {rel}: recorded {entry.get('bytes')} bytes "
                 f"but file holds {os.path.getsize(path)}")

    rows = read_framed(os.path.join(run_dir, "digests.csv"), "digests",
                       columns=DIGESTS_COLUMNS).rows
    expected = manifest.get("result", {}).get("digests_sealed")
    if expected is not None and expected != len(rows):
        fail(f"manifest records {expected} sealed digests but "
             f"digests.csv holds {len(rows)} rows")
    for row in rows:
        if not is_hex_digest(row["population_digest"]):
            fail(f"{row.where}: malformed population digest")
    ok(f"{len(artifacts)} artifacts verified, {len(rows)} population "
       "digests well-formed")
    return len(rows)


def drive(gest_binary):
    with scratch("check_repro") as work:
        run_a = run_gest(gest_binary, os.path.join(work, "a"),
                         DRIVE_CONFIG)
        validate_run(run_a)

        # 1. An untampered deterministic run verifies, fully and
        # quickly.
        run([gest_binary, "verify", run_a, "--quiet"], work)
        run([gest_binary, "verify", run_a, "--quick", "--quiet"], work)

        # 2. Flip one byte of lineage.csv: verify must fail and name
        # the artifact.
        lineage = os.path.join(run_a, "lineage.csv")
        original = open(lineage, "rb").read()
        tampered = bytearray(original)
        tampered[len(tampered) // 2] ^= 0x01
        with open(lineage, "wb") as handle:
            handle.write(bytes(tampered))
        result = run([gest_binary, "verify", run_a, "--quiet"], work,
                     expect=1)
        if "lineage.csv" not in result.stdout:
            fail(f"tampered-lineage verify does not name lineage.csv:\n"
                 f"{result.stdout}")
        with open(lineage, "wb") as handle:
            handle.write(original)

        # 3. Rewrite the manifest's seed: the replay must diverge at
        # generation 0.
        manifest_path = os.path.join(run_a, "manifest.json")
        manifest_text = open(manifest_path, encoding="utf-8").read()
        if '"seed": "23"' not in manifest_text:
            fail("manifest does not record the expected seed 23")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(
                manifest_text.replace('"seed": "23"', '"seed": "24"'))
        result = run([gest_binary, "verify", run_a, "--quiet"], work,
                     expect=1)
        if "generation 0" not in result.stdout:
            fail(f"seed-drift verify does not name the first divergent "
                 f"generation:\n{result.stdout}")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(manifest_text)
        run([gest_binary, "verify", run_a, "--quiet"], work)

        # 4. Same configuration + seed into a second directory: compare
        # must report zero significant deltas.
        run_b = run_gest(gest_binary, os.path.join(work, "b"),
                         DRIVE_CONFIG)
        result = run([gest_binary, "compare", run_a, run_b, "--json",
                      "--quiet"], work)
        try:
            report = json.loads(result.stdout)
        except json.JSONDecodeError as err:
            fail(f"gest compare --json output is not valid JSON: {err}\n"
                 f"{result.stdout}")
        comparisons = report.get("comparisons", [])
        if len(comparisons) != 1:
            fail(f"expected one comparison, got {len(comparisons)}")
        deltas = comparisons[0].get("significant_deltas")
        if deltas != 0:
            fail(f"same-seed runs report {deltas} significant deltas:\n"
                 f"{result.stdout}")
        ok("verify catches tampering and seed drift; same-seed compare "
           "reports zero deltas")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        validate_run(argv[1])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
