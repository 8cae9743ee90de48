#!/usr/bin/env python3
"""Validate waveform artifacts written by gest's signal-capture layer.

Checks the gest-waveforms v1 CSV format (flight-recorder captures in
<run_dir>/waveforms/ and `gest probe` output) plus physics sanity:

  * the version comment, `# annotation` and `# signal` headers and the
    `signal,kind,index,time_s,value` rows are well-formed;
  * every declared signal has exactly its declared sample count, with
    contiguous indices and a time base matching its sample rate;
  * the scalar Evaluation annotations agree with the captured traces:
    v_min / v_max / peak_to_peak_v re-derived from the post-warmup
    pdn_voltage_v samples match to 1e-9 (when no samples were dropped),
    the voltage stays below the supply, the thermal transient stays
    inside its endpoints, interval IPC is non-negative and bounded;
  * the spectrum companion (<base>_spectrum.csv), when present, scans
    ascending frequencies with non-negative amplitudes;
  * a directory's index.csv (gest-waveform-index v2) references
    existing files with fitness non-increasing by rank, and the
    directory holds no file the index does not name.

Usage:
  check_waveforms.py <file.csv | waveforms_dir>   validate artifacts
  check_waveforms.py --drive <gest-binary>        run a tiny PDN GA with
                                                  <output waveforms="2">,
                                                  validate the sealed
                                                  captures, then `gest
                                                  probe` the run and
                                                  validate that too

On failure --drive keeps its scratch directory for post-mortem (see
gestcheck.py).

Exit status 0 when the artifacts are valid; 1 with a message otherwise.
"""

import math
import os
import sys

from gestcheck import (fail, number, ok, read_framed, run, run_gest,
                       scratch)

TOLERANCE = 1e-9

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="8" individual_size="10" generations="4" seed="6"
      threads="2"/>
  <library name="x86"/>
  <measurement class="SimVoltageNoiseMeasurement">
    <config platform="athlon-x4" min_cycles="4096"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" waveforms="2" stats="false"/>
</gest_configuration>
"""

COLUMNS = ("signal", "kind", "index", "time_s", "value")

INDEX_COLUMNS = ("rank", "id", "generation", "fitness", "csv", "spectrum")


def parse_csv(path):
    """Parse one gest-waveforms CSV into (annotations, signals, marks).

    signals: name -> dict(unit, rate_hz, warmup, samples=[...],
    declared_samples, dropped). marks: list of (kind, index, time_s).
    """
    framed = read_framed(path, "waveforms", columns=COLUMNS,
                         preamble={"annotation": 2, "signal": 6})
    signals = {}
    for where, (name, *fields) in framed.comment("signal"):
        meta = dict(field.partition("=")[::2] for field in fields)
        for key in ("unit", "rate_hz", "warmup", "samples", "dropped"):
            if key not in meta:
                fail(f"{where}: signal '{name}' lacks '{key}='")
        signals[name] = {
            "unit": meta["unit"],
            "rate_hz": number(meta["rate_hz"], where),
            "warmup": number(meta["warmup"], where, int),
            "declared_samples": number(meta["samples"], where, int),
            "dropped": number(meta["dropped"], where, int),
            "samples": [],
        }
        if signals[name]["rate_hz"] <= 0:
            fail(f"{where}: signal '{name}' has non-positive rate_hz")

    marks = []
    for row in framed.rows:
        name, kind = row["signal"], row["kind"]
        index, time_s = row.int("index"), row.float("time_s")
        if kind == "sample":
            if name not in signals:
                fail(f"{row.where}: sample for undeclared signal "
                     f"'{name}'")
            sig = signals[name]
            if index != len(sig["samples"]):
                fail(f"{row.where}: signal '{name}' sample index "
                     f"{index} out of order")
            expected_t = index / sig["rate_hz"]
            if not math.isclose(time_s, expected_t, rel_tol=1e-12,
                                abs_tol=1e-15):
                fail(f"{row.where}: signal '{name}' time {time_s} "
                     f"does not match index/rate {expected_t}")
            sample = row.float("value")
            if not math.isfinite(sample):
                fail(f"{row.where}: non-finite sample {sample}")
            sig["samples"].append(sample)
        elif kind == "mark":
            marks.append((name, index, time_s))
        else:
            fail(f"{row.where}: unknown row kind '{kind}'")

    for name, sig in signals.items():
        if len(sig["samples"]) != sig["declared_samples"]:
            fail(f"{path}: signal '{name}' declares "
                 f"{sig['declared_samples']} samples but carries "
                 f"{len(sig['samples'])}")
    return framed.annotations, signals, marks


def summary_start(sig):
    """First index the summary stats cover (the C++ warmup clamp)."""
    n = len(sig["samples"])
    if sig["warmup"] >= n:
        return n // 2
    return sig["warmup"]


def check_physics(path, annotations, signals, marks):
    voltage = signals.get("pdn_voltage_v")
    if voltage is not None and voltage["samples"]:
        post = voltage["samples"][summary_start(voltage):]
        v_min, v_max = min(post), max(post)
        if voltage["dropped"] == 0:
            for key, derived in (("v_min", v_min), ("v_max", v_max),
                                 ("peak_to_peak_v", v_max - v_min)):
                if key not in annotations:
                    fail(f"{path}: pdn_voltage_v captured but "
                         f"annotation '{key}' is missing")
                if abs(annotations[key] - derived) > TOLERANCE:
                    fail(f"{path}: annotation {key}="
                         f"{annotations[key]!r} disagrees with the "
                         f"trace-derived {derived!r} beyond 1e-9")
        vdd = annotations.get("vdd")
        if vdd is not None and v_min >= vdd:
            fail(f"{path}: post-warmup v_min {v_min} is not below the "
                 f"supply {vdd} — no IR drop under load is unphysical")

    thermal = signals.get("die_temp_c")
    if thermal is not None and thermal["samples"]:
        temps = thermal["samples"]
        lo = min(temps[0], temps[-1]) - 1.0
        hi = max(temps[0], temps[-1]) + 1.0
        for i, temp in enumerate(temps):
            if not lo <= temp <= hi:
                fail(f"{path}: die_temp_c sample {i} ({temp}) "
                     f"overshoots the transient endpoints "
                     f"[{temps[0]}, {temps[-1]}]")

    ipc_wave = signals.get("interval_ipc")
    if ipc_wave is not None:
        for i, value in enumerate(ipc_wave["samples"]):
            if not 0.0 <= value <= 64.0:
                fail(f"{path}: interval_ipc sample {i} ({value}) "
                     f"outside [0, 64]")

    for kind, index, time_s in marks:
        if kind not in ("l1_miss", "l2_miss", "mispredict"):
            fail(f"{path}: unknown mark kind '{kind}'")
        if index < 0 or time_s < 0:
            fail(f"{path}: mark {kind} has negative index/time")


def check_spectrum(csv_path):
    spectrum_path = os.path.splitext(csv_path)[0] + "_spectrum.csv"
    if not os.path.exists(spectrum_path):
        return
    spectrum = read_framed(spectrum_path, "spectrum",
                           columns=("frequency_hz", "amplitude_a"),
                           preamble={"resonance_hz": 1})
    if not spectrum.comment("resonance_hz") or not spectrum.rows:
        fail(f"{spectrum_path} lacks the resonance header or any rows")
    last_freq = 0.0
    for row in spectrum.rows:
        freq, amp = row.float("frequency_hz"), row.float("amplitude_a")
        if freq <= last_freq:
            fail(f"{row.where}: frequencies not strictly ascending")
        if amp < 0 or not math.isfinite(amp):
            fail(f"{row.where}: bad amplitude {amp}")
        last_freq = freq


def validate_file(path):
    annotations, signals, marks = parse_csv(path)
    if not signals:
        fail(f"{path} declares no signals")
    check_physics(path, annotations, signals, marks)
    check_spectrum(path)
    total = sum(len(s["samples"]) for s in signals.values())
    ok(f"{path}: {len(signals)} signals, {total} samples, "
       f"{len(marks)} marks, {len(annotations)} annotations")
    return annotations


def validate_index(directory):
    """The index rows, and every file name the index accounts for."""
    index_path = os.path.join(directory, "index.csv")
    if not os.path.exists(index_path):
        fail(f"{directory} has no index.csv")
    rows, named = [], {"index.csv"}
    for row in read_framed(index_path, "waveform-index",
                           columns=INDEX_COLUMNS, version=2).rows:
        refs = [ref for ref in (row["csv"], row["spectrum"]) if ref]
        for ref in refs:
            if not os.path.exists(os.path.join(directory, ref)):
                fail(f"{row.where}: referenced file {ref} does not exist")
        named.update(refs)
        rows.append((row.int("rank"), row.float("fitness"), row["fitness"],
                     row["csv"]))
    for (rank_a, fit_a, *_), (rank_b, fit_b, *_) in zip(rows, rows[1:]):
        if rank_b != rank_a + 1:
            fail(f"{index_path}: ranks not consecutive")
        if fit_b > fit_a:
            fail(f"{index_path}: fitness increases from rank {rank_a} "
                 f"({fit_a}) to {rank_b} ({fit_b})")
    if not rows:
        fail(f"{index_path} lists no captures")
    return rows, named


def validate_dir(directory):
    rows, named = validate_index(directory)
    stray = sorted(set(os.listdir(directory)) - named)
    if stray:
        fail(f"{directory} holds {', '.join(stray)}, which index.csv does "
             f"not name")
    for *_, csv_name in rows:
        validate_file(os.path.join(directory, csv_name))
    ok(f"{directory}: index lists {len(rows)} captures, champion "
       f"fitness {rows[0][2]}")
    return rows


def drive(gest_binary):
    with scratch("check_waveforms") as work:
        out = run_gest(gest_binary, work, DRIVE_CONFIG)
        rows = validate_dir(os.path.join(out, "waveforms"))

        run([gest_binary, "probe", os.path.join(work, "config.xml"), out,
             "--quiet"], work)
        probe_dir = os.path.join(out, "probe")
        probe_csvs = [name for name in sorted(os.listdir(probe_dir))
                      if name.endswith(".csv") and
                      not name.endswith("_spectrum.csv")]
        if len(probe_csvs) != 1:
            fail(f"expected one probe capture in {probe_dir}, found "
                 f"{probe_csvs}")
        annotations = validate_file(
            os.path.join(probe_dir, probe_csvs[0]))

        # Determinism across capture paths: the probe re-measures the
        # run's champion, so its peak-to-peak voltage must equal the
        # fitness the GA recorded for it, bit-for-bit within 1e-9.
        champion_fitness = rows[0][1]
        if abs(annotations["peak_to_peak_v"] - champion_fitness) > \
                TOLERANCE:
            fail(f"probe peak_to_peak_v "
                 f"{annotations['peak_to_peak_v']!r} disagrees with "
                 f"the champion fitness {champion_fitness!r}")
        ok("probe capture matches the champion fitness")


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        if os.path.isdir(argv[1]):
            validate_dir(argv[1])
        else:
            validate_file(argv[1])
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
