#!/usr/bin/env python3
"""Render a backtest sweep artifact as a human-readable what-if report.

Reads the schema-v1 JSON written by ``python -m repro.cli backtest --out``
(or :meth:`repro.serve.SweepResult.to_json`) and prints:

* context — the trace, composition and oracle the sweep ran against, plus
  the recorded-baseline exactness verdict (the sweep's honesty check);
* candidates — one row per schedule with the deterministic scores (agreement
  vs. the full-horizon oracle, label accuracy, mean exit timestep, modeled
  p99 latency, EDP), Pareto members starred;
* frontier — the accuracy/EDP/p99 trade-off curve in frontier order, with
  each candidate's schedule spelled out;
* exit shift — per-candidate exit-timestep histograms as bars, the visual of
  *where* a schedule spends its timesteps.

Usage::

    PYTHONPATH=src python tools/backtest_report.py BACKTEST_sweep.json
    PYTHONPATH=src python tools/backtest_report.py BACKTEST_sweep.json --histograms
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _schedule_text(spec: dict) -> str:
    kind = spec.get("kind")
    if kind == "recorded":
        return "recorded knobs (per-request baseline)"
    if kind == "piecewise":
        parts = []
        for seg in spec.get("segments", []):
            text = f"{seg['start']:g}s: θ={seg['threshold']:g}"
            if seg.get("horizon") is not None:
                text += f", T<={seg['horizon']}"
            parts.append(text)
        return "; ".join(parts)
    return json.dumps(spec, sort_keys=True)


def report(path: str, histograms: bool = False) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("kind") != "backtest_sweep":
        print(f"{path} is not a backtest sweep artifact "
              f"(kind={document.get('kind')!r})")
        return 1
    print(f"backtest sweep: {path} (schema v{document.get('schema_version')})")

    trace = document.get("trace", {})
    composition = document.get("composition", {})
    oracle = document.get("oracle", {})
    print(f"trace: {trace.get('records')} requests, "
          f"dataset={trace.get('dataset')}, preset={trace.get('preset')}, "
          f"horizon={trace.get('max_timesteps')}")
    replicas = composition.get("replicas")
    print("composition: " + (f"{replicas} process replica(s)" if replicas
                             else f"{composition.get('workers')} worker thread(s)"))
    print(f"oracle: {oracle.get('unique_clips')} unique clips at full "
          f"horizon (θ={oracle.get('threshold')})")

    baseline = document.get("baseline", {})
    if baseline.get("name"):
        if baseline.get("exact"):
            print("baseline: recorded schedule reproduced the trace's "
                  "decisions and telemetry exactly")
        else:
            print("baseline: MISMATCH against the trace's own telemetry — "
                  "what-if scores are NOT trustworthy:")
            for line in baseline.get("mismatches", [])[:10]:
                print(f"  {line}")

    pareto = list(document.get("pareto", []))
    candidates = document.get("candidates", [])
    if not candidates:
        print("no candidates in artifact")
        return 1

    print(f"\ncandidates ({len(candidates)}, *=Pareto):")
    header = (f"  {'name':<24s} {'agree':>7s} {'acc':>7s} {'avgT':>6s} "
              f"{'p99*':>10s} {'EDP*':>12s} {'digest':>12s}")
    print(header)
    for candidate in candidates:
        scores = candidate.get("scores", {})
        star = "*" if candidate.get("name") in pareto else " "
        print(f" {star}{candidate.get('name'):<24s} "
              f"{_fmt(scores.get('agreement')):>7s} "
              f"{_fmt(scores.get('accuracy')):>7s} "
              f"{_fmt(scores.get('mean_exit'), 2):>6s} "
              f"{_fmt(scores.get('model_latency_p99'), 2):>10s} "
              f"{_fmt(scores.get('edp_mean'), 1):>12s} "
              f"{candidate.get('decision_digest', '')[:12]:>12s}")
    print("  (* modeled from decisions — composition-invariant; wall-clock "
          "stats live under each candidate's \"measured\" block)")

    by_name = {c.get("name"): c for c in candidates}
    print(f"\nPareto frontier ({len(pareto)} point(s)):")
    for name in pareto:
        candidate = by_name.get(name)
        if candidate is None:
            print(f"  {name}: (missing from candidates?)")
            continue
        scores = candidate.get("scores", {})
        print(f"  {name}: agreement {_fmt(scores.get('agreement'))}, "
              f"EDP {_fmt(scores.get('edp_mean'), 1)}, "
              f"p99 {_fmt(scores.get('model_latency_p99'), 2)}")
        print(f"    schedule: {_schedule_text(candidate.get('schedule', {}))}")

    if histograms:
        print("\nexit-timestep shift:")
        for candidate in candidates:
            histogram = candidate.get("scores", {}).get("exit_histogram", [])
            total = max(1, sum(histogram))
            peak = max(histogram) if histogram else 1
            print(f"  {candidate.get('name')}:")
            for t, count in enumerate(histogram, start=1):
                bar = "#" * int(30 * count / max(1, peak))
                print(f"    T={t}: {count:5d} "
                      f"({100.0 * count / total:5.1f}%) {bar}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("artifact",
                        help="sweep JSON written by `repro.cli backtest --out`")
    parser.add_argument("--histograms", action="store_true",
                        help="also render per-candidate exit histograms")
    args = parser.parse_args()
    return report(args.artifact, histograms=args.histograms)


if __name__ == "__main__":
    sys.exit(main())
