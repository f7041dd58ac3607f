#!/usr/bin/env python3
"""Summarize a serving trace: traffic shape, decisions, stage breakdown.

Reads a WAL trace recorded with ``python -m repro.cli serve --record-trace``
and prints a human-readable breakdown:

* traffic — request count, duration, offered rate, truncation info, and the
  rejections broken down by WAL ``reason`` (rejected at the door or by an
  engine / ``storm`` / ``deadline`` / ``shed``): why requests failed;
* decisions — exit-timestep histogram, threshold(s), accuracy when labels
  were recorded;
* time breakdown — queue-delay and service-time percentiles per request, the
  closest thing to a flame view a WAL carries (per-stage *span* percentiles
  come from ``serve --stats-dump``, which holds live SpanTracker state);
* clips — unique clips vs. total requests (content-addressed dedup ratio).

Usage::

    PYTHONPATH=src python tools/trace_report.py /tmp/trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.serve import load_trace  # noqa: E402


def _percentiles(values, points=(50, 95, 99)):
    array = np.asarray(values, dtype=np.float64)
    return {f"p{p}": float(np.percentile(array, p)) for p in points}


def report(path: str) -> int:
    trace = load_trace(path)
    records = trace.records
    print(f"trace: {path}")
    if trace.header:
        keys = ("dataset", "arch", "preset", "max_timesteps", "batch_width",
                "workers", "replicas", "seed")
        context = ", ".join(f"{k}={trace.header[k]}" for k in keys
                            if k in trace.header)
        print(f"header: {context}")
    if trace.truncated:
        print("note: truncated tail recovered (crash mid-append); totals "
              "cover the durable prefix")
    # Why requests failed: one count per WAL ``reason`` (none = rejected).
    reasons = Counter(line.get("reason", "rejected") for line in trace.rejections)
    if reasons:
        print(f"failed: {len(trace.rejections)} ("
              + ", ".join(f"{reason} {count}" for reason, count in sorted(reasons.items()))
              + ")")
    if not records:
        print("no request records")
        return 1

    # Traffic shape
    offsets = [r.arrival_offset for r in records]
    span = max(offsets) - min(offsets)
    print(f"\ntraffic: {len(records)} requests, "
          f"{len(trace.rejections)} failed, "
          f"arrival span {span:.3f}s"
          + (f", offered ~{len(records) / span:.1f} req/s" if span > 0 else ""))
    unique = len({r.digest for r in records})
    stored = len(trace.clips)
    print(f"clips: {unique} unique across {len(records)} requests "
          f"({stored} stored; dedup saves "
          f"{100.0 * (1 - unique / len(records)):.0f}% of payload writes)")

    # Decisions
    thresholds = sorted({r.threshold for r in records if r.threshold is not None})
    if len(thresholds) == 1:
        print(f"\nthreshold: {thresholds[0]} (fixed — replayable with "
              "bitwise verification)")
    elif thresholds:
        advice = ("epoch-stamped — replayable with bitwise verification"
                  if trace.epoch_stamped()
                  else "no epoch stamps — replay with --no-verify")
        print(f"\nthreshold: moved over [{thresholds[0]}, {thresholds[-1]}] "
              f"(controller trace, {advice})")
    exits = np.array([r.exit_timestep for r in records])
    horizon = int(trace.max_timesteps or exits.max())
    histogram = np.bincount(exits, minlength=horizon + 1)[1:]
    print(f"exit timesteps: mean {exits.mean():.2f}")
    for t, count in enumerate(histogram, start=1):
        bar = "#" * int(40 * count / max(1, histogram.max()))
        print(f"  T={t}: {int(count):5d} ({100.0 * count / len(records):5.1f}%) {bar}")
    labelled = [r for r in records if r.label is not None]
    if labelled:
        correct = sum(1 for r in labelled if r.prediction == r.label)
        print(f"accuracy: {correct}/{len(labelled)} "
              f"({100.0 * correct / len(labelled):.1f}%)")

    # Time breakdown
    for name, values in (
        ("queue_delay", [r.queue_delay for r in records]),
        ("service_time", [r.service_time for r in records]),
    ):
        stats = _percentiles(values)
        rendered = ", ".join(f"{k}={1000.0 * v:.2f}ms" for k, v in stats.items())
        print(f"{name}: {rendered}")
    energies = [r.energy for r in records if r.energy is not None]
    if energies:
        print(f"energy: total {sum(energies):.4g}, "
              f"mean {sum(energies) / len(energies):.4g} per request")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace", help="WAL trace path (serve --record-trace)")
    args = parser.parse_args()
    return report(args.trace)


if __name__ == "__main__":
    sys.exit(main())
