"""Compare two ``perf/run.py --out`` documents, metric by metric.

    python3 perf/compare.py A.json B.json

One row per metric × workload: both medians with their quartiles, the ratio
B/A *with its base*, the bound BENCHMARK.json fixes, and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  either run's inter-quartile spread (as a share of its median)
                exceeds the bound, so this pair of runs cannot tell

Everything is a ratio, so two documents from one machine compare the same way
on any machine.  Quick documents are refused: their fixtures are not the
benchmark's.  Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perf import declared  # noqa: E402


def verdict(a: dict, b: dict, better: str, bound: Optional[float]) -> str:
    if bound is None:
        return "-"
    if a["value"] == b["value"]:
        return "ok"
    spread = max(
        (run["q3"] - run["q1"]) / abs(run["value"]) for run in (a, b) if run["value"]
    )
    if spread > bound:
        return "unresolved"
    worsening = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        worsening = -worsening
    return "worse" if worsening > bound else "ok"


def compare(a: dict, b: dict, declaration: dict) -> List[dict]:
    for document in (a, b):
        if document["quick"]:
            raise ValueError("--quick output is not comparable")
    if a["traced"] != b["traced"]:
        raise ValueError("one document is traced and the other is not")
    section = declaration["per_layer" if a["traced"] else "end_to_end"]
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for entry in section:
            ours = a["workloads"][name]["metrics"].get(entry["name"])
            theirs = b["workloads"][name]["metrics"].get(entry["name"])
            if ours is None or theirs is None:
                continue
            rows.append({
                "workload": name, "metric": entry["name"], "unit": entry["unit"],
                "a": ours, "b": theirs,
                "ratio": theirs["value"] / ours["value"] if ours["value"] else float("nan"),
                "bound": entry.get("bound"),
                "verdict": verdict(ours, theirs, entry["better"], entry.get("bound")),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    try:
        rows = compare(a, b, declared.load())
    except ValueError as error:
        print(f"refused: {error}")
        return 2
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"\n== {workload}")
        bound = "" if row["bound"] is None else f"bound {row['bound']:.2f}"
        print(
            f"  {row['metric']:<32} A {row['a']['value']:>11.5g} "
            f"[{row['a']['q1']:.5g}, {row['a']['q3']:.5g}]  "
            f"B {row['b']['value']:>11.5g} [{row['b']['q1']:.5g}, {row['b']['q3']:.5g}] "
            f"{row['unit']:<9} B/A {row['ratio']:.4f} (base A {row['a']['value']:.5g})  "
            f"{bound:<10} {row['verdict']}"
        )
    counts = {name: sum(row["verdict"] == name for row in rows)
              for name in ("ok", "worse", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
