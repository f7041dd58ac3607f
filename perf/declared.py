"""What BENCHMARK.json declares — the one place names, units and bounds live."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent


def load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median of rounds with the quartiles and the round count beside it."""
    values = [float(value) for value in values]
    if len(values) > 1:
        # "inclusive": the rounds of a run are the whole population, so the
        # quartiles never leave the data.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "rounds": len(values)}
