"""The six serving workloads (why each exists: BENCHMARK.json / perf/README.md).

All servers: ``num_workers=1``, ``batch_width=8``; ``queue_capacity=64``
unless stated — the composition behind the repo's req/s history.  Closed
loops are fixed by request *count*, so every round of a workload serves the
same requests and must reach the same decisions.  A round is served in
segments of ``segment`` requests (a quarter to one second of traffic) with the
box's speed read between them (perf/loadgen.py); the counts make a round
2-3 s on the 2-core reference box, so four or five fill the 10 s a run may
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

BATCH_WIDTH = 8
WARMUP_REQUESTS = 2000
#: --quick: one segment of four windows a round, so two remain after
#: ramp-up and drain.
QUICK_REQUESTS = 800
QUICK_WARMUP_REQUESTS = 200
#: Requests every dynamic image workload serves at least; their decisions on
#: this prefix must agree across workloads (same stream, same policy).
COMMON_PREFIX = 4800
#: A round whose generator ran later than this (p99) is flagged, not dropped.
DISTURBED_LAG_MS = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    requests: int
    #: Requests per segment, a whole number of windows; its first (ramp-up) and
    #: last (drain) window are dropped.
    segment: int = 2000
    dynamic: bool = True
    observed: bool = False
    replicas: int = 0
    fresh_odd: bool = False
    #: Open loop when set: offered requests/second, sent ``burst`` at a time.
    rate: float = 0.0
    burst: int = 1
    queue_capacity: int = 64
    #: ``slo_ok_share`` counts requests finished within this many ms of due.
    #: The open loop's 5 ms is a service limit; a closed loop keeps ~72
    #: requests in flight by construction, so its limit only catches stalls.
    slo_ms: float = 100.0

    @property
    def open_loop(self) -> bool:
        return self.rate > 0


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("direct_dynamic_closed", "image", 14000),
        Workload("direct_static_closed", "image", 10000, dynamic=False),
        Workload("event_mixed_closed", "event", 6000, fresh_odd=True),
        Workload("observed_dynamic_closed", "image", 10000, observed=True),
        Workload("replica1_dynamic_closed", "image", 10000, replicas=1),
        # The queue holds 2 s of arrivals: a stall of the shared box shows
        # up as latency and SLO misses, never as refused (= failed) requests.
        Workload("direct_bursty_open", "image", 4800, segment=800, rate=2000.0, burst=8,
                 queue_capacity=4096, slo_ms=5.0),
    )
}
