"""The serving benchmark: one command, every metric by name.

    python3 perf/run.py [--seed 17] [--workload NAME ...] [--seconds S]
                        [--trace [0|1]] [--quick] [--out FILE]

Trains the fixtures once, runs each workload in its own subprocess
(``perf/worker.py``), checks every served decision against the oracle and
prints every declared metric with its unit.  ``--trace`` is a *separate* run:
it wraps the public methods of each layer from here, outside the program, and
prints the per-layer metrics instead of the end-to-end ones.

With exactly one ``--workload`` the last line of standard output is the JSON
object BENCHMARK.json's contract asks for.  The exit code is non-zero when
any request failed or any correctness/conservation gate was violated — after
everything has been printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np  # noqa: E402

from perf import declared, fixtures  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

#: The contract allows a run 180 s; leave room for training and reporting.
WORKER_TIMEOUT_S = 150.0
FEEDER_TRACEBACK = "Exception in thread QueueFeederThread"
#: One BLAS thread in the workload process, unless the caller's environment
#: says otherwise.  A worker thread, the generator thread and a second BLAS
#: thread are three runnable threads on the reference box's two cores, and
#: the scheduler's choices then show up as noise (and as ~13 % lower req/s).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(name: str, scratch: Path, args: argparse.Namespace) -> dict:
    """One workload in a fresh interpreter; returns its JSON document."""
    command = [
        sys.executable, str(_ROOT / "perf" / "worker.py"),
        "--workload", name, "--fixtures", str(scratch),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])
    environment = dict(os.environ)
    for variable in BLAS_THREAD_VARIABLES:
        environment.setdefault(variable, "1")
    # Its own session, so a timeout can take the replica processes down with
    # the worker instead of orphaning them.
    process = subprocess.Popen(
        command, cwd=_ROOT, env=environment, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"workload {name} did not finish in {WORKER_TIMEOUT_S:.0f} s")
    sys.stderr.write(stderr)
    if process.returncode != 0:
        raise SystemExit(f"workload {name} crashed (exit code {process.returncode})")
    document = json.loads(stdout.strip().splitlines()[-1])
    if args.trace and WORKLOADS[name].replicas:
        # ROADMAP 4a: feeder-thread tracebacks at pool retirement — a count,
        # never a failure.
        document["metrics"]["replica.teardown_warnings"] = {
            **declared.summarize([stderr.count(FEEDER_TRACEBACK)]), "unit": "count",
        }
        document["absent"].remove("replica.teardown_warnings")
    return document


def report(document: dict) -> None:
    print(
        f"\n== {document['workload']}: {document['rounds']} rounds, "
        f"{document['requests_sent']} sent, {document['requests_ok']} ok, "
        f"{document['requests_failed']} failed, decisions {document['decision_digest']}"
    )
    for name, metric in document["metrics"].items():
        print(
            f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<10} "
            f"[q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['rounds']}]"
        )
    if document["absent"]:
        print("  absent (layer not on this workload's path): " + ", ".join(document["absent"]))
    if document["disturbed_rounds"]:
        print(f"  disturbed: the generator ran late in {document['disturbed_rounds']} round(s)")
    for violation in document["violations"]:
        print(f"  VIOLATION: {violation}")


def cross_checks(documents: Dict[str, dict]) -> List[str]:
    """Checks that need more than one workload's results."""
    problems = []
    dynamic = [doc for name, doc in documents.items()
               if WORKLOADS[name].dynamic and WORKLOADS[name].fixture == "image"]
    if len({doc["prefix_digest"] for doc in dynamic}) > 1:
        problems.append("dynamic image workloads disagree on their common request prefix")
    return problems


def driver_line(document: dict, declaration: dict) -> str:
    section = "per_layer" if document["traced"] else "end_to_end"
    metrics = {}
    for entry in declaration[section]:
        # The contract wants every declared metric on the line; a layer that
        # is absent from this workload's path reads 0 here and is *named* as
        # absent in the report above.
        measured = document["metrics"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": measured["value"] if measured else 0.0, "unit": entry["unit"],
        }
    failed = document["requests_failed"] + len(document["violations"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": document["requests_sent"],
        "failed": failed,
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    declaration = declared.load()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=[entry["name"] for entry in declaration["workloads"]])
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"],
                        help="measured time per workload (rounds are whole)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny fixtures, ~300 requests, one round; not comparable")
    parser.add_argument("--out", type=Path, help="write the full JSON document here")
    args = parser.parse_args(argv)

    build = _ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perf-", dir=build))
    try:
        for key in sorted({WORKLOADS[name].fixture for name in args.workload}):
            fixtures.train_fixture(fixtures.FIXTURES[key], scratch, quick=args.quick)
        documents = {name: run_worker(name, scratch, args) for name in args.workload}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for document in documents.values():
        report(document)
    problems = cross_checks(documents)
    for problem in problems:
        print(f"VIOLATION: {problem}")
    if {"direct_dynamic_closed", "direct_static_closed"} <= set(documents) and not args.trace:
        dynamic, static = (documents[name]["metrics"]["throughput_rps"]["value"] for name in
                           ("direct_dynamic_closed", "direct_static_closed"))
        print(f"\ndynamic / static throughput (serving-level Table III ratio; "
              f"printed, not gated): {dynamic / static:.3f} = {dynamic:.1f} / {static:.1f} req/s")
    if args.out:
        args.out.write_text(json.dumps({
            "quick": args.quick, "traced": bool(args.trace),
            "seed": args.seed, "seconds": args.seconds,
            "machine": {"cpus": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(), "numpy": np.__version__,
                        "blas_threads": os.environ.get(BLAS_THREAD_VARIABLES[0], "1")},
            "workloads": documents,
        }, indent=2) + "\n")
    if len(documents) == 1:
        (document,) = documents.values()
        print(driver_line(document, declaration))
    failed = sum(doc["requests_failed"] + len(doc["violations"]) for doc in documents.values())
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
