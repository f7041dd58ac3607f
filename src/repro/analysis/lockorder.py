"""Named locks and a debug-mode lock-order tracker.

Every lock in ``repro.serve`` and ``repro.runtime`` is created through
:func:`named_lock`, which gives the lock a stable hierarchy name (the rank
table lives in docs/ANALYSIS.md).  With ``REPRO_LOCK_CHECK`` unset the
factory returns a plain ``threading.Lock`` — zero wrapper overhead, same
construction-time-flag pattern as ``REPRO_TRACE_OPS``.  With
``REPRO_LOCK_CHECK=1`` it returns a :class:`NamedLock` whose acquisitions
feed a process-global :class:`LockGraph`:

* each thread keeps the stack of named locks it currently holds;
* acquiring lock ``B`` while holding ``A`` records the edge ``A -> B``
  together with the first call site that established it;
* an edge that would close a cycle (``B`` already reaches ``A``) raises
  :class:`LockOrderError` *before* the edge is recorded, so the exported
  graph is acyclic by construction;
* re-acquiring a lock name the thread already holds raises immediately —
  these are non-reentrant ``threading.Lock``s, so that is a guaranteed
  self-deadlock.

The graph is keyed by lock *name*, not instance: two telemetry objects
share the rank "serve.telemetry".  That is the hierarchy contract — no
code path may hold two same-ranked locks at once (none does today; the
tracker enforces it as the re-acquire error).

``NamedLock`` deliberately implements only ``acquire``/``release``/context
manager, the subset ``threading.Condition`` uses when wrapping a foreign
lock, so ``Condition(named_lock(...))`` works unchanged (the
``AdmissionQueue`` dual-condition pattern).  ``Condition.wait`` releases
and re-acquires out of LIFO order, which is why release removes the *last
occurrence* of the name from the held stack instead of popping blindly.
"""

from __future__ import annotations

import json
import os
import threading
import traceback
from typing import Dict, List, Optional, Union

from ..utils.validation import env_flag

__all__ = [
    "LockOrderError",
    "NamedLock",
    "LockGraph",
    "named_lock",
    "lock_check_enabled",
    "acquisition_graph",
    "assert_acyclic",
    "reset_tracking",
    "dump_graph",
]

def lock_check_enabled() -> bool:
    """Whether ``REPRO_LOCK_CHECK`` asks for tracked locks.

    Read at *lock construction* time, never per-acquisition: flipping the
    variable mid-process only affects locks created afterwards.
    """
    return env_flag("REPRO_LOCK_CHECK", False)


class LockOrderError(RuntimeError):
    """A lock acquisition violated the recorded ordering (potential deadlock)."""


_THIS_FILE = os.path.normcase(os.path.abspath(__file__))


def _call_site(skip: int = 3) -> str:
    """One-line summary of the innermost frame outside this module."""
    for frame in reversed(traceback.extract_stack()[:-skip]):
        if os.path.normcase(os.path.abspath(frame.filename)) != _THIS_FILE:
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown>"


class LockGraph:
    """Per-thread acquisition tracking and the global name-level edge graph."""

    def __init__(self):
        # A plain lock on purpose: the tracker must never track itself.
        self._mutex = threading.Lock()
        # edge source -> {edge target: first call site that recorded it}
        self._edges: Dict[str, Dict[str, str]] = {}
        self._names: List[str] = []
        self._tls = threading.local()

    # ------------------------------------------------------------------ #
    def register(self, name: str) -> None:
        with self._mutex:
            if name not in self._names:
                self._names.append(name)

    def _held(self) -> List[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def held_by_current_thread(self, name: str) -> bool:
        return name in self._held()

    # ------------------------------------------------------------------ #
    def note_acquired(self, name: str) -> None:
        """Record that the current thread now holds ``name``.

        Raises :class:`LockOrderError` (without mutating the graph) if the
        acquisition re-enters a held name or closes a cycle.
        """
        held = self._held()
        if name in held:
            raise LockOrderError(
                f"lock {name!r} acquired by the thread already holding it "
                f"(non-reentrant lock: guaranteed self-deadlock) at "
                f"{_call_site()}; held: {held!r}"
            )
        if held:
            site = _call_site()
            with self._mutex:
                for outer in held:
                    self._add_edge_locked(outer, name, site)
        held.append(name)

    def note_released(self, name: str) -> None:
        held = self._held()
        # Condition.wait releases out of LIFO order: drop the last occurrence.
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    # ------------------------------------------------------------------ #
    def _add_edge_locked(self, outer: str, inner: str, site: str) -> None:
        bucket = self._edges.setdefault(outer, {})
        if inner in bucket:
            return
        path = self._path_locked(inner, outer)
        if path is not None:
            legs = " -> ".join(path)
            prior = " ; ".join(
                f"{u}->{v} at {self._edges[u][v]}"
                for u, v in zip(path, path[1:])
            )
            raise LockOrderError(
                f"lock-order cycle: acquiring {inner!r} while holding "
                f"{outer!r} at {site}, but the recorded order already has "
                f"{legs} ({prior})"
            )
        bucket[inner] = site

    def _path_locked(self, start: str, goal: str) -> Optional[List[str]]:
        """A recorded path start -> ... -> goal, or None."""
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in self._edges.get(node, {}):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """JSON-able view of every registered lock and recorded edge."""
        with self._mutex:
            return {
                "locks": list(self._names),
                "edges": [
                    {"from": outer, "to": inner, "site": site}
                    for outer, bucket in sorted(self._edges.items())
                    for inner, site in sorted(bucket.items())
                ],
            }

    def assert_acyclic(self) -> None:
        """Belt-and-braces full check; cycles normally raise at acquire."""
        with self._mutex:
            edges = {u: list(vs) for u, vs in self._edges.items()}
        state: Dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(node: str, trail: List[str]) -> None:
            state[node] = 1
            trail.append(node)
            for nxt in edges.get(node, ()):
                if state.get(nxt) == 1:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    raise LockOrderError(
                        "lock-order cycle in recorded graph: "
                        + " -> ".join(cycle)
                    )
                if state.get(nxt) is None:
                    visit(nxt, trail)
            trail.pop()
            state[node] = 2

        for node in list(edges):
            if state.get(node) is None:
                visit(node, [])

    def reset(self) -> None:
        with self._mutex:
            self._edges.clear()
            self._names.clear()


_GRAPH = LockGraph()


class NamedLock:
    """A ``threading.Lock`` that reports acquisitions to a :class:`LockGraph`.

    Exposes exactly the interface ``threading.Condition`` requires of a
    wrapped lock (``acquire``/``release``/``__enter__``/``__exit__``), plus
    ``locked()`` for parity with the plain lock.
    """

    __slots__ = ("name", "_inner", "_graph")

    def __init__(self, name: str, graph: Optional[LockGraph] = None):
        self.name = name
        self._inner = threading.Lock()
        self._graph = _GRAPH if graph is None else graph
        self._graph.register(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # The re-entrancy check must run BEFORE touching the inner lock: a
        # same-thread blocking re-acquire would deadlock on the real lock
        # and never reach the tracker.  Non-blocking probes fall through —
        # Condition._is_owned relies on acquire(False) returning False.
        if blocking and self._graph.held_by_current_thread(self.name):
            raise LockOrderError(
                f"lock {self.name!r} acquired by the thread already holding "
                f"it (non-reentrant lock: guaranteed self-deadlock) at "
                f"{_call_site(skip=2)}"
            )
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            try:
                self._graph.note_acquired(self.name)
            except BaseException:
                self._inner.release()
                raise
        return acquired

    def release(self) -> None:
        self._graph.note_released(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._inner.locked() else "unlocked"
        return f"<NamedLock {self.name!r} {state}>"


def named_lock(name: str) -> Union[threading.Lock, NamedLock]:
    """The lock factory every ``serve``/``runtime`` lock goes through.

    Plain ``threading.Lock`` (no wrapper, no tracking, no overhead) unless
    ``REPRO_LOCK_CHECK`` was truthy when the lock was *constructed*.
    Module-level locks are constructed at import, so the variable must be
    set before the process starts to track those (the CI shard does).
    """
    if lock_check_enabled():
        return NamedLock(name)
    return threading.Lock()


# ---------------------------------------------------------------------- #
# Module-level conveniences over the process-global graph
# ---------------------------------------------------------------------- #
def acquisition_graph() -> Dict[str, object]:
    return _GRAPH.snapshot()


def assert_acyclic() -> None:
    _GRAPH.assert_acyclic()


def reset_tracking() -> None:
    _GRAPH.reset()


def dump_graph(path: str) -> None:
    """Write the acquisition graph as JSON (the CI failure artifact)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(acquisition_graph(), handle, indent=2, sort_keys=True)
        handle.write("\n")
