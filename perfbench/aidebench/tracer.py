"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps named functions of the program *in place*: a method is
replaced on its class, and a module-level function is rebound in every
loaded ``repro.*`` module that holds it (``from x import f`` copies the
name into the importing module, so the defining module alone is not
enough).  :meth:`Tracer.uninstall` puts every original back.  Nothing
under ``src/`` knows it is being traced, and an untraced run installs
no wrapper at all.

Spans are recorded only inside *segments*: the timed calls the
benchmark makes into the program (one dispatch, one crawl day).  Each
span keeps its name, start, end, parent span and request id in flat
in-memory arrays; :meth:`Tracer.fold` turns the current arrays into
per-name totals (calls, wall, self time) and clears them, so a long
run holds one round of spans at a time.  A span's *self* time is its
duration minus the time its child spans cover.

Worker threads of the program's cooperative scheduler
(``repro.core.snapshot.sched.SimScheduler``) run one at a time while
the main thread waits inside the scheduler.  A span opened on such a
thread with nothing open on its own stack takes the main thread's
innermost open span as its parent, so crawl checks nest under the
scheduler span that dispatched them.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "SEGMENT"]

#: Name of the root span the benchmark opens around each timed call.
SEGMENT = "segment"

_clock = time.perf_counter_ns


class Tracer:
    """Records spans around wrapped functions while a segment is open."""

    def __init__(self) -> None:
        self.names: List[str] = [SEGMENT]
        self._name_ids: Dict[str, int] = {SEGMENT: 0}
        self._main = threading.get_ident()
        self._main_stack: List[int] = []
        self._tls = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._gc_started = 0
        self.request_id = 0
        #: Counters bumped by result hooks (``tracer.count[...] += n``).
        self.count: Dict[str, float] = {}
        self._reset_arrays()
        #: name -> [calls, wall_ns, self_ns], summed over folded rounds.
        self.totals: Dict[str, List[int]] = {}
        self.rounds = 0
        #: Text sink for raw spans (the traced run attaches a file), one
        #: JSON list per line:
        #: ``[round, span, name, start_ns, end_ns, parent, request_id]``.
        self.spans_out = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _reset_arrays(self) -> None:
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._child = array("q")
        self._rid = array("q")

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name_id: int, stack: List[int]) -> int:
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(parent)
        self._rid.append(self.request_id)
        self._end.append(0)
        self._child.append(0)
        stack.append(index)
        self._start.append(_clock())
        return index

    def _close(self, index: int, stack: List[int]) -> int:
        end = _clock()
        stack.pop()
        self._end[index] = end
        duration = end - self._start[index]
        parent = self._parent[index]
        if parent >= 0:
            self._child[parent] += duration
        return duration

    def begin(self, request_id: int) -> int:
        """Open a segment (a root span) on the main thread."""
        self.request_id = request_id
        return self._open(0, self._main_stack)

    def end(self, index: int) -> int:
        """Close the segment; returns its duration in nanoseconds."""
        return self._close(index, self._main_stack)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``fn`` recording spans named ``name``.

        ``on_result(tracer, result, args, duration_ns)`` runs after each
        traced call, for counts that live in return values.
        """
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._main_stack:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            index = tracer._open(name_id, stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(index, stack)
            if on_result is not None:
                on_result(tracer, result, args, duration)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def count_calls(self, owner: type, attribute: str, key: str) -> None:
        """Count calls of a method without a span: for hand-offs such as
        a scheduler yield, whose wall time is other threads' work."""
        raw = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(raw)
        def counted(*args, **kwargs):
            if tracer._main_stack:
                tracer.count[key] = tracer.count.get(key, 0) + 1
            return raw(*args, **kwargs)

        self._installed.append((owner, attribute, raw))
        setattr(owner, attribute, counted)

    def watch_gc(self) -> None:
        """Count cyclic garbage collections that run inside segments,
        and their pause time (``gc.collections``, ``gc.pause_ns``)."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info) -> None:
        if not self._main_stack:
            return
        if phase == "start":
            self._gc_started = _clock()
            return
        count = self.count
        count["gc.collections"] = count.get("gc.collections", 0) + 1
        count["gc.pause_ns"] = (count.get("gc.pause_ns", 0)
                                + _clock() - self._gc_started)

    def install(self, specs) -> None:
        """Wrap every ``(owner, attribute, span name, on_result)``.

        ``owner`` is a class (the method is replaced on it) or a module
        (the function is rebound wherever a ``repro.*`` module holds it).
        """
        for owner, attribute, name, on_result in specs:
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]
                self._installed.append((owner, attribute, raw))
                setattr(owner, attribute, self.wrap(raw, name, on_result))
                continue
            original = getattr(owner, attribute)
            wrapped = self.wrap(original, name, on_result)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if module_name != "repro" and not module_name.startswith(
                        "repro."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # folding and output
    # ------------------------------------------------------------------
    def fold(self) -> None:
        """Add the recorded spans to :attr:`totals`, write them out if
        a span sink is attached, and start a fresh round."""
        names = self.names
        for i in range(len(self._start)):
            duration = self._end[i] - self._start[i]
            entry = self.totals.setdefault(names[self._name[i]], [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - self._child[i]
        if self.spans_out is not None:
            write = self.spans_out.write
            for i in range(len(self._start)):
                write(json.dumps([
                    self.rounds, i, names[self._name[i]], self._start[i],
                    self._end[i], self._parent[i], self._rid[i],
                ]) + "\n")
        self._reset_arrays()
        self.rounds += 1

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def wall_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9

    def unattributed_share(self) -> float:
        """Share of segment time spent outside every wrapped layer."""
        wall = self.wall_s(SEGMENT)
        return self.self_s(SEGMENT) / wall if wall else 0.0
