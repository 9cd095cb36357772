"""In-memory span tracer for the benchmark's traced run.

The tracer wraps functions of the program from the outside (the program
itself carries no tracing code).  Every call of a wrapped function is a
span with a name, a start, an end, its parent span and the root span of
the request it belongs to.  A wrapped generator function (a simulated
process step such as a discovery scan) gets one span per resumption, so
host time spent between its yields is charged to it and virtual-time
waits are not.

Aggregates are kept online, so long runs need no span storage:

* ``self_s[name]``: span time minus the time of its child spans;
* ``calls[name]``: calls of the wrapped function (generators count once,
  at creation);
* ``counts[key]``: extra counters that result hooks add (bytes, frames);
* ``covered_s``: time inside root spans, i.e. time some wrapped layer
  accounts for.

The first ``keep_spans`` spans are also kept as tuples
``(span_id, parent_id, root_id, name, start, end)`` and can be written
out with :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from collections.abc import Callable, Generator
from typing import Any

#: ``hook(tracer, args, result)`` runs after a wrapped call returns.
ResultHook = Callable[["Tracer", tuple, Any], None]


def spin(seconds: float, clock: Callable[[], float] = time.perf_counter) -> None:
    """Busy-wait ``seconds`` of host time (an injected, CPU-bound delay)."""
    end = clock() + seconds
    while clock() < end:
        pass


class Tracer:
    """Span recorder plus the patches that feed it.

    Args:
        keep_spans: How many spans to keep verbatim for
            :meth:`write_spans` (aggregates never need them).
        delays: Span name -> seconds of busy-wait injected inside every
            span of that name.  The attribution self-check uses this to
            slow one layer by a known amount.
    """

    def __init__(self, *, keep_spans: int = 0,
                 delays: dict[str, float] | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        self.delays = dict(delays or {})
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        #: Open spans, innermost last: ``[child_s, span_id, parent_id,
        #: root_id]``, or just ``[child_s]`` when no span is kept (ids
        #: are only ever read to keep spans).
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -----------------------------------------------------

    def reset(self) -> None:
        """Drop every aggregate and kept span (call between spans)."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.covered_s = 0.0
        self.spans.clear()

    def _open(self) -> list:
        stack = self._stack
        if not self.keep_spans:
            frame = [0.0]
            stack.append(frame)
            return frame
        self._next_id += 1
        if stack:
            parent = stack[-1]
            frame = [0.0, self._next_id, parent[1], parent[3]]
        else:
            frame = [0.0, self._next_id, 0, self._next_id]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        else:
            self.covered_s += duration
        if len(self.spans) < self.keep_spans:
            self.spans.append((frame[1], frame[2], frame[3], name, start, end))

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             on_result: ResultHook | None = None) -> Callable:
        """A traced stand-in for ``fn`` recording spans named ``name``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self
        clock = self.clock
        calls = self.calls
        delay = self.delays.get(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            frame = tracer._open()
            start = clock()
            try:
                if delay:
                    spin(delay, clock)
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start, clock())
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            return tracer._drive(name, fn(*args, **kwargs))

        return traced

    def _drive(self, name: str, inner: Generator) -> Generator:
        """Delegate to ``inner`` like ``yield from``, one span per resume."""
        clock = self.clock
        delay = self.delays.get(name, 0.0)
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = self._open()
            start = clock()
            try:
                if delay:
                    spin(delay, clock)
                if error is not None:
                    pending, error = error, None
                    yielded = inner.throw(pending)
                else:
                    yielded = inner.send(value)
            except StopIteration as stop:
                self._close(name, frame, start, clock())
                return stop.value
            except BaseException:
                self._close(name, frame, start, clock())
                raise
            self._close(name, frame, start, clock())
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded inward
                error, value = exc, None

    # -- patching ---------------------------------------------------------------

    def _take(self, owner: object, attr: str) -> Any:
        """The attribute about to be replaced, remembered for
        :meth:`uninstall`.  A missing attribute is an error: a renamed
        entry point must fail the traced run, not silently drop a layer."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        return original

    def patch(self, owner: object, attr: str, name: str,
              on_result: ResultHook | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper."""
        original = self._take(owner, attr)
        setattr(owner, attr, self.wrap(name, original, on_result))

    def count_only(self, owner: object, attr: str,
                   on_result: ResultHook) -> None:
        """Hook ``owner.attr`` for counting, without opening a span."""
        original = self._take(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_result(tracer, args, result)
            return result

        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, root_id, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent_id, "root": root_id,
                     "name": name, "start": start, "end": end}) + "\n")
        return len(self.spans)
