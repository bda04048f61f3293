"""In-memory span tracing from outside the program.

The tracer replaces attributes of the program's modules (the names the
program itself calls, such as ``hfcore.slater_potential``) with wrappers
that record one span per call: name, start, end, parent span and request.
Nothing inside ``src/`` changes; :meth:`Tracer.uninstall` restores every
original.  Spans stay in memory until :meth:`Tracer.dump` writes them out.

Very hot leaf calls (the fermionic ladder action runs ~10^5 times per
``verify``) are installed ``count_only``: they are counted but open no span,
so their time is charged to the caller's self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# Span record layout: [name, start, end, parent_id, request_id]; the span id
# is its index in Tracer.spans.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")

    def wrap(self, fn, name: str, count_only: bool = False, tally=None):
        """Wrapper that counts calls and opens a span around each one.

        ``tally(args, kwargs)``, if given, is added to ``counts[name + ":tally"]``
        on every call (for example the eigenpairs a solver call asks for).
        """
        call = fn
        if tally is not None:
            def call(*args, **kwargs):
                self.counts[name + ":tally"] += tally(args, kwargs)
                return fn(*args, **kwargs)

        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return call(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name] += 1
            sid = self.begin(name)
            try:
                return call(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    # -- patching --------------------------------------------------------

    def install(self, owner, attr: str, name: str, count_only: bool = False,
                tally=None) -> None:
        """Route calls through ``owner.attr`` into a recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count_only, tally))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its child spans.

    The tracer is stack-based and single-threaded, so children nest inside
    their parent and never overlap one another.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, self_s in zip(spans, self_times(spans)):
        t = totals[span[NAME]]
        t["calls"] += 1
        t["total_s"] += span[END] - span[START]
        t["self_s"] += self_s
    return dict(totals)
