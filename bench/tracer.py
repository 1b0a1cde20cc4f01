"""Span and counter tracing of ghzeta from outside the package.

``from .x import y`` binds ``y`` once per importing module, so a wrapper
must replace the name in every ghzeta module (and class) that holds the
original object; ``install`` does that and ``uninstall`` puts every
original back, so untraced passes run the unmodified program.

A span records (id, parent id, op id, name, start, end, error).  Self
time is a span's duration minus the time its child spans cover; busy time
counts only the outermost span of a name, so recursion is not counted
twice.  Aggregates are updated as spans close; the span records
themselves are kept in memory up to ``SPAN_CAP`` and written out at the
end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 50_000
SAMPLE_CAP = 200_000


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.failed = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.spans = []
        self.dropped = 0
        self.op = None
        self._stack = []  # [span id, name, child seconds]
        self._active = Counter()
        self._next_id = 1
        self._patches = []
        self._targets = []

    # -- recording -------------------------------------------------------

    def add(self, name, value=1):
        self.counts[name] += value

    def sample(self, name, value):
        bucket = self.samples[name]
        if len(bucket) < SAMPLE_CAP:
            bucket.append(value)

    def call(self, name, fn, args, kwargs, hook=None):
        """Run fn inside a span called `name`; hook(tracer, args, kwargs,
        result, seconds) runs after the span closes."""
        stack = self._stack
        parent = stack[-1][0] if stack else None
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, 0.0]
        stack.append(frame)
        self._active[name] += 1
        error = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self._active[name] -= 1
            if not self._active[name]:
                self.busy[name] += dur
            own = dur - frame[2]
            self.self_s[name] += own
            self.layer_self[name.split(".", 1)[0]] += own
            if stack:
                stack[-1][2] += dur
            self.calls[name] += 1
            if error is not None:
                self.failed[name] += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, self.op, name, t0, t1, error))
            else:
                self.dropped += 1
        if hook is not None:
            hook(self, args, kwargs, result, dur)
        return result

    # -- wrappers --------------------------------------------------------

    def span(self, owner, attr, name, hook=None):
        """Register a span around owner.attr; `name` may be a function of
        the call's arguments."""
        original = getattr(owner, attr)
        tracer = self
        if callable(name):
            def wrapper(*args, **kwargs):
                return tracer.call(name(args, kwargs), original, args, kwargs, hook)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, hook)
        self._targets.append((original, wrapper))

    def count(self, owner, attr, name, hook=None):
        """Register a call counter around owner.attr (no span)."""
        original = getattr(owner, attr)
        counts = self.counts
        if hook is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
        else:
            tracer = self

            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = original(*args, **kwargs)
                hook(tracer, args, kwargs, result, 0.0)
                return result
        self._targets.append((original, wrapper))

    def wrap_result(self, owner, attr, make):
        """Replace owner.attr by a function whose result is make(result)."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return make(original(*args, **kwargs))

        self._targets.append((original, wrapper))

    def install(self, namespaces):
        """Swap every registered original for its wrapper in each namespace
        (module or class) that binds it."""
        by_id = {id(orig): wrapper for orig, wrapper in self._targets}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1, error in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1, "error": error}) + "\n")


def ghzeta_namespaces():
    """Every loaded ghzeta module plus the classes defined in them."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "ghzeta" or name.startswith("ghzeta."):
            out.append(module)
            out.extend(v for v in vars(module).values()
                       if isinstance(v, type) and v.__module__ == name)
    return out
