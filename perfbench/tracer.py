"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps a function at the name its caller looks up: a module
global (``experiment.clean``), a class attribute
(``LssvmFitness.__call__``) or a dict entry (``experiment.OPTIMIZERS``).
``installed`` puts the wrappers in place and restores the originals on
exit, so untraced units run the unmodified package.

Each call records one span ``[name, start, end, parent, op]``: ``parent``
is the index of the enclosing span (-1 for a root) and ``op`` the
operation id shared by every span of one fitness call or one forecast
file. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import collections
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.kernel_mb = 0.0  # largest kernel matrix one call computed
        self._open: list[int] = []
        self._op = 0
        self._last_op = 0

    def wrap(self, name, fn, new_op=False, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        Every call bumps ``counts[name + '.calls']``; a raised exception
        bumps ``counts[name + '.' + ExceptionType]`` and propagates.
        ``new_op`` starts a new operation id for the call's subtree.
        ``on_result`` sees the return value.
        """
        spans, open_spans, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            outer_op = self._op
            if new_op:
                self._last_op += 1
                self._op = self._last_op
            rec = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self._op]
            spans.append(rec)
            open_spans.append(len(spans) - 1)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                open_spans.pop()
                self._op = outer_op
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Replace each ``(owner, key, make_wrapper)`` target with
        ``make_wrapper(current)`` for the duration of the block."""
        saved = []
        try:
            for owner, key, make_wrapper in patches:
                if isinstance(owner, dict):
                    saved.append((owner, key, owner[key]))
                    owner[key] = make_wrapper(owner[key])
                else:
                    saved.append((owner, key, getattr(owner, key)))
                    setattr(owner, key, make_wrapper(getattr(owner, key)))
            yield
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def durations(self):
        """Per span name: lists of total and self durations in seconds.

        Self time is the span's duration minus the time its child spans
        cover. The program is single-threaded, so the children of one span
        run one after another and their durations simply add up.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total = collections.defaultdict(list)
        self_time = collections.defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name].append(end - start)
            self_time[name].append(end - start - covered[i])
        return total, self_time

    def root_time(self, t0, t1):
        """Seconds covered by root spans that lie inside ``[t0, t1]``."""
        return sum(
            end - start
            for _, start, end, parent, _ in self.spans
            if parent < 0 and start >= t0 and end <= t1
        )

    def dump(self, path):
        """Write the spans as JSON lines (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start - origin, "end": end - origin,
                       "parent": parent, "op": op}
                fh.write(json.dumps(rec) + "\n")
