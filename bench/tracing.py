"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around the calls each spiderlab module makes into the
other layers, by rebinding the names the calling module imported (for
example ``spiderlab.montecarlo.grow_legs``).  Nothing inside the package is
edited, so spans stop at the public functions: work a layer does in its own
helpers shows as that caller's self time.  Spans inside forked pool workers
are not collected, which is why Monte Carlo jobs are traced with one
worker.
"""

from __future__ import annotations

import contextlib
import gzip
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """Records spans (name, start, end, parent, job) and call counts.

    ``parent`` is the index of the enclosing span in ``spans`` (-1 for a
    root) and ``job`` is whatever the caller last set in ``self.job``.
    Call counts are kept per call site, "<calling module>:<layer name>",
    so the same layer reached from two modules can be told apart.
    """

    def __init__(self):
        self.spans: list = []
        self.site_calls: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, site: str = ""):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, counts, clock = self.spans, self._stack, self.site_calls, time.perf_counter
        site_key = f"{site}:{name}"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            counts[site_key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Rebind each ``(module, attribute, layer name)`` to a traced
        wrapper for the duration of the block, then restore the originals."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                site = module.__name__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(name, original, site))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: name,start,end,parent,job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{job}\n")


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, job) in enumerate(spans):
        kids = children.get(i)
        if kids:
            clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
            out.append((end - start) - _covered(clipped))
        else:
            out.append(end - start)
    return out


def per_job_layers(spans) -> dict:
    """``{job: {layer name: (calls, self seconds)}}`` over all spans."""
    table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for span, own in zip(spans, self_times(spans)):
        cell = table[span[4]][span[0]]
        cell[0] += 1
        cell[1] += own
    return {job: {name: tuple(cell) for name, cell in layers.items()}
            for job, layers in table.items()}


def median_layer(per_job: dict, name: str) -> tuple[float, float]:
    """Median over jobs of a layer's (calls, self seconds); a layer a job
    never reached counts as (0, 0.0) for that job."""
    cells = [layers.get(name, (0, 0.0)) for layers in per_job.values()]
    if not cells:
        return 0, 0.0
    return (statistics.median(c[0] for c in cells),
            statistics.median(c[1] for c in cells))
