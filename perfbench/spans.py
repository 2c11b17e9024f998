"""In-memory span tracer that times calls into the package from outside it.

A traced function is replaced, while a `Tracer` is active, under the name
its caller looks it up by (``cli.run`` for the pipeline entry that
``cli.cmd_mask`` calls, ``crossview.mask_from_cloud`` for the purification
function that ``crossview.refine_masks`` imported), so no source file
changes.  Each call records a span: layer name, wrap point, start, end, the
span that was open when it began, and any counts taken from its arguments
and result.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str                 # layer metric prefix, e.g. "crossview.score_cloud"
    site: str                 # wrap point, e.g. "crossview.score_cloud"
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    peak_mb: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _site(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Installs wrappers with `wrap`, records spans, and undoes it on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, count=None,
             peak: bool = False) -> None:
        """Trace calls made through ``module.attr`` as layer `name`.

        `count(arguments, result)` returns counts for the span, with the
        call's arguments bound to parameter names.  With `peak`, the span
        also records the peak of memory allocated during the call, taken
        with tracemalloc when no outer call is already tracing.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original) if count else None
        site = _site(module, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span = Span(name, site, 0.0, parent=open_[-1] if open_ else None)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if measure:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def sites(self) -> list[str]:
        """The wrap points installed, as ``module.attribute``."""
        return [_site(module, attr) for module, attr, _ in self._saved]

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered(span.start, span.end, children[i])
            for i, span in enumerate(spans)]


def totals(spans: list[Span]) -> dict[str, dict]:
    """Per layer: calls, total and self seconds, summed counts, peak MB."""
    out: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "peak_mb": 0.0})
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += self_s
        if span.peak_mb is not None:
            entry["peak_mb"] = max(entry["peak_mb"], span.peak_mb)
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out


def dump(passes: list[list[Span]], path) -> None:
    """Write spans as JSON lines in recording order, tagged with their pass.

    A span's ``parent`` indexes the spans of the same pass.
    """
    with open(path, "w", encoding="utf-8") as f:
        for index, recorded in enumerate(passes):
            for span in recorded:
                f.write(json.dumps({"pass": index, **asdict(span)}) + "\n")
