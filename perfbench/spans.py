"""
Spans recorded from outside the program.

The tracer rebinds the names that callers look up: every attribute of a
loaded ``pltt`` module that holds one of the traced functions (for example
``pltt.cli.reconstruct``, which is ``pltt.ellipsometry.reconstruct``) is
replaced by a wrapper that records a span, and ``uninstall`` puts the
originals back. No file of the program is edited.

``pltt.polarization`` is not wrapped: it is a leaf that ``ellipsometry``
and ``learning`` call inside per-capture Python loops, so a wrapper would
cost more than the calls; its time is part of its callers' self time.
"""

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

# (layer, function) pairs wrapped in a traced pass.
TRACED = (
    ("cli", "cmd_simulate"),
    ("cli", "cmd_capture"),
    ("cli", "cmd_reconstruct"),
    ("cli", "cmd_learn_angles"),
    ("cli", "cmd_decompose"),
    ("cli", "cmd_pca"),
    ("cli", "cmd_descatter"),
    ("cli", "cmd_slice"),
    ("scene", "load_scene"),
    ("scene", "build_transport"),
    ("scene", "generate_ensemble"),
    ("tensor", "probe"),
    ("tensor", "epipolar_masks"),
    ("ellipsometry", "capture"),
    ("ellipsometry", "reconstruct"),
    ("ellipsometry", "design_matrix"),
    ("ellipsometry", "pinv_truncated"),
    ("learning", "learn"),
    ("learning", "loss"),
    ("learning", "grad_loss"),
    ("learning", "evaluate"),
    ("decomposition", "decompose_tensor"),
    ("analysis", "build_observation"),
    ("analysis", "pca"),
    ("analysis", "summed_polarimetric_image"),
    ("analysis", "fit_descatter"),
    ("analysis", "apply_descatter"),
    ("fileio", "read_pltt"),
    ("fileio", "write_pltt"),
    ("fileio", "write_pgm"),
    ("fileio", "write_csv_grid"),
)

# Functions whose first argument is a file path: the span records the
# file's size, read before the call or written after it.
_BYTES_READ = {"fileio.read_pltt"}
_BYTES_WRITTEN = {"fileio.write_pltt", "fileio.write_pgm", "fileio.write_csv_grid"}

_MARK = "_perfbench_span"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int       # index of the parent span in Tracer.spans, or -1
    pass_id: int
    nbytes: int = 0

    @property
    def duration(self):
        return self.end - self.start


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def _pltt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pltt" or name.startswith("pltt."))]


def is_wrapped(obj):
    return getattr(obj, _MARK, None) is not None


def wrapped_names():
    """Every ``module.attr`` of a loaded pltt module that holds a wrapper."""
    return sorted(
        "%s.%s" % (module.__name__, attr)
        for module in _pltt_modules()
        for attr, value in vars(module).items()
        if is_wrapped(value)
    )


@dataclass
class Tracer:
    """Span store plus the rebinding of traced names."""

    spans: list = field(default_factory=list)
    pass_id: int = -1
    _stack: list = field(default_factory=list)
    _rebound: list = field(default_factory=list)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``, nested under the open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        path = args[0] if args and isinstance(args[0], (str, os.PathLike)) else None
        nbytes = 0
        if name in _BYTES_READ and path is not None:
            nbytes = os.path.getsize(path)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if name in _BYTES_WRITTEN and path is not None and os.path.exists(path):
                nbytes = os.path.getsize(path)
            self.spans[index] = Span(name, start, end, parent, self.pass_id, nbytes)

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        setattr(traced, _MARK, name)
        return traced

    def install(self):
        """Rebind every loaded pltt name that refers to a traced function."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        modules = _pltt_modules()
        for layer, func in TRACED:
            original = getattr(sys.modules["pltt." + layer], func)
            wrapper = self._wrapper("%s.%s" % (layer, func), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def pass_metrics(self):
        """pass id -> span name -> totals: seconds, self seconds, calls, bytes."""
        totals = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = totals.setdefault(span.pass_id, {}).setdefault(
                span.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0})
            entry["s"] += span.duration
            entry["self_s"] += own
            entry["calls"] += 1
            entry["bytes"] += span.nbytes
        return totals

    def dump(self, path):
        """Write every span as one JSON line; called once, at the end of a run."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.pass_id, s.nbytes]))
                fh.write("\n")
