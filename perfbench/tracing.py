"""In-memory spans around driftlab's public functions, and an FFT call counter.

Spans are recorded from outside the program: each wrapped function is
replaced, in every ``driftlab`` module that binds it, by a wrapper that
records one span per call.  Spans stay in memory; the benchmark turns them
into per-layer metrics when its passes are done.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)
FFT_MODULES = ("numpy.fft", "scipy.fft")


class FFTCounter:
    """Counts calls and computed bytes moved (input plus output array sizes)
    of the public transforms of ``numpy.fft`` and ``scipy.fft``.

    Install it before ``driftlab`` is imported: the module attributes are
    replaced, so later ``from numpy.fft import ...`` bindings are counted too.
    """

    def __init__(self):
        self.calls = 0
        self.bytes = 0
        self.modules = []
        self._saved = []

    def install(self):
        for modname in FFT_MODULES:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            for name in FFT_FUNCTIONS:
                func = getattr(module, name, None)
                if func is None:
                    continue
                self._saved.append((module, name, func))
                setattr(module, name, self._counted(func))
            self.modules.append(modname)
        return self

    def uninstall(self):
        for module, name, func in reversed(self._saved):
            setattr(module, name, func)
        self._saved.clear()
        self.modules.clear()

    def _counted(self, func):
        counter = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            out = func(*args, **kwargs)
            arr = args[0] if args else kwargs.get("x", kwargs.get("a"))
            counter.calls += 1
            counter.bytes += getattr(arr, "nbytes", 0) + getattr(out, "nbytes", 0)
            return out

        return counted


class Span:
    __slots__ = ("name", "parent", "pass_id", "start", "end", "fft_calls", "fft_bytes", "attrs")

    def __init__(self, name, parent, pass_id, start=0.0, end=0.0):
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = start
        self.end = end
        self.fft_calls = 0
        self.fft_bytes = 0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent, pass id) in memory."""

    def __init__(self, fft: FFTCounter):
        self.fft = fft
        self.spans: list[Span] = []
        self.pass_id = None
        self._stack: list[int] = []
        self._saved = []

    def wrap(self, name, func, info=None):
        """Wrapper recording one span per call of ``func``.

        ``name`` is a string or a callable of (args, kwargs) giving it;
        ``info`` is an optional callable of (args, kwargs, result) whose
        dict is kept as the span's attributes.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name(args, kwargs) if callable(name) else name,
                        tracer._stack[-1] if tracer._stack else -1, tracer.pass_id)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            calls0, bytes0 = tracer.fft.calls, tracer.fft.bytes
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                span.fft_calls = tracer.fft.calls - calls0
                span.fft_bytes = tracer.fft.bytes - bytes0
            if info is not None:
                span.attrs = info(args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Replace every binding of each target across driftlab's modules;
        a target the program no longer has is an error, not a skipped span.

        ``targets`` holds (owner, attribute, name, info): ``owner`` is a
        module name or a ``module:Class`` path.  Module-level bindings of
        a function are found by identity, so ``from x import f`` copies
        are replaced along with the defining one.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "driftlab" or n.startswith("driftlab."))]
        for owner, attr, name, info in targets:
            modname, _, clsname = owner.partition(":")
            holder = importlib.import_module(modname)
            if clsname:
                holder = getattr(holder, clsname)
            original = getattr(holder, attr, None)
            if original is None:
                raise LookupError(f"span target {owner}.{attr} not found")
            wrapper = self.wrap(name, original, info)
            if clsname:
                self._replace(holder, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        return self

    def _replace(self, holder, key, value):
        self._saved.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, value in reversed(self._saved):
            setattr(holder, key, value)
        self._saved.clear()


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out

