"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces every public function of freqwin's layer modules
with a wrapper that records a span (name, op, parent, start, end, counts)
and replaces it wherever a freqwin module holds a reference, so calls are
caught where the calling module looks the name up.  ``ForcingSpec.evaluate``
is wrapped as the ``simulate.forcing_eval`` layer.  Spans stay in memory;
``layer_totals`` turns them into per-layer time and work counts when the run
ends.  The ``io`` and ``cli`` modules are not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYER_MODULES = ("simulate", "windows", "spectral", "corrections", "identify",
                 "metrics", "bench")
# methods traced as layers of their own: name -> (module, class, attribute)
METHOD_LAYERS = {"simulate.forcing_eval": ("simulate", "ForcingSpec", "evaluate")}


@dataclass
class Span:
    name: str
    op: object  # op index, "setup", or None outside any op
    parent: int | None  # index of the enclosing span
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, edge = 0.0, span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, edge), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(span.end - span.start - covered)
    return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _window_kind(seen: set):
    """First call for a window spec in the process is cold, later ones warm."""
    def count(args, kwargs, result):
        spec = _arg(args, kwargs, 0, "spec")
        kind = "warm" if spec in seen else "cold"
        seen.add(spec)
        return {kind: 1}
    return count


def _solve_flops(args, kwargs, result):
    """Floating-point operations of solve_ls computed from the shape of M2
    (r parameter rows, c frequency columns) and M1 (m rows): complex thin SVD
    (Golub-Van Loan R-SVD, 6 c r^2 + 20 r^3 real-equivalent operations times
    4 for complex), the pseudo-inverse product, -M1 M2^+ and the fit
    residual (8 flops per complex multiply-add).  A model, not a measurement."""
    reg = _arg(args, kwargs, 0, "reg")
    r, c = reg.m2.shape
    m = reg.m1.shape[0]
    return {"flops_computed": 4 * (6 * c * r * r + 20 * r**3)
            + 8 * (c * r * r + 2 * m * c * r)}


def counters() -> dict:
    """Work counts recorded per layer, from each call's arguments or result."""
    return {
        "simulate.forcing_eval": lambda a, kw, r: {
            "tone_samples": a[0].num_tones * r.shape[1]},
        "simulate.integrate_rk4": lambda a, kw, r: {
            "steps": _arg(a, kw, 2, "config").num_steps},
        "spectral.fft_spectrum": lambda a, kw, r: {"points": r.coeffs.size},
        "identify.solve_ls": _solve_flops,
        "windows.window_table": _window_kind(set()),
    }


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counters = counters()

    def wrap(self, name: str, fn):
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else None,
                        self.clock())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, package_name: str = "freqwin") -> None:
        """Wrap the layer modules' public functions everywhere freqwin holds them."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYER_MODULES:
            module = sys.modules[f"{package_name}.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package_name and not mod_name.startswith(package_name + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        for name, (layer, cls_name, attr) in METHOD_LAYERS.items():
            cls = getattr(sys.modules[f"{package_name}.{layer}"], cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_totals(spans: list[Span], ops) -> dict[str, dict[str, float]]:
    """Per-layer sums over the spans of the given ops: ``s`` (inclusive
    time), ``self_s``, ``calls``, ``cold_s``/``warm_s`` for spans counted
    cold or warm, ``rank_failures``, and every work count.  ``ops`` is a
    collection of op ids, or a mapping from op id to a factor every time of
    that op's spans is multiplied by."""
    if not isinstance(ops, dict):
        ops = dict.fromkeys(ops, 1.0)
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if span.op not in ops:
            continue
        t = totals.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        scale = ops[span.op]
        duration = (span.end - span.start) * scale
        nested = False
        parent = span.parent
        while parent is not None:  # count a recursive layer's time once
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            t["s"] += duration
        t["self_s"] += selfs[i] * scale
        t["calls"] += 1
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
            if key in ("cold", "warm"):
                t[f"{key}_s"] = t.get(f"{key}_s", 0.0) + duration
        if span.error == "RankDeficiencyError":
            t["rank_failures"] = t.get("rank_failures", 0) + 1
    return totals


def wrapper_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, on this machine."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibration.noop", noop)
    best = float("inf")
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t1 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / repeats)
    return best
