"""Timings and counts around the calls into each layer of ``wph``.

The tracer replaces the names a calling module imported (``wph.census``'s
``quasismooth_exists``, ``wph.symmetry``'s ``enumerate_monomials`` and so
on) with wrappers that time each call and count it. A layer's self time is
its calls' total minus the time of the wrapped calls made inside them. A
binding that the library no longer has is skipped, so its layer reads zero
calls.

The wrappers cost time of their own, and a parent layer would see that cost
as self time: a census round makes about 10^6 wrapped calls. So each wrapper
charges its bookkeeping to the call it wraps, not to its parent, and the
rest (entering and leaving the wrapper) is measured once per process on an
empty function and subtracted per wrapped call (:func:`calibrate`).

Only the benchmark's traced runs install it; the end-to-end metrics come
from untraced runs.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from time import perf_counter_ns


def _hits(tr, args, result):
    tr.counts["census.hits"] += len(result)


def _exists(tr, args, result):
    tr.counts["quasismooth.exists"] += bool(result.exists)


def _mask_bits(tr, args, result):
    # The mask of limit L holds L + 1 bits; computed, not measured.
    tr.counts["intlinalg.mask_bits"] += int(args[0]) + 1


def _rows(tr, args, result):
    tr.counts["monomials.rows"] += len(result)


#: (layer, module, name the module calls, hook on the result). The census
#: builds one ``WeightSystem`` per candidate family on its Calabi-Yau path,
#: so that binding has a layer of its own, counted as candidates and as
#: weight-system builds.
BINDINGS = (
    ("census", "wph.census", "enumerate_families", _hits),
    ("census", "wph.cli", "enumerate_families", _hits),
    ("census.candidate", "wph.census", "WeightSystem", None),
    ("weights.build", "wph.cli", "WeightSystem", None),
    ("weights.wf", "wph.census", "is_well_formed", None),
    ("weights.wf", "wph.cli", "well_formedness_failures", None),
    ("quasismooth", "wph.quasismooth", "quasismooth_exists", _exists),
    ("quasismooth", "wph.census", "quasismooth_exists", _exists),
    ("quasismooth", "wph.cli", "quasismooth_exists", _exists),
    ("quasismooth", "wph.symmetry", "quasismooth_exists", _exists),
    ("intlinalg.mask", "wph.quasismooth", "representable_mask", _mask_bits),
    ("intlinalg.det", "wph.symmetry", "integer_determinant", None),
    ("monomials.enum", "wph.symmetry", "enumerate_monomials", _rows),
    ("symmetry.forced", "wph.cli", "forced_central_group", None),
    ("symmetry.fixing", "wph.cli", "fixing_group", None),
    ("symmetry.fixing", "wph.symmetry", "fixing_group", None),
    ("symmetry.minor", "wph.cli", "distinguished_minor", None),
    ("cli", "wph.cli", "main", None),
)


class _Traced:
    """Callable stand-in for a function or class binding.

    Per call it records the time inside the target less the measured
    overhead of the wrapped calls nested in it (``ns``) and their number
    (``nested_calls``), and that time less the whole of its direct wrapped
    calls (``self_ns``) and their number (``child_calls``). Its parent, if
    any, is charged the whole call, overhead included.
    """

    __slots__ = (
        "_tracer", "_layer", "_target", "_hook", "_stack",
        "calls", "ns", "self_ns", "child_calls", "nested_calls",
    )

    def __init__(self, tracer, layer, target, hook):
        self._tracer, self._layer, self._target, self._hook = tracer, layer, target, hook
        self._stack = tracer._stack
        self.calls = self.ns = self.self_ns = self.child_calls = self.nested_calls = 0

    def __call__(self, *args, **kwargs):
        enter = perf_counter_ns()
        stack = self._stack
        # [wrapped children's time, their number, overhead nested inside, its calls]
        frame = [0, 0, 0, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = self._target(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - start
            stack.pop()
            self.calls += 1
            self.ns += dur - frame[2]
            self.self_ns += dur - frame[0]
            self.child_calls += frame[1]
            self.nested_calls += frame[3]
        if self._hook is not None:
            self._hook(self._tracer, args, result)
        if stack:
            whole = perf_counter_ns() - enter
            parent = stack[-1]
            parent[0] += whole
            parent[1] += 1
            parent[2] += whole - dur + frame[2]
            parent[3] += 1 + frame[3]
        return result

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __instancecheck__(self, obj):
        return isinstance(obj, self._target)


def _empty():
    return None


def calibrate(batch: int = 2000, batches: int = 7) -> float:
    """Wrapper cost per call, in ns, that no timestamp of the wrapper sees.

    A loop calls an empty function ``batch`` times, wrapped inside a wrapped
    parent, and again unwrapped. The parent's self time per call beyond the
    unwrapped loop's is the cost of entering and leaving the wrapper. The
    median over ``batches`` is returned, never below 0.
    """
    tr = Tracer()
    child = _Traced(tr, "calibrate", _empty, None)
    plain = _empty

    def loop(fn):
        for _ in range(batch):
            fn()

    parent = _Traced(tr, "calibrate", loop, None)
    samples = []
    for _ in range(batches):
        start = perf_counter_ns()
        loop(plain)
        bare = perf_counter_ns() - start
        before = parent.self_ns
        parent(child)
        samples.append((parent.self_ns - before - bare) / batch)
    return max(statistics.median(samples), 0.0)


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []
        self._wrappers: list[_Traced] = []
        self._patched: list[tuple] = []
        self.residual_ns = 0.0

    def install(self) -> None:
        self.residual_ns = calibrate()
        for layer, module, name, hook in BINDINGS:
            self._patch(module, name, layer, hook)

    def _patch(self, module, name, layer, hook) -> None:
        mod = importlib.import_module(module)
        target = getattr(mod, name, None)
        if target is None:
            return
        wrapper = _Traced(self, layer, target, hook)
        setattr(mod, name, wrapper)
        self._wrappers.append(wrapper)
        self._patched.append((mod, name, target))

    def uninstall(self) -> None:
        for mod, name, target in reversed(self._patched):
            setattr(mod, name, target)
        self._patched.clear()

    def calls(self, layer: str) -> int:
        return sum(w.calls for w in self._wrappers if w._layer == layer)

    def _ns(self, layer: str, attr: str, calls_attr: str) -> float:
        """Summed ``attr`` of a layer's wrappers less the residual wrapper
        cost of the wrapped calls counted in ``calls_attr``."""
        ws = [w for w in self._wrappers if w._layer == layer]
        return sum(getattr(w, attr) - getattr(w, calls_attr) * self.residual_ns for w in ws)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics as {name: (value, unit)}."""
        k = self.counts

        def per(x):
            return x / rounds

        def calls(*layers):
            return sum(self.calls(layer) for layer in layers)

        def ms(*layers):
            return per(sum(self._ns(layer, "ns", "nested_calls") for layer in layers)) / 1e6

        def self_ms(layer):
            return per(self._ns(layer, "self_ns", "child_calls")) / 1e6

        def ratio(a, b):
            return a / b if b else 0.0

        qs_calls = calls("quasismooth")
        candidates = calls("census.candidate")
        return {
            "census.calls": (per(calls("census")), "count"),
            "census.ms": (ms("census"), "ms"),
            "census.self_ms": (self_ms("census"), "ms"),
            "census.candidates": (per(candidates), "count"),
            "census.hits": (per(k["census.hits"]), "count"),
            "census.hit_ratio": (ratio(k["census.hits"], candidates), "ratio"),
            "weights.build_calls": (per(calls("weights.build", "census.candidate")), "count"),
            "weights.build_ms": (ms("weights.build", "census.candidate"), "ms"),
            "weights.wf_calls": (per(calls("weights.wf")), "count"),
            "weights.wf_ms": (ms("weights.wf"), "ms"),
            "quasismooth.calls": (per(qs_calls), "count"),
            "quasismooth.ms": (ms("quasismooth"), "ms"),
            "quasismooth.self_ms": (self_ms("quasismooth"), "ms"),
            "quasismooth.masks_per_call": (ratio(calls("intlinalg.mask"), qs_calls), "count"),
            "quasismooth.exists_ratio": (ratio(k["quasismooth.exists"], qs_calls), "ratio"),
            "intlinalg.mask_calls": (per(calls("intlinalg.mask")), "count"),
            "intlinalg.mask_ms": (ms("intlinalg.mask"), "ms"),
            "intlinalg.mask_mbits": (per(k["intlinalg.mask_bits"]) / 1e6, "Mbit"),
            "intlinalg.det_calls": (per(calls("intlinalg.det")), "count"),
            "intlinalg.det_ms": (ms("intlinalg.det"), "ms"),
            "monomials.enum_calls": (per(calls("monomials.enum")), "count"),
            "monomials.enum_ms": (ms("monomials.enum"), "ms"),
            "monomials.rows": (per(k["monomials.rows"]), "count"),
            "symmetry.forced_calls": (per(calls("symmetry.forced")), "count"),
            "symmetry.forced_ms": (ms("symmetry.forced"), "ms"),
            "symmetry.forced_self_ms": (self_ms("symmetry.forced"), "ms"),
            "symmetry.fixing_calls": (per(calls("symmetry.fixing")), "count"),
            "symmetry.fixing_ms": (ms("symmetry.fixing"), "ms"),
            "symmetry.minor_ms": (ms("symmetry.minor"), "ms"),
            "cli.calls": (per(calls("cli")), "count"),
            "cli.ms": (ms("cli"), "ms"),
            "cli.self_ms": (self_ms("cli"), "ms"),
            "cli.qs_calls_per_check": (ratio(k["cli.check_qs"], k["cli.checks"]), "count"),
            "cli.out_kb": (per(k["cli.out_bytes"]) / 1024, "kB"),
        }

    def count_cli(self, command: str, qs_before: int, out_bytes: int) -> None:
        """Record one CLI call made by the benchmark."""
        self.counts["cli.out_bytes"] += out_bytes
        if command == "check":
            self.counts["cli.checks"] += 1
            self.counts["cli.check_qs"] += self.calls("quasismooth") - qs_before
