"""Spans around diagforge's public functions, for the traced run.

`Tracer.install()` replaces each function in TARGETS at every import site
in `diagforge.*` (every module attribute bound to the same object), so
`machines.evaluate` and `synthesis.evaluate_env` are wrapped as well as
`interp.evaluate`. Recursive functions are not replaced in their own
module, except `terms_of_size`, whose cached recursion is what the layer
counts. Each call records a span (layer, start, end, parent span) in
memory; `layers()` turns the spans into per-layer calls, counts and self
times, where a span's self time is its duration minus its child spans'.
A target the package no longer has is skipped, so its figures read 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function, layer, kind, replace in its own module)
# kind: "call" records a span; "gen" records a span per next() of the
# returned generator; "count" records no span, only counts.
TARGETS = (
    ("cli", "main", "cli", "call", True),
    ("kernel", "parse", "kernel.parse", "call", True),
    ("kernel", "pretty", "kernel.pretty", "call", False),
    ("kernel", "check_well_formed", "kernel.check", "call", False),
    ("kernel", "infer_sort", "kernel.check", "call", False),
    ("interp", "evaluate", "interp.eval", "call", False),
    ("interp", "evaluate_env", "interp.eval", "call", False),
    ("enumeration", "terms_of_size", "enumeration.layer", "call", True),
    ("enumeration", "program_at", "enumeration.program_at", "call", True),
    ("enumeration", "index_of", "enumeration.index_of", "call", True),
    ("enumeration", "enumerate_stream", "enumeration.stream", "gen", True),
    ("machines", "witness_table", "machines.witness_table", "call", True),
    ("refuter", "refute", "refuter.refute", "call", True),
    ("refuter", "_accepts", "refuter.accepts", "call", True),
    ("synthesis", "synthesize", "synthesis.synthesize", "call", True),
    ("synthesis", "bottom_up_pool", "synthesis.pool", "call", True),
    ("synthesis", "fill_schema_holes", "synthesis.fill", "gen", True),
    ("spaces", "absorb", "spaces.absorb", "call", True),
    ("spaces", "expand_domain", "spaces.expand", "call", True),
    ("spaces", "unify", "spaces.unify", "call", True),
    ("spaces", "load_snapshot", "spaces.load", "call", True),
    ("spaces", "snapshot", "spaces.snapshot", "call", True),
    ("spaces", "_rebuild", "spaces.rebuild", "count", True),
)

# Self times reported per layer; a layer not listed here folds its self
# time into the one named.
SELF_TIME_OF = {
    "kernel.parse": "kernel.parse",
    "kernel.pretty": "kernel.pretty",
    "kernel.check": "kernel.check",
    "interp.eval": "interp.eval",
    "enumeration.layer": "enumeration.layer",
    "enumeration.program_at": "enumeration.program_at",
    "enumeration.index_of": "enumeration.index_of",
    "enumeration.stream": "enumeration.stream",
    "machines.witness_table": "machines.witness_table",
    "refuter.refute": "refuter.refute",
    "refuter.accepts": "refuter.refute",
    "synthesis.pool": "synthesis.pool",
    "synthesis.fill": "synthesis.fill",
    "spaces.absorb": "spaces.absorb",
    "spaces.expand": "spaces.expand",
    "spaces.unify": "spaces.unify",
    "spaces.load": "spaces.load",
    "spaces.snapshot": "spaces.snapshot",
    "cli": "cli",
}

# Layers whose presence among a span's ancestors the counts below ask about.
_FLAGS = {
    "refuter.refute": 1,
    "refuter.accepts": 2,
    "synthesis.synthesize": 4,
    "synthesis.pool": 8,
}


class Tracer:
    """Spans of one op: a child process runs a single op, so every span a
    tracer holds belongs to that op."""

    def __init__(self):
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.raised: dict[int, str] = {}
        self.result_len: dict[int, int] = {}
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _call(self, layer: str, fn):
        tracer = self
        sized = layer in ("enumeration.layer", "machines.witness_table", "synthesis.pool")
        cache = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            misses = cache().misses if cache else 0
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer.raised[idx] = type(exc).__name__
                raise
            tracer._close(idx)
            if sized:
                tracer.result_len[idx] = len(result)
            if layer == "enumeration.layer" and (cache is None or cache().misses > misses):
                tracer.counts["enumeration.layer.misses"] += 1
                tracer.counts["enumeration.layer.built"] += len(result)
            elif layer == "refuter.refute":
                tracer.counts["refuter.accepted"] += len(getattr(result, "accepted_prefix", ()))
                tracer.counts["refuter.rows"] += len(getattr(result, "witnesses", ()))
            return result

        return wrapper

    def _gen(self, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def proxy():
                while True:
                    idx = tracer._open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx)
                        raise
                    tracer._close(idx)
                    tracer.counts[layer + ".items"] += 1
                    if tracer._flag_of_stack() & _FLAGS["refuter.refute"]:
                        tracer.counts["refuter.scanned"] += 1
                    yield item

            return proxy()

        return wrapper

    def _count(self, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[layer + ".members"] += len(args[1]) if len(args) > 1 else 0
            return fn(*args, **kwargs)

        return wrapper

    def _flag_of_stack(self) -> int:
        flags = 0
        for idx in self.stack[1:]:
            flags |= _FLAGS.get(self.layer[idx], 0)
        return flags

    def session(self, fn, *args):
        idx = self._open("session")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        package = {name: mod for name, mod in sys.modules.items() if name == "diagforge" or name.startswith("diagforge.")}
        for module_name, attr, layer, kind, own in TARGETS:
            home = package.get("diagforge." + module_name)
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = {"call": self._call, "gen": self._gen, "count": self._count}[kind](layer, original)
            for name, module in package.items():
                if module is home and not own:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.saved.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self.saved):
            setattr(module, key, original)
        self.saved.clear()

    # -- aggregating ---------------------------------------------------------

    def layers(self, out_bytes: int) -> dict:
        """Per-layer figures of this op: counts and self times."""
        n = len(self.start)
        cover = [0.0] * n
        flags = [0] * n
        table = [-1] * n  # nearest witness_table span at or above each span
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                cover[p] += self.end[idx] - self.start[idx]
                flags[idx] = flags[p]
                table[idx] = table[p]
            flags[idx] |= _FLAGS.get(self.layer[idx], 0)
            if self.layer[idx] == "machines.witness_table":
                table[idx] = idx
        self_s: Counter = Counter()
        calls: Counter = Counter()
        out = Counter()
        for idx in range(n):
            layer = self.layer[idx]
            target = SELF_TIME_OF.get(layer)
            if target:
                self_s[target] += (self.end[idx] - self.start[idx]) - cover[idx]
            calls[layer] += 1
            p = self.parent[idx]
            parent_layer = self.layer[p] if p >= 0 else None
            if layer == "interp.eval":
                if self.raised.get(idx) == "ResourceExhaustedError":
                    out["interp.eval.exhausted"] += 1
                f = flags[idx]
                if table[idx] >= 0 and table[idx] not in self.raised:
                    out["machines.evals"] += 1  # evaluations behind rows actually returned
                if f & _FLAGS["refuter.refute"] and not f & _FLAGS["refuter.accepts"]:
                    out["refuter.evals"] += 1
                if f & _FLAGS["synthesis.synthesize"] and not f & _FLAGS["synthesis.pool"]:
                    out["synthesis.verify.evals"] += 1
            elif layer == "enumeration.layer" and parent_layer == "synthesis.pool":
                out["synthesis.pool.enumerated"] += self.result_len.get(idx, 0)
            elif layer == "machines.witness_table":
                out["machines.rows"] += self.result_len.get(idx, 0)
            elif layer == "synthesis.pool":
                out["synthesis.pool.kept"] += self.result_len.get(idx, 0)
        for name in ("kernel.parse", "kernel.pretty", "kernel.check", "interp.eval", "enumeration.layer",
                     "enumeration.program_at", "enumeration.index_of", "spaces.absorb"):
            out[name + ".calls"] = calls[name]
        for name, value in self_s.items():
            out[name + ".self_s"] = value
        out["enumeration.layer.misses"] = self.counts["enumeration.layer.misses"]
        out["enumeration.layer.terms"] = self.counts["enumeration.layer.built"]
        out["enumeration.stream.items"] = self.counts["enumeration.stream.items"]
        out["synthesis.fill.fillings"] = self.counts["synthesis.fill.items"]
        out["spaces.rebuild.members"] = self.counts["spaces.rebuild.members"]
        for key in ("refuter.scanned", "refuter.accepted", "refuter.rows"):
            out[key] = self.counts[key]
        out["cli.out_bytes"] = out_bytes
        return dict(out)
