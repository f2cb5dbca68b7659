"""Spans around latgames' public layer functions, installed from outside.

``Tracer.install`` rebinds every name that refers to a traced function, in
every loaded ``latgames`` module, to a wrapper that records a span; that
covers module-level imports (``from .games import validate_game``) and
calls made through the defining module.  ``uninstall`` puts the originals
back.  Nothing under ``src/`` knows about the tracer.

Per function the tracer keeps the number of calls, busy time (outermost
active call only, so recursion is not counted twice) and self time (span
length minus the time covered by its direct child spans).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs, in the order the benchmark reports them.
LAYER_FUNCTIONS = (
    ("games", "validate_game"),
    ("games", "verify_equilibrium_structure"),
    ("games", "enumerate_nash"),
    ("games", "tarski_extremes"),
    ("games", "best_response_correspondence"),
    ("properties", "is_quasisupermodular"),
    ("properties", "is_single_crossing"),
    ("properties", "has_increasing_differences"),
    ("properties", "sections_quasisupermodular"),
    ("properties", "is_supermodular"),
    ("properties", "is_upper_chain_subcomplete"),
    ("properties", "transfer_continuity"),
    ("properties", "is_topologically_usc"),
    ("argmax", "verify_kuku"),
    ("argmax", "is_increasing_strong_set_order"),
    ("lattice", "product_lattice"),
    ("lattice", "check_lattice"),
    ("lattice", "poset_from_covers"),
    ("lattice", "classify_subset"),
    ("topology", "family_for"),
    ("io", "parse"),
    ("cli", "main"),
)

# Counts recorded at span boundaries, besides calls, with their units.
COUNTERS = {"games.equilibria": "count", "io.bytes_parsed": "B"}


def span_name(module: str, function: str) -> str:
    return f"{module}.{function}"


def rebind(original, replacement):
    """Point every name bound to ``original`` in a loaded latgames module at
    ``replacement``; returns what ``restore`` needs to undo it."""
    done = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "latgames" or name.startswith("latgames.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                done.append((mod, attr, original))
    return done


def restore(done):
    for mod, attr, original in reversed(done):
        setattr(mod, attr, original)


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """In-memory span statistics for one process; not thread-safe (the
    benchmark runs one client on one thread)."""

    def __init__(self):
        self.stats = {span_name(m, f): _Stat() for m, f in LAYER_FUNCTIONS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child_time = [0.0]
        self._installed = []

    def reset(self):
        for stat in self.stats.values():
            stat.calls = 0
            stat.busy = stat.self_time = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        child_time = self._child_time
        counters = self._counter_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = child_time.pop()
                child_time[-1] += elapsed
                stat.self_time += elapsed - children
                stat.active -= 1
                if not stat.active:
                    stat.busy += elapsed
            if counters is not None:
                counters(args, result)
            return result

        return wrapper

    def _counter_for(self, name):
        if name == "games.enumerate_nash":
            def count(args, result):
                self.counters["games.equilibria"] += len(result.equilibria)
            return count
        if name == "io.parse":
            def count(args, result):
                self.counters["io.bytes_parsed"] += len(args[0])  # ASCII JSON
            return count
        return None

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, function in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"latgames.{module}"), function)
            wrapper = self._wrap(span_name(module, function), original)
            self._installed += rebind(original, wrapper)

    def uninstall(self):
        restore(self._installed)
        self._installed = []

    def snapshot(self) -> dict:
        """``{span: (calls, busy_s, self_s)}`` plus the counters."""
        spans = {name: (s.calls, s.busy, s.self_time) for name, s in self.stats.items()}
        return {"spans": spans, "counters": dict(self.counters)}
