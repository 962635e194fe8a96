"""Instrumentation installed on riemqn from outside the library.

Nothing under ``src/`` knows about it: wrappers replace module attributes and
class attributes, and ``Patcher.restore`` puts the originals back.

``Probe`` is the light instrumentation of an untraced pass: it times each
``solve`` call and each ``generate_instance`` call made by the bench layer,
counts cost and gradient evaluations, line searches and the cost
evaluations inside them, and keeps the final iterate of every run (the
``x_new`` of its last accepted line-search step) for the correctness gate.
It adds under a microsecond per iteration.  Given a ``Gauge``, it also lets
the gauge take its samples between solves, outside the timed calls.

``Tracer`` records a span for every call that crosses a layer boundary:
every riemqn function that one module imports from another is wrapped where
the importing module looks it up, the bench layer's own stages are wrapped,
and so are the methods other layers call on riemqn objects (problem
cost/grad, ``SplitMix64.normal``, ``Tangent`` arithmetic).  A span is named
``<layer>.<function>``, where the layer is the module that defines the
function.  Spans are kept in memory with name, start, end and parent; when a
``solver.solve`` span (or a root span) closes, its finished subtree is folded
into per-name totals, so memory stays bounded by the largest single run.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import riemqn.bench  # noqa: F401  (imports every layer)

LAYERS = ("rng", "problems", "manifolds", "directions", "linesearch", "solver", "bench", "profiles")
TANGENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__")
FOLD_SPAN = "solver.solve"
# compute_z(mode, s, y, nu_hat) returns y itself when no regularization fired
FLAGS = {"compute_z": lambda args, z: z is not args[2]}


class Patcher:
    """Sets attributes and remembers the originals until ``restore``."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def counting(box: list[int], fn: Callable) -> Callable:
    """``fn`` adding one to ``box[0]`` per call (a list cell is the cheapest counter)."""

    @functools.wraps(fn)
    def counted(*args):
        box[0] += 1
        return fn(*args)

    return counted


@dataclass
class Run:
    """One ``solve`` call as the bench layer made it."""

    problem: Any
    cfg: Any
    result: Any
    seconds: float
    final_x: Any
    started: float = 0.0


class Probe:
    def __init__(self, gauge=None):
        self.gauge = gauge
        self.runs: list[Run] = []
        self.generate_seconds = 0.0
        self.gauge_seconds = 0.0  # gauge samples taken during the pass
        self.cost_evals = [0]
        self.grad_evals = [0]
        self.steps = 0  # line searches started
        self.probes = 0  # cost evaluations made inside line searches

    def install(self, patcher: Patcher) -> None:
        clock = time.perf_counter
        real_solve = riemqn.bench.solve
        real_generate = riemqn.bench.generate_instance
        real_search = riemqn.solver.search_step
        last_x = [None]
        cost_evals = self.cost_evals
        gauge = self.gauge

        @functools.wraps(real_solve)
        def timed_solve(problem, x0, cfg, callback=None):
            if gauge is not None:
                before = len(gauge.seconds)
                gauge.maybe_sample()
                self.gauge_seconds += sum(gauge.seconds[before:])
            last_x[0] = x0
            t0 = clock()
            result = real_solve(problem, x0, cfg, callback)
            seconds = clock() - t0
            self.runs.append(Run(problem, cfg, result, seconds, last_x[0], t0))
            return result

        @functools.wraps(real_generate)
        def timed_generate(*args, **kwargs):
            t0 = clock()
            try:
                return real_generate(*args, **kwargs)
            finally:
                self.generate_seconds += clock() - t0

        @functools.wraps(real_search)
        def capturing_search(*args, **kwargs):
            before = cost_evals[0]
            self.steps += 1
            try:
                ev = real_search(*args, **kwargs)
            finally:
                self.probes += cost_evals[0] - before
            last_x[0] = ev.x_new
            return ev

        patcher.set(riemqn.bench, "solve", timed_solve)
        patcher.set(riemqn.bench, "generate_instance", timed_generate)
        patcher.set(riemqn.solver, "search_step", capturing_search)
        for cls in (riemqn.problems.RayleighInstance, riemqn.problems.OffDiagonalInstance):
            for method, box in (("cost", self.cost_evals), ("grad", self.grad_evals)):
                patcher.set(cls, method, counting(box, getattr(cls, method)))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._ok = array("b")
        self._stack: list[int] = []
        self._carried: dict[int, int] = {}
        self._fold_id = self.span_id(FOLD_SPAN)
        self._child_pairs: list[tuple[int, int]] = []
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.failed = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.single_child = Counter()  # (parent, child) -> ok parents with exactly one such child
        self.flags = Counter()
        self.tangents = [0]  # Tangent constructions
        self.point_checks = [0]  # Point validations

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count_single_children(self, parent: str, child: str) -> None:
        """Also count the parent spans that completed with exactly one ``child`` span."""
        self._child_pairs.append((self.span_id(parent), self.span_id(child)))

    def wrap(self, name, fn: Callable, flag: Callable | None = None) -> Callable:
        """Record a span around ``fn``.

        ``name`` is a string or a function of the call's arguments returning
        one.  ``flag(args, result)``, when given, counts calls into
        ``flags[name]`` for which it is true.
        """
        name_arr, parent_arr, start_arr, end_arr, ok_arr = (
            self._name, self._parent, self._start, self._end, self._ok
        )
        stack, clock, fold_id = self._stack, time.perf_counter_ns, self._fold_id
        fixed = None if callable(name) else self.span_id(name)
        span_id, flags = self.span_id, self.flags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else span_id(name(args))
            idx = len(name_arr)
            name_arr.append(nid)
            parent_arr.append(stack[-1] if stack else -1)
            ok_arr.append(1)
            end_arr.append(0)
            stack.append(idx)
            start_arr.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ok_arr[idx] = 0
                raise
            finally:
                end_arr[idx] = clock()
                stack.pop()
                if not stack:
                    self._fold(idx)
                elif nid == fold_id:
                    self._fold(idx + 1)
            if flag is not None and flag(args, result):
                flags[self.names[nid]] += 1
            return result

        return traced

    def _fold(self, lo: int) -> None:
        """Fold the finished spans lo.. into the totals and drop them."""
        n = len(self._name) - lo
        if n <= 0:
            return
        all_names = np.frombuffer(self._name, dtype=np.int32).copy()
        names = all_names[lo:]
        parent = np.frombuffer(self._parent, dtype=np.int32)[lo:].copy()
        start = np.frombuffer(self._start, dtype=np.int64)[lo:].copy()
        end = np.frombuffer(self._end, dtype=np.int64)[lo:].copy()
        ok = np.frombuffer(self._ok, dtype=np.int8)[lo:].copy()
        dur = (end - start).astype(np.float64)

        local = parent - lo
        inside = local >= 0
        child = np.bincount(local[inside], weights=dur[inside], minlength=n)
        for idx in [i for i in self._carried if i >= lo]:
            child[idx - lo] += self._carried.pop(idx)
        outside = (~inside) & (parent >= 0)
        for p, t in zip(parent[outside].tolist(), dur[outside].tolist()):
            self._carried[p] = self._carried.get(p, 0) + t

        k = len(self.names)
        for nid, c, tot, slf, bad in zip(
            range(k),
            np.bincount(names, minlength=k).tolist(),
            np.bincount(names, weights=dur, minlength=k).tolist(),
            np.bincount(names, weights=dur - child, minlength=k).tolist(),
            np.bincount(names, weights=(ok == 0), minlength=k).tolist(),
        ):
            if c:
                name = self.names[nid]
                self.calls[name] += c
                self.total_ns[name] += tot
                self.self_ns[name] += slf
                self.failed[name] += int(bad)

        has_parent = parent >= 0
        pairs = all_names[parent[has_parent]].astype(np.int64) * k + names[has_parent]
        uniq, cnt = np.unique(pairs, return_counts=True)
        for pair, c in zip(uniq.tolist(), cnt.tolist()):
            self.edges[(self.names[pair // k], self.names[pair % k])] += c

        for pid, cid in self._child_pairs:
            mask = inside & (names == cid)
            per_span = np.bincount(local[mask], minlength=n)
            single = (names == pid) & (ok == 1) & (per_span == 1)
            self.single_child[(self.names[pid], self.names[cid])] += int(single.sum())

        del self._name[lo:], self._parent[lo:], self._start[lo:], self._end[lo:], self._ok[lo:]

    def install(self, patcher: Patcher) -> None:
        codes = {
            riemqn.manifolds.TransportKind.DIFFERENTIATED_RETRACTION: "dr",
            riemqn.manifolds.TransportKind.PROJECTION: "proj",
            riemqn.manifolds.TransportKind.INVERSE_RETRACTION: "invret",
        }
        for mod in (getattr(riemqn, layer) for layer in LAYERS):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("riemqn."):
                    continue
                if home == mod.__name__ and mod is not riemqn.bench:
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                if name.startswith("manifolds.transport"):
                    # name transport spans by the kind the caller asked for
                    name = lambda args, prefix=name: f"{prefix}.{codes[args[0]]}"
                patcher.set(mod, attr, self.wrap(name, value, FLAGS.get(attr)))

        problems = riemqn.problems
        for cls in (problems.RayleighInstance, problems.OffDiagonalInstance):
            for method in ("cost", "grad", "initial_point"):
                patcher.set(cls, method, self.wrap(f"problems.{method}", getattr(cls, method)))
        patcher.set(riemqn.rng.SplitMix64, "normal", self.wrap("rng.normal", riemqn.rng.SplitMix64.normal))
        tangent = riemqn.manifolds.Tangent
        for op in TANGENT_OPS:
            patcher.set(tangent, op, self.wrap(f"manifolds.Tangent.{op.strip('_')}", tangent.__dict__[op]))
        patcher.set(tangent, "__post_init__", counting(self.tangents, tangent.__post_init__))
        point = riemqn.manifolds.Point
        patcher.set(point, "__post_init__", counting(self.point_checks, point.__post_init__))
        table = riemqn.profiles.ProfileTable
        for method in ("value", "to_csv"):
            patcher.set(table, method, self.wrap(f"profiles.ProfileTable.{method}", getattr(table, method)))

    def layer_self_ns(self, layer: str) -> float:
        return sum(t for name, t in self.self_ns.items() if name.split(".", 1)[0] == layer)
