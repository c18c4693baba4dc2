"""Span recorder for the traced benchmark run.

The traced run wraps each layer's public entry points, under the names
their callers bind them to, in recorders that keep spans in memory.  The
wrappers are installed only for the duration of one traced call and are
removed afterwards, so untraced calls run the program unchanged.

A span's self time is its duration minus the part of it that its child
spans cover.  Every traced call has one root span ("bench"), so the self
times of one call add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


def _she_counts(a, res) -> dict:
    cfg = a["cfg"]
    # the solver's own step count: ceil(2T / dt), at least one step
    steps = max(1, math.ceil(2.0 * a["T"] / cfg.dt_value - 1e-9))
    return {"replicas": a["n_replicas"],
            "site_steps": a["n_replicas"] * cfg.n_sites * steps}


def _moment_counts(a, res) -> dict:
    skipped = sum(t.skipped for t in res.terms)
    return {"k": res.k, "T": res.T, "integrated": len(res.terms) - skipped,
            "skipped": skipped, "quad_error": res.quad_error}


def _gue_counts(a, res) -> dict:
    return {"draws": int(res.shape[0])}


def _rhs_counts(a, res) -> dict:
    return {"truncation_bound": res.truncation_bound}


def _gibbs_counts(a, res) -> dict:
    return {"proposals": res.n_proposals, "accepted": res.n_accepted}


def _cell_counts(a, res) -> dict:
    return {"cells": len(res)}


# (module, attribute, span name, counter): every binding a caller uses.
ENTRY_POINTS = (
    ("experiment", "run_all", "experiment", None),
    ("experiment", "solve_she_ensemble", "she", _she_counts),
    ("she", "solve_she_ensemble", "she", _she_counts),
    ("she", "make_unscaled_initial", "initial_data", None),
    ("experiment", "scale_center_height", "initial_data", None),
    ("experiment", "moment_exact", "moments", _moment_counts),
    ("moments", "moment_exact", "moments", _moment_counts),
    ("experiment", "sample_gue_edge_many", "airy.gue", _gue_counts),
    ("airy", "sample_gue_edge_many", "airy.gue", _gue_counts),
    ("experiment", "laplace_rhs", "airy.rhs", _rhs_counts),
    ("airy", "laplace_rhs", "airy.rhs", _rhs_counts),
    ("experiment", "laplace_lhs", "airy.lhs", None),
    ("experiment", "gibbs_resample", "bridges", _gibbs_counts),
    ("bridges", "gibbs_resample", "bridges", _gibbs_counts),
    ("experiment", "evaluate_query", "bounds", None),
    ("tails", "evaluate_query", "bounds", None),
    ("bounds", "evaluate_query", "bounds", None),
    ("experiment", "mc_tail", "tails", None),
    ("experiment", "bound_violation_report", "tails", _cell_counts),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    run: int  # which benchmark call the span belongs to
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of every traced call, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, run: int) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, counter, run: int) -> Callable:
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._open(name, run)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].counts = counter(bound.arguments, res)
            return res

        return traced

    @contextmanager
    def call(self, run: int):
        """Root span for one benchmark call, with every entry point wrapped."""
        saved = []
        try:
            for mod_name, attr, name, counter in ENTRY_POINTS:
                mod = importlib.import_module(f"kpztails.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is None:  # a caller that no longer binds this name
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, counter, run))
            idx = self._open("bench", run)
            try:
                yield self.spans[idx]
            finally:
                self._close(idx)
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(spans[i])
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, -math.inf
        for c in sorted(children[i], key=lambda c: c.start):
            lo = max(c.start, reach)
            if c.end > lo:
                covered += c.end - lo
            reach = max(reach, c.end)
        out.append(s.duration - covered)
    return out


def call_metrics(spans: list[Span], selfs: list[float]) -> dict:
    """Per-layer metrics of one traced call from its spans."""
    by = defaultdict(list)
    for s, st in zip(spans, selfs):
        by[s.name].append((s, st))

    def secs(name):
        return sum(st for _, st in by[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s, _ in by[name])

    def per_s(n, t):
        return n / t if t > 0.0 else 0.0

    m = {}
    she_s = secs("she")
    m["she.s"] = she_s
    m["she.calls"] = len(by["she"])
    m["she.replicas"] = count("she", "replicas")
    m["she.site_steps"] = count("she", "site_steps")
    m["she.site_steps_per_s"] = per_s(m["she.site_steps"], she_s)
    m["initial_data.s"] = secs("initial_data")
    m["initial_data.calls"] = len(by["initial_data"])
    for k in (1, 2, 3):
        for T in (4.0, 8.0):
            m[f"moments.exact_s.k{k}_T{T:g}"] = sum(
                st for s, st in by["moments"]
                if s.counts["k"] == k and s.counts["T"] == T)
    m["moments.exact_s"] = secs("moments")
    m["moments.partitions_integrated"] = count("moments", "integrated")
    m["moments.partitions_skipped"] = count("moments", "skipped")
    m["moments.quad_error_max"] = max(
        (s.counts["quad_error"] for s, _ in by["moments"]), default=0.0)
    gue_s = secs("airy.gue")
    m["airy.gue_s"] = gue_s
    m["airy.gue_draws"] = count("airy.gue", "draws")
    m["airy.gue_draws_per_s"] = per_s(m["airy.gue_draws"], gue_s)
    m["airy.rhs_s_per_level"] = (secs("airy.rhs") / len(by["airy.rhs"])
                                 if by["airy.rhs"] else 0.0)
    m["airy.lhs_s"] = secs("airy.lhs")
    m["airy.truncation_bound_max"] = max(
        (s.counts["truncation_bound"] for s, _ in by["airy.rhs"]), default=0.0)
    gibbs_s = secs("bridges")
    proposals = count("bridges", "proposals")
    m["bridges.gibbs_s"] = gibbs_s
    m["bridges.proposals"] = proposals
    m["bridges.proposals_per_s"] = per_s(proposals, gibbs_s)
    m["bridges.acceptance_rate"] = (count("bridges", "accepted") / proposals
                                    if proposals else 0.0)
    m["bounds.s"] = secs("bounds")
    m["bounds.queries"] = len(by["bounds"])
    m["tails.s"] = secs("tails")
    m["tails.cells"] = count("tails", "cells")
    m["experiment.self_s"] = secs("experiment")
    m["bench.self_s"] = secs("bench")
    m["trace.wall_s"] = sum(s.duration for s, _ in by["bench"])
    m["trace.self_sum_s"] = sum(selfs)
    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_call: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
