"""Experiment orchestration: presets, runners, and deterministic artifacts.

Each runner takes (config, seed, out_dir), writes CSV/JSON artifacts, and
returns a summary dict with a "status" of "pass" or "fail" plus named
checks.  Artifacts are byte-deterministic for a given (config, seed):
floats are formatted with repr-faithful %.17g, JSON is sorted, and no
timestamps or environment data enter the outputs.

Sections and the acceptance checks they exercise at the configured scale:
simulate (first-moment oracle on one narrow-wedge ensemble, whose field
every initial's samples are composed from), report (tail CIs vs clamped
envelopes with UNTESTABLE-AT-SCALE labeling), bounds (envelope tables for
every theorem), moments (closed form k=1 and the psi sandwich), airy
(Laplace identity: the narrow-wedge samples vs the exact determinant).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .airy import laplace_exact, laplace_lhs
from .bounds import DEFAULT_CONSTANTS, BoundQuery, evaluate_query
from .initial_data import (BrownianTwoSided, Flat, InitialData, NarrowWedge,
                           scale_center_height)
from .moments import (MAX_MOMENT_K, SANDWICH_FACTOR, moment_exact,
                      moment_in_range, psi)
from .she import (SolverConfig, convolve_upsilon_with_f, solve_she_ensemble,
                  wedge_readout_times)
from .tails import VERDICTS, VIOLATION, bound_violation_report

__all__ = [
    "ExperimentConfig",
    "preset_config",
    "run_simulate",
    "run_bounds",
    "run_moments",
    "run_airy",
    "run_report",
    "run_all",
    "PRESETS",
]

# every RNG stream of a run: stream `name` of seed s is seeded s*10 + number
_STREAM = {"narrow_wedge": 0, "brownian_path": 7}


def _stream_seed(seed: int, name: str) -> int:
    return seed * 10 + _STREAM[name]


@dataclass(frozen=True)
class _Initial:
    """One initial condition: its data and judging theorems."""

    data: Callable[[int], InitialData]  # built from the run seed
    theorems: tuple  # (lower-tail, upper-tail) theorem families


_INITIAL = {
    "narrow_wedge": _Initial(lambda seed: NarrowWedge(),
                             ("nw_lower", "nw_upper")),
    "flat": _Initial(lambda seed: Flat(), ("general_lower", "general_upper")),
    "brownian": _Initial(
        lambda seed: BrownianTwoSided(seed=_stream_seed(seed, "brownian_path")),
        ("brownian_lower", "brownian_upper")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one experiment bundle, checked whole on construction.

    Every grid must be non-empty.  The lattices and the envelope queries
    that the runners build are built here too, so that their own checks
    reject a bad value before any section runs.

    No section reads gibbs_n, airy_n or airy_N; they stay, checked, only
    because the benchmark's tiny bundle (perfbench/workloads.py) sets them.
    """

    preset: str = "smoke"
    initials: tuple = tuple(_INITIAL)
    T: float = 1.0
    n_samples: int = 1000
    s_grid: tuple = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
    alpha: float = 0.01
    eps: float = 0.1
    delta: float = 0.1
    mu: float = 0.1
    zeta: float = 0.1
    constants: dict = field(default_factory=lambda: dict(DEFAULT_CONSTANTS))
    dx: float = 0.05
    dt: Optional[float] = 1.25e-3
    extent: float = 4.0
    gibbs_n: int = 200
    airy_n: int = 300
    airy_N: int = 512
    airy_s: tuple = (-1.0, 0.0, 1.0)
    moments_k: tuple = (1, 2)
    moments_T: tuple = (1.0, 4.0)

    def __post_init__(self) -> None:
        # a dict of its own, so that editing the caller's dict, a preset's
        # or another config's cannot edit this one
        object.__setattr__(self, "constants", dict(self.constants))
        # bool is an int subclass, so true would pass as 1
        booleans = [f.name for f in fields(self)
                    if any(isinstance(v, bool) for v in _entries(
                        getattr(self, f.name)))]
        if booleans:
            raise ValueError(f"booleans are not numbers: {booleans}")
        not_int = [name for name in _COUNT_FIELDS
                   if not isinstance(getattr(self, name), int)]
        if not_int:
            raise ValueError(f"counts must be integers: {not_int}")
        if self.n_samples < 2 or self.gibbs_n < 2 or self.airy_n < 2:
            raise ValueError("sample counts must be at least 2")
        empty = [name for name in _TUPLE_FIELDS if not getattr(self, name)]
        if empty:
            raise ValueError(f"empty grids: {empty}")
        repeated = [name for name in _TUPLE_FIELDS
                    if _has_duplicates(getattr(self, name))]
        if repeated:
            raise ValueError(f"duplicate grid entries: {repeated}")
        bad = [i for i in self.initials if i not in _INITIAL]
        if bad:
            raise ValueError(f"unknown initial data names: {bad}")
        if not all(math.isfinite(t) and t > 0.0 for t in self.moments_T):
            raise ValueError("moments_T must be finite and positive")
        if not all(math.isfinite(s) for s in self.airy_s):
            raise ValueError("airy_s levels must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not all(isinstance(k, int) and 1 <= k <= MAX_MOMENT_K
                   for k in self.moments_k):
            raise ValueError(f"moments_k must lie in [1, {MAX_MOMENT_K}]")
        overflow = [(k, t) for k in self.moments_k for t in self.moments_T
                    if not moment_in_range(k, t)]
        if overflow:
            raise ValueError(f"moments exceed float range at (k, T) = {overflow}")
        unknown = sorted(set(self.constants) - set(DEFAULT_CONSTANTS))
        if unknown:
            raise ValueError(f"unknown constants: {unknown}; "
                             f"choose from {sorted(DEFAULT_CONSTANTS)}")
        # build what the runners build, so that their own checks run now
        for theorem in BoundQuery.THEOREMS:
            for s in self.s_grid:
                evaluate_query(self.query(theorem, s))
        wedge_readout_times(self.T, self.solver())

    def solver(self) -> SolverConfig:
        return SolverConfig(dx=self.dx, dt=self.dt, extent=self.extent)

    def query(self, theorem: str, s: float) -> BoundQuery:
        return BoundQuery(theorem=theorem, s=s, T=self.T, eps=self.eps,
                          delta=self.delta, mu=self.mu, zeta=self.zeta,
                          constants=dict(self.constants))


_TUPLE_FIELDS = ("initials", "s_grid", "airy_s", "moments_k", "moments_T")
_COUNT_FIELDS = ("n_samples", "gibbs_n", "airy_n", "airy_N")


def _entries(value) -> tuple:
    """A field's scalars: a grid's entries, the constants' values, or itself."""
    if isinstance(value, dict):
        return tuple(value.values())
    return value if isinstance(value, tuple) else (value,)


def _has_duplicates(grid: tuple) -> bool:
    # == rather than a set: 1 and 1.0 name one grid point, and entries of
    # the wrong type need not be hashable
    return any(a == b for i, a in enumerate(grid) for b in grid[:i])


def _config_fields(d: dict) -> dict:
    """A copy of d with sequences made tuples; unknown fields raise."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {d!r}")
    if "preset" in d:
        raise ValueError("preset is chosen by name, not a config field")
    unknown = sorted(set(d) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    return {k: tuple(v) if k in _TUPLE_FIELDS else v for k, v in d.items()}


PRESETS = {
    "smoke": ExperimentConfig(),
    "full": ExperimentConfig(
        preset="full",
        n_samples=10**4,
        s_grid=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0),
        extent=6.0,
        moments_k=(1, 2, 3),
        moments_T=(4.0, 8.0),
    ),
}


def preset_config(name: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(PRESETS[name], **_config_fields(overrides or {}))


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summarize(out: Path, command: str, config: ExperimentConfig, seed: int,
               checks: dict, artifacts: list, **extra) -> dict:
    """Write <command>_summary.json; status is pass iff every check passes."""
    summary = {"command": command, "preset": config.preset, "seed": seed,
               "checks": checks, "artifacts": artifacts,
               "status": "pass" if all(checks.values()) else "fail", **extra}
    _write_json(out / f"{command}_summary.json", summary)
    return summary


def _collect_samples(config: ExperimentConfig, seed: int) -> dict:
    """The runners' samples: Z(2T, 0), one value per replica, for the narrow
    wedge and each initial, all composed from one n_samples-replica
    narrow-wedge ensemble at T, read on every site at its last two steps."""
    cfg = config.solver()
    wedge = solve_she_ensemble(
        NarrowWedge(), config.T, cfg, seed=_stream_seed(seed, "narrow_wedge"),
        n_replicas=config.n_samples,
        probe_times=wedge_readout_times(config.T, cfg), probe_x=cfg.x_grid)
    return {name: convolve_upsilon_with_f(wedge, _INITIAL[name].data(seed),
                                          config.T, cfg)
            for name in dict.fromkeys(("narrow_wedge", *config.initials))}


def _heights(config: ExperimentConfig, seed: int, samples: dict,
             name: str) -> np.ndarray:
    """The centered/scaled heights of initial `name` from its Z samples."""
    return scale_center_height(samples[name], config.T,
                               _INITIAL[name].data(seed))


def run_simulate(config: ExperimentConfig, seed: int, out_dir,
                 samples: Optional[dict] = None) -> dict:
    """Sample scaled heights per initial condition; check the Z first moment."""
    out = _out_dir(out_dir)
    if samples is None:
        samples = _collect_samples(config, seed)
    artifacts, stats_block = [], {}
    for name in config.initials:
        vals = _heights(config, seed, samples, name)
        path = out / f"samples_{name}.csv"
        _write_csv(path, ["replica", "value"],
                   ((i, float(v)) for i, v in enumerate(vals)))
        artifacts.append(path.name)
        stats_block[name] = {
            "n": int(vals.size),
            "mean": float(vals.mean()),
            "sd": float(vals.std(ddof=1)),
        }
    # judge the wedge readout that every run makes
    z = samples["narrow_wedge"]
    se = z.std(ddof=1) / math.sqrt(z.size)
    exact = 1.0 / (2.0 * math.sqrt(math.pi * config.T))
    checks = {"first_moment_z": bool(abs(z.mean() - exact) <= 3.0 * se)}
    stats_block.setdefault("narrow_wedge", {}).update(
        z_mean=float(z.mean()), z_se=float(se), z_exact=exact)
    return _summarize(out, "simulate", config, seed, checks, artifacts,
                      T=config.T, stats=stats_block)


def run_bounds(config: ExperimentConfig, seed: int, out_dir) -> dict:
    """Evaluate every theorem envelope over the s grid (informational)."""
    out = _out_dir(out_dir)
    rows = []
    for theorem in BoundQuery.THEOREMS:
        for s in config.s_grid:
            res = evaluate_query(config.query(theorem, s))
            rows.append((theorem, s, config.T, res.value,
                         "" if res.value_lower is None else res.value_lower,
                         res.regime,
                         "" if res.c1 is None else res.c1,
                         "" if res.c2 is None else res.c2,
                         res.validity_note))
    path = out / "bounds.csv"
    _write_csv(path, ["theorem", "s", "T", "value", "value_lower",
                      "regime", "c1", "c2", "validity_note"], rows)
    return _summarize(out, "bounds", config, seed, {}, [path.name],
                      rows=len(rows))


def run_moments(config: ExperimentConfig, seed: int, out_dir) -> dict:
    """Exact moments vs the psi sandwich; k=1 closed form as a hard check."""
    out = _out_dir(out_dir)
    rows, sandwich_ok, closed_ok = [], True, True
    for T in config.moments_T:
        for k in config.moments_k:
            res = moment_exact(k, T)
            lo = psi(k, T)
            rows.append((k, T, res.value, lo, SANDWICH_FACTOR * lo,
                         res.in_sandwich, res.quad_error))
            sandwich_ok = sandwich_ok and res.in_sandwich
            if k == 1:
                # in log space: e^{T/12} alone overflows below the range's edge
                closed = math.exp(T / 12.0 - 0.5 * math.log(4.0 * math.pi * T))
                closed_ok = closed_ok and math.isclose(res.value, closed,
                                                       rel_tol=1e-8)
    path = out / "moments.csv"
    _write_csv(path, ["k", "T", "moment", "psi", "psi69", "in_sandwich",
                      "quad_error"], rows)
    checks = {"psi_sandwich": bool(sandwich_ok),
              "k1_closed_form": bool(closed_ok)}
    return _summarize(out, "moments", config, seed, checks, [path.name])


def run_airy(config: ExperimentConfig, seed: int, out_dir,
             samples: Optional[dict] = None) -> dict:
    """Laplace identity: narrow-wedge lhs vs the exact determinant per level."""
    out = _out_dir(out_dir)
    if samples is None:
        samples = _collect_samples(config, seed)
    ups = _heights(config, seed, samples, "narrow_wedge")
    rows, ok = [], True
    for s in config.airy_s:
        lhs = laplace_lhs(ups, s=s, T=config.T)
        det, quad_error, nodes = laplace_exact(s, config.T)
        # no slack but the quadrature error; an unconverged det is NaN: fails
        within = bool(abs(lhs.value - det) <= 3.0 * lhs.se + quad_error)
        ok = ok and within
        rows.append((s, config.T, lhs.value, det, lhs.se, quad_error, nodes,
                     within))
    path = out / "airy.csv"
    _write_csv(path, ["s", "T", "lhs", "rhs", "se_lhs", "quad_error",
                      "nodes", "within_tolerance"], rows)
    return _summarize(out, "airy", config, seed, {"laplace_identity": bool(ok)},
                      [path.name])


def run_report(config: ExperimentConfig, seed: int, out_dir,
               samples: Optional[dict] = None) -> dict:
    """Tail CIs vs clamped envelopes for every initial's theorem pair."""
    out = _out_dir(out_dir)
    if samples is None:
        samples = _collect_samples(config, seed)
    rows = []
    counts = dict.fromkeys(VERDICTS, 0)
    for name in config.initials:
        queries = [config.query(theorem, s)
                   for theorem in _INITIAL[name].theorems
                   for s in config.s_grid]
        for v in bound_violation_report(_heights(config, seed, samples, name),
                                        queries, config.alpha):
            counts[v.verdict] += 1
            rows.append((name, v.theorem, v.side, v.s, v.T,
                         v.envelope_raw, v.envelope, v.estimate, v.ci_lo,
                         v.ci_hi, v.n, v.hits, v.verdict, v.slack, v.regime))
    path = out / "report.csv"
    _write_csv(path, ["initial", "theorem", "side", "s", "T",
                      "envelope_raw", "envelope", "estimate", "ci_lo", "ci_hi",
                      "n", "hits", "verdict", "slack", "regime"], rows)
    return _summarize(out, "report", config, seed,
                      {"no_envelope_violation": counts[VIOLATION] == 0},
                      [path.name], verdicts=counts)


def run_all(config: ExperimentConfig, seed: int, out_dir) -> dict:
    """Run every section.

    Returns a merged summary; overall status is "pass" iff every section
    passed (UNTESTABLE-AT-SCALE cells never fail a run).  The
    returned summary also carries each section's wall time ("wall_s"; the
    shared ensemble counts to simulate), which is not written to
    summary.json, so the artifacts stay byte-deterministic.
    """
    out = Path(out_dir)
    sections, wall_s = {}, {}
    lap = time.perf_counter()

    def record(name: str, section: dict) -> None:
        nonlocal lap
        sections[name] = section
        now = time.perf_counter()
        wall_s[name], lap = now - lap, now

    samples = _collect_samples(config, seed)
    record("simulate", run_simulate(config, seed, out, samples))
    record("report", run_report(config, seed, out, samples))
    record("bounds", run_bounds(config, seed, out))
    record("moments", run_moments(config, seed, out))
    record("airy", run_airy(config, seed, out, samples))
    status = "pass" if all(s["status"] == "pass"
                           for s in sections.values()) else "fail"
    summary = {
        "command": "all",
        "preset": config.preset,
        "seed": seed,
        "status": status,
        "sections": {k: v["status"] for k, v in sections.items()},
        "artifacts": sorted(a for s in sections.values()
                            for a in s["artifacts"]),
    }
    _write_json(out / "summary.json", summary)
    return {**summary, "wall_s": wall_s}
