"""Workloads of the kpz-tails benchmark.

Each workload builds its inputs, makes one timed call into the public
functions of `kpztails` with the run's seed, and then judges the outputs:
a set of correctness gates that can fail, and a digest of the outputs.
Every call in one benchmark run uses the same seed, so equal digests are
required across the calls of a run (output identity); no digest is pinned
across commits.

The program functions are called through their modules (`she.`,
`moments.`, ...) so that the traced run can wrap them in place.

Why these three workloads:

- bundle_smoke: the run users make, `run_all` on the smoke preset.  Every
  layer runs on the real path, artifact writing included; about 80% of it
  is SHE ensembles with general initial data and partial replica chunks.
- wedge_ensemble: pure solver throughput on the full preset's lattice with
  full 512-replica chunks and their larger noise windows.  It is the
  control for changes to the closed forms.
- closed_forms: the full preset's non-SHE work (exact moments, GUE edge
  and Laplace right-hand side, Gibbs resampling, every bound query).  It
  is the control for solver changes.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from kpztails import airy, bounds, bridges, experiment, moments, she
from kpztails.initial_data import NarrowWedge

# Fredholm determinant det(I - K_Ai sigma_s) at s = -1, 0, 1 for T = 2
# (Gauss-Legendre Nystrom, stable to ~1e-8 between 80 and 120 nodes).
FREDHOLM_T2 = {-1.0: 0.6529436, 0.0: 0.8467394, 1.0: 0.9444446}


@dataclass
class Outcome:
    """One call's outputs, reduced to what the benchmark keeps."""

    gates: dict  # gate name -> passed
    digest: str
    extra: dict = field(default_factory=dict)  # per-layer metrics read from outputs


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (tiny) -> inputs; tiny shrinks them for self-checks
    call: Callable  # (inputs, seed, workdir) -> raw outputs; the timed part
    judge: Callable  # (inputs, raw, workdir) -> Outcome


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# ---------------------------------------------------------------- gates


def bundle_gates(summary: dict) -> dict:
    return {"run_all_pass": summary.get("status") == "pass"}


def wedge_gates(res) -> dict:
    """E Z(t, 0) within 3 SE of the heat kernel 1/(2 sqrt(pi t/2))."""
    x0 = int(np.flatnonzero(res.probe_x == 0.0)[0])
    gates = {}
    for i, t in enumerate(res.probe_times):
        z = res.Z[:, i, x0]
        exact = 1.0 / (2.0 * math.sqrt(math.pi * t / 2.0))
        se = z.std(ddof=1) / math.sqrt(z.size)
        gates[f"first_moment_t{t:g}"] = bool(abs(z.mean() - exact) <= 3.0 * se)
    return gates


def moment_gates(results: dict) -> dict:
    """Every (k, T) in the psi sandwich; k = 1 equal to its closed form."""
    gates = {}
    for (k, T), res in results.items():
        gates[f"sandwich_k{k}_T{T:g}"] = bool(res.in_sandwich)
        if k == 1:
            closed = math.exp(T / 12.0) / (2.0 * math.sqrt(math.pi * T))
            gates[f"closed_form_k1_T{T:g}"] = abs(res.value - closed) <= 1e-8
    return gates


def airy_gates(rhs: dict) -> dict:
    """Monte Carlo right-hand side within 4 SE + truncation of Fredholm."""
    return {f"laplace_rhs_s{s:g}": bool(
        abs(est.value - FREDHOLM_T2[s]) <= 4.0 * est.se + est.truncation_bound)
        for s, est in rhs.items()}


def gibbs_gates(res, n: int) -> dict:
    """All requested paths accepted; acceptance rate = mean weight."""
    p = res.mean_weight
    se = math.sqrt(p * (1.0 - p) / res.n_proposals)
    return {"gibbs_accepted": res.n_accepted >= n,
            "gibbs_rate": abs(res.acceptance_rate - p) <= 4.0 * se}


# --------------------------------------------------------- bundle_smoke


def informative_ratio(report_csv: Path) -> float:
    """Share of report cells whose raw envelope is below 1."""
    with open(report_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return sum(float(r["envelope_raw"]) < 1.0 for r in rows) / len(rows)


_TINY_BUNDLE = {"n_samples": 40, "s_grid": (0.5, 1.0), "dx": 0.1,
                "dt": 2.5e-3, "gibbs_n": 20, "airy_n": 20, "airy_N": 64,
                "moments_k": (1,)}


def _bundle_build(tiny: bool):
    return experiment.preset_config("smoke", dict(_TINY_BUNDLE) if tiny else None)


def _bundle_call(config, seed: int, workdir: Path):
    return experiment.run_all(config, seed, workdir)


def _bundle_judge(config, summary, workdir: Path) -> Outcome:
    files = sorted(p for p in workdir.iterdir() if p.is_file())
    digest = _sha(*(p.name.encode() + b"\0" + p.read_bytes() for p in files))
    extra = {"experiment.artifact_bytes": sum(p.stat().st_size for p in files),
             "tails.informative_ratio": informative_ratio(workdir / "report.csv")}
    return Outcome(bundle_gates(summary), digest, extra)


# ------------------------------------------------------- wedge_ensemble


def _wedge_build(tiny: bool):
    cfg = (she.SolverConfig(dx=0.1, dt=2.5e-3, extent=4.0) if tiny else
           she.SolverConfig(dx=0.05, dt=1.25e-3, extent=6.0))
    # two full 512-replica chunks: the full preset's chunk footprint, and
    # more than one chunk, so that running chunks in parallel can show
    return {"initial": NarrowWedge(), "T": 1.0, "cfg": cfg,
            "n_replicas": 64 if tiny else 1024,
            "probe_times": (1.0, 2.0), "probe_x": (-1.0, 0.0, 1.0)}


def _wedge_call(inp, seed: int, workdir: Path):
    return she.solve_she_ensemble(
        inp["initial"], inp["T"], inp["cfg"], seed=seed,
        n_replicas=inp["n_replicas"], probe_times=inp["probe_times"],
        probe_x=inp["probe_x"])


def _wedge_judge(inp, res, workdir: Path) -> Outcome:
    return Outcome(wedge_gates(res), _sha(res.Z.tobytes()))


# --------------------------------------------------------- closed_forms


def _closed_build(tiny: bool):
    full = experiment.preset_config("full")
    wall = bridges.GibbsSpec(
        bridge=bridges.BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=1.0 / 64.0),
        T=2.0, lower_curve=0.5)
    queries = [bounds.BoundQuery(theorem=th, s=s, T=full.T, eps=full.eps,
                                 delta=full.delta, mu=full.mu, zeta=full.zeta,
                                 constants=dict(full.constants))
               for th in bounds.BoundQuery.THEOREMS for s in full.s_grid]
    return {"moments_k": (1, 2) if tiny else (1, 2, 3), "moments_T": (4.0, 8.0),
            "gue": (64, 10, 50) if tiny else (512, 10, 2000),
            "airy_s": tuple(FREDHOLM_T2), "airy_T": 2.0,
            "gibbs": wall, "gibbs_n": 200 if tiny else 10**5,
            "queries": queries}


def _closed_call(inp, seed: int, workdir: Path):
    mom = {(k, T): moments.moment_exact(k, T)
           for T in inp["moments_T"] for k in inp["moments_k"]}
    N, K, n = inp["gue"]
    edges = airy.sample_gue_edge_many(N, K, seed=seed, n_samples=n)
    rhs = {s: airy.laplace_rhs(edges, s=s, T=inp["airy_T"])
           for s in inp["airy_s"]}
    gibbs = bridges.gibbs_resample(inp["gibbs"], seed=seed, n=inp["gibbs_n"])
    rows = [bounds.evaluate_query(q) for q in inp["queries"]]
    return {"moments": mom, "edges": edges, "rhs": rhs, "gibbs": gibbs,
            "bounds": rows}


def _closed_judge(inp, out, workdir: Path) -> Outcome:
    gates = moment_gates(out["moments"])
    gates.update(airy_gates(out["rhs"]))
    gates.update(gibbs_gates(out["gibbs"], inp["gibbs_n"]))
    g = out["gibbs"]
    digest = _sha(repr([r.value for r in out["moments"].values()]).encode(),
                  out["edges"].tobytes(), g.paths.tobytes(),
                  repr((g.n_proposals, g.n_accepted)).encode(),
                  repr(out["bounds"]).encode())
    return Outcome(gates, digest)


WORKLOADS = {w.name: w for w in (
    Workload("bundle_smoke", _bundle_build, _bundle_call, _bundle_judge),
    Workload("wedge_ensemble", _wedge_build, _wedge_call, _wedge_judge),
    Workload("closed_forms", _closed_build, _closed_call, _closed_judge),
)}
