"""kpz-tails benchmark: run one workload for a fixed time and print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload bundle_smoke --seed 1 --seconds 12 --trace 0

The workloads, metric names, units and bounds are declared once, in
BENCHMARK.json at the repository root; `perfbench/workloads.py` says what
each workload runs and why.  One process runs the workload in a closed
loop (one caller, next call when the last one returns) until --seconds
have passed, every call with the same seed, and checks each call's
outputs.  BLAS/OpenMP threads are fixed to the number of usable cores.

--trace 0 prints the end-to-end metrics, measured with tracing off:
wall_s (median call), setup_s (median of fresh-process imports of
kpztails plus input building) and peak_rss_mb.  --trace 1 alternates
untraced and traced calls and prints the per-layer metrics from the
traced ones; the tracing overhead is the traced minus the untraced wall
time.  Its spans go to .perfbench_out/.

Output identity: every call of a run must give the same output digest,
and so must every run of the same program sources, workload and seed;
.perfbench_out/digests.json keeps the first digest of each.

Output: one JSON line of details (environment, sample counts,
percentiles, gate tallies), then, as the last line, one JSON object with
`correct`, `attempted`, `failed` (correctness checks and output-identity
comparisons) and `metrics`.  Without the program source under src/ the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import spans  # standard library only: loads no numpy before the thread set-up

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DIGESTS = OUT / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# per-layer metrics read from a call's outputs rather than from its spans;
# 0 on workloads whose outputs do not have them
EXTRA_METRICS = ("experiment.artifact_bytes", "tails.informative_ratio")

# One set-up sample in a fresh interpreter: import the program (numpy and
# scipy with it) and build the workload's inputs.
_PROBE = ("import sys, time; t0 = time.perf_counter(); "
          "sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.WORKLOADS[sys.argv[3]].build(False); "
          "print(time.perf_counter() - t0)")


def import_workloads():
    """Import the checkout's kpztails, then the workloads that drive it."""
    sys.path.insert(0, str(SRC))
    import kpztails
    import workloads

    if Path(kpztails.__file__).resolve().parent != SRC / "kpztails":
        raise ImportError(f"imported {kpztails.__file__}, not {SRC}/kpztails")
    return workloads


def setup_samples(workload: str) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        out.append(float(proc.stdout.split()[-1]))
    return out


def program_hash() -> str:
    """Hash of the program and workload sources: runs of one commit share it."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stored_digest_matches(store: Path, key: str, digest: str) -> Optional[bool]:
    """Compare with the digest an earlier run stored under `key`.

    The first run of a key stores its digest and gets None.  Keys include
    the program hash, so no digest is compared across commits.
    """
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    store.parent.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=0))
    tmp.replace(store)
    return None


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS},
            "blas_threads": blas_threads()}


def summarize(xs: list[float]) -> dict:
    """Median, the samples in call order, and the highest percentile that
    has ten samples beyond it."""
    ranked = sorted(xs)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "samples": list(xs)}
    if n >= 11:
        out["percentile"] = 100.0 * (n - 10) / n
        out["percentile_value"] = ranked[n - 11]
    return out


@dataclass
class Measurement:
    """Everything one run of a workload observed."""

    walls: dict = field(default_factory=lambda: {False: [], True: []})
    cpus: list = field(default_factory=list)  # process CPU s, untraced calls
    tally: dict = field(default_factory=dict)  # gate -> [passed, attempted]
    extras: list = field(default_factory=list)  # Outcome.extra of traced calls
    digest: Optional[str] = None
    attempted: int = 0
    failed: int = 0
    tracer: Any = None


def measure(wl, inputs, seed: int, seconds: float, trace: bool,
            tracer) -> Measurement:
    """Call the workload in a closed loop until `seconds` have passed.

    With trace on, calls alternate untraced and traced, and the loop runs
    until it has at least one of each.  A call that raises ends the loop
    and counts as one failed check.
    """
    m = Measurement(tracer=tracer)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    deadline = time.perf_counter() + seconds
    try:
        for run in itertools.count():
            traced = trace and run % 2 == 1
            workdir = scratch / f"call{run}"
            workdir.mkdir()
            try:
                if traced:
                    with tracer.call(run) as root:
                        raw = wl.call(inputs, seed, workdir)
                    wall = root.duration
                else:
                    t0, c0 = time.perf_counter(), time.process_time()
                    raw = wl.call(inputs, seed, workdir)
                    wall = time.perf_counter() - t0
                    m.cpus.append(time.process_time() - c0)
                outcome = wl.judge(inputs, raw, workdir)
                del raw
            except Exception:
                traceback.print_exc()
                m.attempted += 1
                m.failed += 1
                break
            finally:
                shutil.rmtree(workdir)
            m.walls[traced].append(wall)
            for gate, ok in outcome.gates.items():
                t = m.tally.setdefault(gate, [0, 0])
                t[0] += bool(ok)
                t[1] += 1
                m.attempted += 1
                m.failed += not ok
            if m.digest is None:
                m.digest = outcome.digest
            else:
                m.attempted += 1
                m.failed += outcome.digest != m.digest
            if traced:
                m.extras.append(outcome.extra)
            if time.perf_counter() >= deadline and (
                    not trace or (m.walls[False] and m.walls[True])):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    return m


def per_layer(m: Measurement) -> dict:
    """Per-layer metrics: medians over the traced calls of their spans."""
    tracer = m.tracer
    selfs = spans.self_times(tracer.spans)
    per_call = []
    for run in sorted({s.run for s in tracer.spans}):
        idx = [i for i, s in enumerate(tracer.spans) if s.run == run]
        per_call.append(spans.call_metrics(
            [tracer.spans[i] for i in idx], [selfs[i] for i in idx]))
    got = spans.median_metrics(per_call)
    for name in EXTRA_METRICS:
        got[name] = statistics.median(e.get(name, 0.0) for e in m.extras)
    untraced = statistics.median(m.walls[False])
    got["trace.untraced_wall_s"] = untraced
    got["trace.overhead_s"] = got["trace.wall_s"] - untraced
    got["replicas_per_s"] = got["she.replicas"] / untraced
    got["check_fail_ratio"] = m.failed / m.attempted
    return got


def result(spec: dict, m: Measurement, setup: list[float], trace: bool) -> dict:
    """The final output object, with exactly the metrics BENCHMARK.json lists."""
    if trace:
        got, declared = per_layer(m), spec["per_layer"]
    else:
        got = {"wall_s": statistics.median(m.walls[False]),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        declared = spec["end_to_end"]
    names = {d["name"] for d in declared}
    if set(got) != names:
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(got) ^ names)}")
    return {"correct": m.failed == 0, "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {d["name"]: {"value": float(got[d["name"]]),
                                    "unit": d["unit"]} for d in declared}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kpztails" / "__init__.py").is_file():
        print(f"kpz-tails benchmark: no program source under {SRC}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy loads, here and in the probes
        os.environ[var] = str(nproc)
    setup = setup_samples(args.workload)
    wl = import_workloads().WORKLOADS[args.workload]
    m = measure(wl, wl.build(False), args.seed, args.seconds,
                bool(args.trace), spans.Tracer())
    if not m.walls[False] or (args.trace and not m.walls[True]):
        print("kpz-tails benchmark: no call completed", file=sys.stderr)
        return 1
    # output identity across runs of one commit with the same seed
    stored = stored_digest_matches(
        DIGESTS, f"{program_hash()}:{args.workload}:{args.seed}", m.digest)
    if stored is not None:
        m.attempted += 1
        m.failed += not stored
    out = result(spec, m, setup, bool(args.trace))
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(nproc),
              "setup_s": summarize(setup), "wall_s": summarize(m.walls[False]),
              "cpu_s": summarize(m.cpus),
              "gates": m.tally, "digest": m.digest,
              "stored_digest": {None: "stored", True: "match",
                                False: "mismatch"}[stored],
              "check_fail_ratio": m.failed / m.attempted}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"spans": m.tracer.to_json(),
                                    "self_s": spans.self_times(m.tracer.spans)}))
        detail["traced_wall_s"] = summarize(m.walls[True])
        detail["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
