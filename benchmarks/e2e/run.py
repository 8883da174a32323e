"""End-to-end benchmark: time to solution and serving latency, four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N] \\
        [--trace [0|1]] [--runs N] [--out FILE] [--spans FILE]

Every workload phase runs alone in a fresh process (``workloads.py``) whose
environment is scrubbed of ``REPRO_*``, so the run measures the program's
defaults and no cache, counter or peak RSS leaks between workloads.  The
timed work of a phase is fixed per workload (``workloads.TIMED_CALLS``,
``workloads.SERVE_BURSTS``); ``--seconds`` is accepted only with the value
of ``run_seconds`` in ``BENCHMARK.json``.

* ``--trace 0`` (default): three set-ups in separate processes (their
  median is ``setup_s``) and one timed phase; prints the end-to-end metrics.
* ``--trace 1``: a host bandwidth probe, the untraced timed phase, and the
  same phase again under the span tracer; prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  For one run it
holds that run's metrics; for several (``--workload all``, ``--runs``) it
combines them: ``correct`` only if every run was, summed counts, and each
metric's median over the runs of a workload, named ``WORKLOAD.METRIC``.
The exit code is 0 only when every answer passed the benchmark-side fp64
residual check and every validity gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CALIB_REF_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: a run (all its processes) must finish within this many seconds
RUN_BUDGET_S = 170.0
#: serve-open validity: a generator running late or a long drain means the
#: backlog grew, so the latencies no longer describe the offered rate
MAX_GEN_LAG_MS = 50.0
MAX_DRAIN_S = 5.0
#: units of the reported metrics BENCHMARK.json does not list.  serve-open's
#: latency percentiles move by 20-50% between seeds, most of it from which
#: requests queue behind a G3_circuit batch, too much for any bound (the
#: traced run reports them as per-layer serve.lat_ms_*); the two kernels
#: are never called on the batched paths (their batched forms are inline in
#: fgmres_cycle_batch / RichardsonLevel.apply_batch)
REPORT_ONLY_UNITS = {"lat_ms_p50": "ms", "lat_ms_p75": "ms",
                     "backends.orth_s": "s/rhs", "backends.wupdate_s": "s/rhs",
                     "perf.host_copy_array_mb": "MB"}


class BenchError(RuntimeError):
    """A phase could not run; the benchmark exits without a result."""


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the repository root")
    return json.loads(path.read_text())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def pin_to_one_cpu() -> None:
    """Keep a phase on one CPU: on a shared host the CPUs run at different
    speeds, and a process the scheduler moves between them changes speed
    mid-call, out of sight of the host-speed reads around the call."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child(spec: dict, deadline: float) -> dict:
    """Run one phase in a fresh process and return its JSON result."""
    label = f"{spec.get('workload', 'host')} {spec['mode']}"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run budget exhausted before {label}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{label} exceeded the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
def speed(calib_s: float, normalize: bool = True) -> float:
    """Factor that rescales a time measured next to ``calib_s``."""
    return CALIB_REF_S / calib_s if normalize else 1.0


def walls(run: dict, normalize: bool = True) -> list[float]:
    """Solve-call durations of the timed phase, one per batch."""
    calib = {r["id"]: r["calib_s"] for r in run["requests"]}
    return [(b["end"] - b["start"]) * speed(calib[b["requests"][0]], normalize)
            for b in run["batches"]]


def setup_s(phases: list[dict], normalize: bool = True) -> float:
    return statistics.median(p["setup"]["total_s"]
                             * speed(p["setup"]["calib_s"], normalize)
                             for p in phases)


def end_to_end(run: dict, normalize: bool = True) -> dict:
    """The timed phase's user-visible metrics (``setup_s`` is added by the
    caller from all of the run's set-ups)."""
    requests = run["requests"]
    latency = [(r["done"] - r["due"]) * 1e3 * speed(r["calib_s"], normalize)
               for r in requests]
    calls = walls(run, normalize)
    ok = {r["id"]: r["ok"] for r in requests}
    # a median, not columns / summed walls: serve-open's sum is half four
    # G3_circuit batches, whose walls vary 1.7x for identical work (README)
    rates = [sum(ok[i] for i in b["requests"]) / wall
             for b, wall in zip(run["batches"], calls)]
    return {
        "solve_s_p50": statistics.median(calls),
        "rhs_per_s": statistics.median(rates),
        "lat_ms_p50": percentile(latency, 50),
        "lat_ms_p75": percentile(latency, 75),
        "peak_rss_mb": run["rss_mb"],
    }


def serving(run: dict) -> dict:
    """Batch-level view of the timed phase (every workload has one: a solver
    workload is one client whose every call is a batch)."""
    batches = run["batches"]
    start_of = {rid: b["start"] for b in batches for rid in b["requests"]}
    end_of = {rid: b["end"] for b in batches for rid in b["requests"]}
    requests = run["requests"]
    queue = [(start_of[r["id"]] - r["due"]) * 1e3 for r in requests]
    deliver = [(r["done"] - end_of[r["id"]]) * 1e3 for r in requests]
    latency = [(r["done"] - r["due"]) * 1e3 for r in requests]
    calls = walls(run, normalize=False)
    counts = run.get("serve", {})
    return {
        "serve.lat_ms_p50": percentile(latency, 50),
        "serve.lat_ms_p75": percentile(latency, 75),
        "serve.batches": len(batches),
        "serve.batch_size_mean": statistics.fmean(len(b["requests"]) for b in batches),
        "serve.queue_ms_p50": percentile(queue, 50),
        "serve.queue_ms_p75": percentile(queue, 75),
        "serve.service_ms_p50": statistics.median(calls) * 1e3,
        "serve.deliver_ms_p50": percentile(deliver, 50),
        "serve.busy_frac": sum(calls) / run["window_s"],
        "serve.cache_hits": counts.get("cache_hits", 0),
        "serve.cache_misses": counts.get("cache_misses", 0),
    }


def per_layer(untraced: dict, traced: dict, probe: dict) -> dict:
    requests = untraced["requests"]
    n = len(requests)
    layers = dict(traced["layers"])
    setup = traced["setup"]
    out = {
        "core.setup.precond_s": setup["precond_s"],
        "core.setup.ctor_s": setup["ctor_s"],
        "core.setup.first_solve_s": setup["first_solve_s"],
        "solvers.outer_iters": sum(r["iters"] for r in requests) / n,
        "solvers.precond_apps": sum(r["apps"] for r in requests) / n,
    }
    out.update(layers)
    out.update(serving(untraced))
    out["perf.host_copy_gbs"] = probe["copy_gbs"]
    out["perf.host_copy_array_mb"] = probe["array_mb"]
    out["perf.wall_over_model"] = (sum(walls(untraced, normalize=False)) / n
                                   / layers["perf.model_s"])
    # both runs solve the same batches (same seed; gated below), so each
    # pair of calls compares identical work; open-loop latency would add
    # queueing noise to it
    out["trace.overhead"] = statistics.median(
        t / u for t, u in zip(walls(traced), walls(untraced)))
    return out


def batching(run: dict) -> list[list[int]]:
    return [b["requests"] for b in run["batches"]]


def iterations(run: dict) -> list[int]:
    return [r["iters"] for r in run["requests"]]


def gates(runs: list[dict]) -> list[str]:
    """Reasons the measurement is invalid (empty when it is valid)."""
    problems = []
    for run in runs:
        if Path(run["environment"]["repro"]).parts[:2] != ("src", "repro"):
            problems.append(f"measured repro at {run['environment']['repro']}")
        serve = run.get("serve")
        if serve is not None and run["mode"] == "run":
            if run["gen_lag_ms_max"] > MAX_GEN_LAG_MS:
                problems.append(f"generator ran {run['gen_lag_ms_max']:.1f} ms late")
            if run["drain_s"] > MAX_DRAIN_S:
                problems.append(f"drain took {run['drain_s']:.2f} s")
            for key in ("shed", "degraded", "rejected"):
                if serve[key]:
                    problems.append(f"dispatcher {key} {serve[key]} requests")
        if run.get("min_self_s", 0.0) < -1e-6:
            problems.append("a span outlived its parent (negative self time)")
    return problems


# --------------------------------------------------------------------------- #
def measure(workload: str, seed: int, trace: bool, spans: str | None) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    base = {"workload": workload, "seed": seed}
    if not trace:
        setups = [child(dict(base, mode="setup"), deadline)
                  for _ in range(SETUPS - 1)]
        run = child(dict(base, mode="run"), deadline)
        phases = setups + [run]
        metrics = {"setup_s": setup_s(phases)}
        metrics.update(end_to_end(run))
        raw = {"setup_s": setup_s(phases, normalize=False)}
        raw.update(end_to_end(run, normalize=False))
        problems = gates(phases)
    else:
        probe = child({"mode": "probe"}, deadline)
        run = child(dict(base, mode="run"), deadline)
        traced = child(dict(base, mode="run", trace=True,
                            bandwidth=probe["copy_gbs"] * 1e9,
                            spans_path=spans), deadline)
        phases = [run, traced]
        metrics = per_layer(run, traced, probe)
        raw = {}
        problems = gates(phases)
        if iterations(traced) != iterations(run):
            problems.append("tracing changed the iteration sequence")
        if batching(traced) != batching(run):
            problems.append("tracing changed the batches")
    attempted = sum(len(p["warmup"]) + len(p["requests"]) for p in phases)
    failed = sum(not r["ok"] for p in phases for r in p["warmup"] + p["requests"])
    return {"workload": workload, "seed": seed,
            "trace": int(trace), "correct": failed == 0,
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "raw": raw, "iterations": iterations(run),
            "host_speed": speed(statistics.median(
                r["calib_s"] for r in run["requests"])),
            "environment": run["environment"],
            "errors": sorted({r["error"] for p in phases
                              for r in p["warmup"] + p["requests"]
                              if "error" in r})}


def report(record: dict, spec: dict) -> dict:
    """Print a run and return its contract-format result line."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    env = record["environment"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} ==")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"host speed: {record['host_speed']:.3f} of the reference host")
    if record["raw"]:
        print("unscaled: " + " ".join(f"{k}={v:.6g}"
                                      for k, v in record["raw"].items()))
    print("iterations per request: " + " ".join(map(str, record["iterations"])))
    for name, value in record["metrics"].items():
        unit = units.get(name) or REPORT_ONLY_UNITS[name]
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"attempted={record['attempted']} failed={record['failed']}")
    for line in record["errors"]:
        print(f"ERROR: {line}")
    for line in record["problems"]:
        print(f"INVALID: {line}")
    return {"correct": record["correct"] and not record["problems"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def combine(records: list[dict], lines: list[dict]) -> dict:
    """One result line for several runs (see the module docstring)."""
    values: dict = {}
    for record, line in zip(records, lines):
        for name, metric in line["metrics"].items():
            key = (f"{record['workload']}.{name}", metric["unit"])
            values.setdefault(key, []).append(metric["value"])
    return {"correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {name: {"value": statistics.median(v), "unit": unit}
                        for (name, unit), v in values.items()}}


def append_record(path: str, record: dict) -> None:
    target = Path(path)
    existing = json.loads(target.read_text()) if target.is_file() else []
    target.write_text(json.dumps(existing + [record], indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json run_seconds: the "
                             "timed work is fixed per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED, SEED+1, ...")
    parser.add_argument("--out", help="append the run records to this JSON file")
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source at {ROOT / 'src' / 'repro'}")
        spec = load_spec()
        if args.seconds not in (None, spec["run_seconds"]):
            raise BenchError(f"--seconds {args.seconds:g}: the timed work is "
                             f"fixed; run_seconds is {spec['run_seconds']}")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records, lines = [], []
        for seed in range(args.seed, args.seed + args.runs):
            for workload in workloads:
                records.append(measure(workload, seed, bool(args.trace),
                                       args.spans))
                if args.out:
                    append_record(args.out, records[-1])
                lines.append(report(records[-1], spec))
                print(json.dumps(lines[-1]), flush=True)
        if len(lines) > 1:
            print(json.dumps(combine(records, lines)), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
