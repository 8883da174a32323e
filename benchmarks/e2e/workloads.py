"""The four end-to-end workloads.  ``run.py`` runs each in a fresh process.

One process runs one workload phase and prints one JSON line of raw
measurements (the metrics are derived in ``run.py``)::

    PYTHONPATH=src python3 benchmarks/e2e/workloads.py \\
        '{"workload": "hard-fp16", "seed": 1, "mode": "run"}'

``mode`` is ``"setup"`` (set up, answer once, exit) or ``"run"`` (set up,
then the timed phase: ``TIMED_CALLS`` solver calls, or ``SERVE_BURSTS``
bursts of requests).  ``"trace": true`` records the full span tree and
adds the per-layer totals; ``"bandwidth"`` (bytes/s, from the host probe)
prices the traffic with the Section 4.1 machine model; ``"spans_path"``
writes every span as JSON.

Every input comes from the seed: right-hand sides are uniform in [0, 1) as
in the paper, and the serving schedule is a seeded order of fixed operator
and burst-size counts with Poisson arrival times.  The program sees only
the generated inputs.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import sys
import threading
import time

import numpy as np

from spans import LEVELS, Tracer, layer_totals

WORKLOADS = ("hard-fp16", "hard-fp64", "stencil-batch", "serve-open")

#: fp64 true relative residual every answer must reach (the solver's tol)
TOL = 1e-8
#: timed solver calls per run; a seed always runs the same inputs, whatever
#: the speed of the code under test
TIMED_CALLS = {"hard-fp16": 6, "hard-fp64": 8, "stencil-batch": 6}
#: host_speed()'s median on the reference host (757 reads over 90 s; the
#: fastest 10% read under 0.58 ms); run.py rescales every end-to-end time
#: by it and serve-open's schedule is paced by it (README, "Host-speed
#: normalisation")
CALIB_REF_S = 0.00075

#: serve-open traffic: operator popularity, burst sizes, bursts per second,
#: bursts per run, and the generator's flush period
SERVE_OPERATORS = (("hpcg_7_7_7", 0.30), ("atmosmodd", 0.25),
                   ("G3_circuit", 0.15), ("ecology2", 0.12),
                   ("hpgmp_7_7_7", 0.10), ("thermal2", 0.08))
BURST_SIZES = ((1, 0.5), (2, 0.3), (4, 0.2))
BURST_RATE = 1.0
SERVE_BURSTS = 24
FLUSH_S = 0.05
#: the open loop reads the host speed (host_speed(reps=2), about 4 ms) in
#: gaps at least this long while no request is in flight
IDLE_GAP_S = 0.02
#: size of each of the host probe's two copy arrays
PROBE_ARRAY_MB = 256

_STREAMS = {"hard": 1, "stencil": 2, "serve": 3}


def stream(seed: int, name: str) -> np.random.Generator:
    """The seeded generator of one input family (hard-* share theirs)."""
    return np.random.default_rng([int(seed), _STREAMS[name]])


def _hard_operator():
    from repro import as_operator
    from repro.matgen import get_matrix
    from repro.sparse import diagonal_scaling

    matrix, _ = diagonal_scaling(get_matrix("vas_stokes_1M", "small"))
    return as_operator(matrix)


def _stencil_operator():
    from repro.matgen.operators import hpcg_operator

    return hpcg_operator(24)


SOLVER_WORKLOADS = {
    "hard-fp16": dict(operator=_hard_operator, stream="hard", variant="fp16",
                      columns=1, precond=dict(kind="block-ilu0", nblocks=10)),
    "hard-fp64": dict(operator=_hard_operator, stream="hard", variant="fp64",
                      columns=1, precond=dict(kind="block-ilu0", nblocks=10)),
    "stencil-batch": dict(operator=_stencil_operator, stream="stencil",
                          variant="fp16", columns=8, precond=dict(kind="auto")),
}


#: 1 MB: the array half of the calibration kernel stays in L2
_CAL_V = np.linspace(0.0, 1.0, 128 * 1024)


def host_speed(reps: int = 10) -> float:
    """Seconds per rep of a fixed kernel that touches no code under test.

    Other tenants of a shared host slow every process on it, by up to 2x for
    minutes at a time.  The kernel runs next to every timed phase, and
    run.py rescales the phase's times by it (README, "Host-speed
    normalisation").  It times apart the two kinds of work a solve does, an
    interpreter loop and arithmetic on an L2-resident array, and returns
    their geometric mean: either alone followed some workloads' slowdowns
    and missed others'.
    """
    w = np.empty_like(_CAL_V)
    t0 = time.perf_counter()
    for _ in range(reps * 4):
        np.multiply(_CAL_V, 0.5, out=w)
        np.add(w, 1.0, out=w)
    t1 = time.perf_counter()
    acc = 0
    for i in range(reps * 20000):
        acc += i * i
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1)) / reps


def read_speed(reads: list, reps: int = 10) -> float:
    """Append a ``host_speed`` read, stamped with the middle of its run."""
    t0 = time.perf_counter()
    value = host_speed(reps)
    reads.append((0.5 * (t0 + time.perf_counter()), value))
    return value


def bracket(reads: list, start: float, end: float) -> float:
    """Host speed over ``[start, end]``: the geometric mean of the last read
    before it and the first read after it."""
    times = [t for t, _ in reads]
    i = max(bisect.bisect_right(times, start) - 1, 0)
    j = min(bisect.bisect_left(times, end), len(reads) - 1)
    return math.sqrt(reads[i][1] * reads[j][1])


def _check(operator, b, result) -> dict:
    """Benchmark-side validation of one answer: fp64 true relative residual."""
    r = b - operator.apply(np.asarray(result.x, dtype=np.float64), record=False)
    relres = float(np.linalg.norm(r) / np.linalg.norm(b))
    return {"iters": int(result.iterations),
            "apps": int(result.preconditioner_applications),
            "relres": relres,
            "ok": bool(result.converged) and relres <= TOL}


def _failed(error: BaseException) -> dict:
    return {"iters": 0, "apps": 0, "relres": None, "ok": False,
            "error": repr(error)}


# --------------------------------------------------------------------------- #
# Solver workloads: one client calling F3RSolver directly, one call at a time
# --------------------------------------------------------------------------- #
def run_solver(name: str, seed: int, calls: int, tracer: Tracer) -> dict:
    """Set up, answer once, then make ``calls`` timed solver calls."""
    from repro import F3RConfig, F3RSolver, make_primary_preconditioner

    spec = SOLVER_WORKLOADS[name]
    operator = spec["operator"]()
    rng = stream(seed, spec["stream"])
    k = spec["columns"]
    next_id = [0]

    def call(solver) -> list[dict]:
        b = (rng.random(operator.nrows) if k == 1
             else rng.random((operator.nrows, k)))
        cols = [b] if k == 1 else [np.ascontiguousarray(b[:, j]) for j in range(k)]
        ids = list(range(next_id[0], next_id[0] + k))
        next_id[0] += k
        for rid, col in zip(ids, cols):
            tracer.register(col, rid)
        due = time.perf_counter()
        try:
            out = solver.solve(b) if k == 1 else solver.solve_batch(b)
        except Exception as exc:                # counted, reported, exit != 0
            done = time.perf_counter()
            return [dict(_failed(exc), id=rid, due=due, done=done) for rid in ids]
        done = time.perf_counter()
        results = [out] if k == 1 else out.results
        return [dict(_check(operator, col, res), id=rid, due=due, done=done)
                for rid, col, res in zip(ids, cols, results)]

    reads: list = []
    read_speed(reads)
    t0 = time.perf_counter()
    precond = make_primary_preconditioner(operator, **spec["precond"])
    t1 = time.perf_counter()
    solver = F3RSolver(operator, precond, config=F3RConfig(variant=spec["variant"]))
    t2 = time.perf_counter()
    warmup = call(solver)
    t3 = time.perf_counter()
    read_speed(reads)
    out = {"setup": {"precond_s": t1 - t0, "ctor_s": t2 - t1,
                     "first_solve_s": t3 - t2, "total_s": t3 - t0,
                     "calib_s": bracket(reads, t0, t3)},
           "warmup": warmup, "requests": [], "reads": reads}
    if not calls:
        return out
    since = time.perf_counter()
    for _ in range(calls):
        out["requests"] += call(solver)
        read_speed(reads)
    out["since"] = since
    out["window_s"] = time.perf_counter() - since
    return out


# --------------------------------------------------------------------------- #
# serve-open: an open loop into one BatchDispatcher
# --------------------------------------------------------------------------- #
def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer counts proportional to ``weights`` that sum to ``total``."""
    exact = weights / weights.sum() * total
    counts = np.floor(exact).astype(int)
    short = total - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return counts


def serve_schedule(rng: np.random.Generator, n_bursts: int) -> list[tuple]:
    """``(time_s, operator index, burst size)`` per burst, in arrival order.

    Arrivals are a Poisson process at ``BURST_RATE``: independent
    exponential gaps.  The counts of every (operator, burst size) pair are
    the popularities times ``n_bursts`` (largest remainder), in a seeded
    order, so every seed offers the same work.  Drawn independently, the
    number of G3_circuit bursts (1.1-1.4 s each, half the offered work)
    would vary by 40% (one standard deviation) between seeds.
    """
    cells = [(op, size, pop * p)
             for op, (_, pop) in enumerate(SERVE_OPERATORS)
             for size, p in BURST_SIZES]
    counts = _largest_remainder(np.array([c[2] for c in cells]), n_bursts)
    bursts = [(op, size) for (op, size, _), n in zip(cells, counts)
              for _ in range(n)]
    order = rng.permutation(len(bursts))
    times = np.cumsum(rng.exponential(1.0 / BURST_RATE, len(bursts)))
    return [(float(t), *bursts[i]) for t, i in zip(times, order)]


class _InFlight:
    """Requests submitted to the dispatcher and not yet resolved."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def submitted(self, rec: dict):
        """Count one request; return the done-callback (run on the
        dispatcher's worker thread) that stamps its completion."""
        with self._lock:
            self.count += 1

        def done(_future) -> None:
            rec["done"] = time.perf_counter()
            with self._lock:
                self.count -= 1
        return done


def run_serve(seed: int, bursts: int, tracer: Tracer) -> dict:
    """Set up the dispatcher, then drive an open loop of ``bursts`` bursts.

    The schedule is paced by the host speed read just before the loop: on
    a host running at half the reference speed the arrivals and flush
    ticks come half as often, so the offered load, and with it the
    queueing, stays what it is on the reference host.  Pacing scales every
    event time alike, so the order of events, and with it the batches,
    depends on the seed alone.
    """
    from repro import BatchDispatcher, F3RConfig, as_operator
    from repro.matgen import get_matrix
    from repro.sparse import diagonal_scaling

    matrices = [diagonal_scaling(get_matrix(name, "tiny"))[0]
                for name, _ in SERVE_OPERATORS]
    checkers = [as_operator(m) for m in matrices]
    rng = stream(seed, "serve")
    warm_rhs = [rng.random(m.nrows) for m in matrices]

    def collect(records, futures) -> None:
        for rec, future, op, b in futures:
            try:
                rec.update(_check(checkers[op], b, future.result()))
            except Exception as exc:            # counted, reported, exit != 0
                rec.update(_failed(exc))
            records.append(rec)

    reads: list = []
    read_speed(reads)
    t0 = time.perf_counter()
    dispatcher = BatchDispatcher(F3RConfig(variant="fp16"), max_batch=4,
                                 max_workers=1, cache_size=8)
    try:
        dispatcher.prewarm(matrices)
        t2 = time.perf_counter()
        pending = []
        for op, (m, b) in enumerate(zip(matrices, warm_rhs)):
            tracer.register(b, -1 - op)
            pending.append(({"id": -1 - op}, dispatcher.submit(m, b), op, b))
        dispatcher.drain()
        t3 = time.perf_counter()
        read_speed(reads)
        warmup = []
        collect(warmup, pending)
        # precond_s is split out of ctor_s by the traced run (main)
        out = {"setup": {"precond_s": 0.0, "ctor_s": t2 - t0,
                         "first_solve_s": t3 - t2, "total_s": t3 - t0,
                         "calib_s": bracket(reads, t0, t3)},
               "warmup": warmup, "requests": [], "reads": reads}
        if not bursts:
            return out

        schedule = serve_schedule(rng, bursts)
        events = [(t, 0, i) for i, (t, _, _) in enumerate(schedule)]
        ticks = int(np.ceil(schedule[-1][0] / FLUSH_S)) + 1
        events += [((j + 1) * FLUSH_S, 1, -1) for j in range(ticks)]
        events.sort()
        stats0 = dispatcher.stats.summary()
        pending = []
        inflight = _InFlight()
        next_id = 0
        lag = 0.0
        pace = read_speed(reads, reps=30) / CALIB_REF_S
        since = time.perf_counter()
        start = since + FLUSH_S * pace
        for t, kind, i in events:
            target = start + t * pace
            # the host's speed changes within the loop; read it while the
            # worker is idle, so the reads neither wait for nor delay it
            if target - time.perf_counter() > IDLE_GAP_S and not inflight.count:
                read_speed(reads, reps=2)
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag = max(lag, time.perf_counter() - target)
            if kind == 1:
                dispatcher.flush()
                continue
            _, op, size = schedule[i]
            for _ in range(size):
                b = rng.random(matrices[op].nrows)
                rec = {"id": next_id, "due": target}
                tracer.register(b, next_id)
                next_id += 1
                done = inflight.submitted(rec)
                future = dispatcher.submit(matrices[op], b)
                future.add_done_callback(done)
                pending.append((rec, future, op, b))
        last_due = start + events[-1][0] * pace
        dispatcher.drain()
        out["drain_s"] = time.perf_counter() - last_due
        out["gen_lag_ms_max"] = lag * 1e3
        out["window_s"] = time.perf_counter() - since
        out["since"] = since
        read_speed(reads)
        collect(out["requests"], pending)
        stats1 = dispatcher.stats.summary()
        out["serve"] = {
            key: stats1[key] - stats0[key]
            for key in ("requests", "batches", "cache_hits", "cache_misses")}
        out["serve"]["shed"] = stats1["overload"]["shed"]
        out["serve"]["degraded"] = stats1["overload"]["degraded"]
        out["serve"]["rejected"] = stats1["recovery"]["rejected"]
        return out
    finally:
        dispatcher.close()


# --------------------------------------------------------------------------- #
def _environment() -> dict:
    """The resolved program defaults the run measured."""
    import repro
    from repro.perf import counters_enabled
    from repro.plans import plans_enabled

    # relative to the working directory, which run.py sets to the repo root
    return {"repro": os.path.relpath(repro.__file__),
            "backend": repro.active_backend().name,
            "threads": repro.configured_threads(),
            "procs": repro.configured_procs(), "plans": plans_enabled(),
            "counters": counters_enabled(),
            "guards": repro.guards_enabled(),
            "recovery": repro.recovery_enabled(),
            "overload": repro.overload_enabled(),
            "numpy": np.__version__}


def _layers(tot: dict, n_rhs: int, bandwidth: float | None) -> dict:
    """Per-layer metrics of the timed phase (``layer_totals``), per RHS."""
    from repro.perf import MachineModel, TrafficCounter
    from repro.precision import as_precision

    out = {"trace.spans": tot["spans"],
           "core.self_s": tot["levels"]["core"]["self_s"] / n_rhs}
    for name in LEVELS[1:]:
        lv = tot["levels"][name]
        key = "precond.M" if name == "M" else f"solvers.{name}"
        nbytes = sum(lv["bytes"].values())
        out[f"{key}.self_s"] = lv["self_s"] / n_rhs
        out[f"{key}.calls"] = lv["calls"] / n_rhs
        out[f"{key}.bytes"] = nbytes / n_rhs
        out[f"{key}.gbs"] = nbytes / lv["excl_s"] / 1e9
    kern = tot["kernels"]
    out["plans.matvec_s"] = kern["plan"]["s"] / n_rhs
    out["plans.calls"] = kern["plan"]["calls"] / n_rhs
    out["backends.orth_s"] = kern["orth"]["s"] / n_rhs
    out["backends.combine_s"] = kern["combine"]["s"] / n_rhs
    out["backends.wupdate_s"] = kern["wupdate"]["s"] / n_rhs

    traffic = tot["traffic"]
    counter = TrafficCounter()
    for label, nbytes in traffic.items():
        if label == "index":
            counter.add_index_bytes(nbytes)
        else:
            counter.add_bytes(as_precision(label), nbytes)
    for label in ("fp16", "fp32", "fp64"):
        out[f"perf.bytes.{label}"] = counter.bytes_for(label) / n_rhs
    out["perf.bytes.index"] = counter.index_bytes / n_rhs
    out["perf.fp16_frac"] = counter.low_precision_fraction()
    if bandwidth:
        host = MachineModel(name="host copy roofline", stream_bandwidth=bandwidth)
        out["perf.model_s"] = host.time_for(counter) / n_rhs
    return out


def host_probe(array_mb: int = PROBE_ARRAY_MB, repeats: int = 5) -> dict:
    """Best-of-``repeats`` numpy copy bandwidth (bytes read + written).

    The arrays stay at ``array_mb`` each rather than the 4x-last-level-cache
    rule (2 x 1.2 GB on the reference host's 300 MB L3): the probe shares
    the machine's memory, and on that host the copy rate is flat from 64 MB
    up (reference/host.json).
    """
    n = array_mb * 2**20 // 8
    src = np.ones(n)
    dst = np.zeros(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {"copy_gbs": 2 * src.nbytes / best / 1e9, "array_mb": array_mb}


def main(spec: dict) -> dict:
    if spec["mode"] == "probe":
        return host_probe()
    workload = spec["workload"]
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    timed = spec["mode"] == "run"
    trace = bool(spec.get("trace"))
    tracer = Tracer(full=trace)
    with tracer:
        if workload == "serve-open":
            out = run_serve(spec["seed"], SERVE_BURSTS if timed else 0, tracer)
        else:
            out = run_solver(workload, spec["seed"],
                             TIMED_CALLS[workload] if timed else 0, tracer)
    out.update(workload=workload, seed=spec["seed"], mode=spec["mode"],
               trace=trace, environment=_environment())
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reads = out.pop("reads")
    if not timed:
        return out
    roots = tracer.roots(out["since"])
    out["batches"] = [{"start": r[1], "end": r[2], "requests": list(r[5])}
                      for r in roots]
    by_id = {rec["id"]: rec for rec in out["requests"]}
    for batch in out["batches"]:
        calib = bracket(reads, batch["start"], batch["end"])
        for rid in batch["requests"]:
            by_id[rid]["calib_s"] = calib
    if trace:
        if workload == "serve-open":
            precond = sum(s[2] - s[1] for s in tracer.spans
                          if s[0] == "precond" and s[1] < out["since"])
            out["setup"]["precond_s"] = precond
            out["setup"]["ctor_s"] -= precond
        totals = layer_totals(tracer.spans, out["since"])
        out["layers"] = _layers(totals, len(out["requests"]),
                                spec.get("bandwidth"))
        out["min_self_s"] = totals["min_self_s"]
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                json.dump(tracer.export(), fh)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
