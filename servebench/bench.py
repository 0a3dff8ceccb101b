"""The three serving workloads: set-up, load phases, checks and metrics.

An untraced run (:func:`run_untraced`) measures the end-to-end metrics.  A
traced run (:func:`run_traced`) records spans around the runtime's public
entry points and derives the per-layer metrics from them.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.runtime.plan as runtime_plan
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    OperandCache,
    PlanExecutor,
    ProcessWorkerPool,
    ServingEngine,
    compile_plan,
)
from repro.runtime.backends import backend_names
from repro.runtime.cache import tensor_digest

from measure import PhaseResult, closed_loop, open_loop, percentile, poisson_schedule, tail
from models import ATOL, RTOL, Workload, dense_floor, make_inputs, reference_outputs
from spans import SpanRecorder, self_time, traced_layers

SETUPS = 5  # set-ups per run; setup_s is their median
RATES = (50, 100, 200, 400)  # open-loop ladder, requests per second
SLO_P99_S = 0.100  # open-loop SLO on p99 latency from the due time
WARMUP_S = 2.0  # served before measuring: first forwards of a fresh plan are slow
TRACE_CAPACITY = 1 << 17  # engine trace ring in traced runs: holds every request

# Bounded end-to-end metrics.  Tail latency and closed-loop throughput are
# printed but not bounded: on a shared 2-core machine their run-to-run
# spread is close to or wider than the largest bound a regression check
# can use (see CHANGES.md for the measured spreads).
END_TO_END = {
    "latency_p50_ms": "ms",
    "served_rel_err": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.batch_size.mean": "requests",
    "serve.batch_form_ms.p50": "ms",
    "serve.reply_ms.p50": "ms",
    "pool.install_s": "s",
    "pool.dispatch_ms.p50": "ms",
    "pool.worker_forward_ms.mean": "ms",
    "pool.ipc_ms.mean": "ms",
    "pool.worker_busy_frac": "ratio",
    "pool.respawns": "count",
    "pool.retries": "count",
    "executor.forward_ms.p50": "ms",
    "im2col.share": "ratio",
    "rest.ms_per_forward": "ms",
    "gemm.ms_per_forward": "ms",
    "gemm.share": "ratio",
    "gemm.vs_floor": "ratio",
    "gemm.structured_mac_frac": "ratio",
    "gemm.bytes_per_forward": "bytes_computed",
    "compile.s": "s",
    "autotune.s": "s",
    **{f"autotune.layers.{b}": "count" for b in backend_names()},
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SetupTiming:
    """What one set-up cost, and the backend autotune picked per layer."""

    setup_s: float
    install_s: float
    compile_s: float
    autotune_s: float
    picks: dict[str, str]


@dataclass
class Served:
    """One set-up's live model, plan, pool and engine."""

    model: object
    plan: object
    pool: object
    engine: ServingEngine
    timing: SetupTiming

    def close(self) -> None:
        try:
            self.engine.stop()
        finally:
            self.pool.close()


def _setup_once(wl: Workload, first: np.ndarray, trace_capacity: int) -> Served:
    """Model build -> compile + autotune -> pool install -> first request served."""
    tuned = []

    def timed_autotune(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return autotune(*args, **kwargs)
        finally:
            tuned.append(time.perf_counter() - t0)

    autotune = runtime_plan.autotune_operand
    t0 = time.perf_counter()
    model = wl.build()
    runtime_plan.autotune_operand = timed_autotune
    try:
        plan = compile_plan(
            model, wl.transform(model), cache=OperandCache(), autotune=True,
            autotune_cols=wl.autotune_cols,
        )
    finally:
        runtime_plan.autotune_operand = autotune
    if wl.pool_workers:
        pool = ProcessWorkerPool(model, plan, workers=wl.pool_workers)
    else:
        pool = PlanExecutor(model, plan)
    engine = ServingEngine(pool, workers=max(1, wl.pool_workers), trace_capacity=trace_capacity)
    served = None
    try:
        ti = time.perf_counter()
        pool.install()
        install_s = time.perf_counter() - ti
        engine.start()
        engine.submit(first).result(timeout=120.0)
        setup_s = time.perf_counter() - t0
        timing = SetupTiming(
            setup_s, install_s, plan.build_time - sum(tuned), sum(tuned),
            plan.backend_choices(),
        )
        served = Served(model, plan, pool, engine, timing)
    finally:
        if served is None:
            engine.stop()
            pool.close()
    return served


def setup(
    wl: Workload, first: np.ndarray, trace_capacity: int = 256
) -> tuple[Served, list[SetupTiming]]:
    """Set up :data:`SETUPS` times; serve on the last, return it and all timings.

    Earlier set-ups are closed and dropped, so only the served one's model,
    plan and pool stay in memory.
    """
    timings: list[SetupTiming] = []
    for k in range(SETUPS):
        served = _setup_once(wl, first, trace_capacity)
        timings.append(served.timing)
        if k < SETUPS - 1:
            served.close()
    return served, timings


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #
@dataclass
class Check:
    """Served outputs against the independent reference."""

    approx: list[np.ndarray]
    dense: list[np.ndarray]
    digests: dict[str, str]  # tensor_digest of the reference model's weight matrices
    checked: int = 0
    wrong: int = 0
    err_sq: float = 0.0
    ref_sq: float = 0.0

    def add(self, phase: PhaseResult) -> None:
        n = len(self.approx)
        for o in phase.completed:
            y, ref, dense = o.output, self.approx[o.index % n], self.dense[o.index % n]
            self.checked += 1
            if y.shape != ref.shape or not np.allclose(y, ref, rtol=RTOL, atol=ATOL):
                o.wrong = True
                self.wrong += 1
            if y.shape != dense.shape:
                continue
            self.err_sq += float(np.sum((y - dense) ** 2))
            self.ref_sq += float(np.sum(dense**2))

    def verify(self, model) -> None:
        """The served model must carry exactly the reference's weights."""
        for name, layer in gemm_layers(model, include_head=True):
            if tensor_digest(layer.weight_matrix()) != self.digests[name]:
                raise RuntimeError(f"served weights differ from the reference at {name}")

    @property
    def rel_err(self) -> float:
        return float(np.sqrt(self.err_sq / self.ref_sq)) if self.ref_sq else float("nan")


def make_check(wl: Workload, inputs: list[np.ndarray]) -> Check:
    """Reference logits from a fresh, uncompiled build of the served model.

    The reference model is dropped on return; only its outputs and weight
    digests are kept.
    """
    ref = wl.build()
    digests = {name: tensor_digest(layer.weight_matrix()) for name, layer in gemm_layers(ref, include_head=True)}
    approx, dense = reference_outputs(ref, wl.transform(ref), inputs)
    return Check(approx, dense, digests)


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def reset_peak_rss(pids=()) -> None:
    """Reset VmHWM of this process and ``pids`` to their current RSS.

    Called once the served set-up is up, so :func:`peak_rss_mb` covers the
    serving phase rather than the closed set-ups and the reference build.
    """
    gc.collect()
    for pid in ("self", *pids):
        try:
            Path(f"/proc/{pid}/clear_refs").write_text("5")
        except OSError:
            continue


def peak_rss_mb(pids=()) -> float:
    """Sum of VmHWM over this process and ``pids`` (shared pages counted per process)."""
    total_kb = 0
    for pid in ("self", *pids):
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _ms(x: float) -> float:
    return x * 1e3


def _pool_health(served: Served) -> dict:
    """Worker respawns (process pools only) and crash retries the engine made."""
    snap = served.engine.metrics_snapshot()
    series = snap.get("tasd_serve_requests_retried_total", {}).get("series", [])
    return {
        "pool.respawns": getattr(served.pool, "respawns", 0),
        "pool.retries": int(sum(s["value"] for s in series)),
    }


@dataclass
class PhaseStats:
    """Engine and pool views of one load phase."""

    queue_wait: list[float] = field(default_factory=list)
    batches: float = 0.0
    requests: int = 0
    worker_forward_s: float = 0.0
    worker_batches: int = 0

    @property
    def batch_size_mean(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


@contextlib.contextmanager
def phase_stats(served: Served):
    """Deltas of ``engine.report()`` and ``pool.stats()`` across a phase."""
    before = len(served.engine.report().requests)
    s0 = served.pool.stats()
    out = PhaseStats()
    yield out
    reqs = served.engine.report().requests[before:]
    s1 = served.pool.stats()
    out.queue_wait = [r.queue_time for r in reqs]
    out.requests = len(reqs)
    out.batches = sum(1.0 / r.batch_size for r in reqs)
    out.worker_forward_s = s1.wall_time - s0.wall_time
    out.worker_batches = s1.batches - s0.batches


def ladder(served: Served, inputs, seed: int, seconds: float, recorder=None) -> list[dict]:
    """Open-loop Poisson phases at :data:`RATES` until one's backlog grows.

    Every phase sends the same number of requests, chosen so that the whole
    ladder, if no phase stops it, is due within ``seconds``.  A phase's
    backlog grows when the outstanding count at its last send
    exceeds the count at its half-way send by more than two full
    micro-batches per engine worker.
    """
    count = max(20, int(round(seconds / sum(1.0 / r for r in RATES))))
    slack = 2 * served.engine.max_batch * served.engine.workers
    phases = []
    for rate in RATES:
        with phase_stats(served) as ps:
            phase = open_loop(served.engine.submit, inputs, poisson_schedule(rate, count, seed))
        grows = phase.backlog_end > phase.backlog_mid + slack
        phases.append({
            "rate": rate,
            "phase": phase,
            "stats": ps,
            "grows": grows,
            "requests": _record_requests(recorder, phase) if recorder is not None else [],
        })
        if grows:
            break
    return phases


def _record_requests(recorder: SpanRecorder, phase: PhaseResult) -> list[tuple]:
    rows = []
    for o in phase.outcomes:
        sid = recorder.add("request", o.sent, o.done)
        rows.append((sid, o.sent, o.submitted))
    return rows


def phase_summary(rate, phase: PhaseResult, ps: PhaseStats, grows: bool, workers: int) -> dict:
    lat = phase.latencies
    q, _, _ = tail(lat)
    p99 = percentile(lat, 99)
    wall = phase.ended - phase.started
    meets = phase.failed == 0 and not grows and bool(lat) and p99 <= SLO_P99_S
    return {
        "rate": rate,
        "sent": len(phase.outcomes),
        "failed": phase.failed,
        "latency_p50_ms": _ms(percentile(lat, 50)),
        "latency_p99_ms": _ms(p99),
        "tail_percentile": q,
        "backlog_mid": phase.backlog_mid,
        "backlog_end": phase.backlog_end,
        "backlog_grows": grows,
        "meets_slo": meets,
        "gen_late_ms_max": _ms(phase.max_late),
        "batch_size_mean": ps.batch_size_mean,
        "queue_wait_ms_p99": _ms(percentile(ps.queue_wait, 99)),
        "worker_busy_frac": ps.worker_forward_s / (wall * workers) if wall > 0 else 0.0,
    }


def ladder_report(phases: list[dict], workers: int) -> tuple[list[dict], dict]:
    """Per-rate rows for the record, and the printed per-rate metrics."""
    rows = [phase_summary(p["rate"], p["phase"], p["stats"], p["grows"], workers) for p in phases]
    extra: dict = {}
    for r in rows:
        n = r["rate"]
        extra[f"latency_p50_ms.r{n}"] = (r["latency_p50_ms"], "ms")
        extra[f"latency_p99_ms.r{n}"] = (r["latency_p99_ms"], "ms")
        extra[f"serve.failed.r{n}"] = (r["failed"], "requests")
        extra[f"serve.backlog.r{n}"] = (r["backlog_end"], "requests")
        extra[f"serve.batch_size.mean.r{n}"] = (r["batch_size_mean"], "requests")
        extra[f"pool.worker_busy_frac.r{n}"] = (r["worker_busy_frac"], "ratio")
    extra["serve.gen_late_ms.max"] = (max(r["gen_late_ms_max"] for r in rows), "ms")
    meeting = [r["rate"] for r in rows if r["meets_slo"]]
    extra["max_rate_under_slo_rps"] = (max(meeting) if meeting else 0, "rps")
    return rows, extra


# ---------------------------------------------------------------------- #
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------- #
@dataclass
class RunResult:
    metrics: dict
    extra: dict
    attempted: int
    failed: int
    wrong: int
    record: dict = field(default_factory=dict)
    recorder: SpanRecorder | None = None


def _setup_record(timings: list[SetupTiming]) -> dict:
    return {
        "setup_s": [t.setup_s for t in timings],
        "install_s": [t.install_s for t in timings],
        "compile_s": [t.compile_s for t in timings],
        "autotune_s": [t.autotune_s for t in timings],
        "backend_picks": [t.picks for t in timings],
    }


def _pick_counts(plan) -> dict[str, int]:
    picks = list(plan.backend_choices().values())
    return {b: picks.count(b) for b in backend_names()}


def run_untraced(wl: Workload, seed: int, seconds: float) -> RunResult:
    inputs = make_inputs(wl, seed)
    check = make_check(wl, inputs)
    served, setups = setup(wl, inputs[0])
    try:
        check.verify(served.model)
        reset_peak_rss(served.pool.worker_pids() if wl.pool_workers else ())
        closed_loop(served.engine.submit, inputs, WARMUP_S)
        if wl.open_loop:
            phases = ladder(served, inputs, seed, seconds)
            phase = phases[0]["phase"]  # the 50 rps phase carries the headline numbers
        else:
            phase = closed_loop(served.engine.submit, inputs, seconds)
        rss = peak_rss_mb(served.pool.worker_pids() if wl.pool_workers else ())
    finally:
        served.close()

    if wl.open_loop:
        for p in phases:
            check.add(p["phase"])
        rows, extra = ladder_report(phases, wl.pool_workers)
        all_outcomes = [o for p in phases for o in p["phase"].outcomes]
    else:
        check.add(phase)
        rows, extra = [], {}
        all_outcomes = phase.outcomes
    failed = sum(1 for o in all_outcomes if o.error is not None or o.wrong)
    lat = phase.latencies
    samples = sum(o.output.shape[0] for o in phase.completed)
    metrics = {
        "latency_p50_ms": _ms(percentile(lat, 50)),
        "served_rel_err": check.rel_err,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(s.setup_s for s in setups),
    }
    q, tail_value, n = tail(lat)
    extra["latency_p90_ms"] = (_ms(percentile(lat, 90)), "ms")
    extra["latency_p99_ms"] = (_ms(percentile(lat, 99)), "ms")
    extra["latency_samples"] = (n, "count")
    extra["latency_tail_percentile"] = (q if q is not None else 0.0, "percentile")
    extra["latency_tail_ms"] = (_ms(tail_value), "ms")
    extra["samples_per_s"] = (samples / (phase.ended - phase.started), "samples/s")
    extra["fail_frac"] = (failed / len(all_outcomes) if all_outcomes else 1.0, "ratio")
    record = {"setups": _setup_record(setups), "ladder": rows, "checked": check.checked}
    return RunResult(metrics, extra, len(all_outcomes), failed, check.wrong, record)


# ---------------------------------------------------------------------- #
# Traced run: per-layer metrics
# ---------------------------------------------------------------------- #
def forward_breakdown(recorder: SpanRecorder, forward: str) -> dict:
    """im2col / gemm / rest per forward from the span tree under ``forward``."""
    spans = recorder.named(forward)
    kids = recorder.children()
    n = len(spans)
    im2col = gemm = rest = total = 0.0
    for f in spans:
        children = kids.get(f[0], [])
        im2col += sum(c[3] - c[2] for c in children if c[1] == "im2col")
        gemm += sum(c[3] - c[2] for c in children if c[1].startswith("gemm/"))
        rest += self_time(f, children)
        total += f[3] - f[2]
    durations = [f[3] - f[2] for f in spans]
    return {
        "forwards": n,
        "executor.forward_ms.p50": _ms(percentile(durations, 50)),
        "im2col.ms_per_forward": _ms(im2col / n),
        "gemm.ms_per_forward": _ms(gemm / n),
        "rest.ms_per_forward": _ms(rest / n),
        "im2col.share": im2col / total,
        "gemm.share": gemm / total,
    }


def gemm_layer_metrics(model, plan, stats, forwards: int) -> tuple[dict, dict]:
    """vs-floor, MAC fraction and computed bytes from the per-layer counters."""
    counters = {n: c for n, c in stats.layers.items() if c.calls}
    rows = {n: c.observed_cols() for n, c in counters.items()}
    floor = dense_floor(model, rows)
    per_layer = {}
    served_s = floor_s = structured = dense = bytes_ = 0.0
    for name, c in counters.items():
        lp = plan.layers[name]
        per_call = c.wall_time / c.calls
        per_layer[name] = {
            "backend": lp.backend if lp.mode == "compiled" else lp.mode,
            "rows": rows[name],
            "gemm_us": per_call * 1e6,
            "floor_us": floor[name] * 1e6,
            "vs_floor": per_call / floor[name],
        }
        served_s += c.wall_time
        floor_s += floor[name] * c.calls
        structured += c.structured_macs
        dense += c.dense_macs
        w_bytes = (
            lp.operand.compressed_bits / 8 if lp.operand is not None else lp.dense_weight.nbytes
        )
        # Computed, not measured: compressed (or dense) weight + input + output.
        per_call_bytes = w_bytes + 8 * rows[name] * (lp.reduction + lp.out_features)
        bytes_ += per_call_bytes * c.calls
    metrics = {
        "gemm.vs_floor": served_s / floor_s,
        "gemm.structured_mac_frac": structured / dense,
        "gemm.bytes_per_forward": bytes_ / forwards,
    }
    return metrics, per_layer


@contextlib.contextmanager
def traced_run(recorder: SpanRecorder, pool, name: str):
    """Record a ``name`` span around every ``pool.run`` call (the engine's dispatch)."""
    pool.run = recorder.wrap(name, pool.run)
    try:
        yield
    finally:
        del pool.run


def _serve_span_metrics(recorder: SpanRecorder, ps: PhaseStats) -> dict:
    form = [s[3] - s[2] for s in recorder.named("serve.batch_form")]
    reply = [s[3] - s[2] for s in recorder.named("serve.reply")]
    return {
        "serve.queue_wait_ms.p50": _ms(percentile(ps.queue_wait, 50)),
        "serve.queue_wait_ms.p99": _ms(percentile(ps.queue_wait, 99)),
        "serve.batch_size.mean": ps.batch_size_mean,
        "serve.batch_form_ms.p50": _ms(percentile(form, 50)),
        "serve.reply_ms.p50": _ms(percentile(reply, 50)),
    }


def _pool_metrics(dispatch: list[float], ps: PhaseStats, wall: float, workers: int) -> dict:
    fwd = ps.worker_forward_s / ps.worker_batches if ps.worker_batches else 0.0
    mean_dispatch = sum(dispatch) / len(dispatch) if dispatch else 0.0
    return {
        "pool.dispatch_ms.p50": _ms(percentile(dispatch, 50)),
        "pool.worker_forward_ms.mean": _ms(fwd),
        "pool.ipc_ms.mean": _ms(mean_dispatch - fwd),
        "pool.worker_busy_frac": ps.worker_forward_s / (wall * workers) if wall > 0 else 0.0,
    }


def _forward_loop(run, inputs, seconds: float) -> list[float]:
    """Closed loop straight on an executor's ``run``; per-call seconds."""
    out = []
    stop = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < stop:
        t0 = time.perf_counter()
        run(inputs[i % len(inputs)])
        out.append(time.perf_counter() - t0)
        i += 1
    return out


def run_traced(wl: Workload, seed: int, seconds: float) -> RunResult:
    inputs = make_inputs(wl, seed)
    check = make_check(wl, inputs)
    served, setups = setup(wl, inputs[0], trace_capacity=TRACE_CAPACITY)
    model, plan = served.model, served.plan
    recorder = SpanRecorder()
    record: dict = {"setups": _setup_record(setups)}
    try:
        check.verify(served.model)
        closed_loop(served.engine.submit, inputs, WARMUP_S)
        if wl.open_loop:
            with traced_run(recorder, served.pool, "pool.dispatch"):
                phases = ladder(served, inputs, seed, seconds / 2, recorder=recorder)
            recorder.link_requests(
                [r for q in phases for r in q["requests"]], served.engine.traces(), "pool.dispatch"
            )
            for q in phases:
                check.add(q["phase"])
            first = phases[0]
            p = first["phase"]
            dispatch = [
                s[3] - s[2] for s in recorder.named("pool.dispatch")
                if p.started <= s[2] <= p.ended
            ]
            metrics = _serve_span_metrics(recorder, first["stats"])
            metrics.update(
                _pool_metrics(dispatch, first["stats"], p.ended - p.started, wl.pool_workers)
            )
            metrics.update(_pool_health(served))
            record["ladder"], extra = ladder_report(phases, wl.pool_workers)
            outcomes = [o for q in phases for o in q["phase"].outcomes]
            served.close()
            served = None
            # Inside worker processes the numbers stop at pool.stats(); the
            # same model's im2col/GEMM/rest split is measured in-process here.
            with PlanExecutor(model, plan) as ex:
                _forward_loop(ex.run, inputs, WARMUP_S)
                plain = _forward_loop(ex.run, inputs, seconds / 4)
                ex.reset_stats()
                with traced_run(recorder, ex, "executor.forward"), traced_layers(recorder):
                    _forward_loop(ex.run, inputs, seconds / 4)
                stats = ex.stats()
            breakdown = forward_breakdown(recorder, "executor.forward")
            traced_p50 = breakdown["executor.forward_ms.p50"]
            untraced_p50 = _ms(percentile(plain, 50))
        else:
            extra = {}
            plain = closed_loop(served.engine.submit, inputs, seconds / 2)
            served.pool.reset_stats()
            with (
                traced_run(recorder, served.pool, "executor.forward"),
                traced_layers(recorder),
                phase_stats(served) as ps,
            ):
                phase = closed_loop(served.engine.submit, inputs, seconds / 2)
            requests = _record_requests(recorder, phase)
            recorder.link_requests(requests, served.engine.traces(), "executor.forward")
            stats = served.pool.stats()
            check.add(plain)
            check.add(phase)
            outcomes = plain.outcomes + phase.outcomes
            breakdown = forward_breakdown(recorder, "executor.forward")
            forwards = [s[3] - s[2] for s in recorder.named("executor.forward")]
            metrics = _serve_span_metrics(recorder, ps)
            metrics.update(_pool_metrics(forwards, ps, phase.ended - phase.started, 1))
            metrics.update(_pool_health(served))
            traced_p50 = _ms(percentile(phase.latencies, 50))
            untraced_p50 = _ms(percentile(plain.latencies, 50))
    finally:
        if served is not None:
            served.close()

    gemm_metrics, per_layer = gemm_layer_metrics(model, plan, stats, breakdown["forwards"])
    metrics.update({k: v for k, v in breakdown.items() if k in PER_LAYER})
    metrics.update(gemm_metrics)
    metrics["pool.install_s"] = statistics.median(s.install_s for s in setups)
    metrics["compile.s"] = statistics.median(s.compile_s for s in setups)
    metrics["autotune.s"] = statistics.median(s.autotune_s for s in setups)
    for backend, count in _pick_counts(plan).items():
        metrics[f"autotune.layers.{backend}"] = count
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    # Printed rather than bounded: it reads exactly 0 on a model without convs.
    extra["im2col.ms_per_forward"] = (breakdown["im2col.ms_per_forward"], "ms")
    for name, row in per_layer.items():
        extra[f"gemm.vs_floor.{name}"] = (row["vs_floor"], "ratio")
    record["gemm_layers"] = per_layer
    record["forward_breakdown"] = breakdown
    failed = sum(1 for o in outcomes if o.error is not None or o.wrong)
    return RunResult(metrics, extra, len(outcomes), failed, check.wrong, record, recorder)
