"""Serving benchmark: replay one seeded workload against ``repro serve``.

    python3 servebench/run.py --workload adhoc_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` replays the sequence on three
fresh untraced servers and reports the end-to-end metrics; ``--trace 1``
replays it twice, untraced and then under ``servebench/tracer.py``, and
reports the per-layer breakdown plus the tracing overhead. The last line
of stdout is one JSON object; the line before it carries diagnostics
(the host speed probe, drain stalls, sent/succeeded/failed). See
README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from harness import (
    Chunk, Phase, get_json, host_ref_ms, run_fresh, run_keepalive,
    spawn_server,
)
from tracer import breakdown, load_traces

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
#: Server logs and span dumps; ignored by git.
WORK = REPO / ".servebench"
#: An untraced run replays its sequence this many times, each time on a
#: freshly booted server, and each pass replays ``--seconds / PASSES``
#: worth of requests. Latencies are the median of the passes per request
#: (see README.md, *End-to-end metrics*); ``setup_s`` is the median boot.
PASSES = 3
#: Each pass is timed in this many consecutive slices; the rate is
#: computed from the median replay time of each slice.
SLICES = 10
#: A run that is not done by then is abandoned (servers stopped, no
#: result printed), so it always ends within the 180 s a run may take.
WATCHDOG_SECONDS = 160

E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "requests_per_s": "1/s",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
}
LAYER_UNITS = {
    "transport.client_gap_ms": "ms",
    "transport.handler_self_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.response_bytes": "bytes",
    "admission.self_ms": "ms",
    "admission.refused": "count",
    "routing.key_ms": "ms",
    "routing.forwarded_share": "ratio",
    "routing.forward_ms": "ms",
    "session.self_ms": "ms",
    "service.plan_ms": "ms",
    "service.prepare_self_ms": "ms",
    "service.prepare_hit_rate": "ratio",
    "service.assembly_ms": "ms",
    "sampling.estimate_ms": "ms",
    "sampling.subplan_hit_rate": "ratio",
    "costfuncs.fit_ms": "ms",
    "feedback.observe_ms": "ms",
    "feedback.corrected_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def boot(workload, tag, trace_dir=None):
    """Start a server for ``workload`` and send its warm-up requests."""
    argv = (
        [str(HERE / "tracer.py")] if trace_dir is not None else ["-m", "repro"]
    ) + workload.serve_args
    started = time.perf_counter()
    server = spawn_server(REPO, WORK, argv, tag, workload.hash_seed, trace_dir)
    try:
        warm = run_fresh(server.port, workload.warmup)
        bad = [op for op in warm if op.error or op.status != 200]
        if bad:
            raise RuntimeError(
                f"warm-up failed: {bad[0].status} {bad[0].error}"
            )
    except BaseException:
        server.stop()
        raise
    server.setup_s = time.perf_counter() - started
    return server


def slice_bounds(length: int) -> list[int]:
    count = max(1, min(SLICES, length))
    return [round(i * length / count) for i in range(count + 1)]


def timed_phase(server, workload):
    """Replay the whole sequence once, in slices; meter the server."""
    stats_path = "/v1/stats?schema_version=2"
    before = get_json(server.port, stats_path)
    requests = workload.requests
    bounds = slice_bounds(len(requests))
    conns = [None] * workload.keepalive
    chunks = []
    cpu = server.cpu_seconds()
    try:
        for first, end in zip(bounds, bounds[1:]):
            started = time.perf_counter()
            if conns:
                ops = run_keepalive(
                    server.port, requests[first:end], conns, first
                )
            else:
                ops = run_fresh(server.port, requests[first:end], first)
            chunks.append(Chunk(ops, time.perf_counter() - started))
    finally:
        for conn in conns:
            if conn is not None:
                conn.close()
    cpu = server.cpu_seconds() - cpu
    rss = server.rss_mb()
    after = get_json(server.port, stats_path)
    return Phase(chunks, cpu, rss, server.setup_s, before, after)


def _delta(before: dict, after: dict, *path) -> int:
    for key in path[:-1]:
        before, after = before.get(key, {}), after.get(key, {})
    return after.get(path[-1], 0) - before.get(path[-1], 0)


def end_to_end(phases) -> dict[str, float]:
    """The end-to-end metrics of passes that replayed one sequence.

    Operation ``i`` of every pass sent the same request, so its latency
    is the median of its replays; the rate is the sequence length over
    the sum of each slice's median replay time. CPU is summed over all
    passes.
    """
    typical = [
        statistics.median(replays) for replays in zip(
            *([op.latency_ms for op in phase.ops] for phase in phases)
        )
    ]
    typical_s = sum(
        statistics.median(replays)
        for replays in zip(*([c.wall_s for c in p.chunks] for p in phases))
    )
    operations = sum(len(phase.ops) for phase in phases)
    return {
        "setup_s": statistics.median(phase.setup_s for phase in phases),
        "p50_ms": statistics.median(typical),
        "p90_ms": statistics.quantiles(typical, n=10)[8],
        "requests_per_s": len(typical) / typical_s,
        "server_cpu_ms_per_req": sum(p.cpu_s for p in phases) * 1e3 / operations,
        "server_rss_mb": statistics.median(phase.rss_mb for phase in phases),
    }


def per_layer(untraced, traced, requests) -> dict[str, float]:
    metrics = breakdown(traced.ops, requests)
    before, after = traced.stats_before, traced.stats_after
    metrics["admission.refused"] = _delta(
        before, after, "admission", "refused_total"
    )
    hits = _delta(before, after, "sampling_cache", "hits")
    lookups = hits + _delta(before, after, "sampling_cache", "misses")
    metrics["sampling.subplan_hit_rate"] = hits / lookups if lookups else 0.0
    answers = [json.loads(op.body) for op in traced.ops if op.status == 200]
    predicts = [answer for answer in answers if "results" in answer]
    metrics["feedback.corrected_share"] = (
        sum("feedback" in r for r in predicts) / len(predicts)
        if predicts else 0.0
    )
    metrics["trace.overhead"] = statistics.median(
        op.latency_ms for op in traced.ops
    ) / statistics.median(op.latency_ms for op in untraced.ops)
    return metrics


def serve_once(workload, tag, diagnostics, trace_dir=None):
    """Boot, replay the timed phase, stop; count a stalled drain."""
    server = boot(workload, tag, trace_dir)
    try:
        return timed_phase(server, workload)
    finally:
        diagnostics["drain_stalls"] += not server.stop()


def run(args) -> tuple[dict, dict]:
    import workloads  # imports repro, so only once src/ is on sys.path

    workload = workloads.build(args.workload, args.seed, args.seconds / PASSES)
    WORK.mkdir(exist_ok=True)
    diagnostics = {"host.ref_ms.before": host_ref_ms(), "drain_stalls": 0}
    if args.trace == 0:
        phases = [
            serve_once(workload, f"pass{number}", diagnostics)
            for number in range(PASSES)
        ]
        metrics = end_to_end(phases)
        diagnostics["passes"] = [
            {
                "p50_ms": statistics.median(op.latency_ms for op in p.ops),
                "cpu_ms_per_req": p.cpu_s * 1e3 / len(p.ops),
                "wall_s": sum(chunk.wall_s for chunk in p.chunks),
            }
            for p in phases
        ]
        units = E2E_UNITS
    else:
        trace_dir = WORK / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        phases = [
            serve_once(workload, "untraced", diagnostics),
            serve_once(workload, "traced", diagnostics, trace_dir),
        ]
        requests, missing = load_traces(trace_dir)
        if missing:
            diagnostics["missing_hooks"] = missing
        metrics = per_layer(phases[0], phases[1], requests)
        units = LAYER_UNITS
    diagnostics["host.ref_ms.after"] = host_ref_ms()
    sent = sum(len(phase.ops) for phase in phases)
    failed = sum(len(workloads.check(p.ops, workload.expected)) for p in phases)
    diagnostics.update(sent=sent, succeeded=sent - failed, failed=failed)
    result = {
        "correct": failed == 0,
        "attempted": sent,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, diagnostics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"servebench: no program sources under {REPO / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS}s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_SECONDS)
    result, diagnostics = run(args)
    signal.alarm(0)
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
