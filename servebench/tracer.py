"""Span recording around the serving layers, and the per-layer breakdown.

Run as ``python servebench/tracer.py <repro CLI args>``: it wraps the
entry points of each layer listed in :data:`HOOKS` with span recorders,
then calls the ordinary ``repro`` command line. Nothing inside ``src/`` is traced or
changed; an untraced server never imports this file.

A span is ``[name, start_ns, end_ns, parent_index, extra]``. Spans of
one request form a tree rooted at ``ServingHandler.do_POST`` on the
handler thread; trees are kept in memory and each server process writes
its own to ``$SERVEBENCH_TRACE_DIR/trace-<pid>.json`` when it exits.
``time.perf_counter_ns`` reads ``CLOCK_MONOTONIC`` on Linux, one clock
for every process on the host, so the client's timestamps and those of
every server process (the pool's workers too) can be compared directly.

A layer's self time is its spans' durations minus the part covered by
child spans. Summed over a request, self times plus the client gap give
the request's client-observed latency exactly, so the per-request means
reported here add up to the mean latency.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: ``(module, attribute path, span name)`` of every wrapped entry point.
HOOKS = (
    ("repro.serving.transport", "ServingHandler.do_POST", "transport.handler"),
    ("repro.serving.transport", "loads", "wire.decode"),
    ("repro.serving.transport", "dumps", "wire.encode"),
    ("repro.serving.admission", "AdmissionGate.handle_post", "admission"),
    ("repro.serving.routing", "RoutedApp.handle_post", "routing.key"),
    ("repro.serving.routing", "plan_signature_hash", "routing.key"),
    ("repro.serving.routing", "ConsistentHashRouter.owner_point", "routing.key"),
    ("repro.serving.routing", "RoutedApp._forward", "routing.forward"),
    ("repro.serving.app", "SessionApp.handle_post", "session"),
    ("repro.api.wire", "PredictRequest.from_dict", "wire.decode"),
    ("repro.api.wire", "BatchRequest.from_dict", "wire.decode"),
    ("repro.api.wire", "Observation.from_dict", "wire.decode"),
    ("repro.api.wire", "PredictResponse.to_dict", "wire.encode"),
    ("repro.api.wire", "BatchResponse.to_dict", "wire.encode"),
    ("repro.api.wire", "ObserveResponse.to_dict", "wire.encode"),
    ("repro.api.session", "Session.plan", "session"),
    ("repro.api.session", "Session.predict", "session"),
    ("repro.api.session", "Session.predict_batch", "session"),
    ("repro.api.session", "Session.observe", "feedback.observe"),
    ("repro.service.service", "PredictionService.predict_query", "service.assembly"),
    ("repro.service.service", "PredictionService.predict_batch", "service.assembly"),
    ("repro.service.service", "PredictionService.plan", "service.plan"),
    ("repro.service.service", "PredictionService.prepare", "service.prepare"),
    ("repro.sampling.estimator", "SelectivityEstimator.estimate", "sampling.estimate"),
    ("repro.costfuncs.fitting", "CostFunctionFitter.fit_all", "costfuncs.fit"),
)
ROOT = "transport.handler"
ROUTED_HEADER = "X-Repro-Routed"

#: Self-time span name -> reported per-request metric (milliseconds).
SELF_METRICS = {
    "transport.handler": "transport.handler_self_ms",
    "wire.decode": "wire.decode_ms",
    "wire.encode": "wire.encode_ms",
    "admission": "admission.self_ms",
    "routing.key": "routing.key_ms",
    "routing.forward": "routing.forward_ms",
    "session": "session.self_ms",
    "service.plan": "service.plan_ms",
    "service.prepare": "service.prepare_self_ms",
    "service.assembly": "service.assembly_ms",
    "sampling.estimate": "sampling.estimate_ms",
    "costfuncs.fit": "costfuncs.fit_ms",
    "feedback.observe": "feedback.observe_ms",
}


class Recorder:
    """Per-thread span trees; finished request trees kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.requests: list[dict] = []
        self.missing: list[str] = []

    def wrap(self, fn, name: str):
        local, clock = self._local, time.perf_counter_ns
        root = name == ROOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tree = getattr(local, "tree", None)
            if tree is None:
                if not root:
                    return fn(*args, **kwargs)
                handler = args[0]
                tree = local.tree = []
                local.stack = []
                local.meta = {
                    "routed": handler.headers.get(ROUTED_HEADER) is not None,
                    "port": handler.client_address[1],
                }
            stack = local.stack
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(tree))
            tree.append(span)
            try:
                result = fn(*args, **kwargs)
                if name == "service.prepare":
                    span[4] = bool(result[1])
                elif isinstance(result, str):  # the serialized answer
                    span[4] = len(result.encode("utf-8"))
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if not stack:
                    local.tree = None
                    with self._lock:
                        self.requests.append({**local.meta, "spans": tree})

        return traced

    def install(self) -> None:
        """Wrap every hook that exists; note the ones that do not."""
        for module_name, path, name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(raw, name))

    def dump(self, directory: Path) -> None:
        with self._lock:
            record = {"missing": self.missing, "requests": self.requests}
        path = directory / f"trace-{os.getpid()}.json"
        path.write_text(json.dumps(record, separators=(",", ":")))


def _serve_traced(argv: list[str]) -> int:
    directory = Path(os.environ["SERVEBENCH_TRACE_DIR"])
    recorder = Recorder()
    recorder.install()
    from repro.serving import pool

    # Pool workers are forked and leave through os._exit, past any
    # atexit hook: each writes its own spans when its serve loop ends.
    # The worker entry is private, so it is looked up like a hook.
    worker_main = getattr(pool, "_worker_main", None)
    if worker_main is None:
        recorder.missing.append("repro.serving.pool._worker_main")
    else:
        def traced_worker(*args, **kwargs):
            try:
                worker_main(*args, **kwargs)
            finally:
                recorder.dump(directory)

        pool._worker_main = traced_worker
    from repro.cli import main

    try:
        return main(argv)
    finally:
        recorder.dump(directory)


# -- analysis (client side) -------------------------------------------------


def load_traces(directory: Path) -> tuple[list[dict], list[str]]:
    requests, missing = [], set()
    for path in sorted(directory.glob("trace-*.json")):
        record = json.loads(path.read_text())
        requests.extend(record["requests"])
        missing.update(record["missing"])
    return requests, sorted(missing)


def _self_times(spans: list) -> list[int]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _started_within(start_ns, end_ns, request) -> bool:
    # Not full containment: a handler thread may still be unwinding
    # after the peer has read the last byte and moved on.
    return start_ns <= request["spans"][0][1] <= end_ns


def breakdown(ops, requests: list[dict]) -> dict[str, float]:
    """Per-request mean self time of each layer, plus counts and ratios.

    Each client operation is joined to the server request tree that its
    connection (client port) started within its time window. A routed
    request's tree on the owning worker is joined to the entry worker's
    forward span that contains it; the forward's self time then counts
    only the hop itself, and the owner's spans count in their layers.
    ``trace.coverage`` is the share of client latency so accounted for.
    """
    attempted = max(1, len(ops))
    by_port = defaultdict(list)
    for request in requests:
        if not request["routed"]:
            by_port[request["port"]].append(request)
    totals: dict[str, int] = defaultdict(int)
    gap_ns = latency_ns = 0
    forwards, matched = [], []
    for op in ops:
        latency_ns += op.end_ns - op.start_ns
        for request in by_port.get(op.local_port, ()):
            if _started_within(op.start_ns, op.end_ns, request):
                matched.append(request)
                root = request["spans"][0]
                gap_ns += (op.end_ns - op.start_ns) - (root[2] - root[1])
                break
    for request in matched:
        forwards.extend(s for s in request["spans"] if s[0] == "routing.forward")
    forwards.sort(key=lambda span: span[1])
    starts = [span[1] for span in forwards]
    joined = []
    for tree in requests:
        if not tree["routed"]:
            continue
        # The forward that started last before this tree did.
        index = bisect.bisect_right(starts, tree["spans"][0][1]) - 1
        if index >= 0 and _started_within(*forwards[index][1:3], tree):
            joined.append(tree)
            root = tree["spans"][0]
            totals["routing.forward"] -= root[2] - root[1]
    hits = prepares = response_bytes = 0
    for request in matched + joined:
        for span, own in zip(request["spans"], _self_times(request["spans"])):
            totals[span[0]] += own
            if span[0] == "service.prepare":
                prepares += 1
                hits += span[4]
            elif span[0] == "wire.encode" and span[4] is not None:
                if not request["routed"] and span[3] == 0:
                    response_bytes += span[4]
    metrics = {
        metric: totals.get(name, 0) / attempted / 1e6
        for name, metric in SELF_METRICS.items()
    }
    metrics["transport.client_gap_ms"] = gap_ns / attempted / 1e6
    metrics["wire.response_bytes"] = response_bytes / attempted
    metrics["routing.forwarded_share"] = len(forwards) / attempted
    metrics["service.prepare_hit_rate"] = hits / prepares if prepares else 0.0
    accounted = gap_ns + sum(totals.values())
    metrics["trace.coverage"] = accounted / latency_ns if latency_ns else 0.0
    return metrics


if __name__ == "__main__":
    sys.exit(_serve_traced(sys.argv[1:]))
