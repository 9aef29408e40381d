"""The benchmark's own checks: determinism, trace accounting, failure counting.

    python3 -m pytest servebench/tests -q

Each test boots real ``repro serve`` processes on ephemeral ports with
short sequences, so the module takes well under a minute.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import breakdown, load_traces  # noqa: E402

SECONDS = 0.4
#: A TPC-H Q10 instantiation whose predicted variance differs in the last
#: bit between PYTHONHASHSEED=0 and PYTHONHASHSEED=1.
HASH_SENSITIVE_SQL = (
    "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS "
    "revenue, c_acctbal, n_name FROM customer, orders, lineitem, nation "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND "
    "o_orderdate >= DATE '1994-05-12' AND o_orderdate < DATE '1994-08-10' "
    "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
    "GROUP BY c_custkey, c_name, c_acctbal, n_name"
)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes(name):
    """Requests and expected answers, generated in two fresh processes."""
    first = workloads.generate_json(name, 5, SECONDS)
    assert workloads.generate_json(name, 5, SECONDS) == first
    assert workloads.generate_json(name, 6, SECONDS) != first


@pytest.mark.xfail(
    strict=True,
    reason="the program's predictions depend on the string-hash seed; "
    "until they do not, a run gives the server and its expected answers "
    "the same PYTHONHASHSEED (workloads.hash_seed)",
)
def test_prediction_is_independent_of_string_hash_seed():
    code = (
        "import sys, workloads; from repro.api import Session; "
        "session = Session(workloads.session_config()); "
        "print(session.predict(sys.argv[1]).results[0].variance.hex())"
    )
    answers = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = f"{BENCH.parent / 'src'}{os.pathsep}{BENCH}"
        answers.add(subprocess.run(
            [sys.executable, "-c", code, HASH_SENSITIVE_SQL],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert len(answers) == 1, answers


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    """One short traced timed phase: ``(workload, phase, breakdown)``."""
    workload = workloads.build(request.param, 3, SECONDS)
    (run.REPO / ".servebench").mkdir(exist_ok=True)
    trace_dir = tmp_path_factory.mktemp(f"trace-{request.param}")
    server = run.boot(workload, f"test-{request.param}", trace_dir)
    try:
        phase = run.timed_phase(server, workload)
    finally:
        assert server.stop(), "server tree did not drain"
    requests, missing = load_traces(trace_dir)
    assert not missing
    return workload, phase, breakdown(phase.ops, requests)


#: Largest share of the handler span that ``transport.handler_self_ms``
#: (the part no hook covers: socket writes, header formatting) may take.
#: Where the app does milliseconds of work it is a few percent; on the
#: warm paths the app takes well under a millisecond and the socket write
#: is about a third. A hook that stops covering its layer's work moves
#: that work here.
MAX_RESIDUAL_SHARE = {
    "warm_keepalive": 0.5,
    "adhoc_cold": 0.1,
    "batch_fanout": 0.1,
    "routed_feedback": 0.5,
}
#: The layers that hold most of the time, per workload (README.md); the
#: first one named has the largest self time of all layers.
DOMINANT = {
    "adhoc_cold": ("costfuncs.fit_ms", "sampling.estimate_ms"),
    "batch_fanout": (
        "service.assembly_ms", "session.self_ms", "wire.encode_ms",
    ),
}


def _handler_ms(layers) -> float:
    """Mean server handler time: every self time but the client gap."""
    return sum(
        value for name, value in layers.items()
        if name.endswith("_ms") and name != "transport.client_gap_ms"
    )


def test_layers_account_for_client_latency(traced):
    _, phase, layers = traced
    mean_latency = sum(op.latency_ms for op in phase.ops) / len(phase.ops)
    accounted = layers["transport.client_gap_ms"] + _handler_ms(layers)
    assert accounted >= 0.9 * mean_latency
    assert accounted <= 1.001 * mean_latency
    assert layers["transport.client_gap_ms"] > 0


def test_unhooked_handler_time_is_small(traced):
    workload, _, layers = traced
    residual = layers["transport.handler_self_ms"] / _handler_ms(layers)
    assert residual < MAX_RESIDUAL_SHARE[workload.name], residual


def test_known_attribution(traced):
    """The stall on keep-alive, fitting+sampling cold, assembly+encode in
    batches: each is most of the time it should be most of."""
    workload, phase, layers = traced
    if workload.name == "warm_keepalive":
        p50 = statistics.median(op.latency_ms for op in phase.ops)
        assert layers["transport.client_gap_ms"] > 0.5 * p50
    elif workload.name in DOMINANT:
        names = DOMINANT[workload.name]
        assert sum(layers[name] for name in names) > 0.5 * _handler_ms(layers)
        largest = max(
            (name for name in layers if name.endswith("_ms")),
            key=layers.get,
        )
        assert largest == names[0], layers
    else:
        assert 0 < layers["routing.forwarded_share"] < 1
        assert layers["routing.forward_ms"] > 0


def test_served_answers_match_and_corruption_counts(traced):
    workload, phase, _ = traced
    assert workloads.check(phase.ops, workload.expected) == []
    corrupted = list(workload.expected)
    index = len(corrupted) // 2
    while _flip_last_float(corrupted[index]) == corrupted[index]:
        index += 1  # an observe ack may carry no float yet
    corrupted[index] = _flip_last_float(corrupted[index])
    assert workloads.check(phase.ops, corrupted) == [index]


def _flip_last_float(value):
    """``value`` with its last float (hex string) off by one ulp."""
    if isinstance(value, tuple):
        items = list(value)
        for position in reversed(range(len(items))):
            flipped = _flip_last_float(items[position])
            if flipped != items[position]:
                items[position] = flipped
                return tuple(items)
        return value
    if isinstance(value, str) and value.startswith(("0x", "-0x")):
        return math.nextafter(float.fromhex(value), math.inf).hex()
    return value
