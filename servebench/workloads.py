"""The four workloads: seeded request sequences and their expected answers.

A workload is a fixed list of HTTP requests, generated from the seed
before any server starts, plus the answer each request must get. The
answers come from in-process :class:`repro.api.Session` objects built
with the same config as the server, fed the same requests in the same
order — so every served float can be checked bit for bit, including the
conformal-corrected intervals of ``routed_feedback``.

Sequences have a fixed length per ``(workload, seconds)``: the length is
``seconds`` times a nominal rate measured once for the workload, never
cut short by the clock, so one seed always yields the same query mix.
A workload is generated afresh on every run (a few seconds of CPU at
most, see README.md); nothing is cached between runs.

Some served floats depend on the interpreter's string-hash seed (see
README.md, *Correctness*). The answers are therefore computed in a child
interpreter whose ``PYTHONHASHSEED`` derives from the workload seed, and
the server is started with the same value.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import Observation, PredictRequest, Session, SessionConfig
from repro.service import plan_signature_hash
from repro.serving import ConsistentHashRouter
from repro.workloads import TPCH_TEMPLATES

WORKLOADS = ("warm_keepalive", "adhoc_cold", "batch_fanout", "routed_feedback")
REPO = Path(__file__).resolve().parent.parent

#: The server's database, calibration and sampling settings, spelled
#: out on its command line and mirrored by :func:`session_config`.
SCALE, DB_SEED, SAMPLING_RATIO = 0.02, 0, 0.05
SERVE_ARGS = [
    "serve", "--port", "0", "--scale", str(SCALE), "--seed", str(DB_SEED),
    "--sr", str(SAMPLING_RATIO),
]

#: Operations per second each workload sustained on a 2-vCPU x86 host;
#: with ``--seconds`` it fixes the sequence length.
NOMINAL_RATE = {
    "warm_keepalive": 45.0,
    "adhoc_cold": 65.0,
    "batch_fanout": 21.0,
    "routed_feedback": 340.0,
}
POOL_SIZE = 64
TENANTS = ("t0", "t1", "t2", "t3")
#: Queries per batch, drawn from the pool without replacement.
BATCH_SIZE = 32
BATCH_FANOUT = {
    "variants": ["all", "novar[c]", "novar[x]", "nocov"],
    "mpls": [1, 2, 4],
    "confidences": [0.5, 0.9, 0.99],
}
ROUTED_WORKERS = 2
#: Log-normal spread of the synthetic actual runtimes fed back.
ACTUAL_SIGMA = 0.3


@dataclass
class Workload:
    """Everything one run replays and checks."""

    name: str
    serve_args: list[str]
    warmup: list[tuple[str, bytes]]
    requests: list[tuple[str, bytes]]
    expected: list[tuple]
    keepalive: int = 0  # persistent connections; 0 = fresh per request
    hash_seed: str = "0"  # PYTHONHASHSEED of the server and the answers


def session_config() -> SessionConfig:
    """The in-process twin of the server :data:`SERVE_ARGS` start."""
    return SessionConfig(
        scale_factor=SCALE,
        db_seed=DB_SEED,
        calibration_seed=DB_SEED,
        sampling_ratio=SAMPLING_RATIO,
        sampling_seed=DB_SEED + 1,
    )


def _body(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def _instantiations(
    rng: np.random.Generator, count: int, distinct: bool = False
) -> list[str]:
    """``count`` TPC-H instantiations with a balanced template mix.

    Templates come in seeded shuffles of all of them, so every seed
    serves each template equally often (give or take one) and only the
    substitution parameters and the order vary. Template costs differ
    widely; a freely drawn mix would move the metrics between seeds.
    """
    queries: list[str] = []
    seen: set[str] = set()
    order: list[int] = []
    while len(queries) < count:
        if not order:
            order = list(rng.permutation(len(TPCH_TEMPLATES)))
        template = TPCH_TEMPLATES[order[-1]]
        sql = template.instantiate(rng)
        if distinct and sql in seen:
            continue  # redraw the parameters of the same template
        order.pop()
        seen.add(sql)
        queries.append(sql)
    return queries


def _hex(value) -> str:
    return float(value).hex()


def signature(record: dict) -> tuple:
    """The served numbers of one answer, floats as exact hex strings.

    Predictions contribute every mean, variance, std and interval bound
    plus whether a conformal correction was applied; batches the
    signature of each member; observe acks their window state.
    """
    if "responses" in record:
        return (
            "batch",
            tuple(signature(item) for item in record["responses"]),
            len(record.get("failures", [])),
        )
    if "results" in record:
        cells = tuple(
            (
                cell["variant"], cell["mpl"], _hex(cell["mean"]),
                _hex(cell["variance"]), _hex(cell["std"]),
                tuple(
                    (_hex(i["confidence"]), _hex(i["low"]), _hex(i["high"]))
                    for i in cell["intervals"]
                ),
            )
            for cell in record["results"]
        )
        return ("predict", record["sql"], cells, "feedback" in record)
    if "window_fill" in record:
        scale = record.get("scale")
        return (
            "observe", record["tenant"], record["observations"],
            record["window_fill"], record["active"],
            record["drift_detected"], record["drifts_total"],
            None if scale is None else _hex(scale),
        )
    raise ValueError(f"unrecognised answer: {sorted(record)}")


def sequence_length(name: str, seconds: float) -> int:
    return max(8, round(NOMINAL_RATE[name] * seconds))


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` both sides of a run use."""
    return str(seed % 2**32)


def generate_json(name: str, seed: int, seconds: float) -> str:
    """Generate a workload in a child interpreter; its JSON form."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(seed)
    env["PYTHONPATH"] = str(REPO / "src")
    child = subprocess.run(
        [sys.executable, __file__, name, str(seed), repr(seconds)],
        env=env, capture_output=True, text=True, timeout=170,
    )
    if child.returncode:
        raise RuntimeError(f"workload generation failed:\n{child.stderr}")
    return child.stdout


def build(name: str, seed: int, seconds: float) -> Workload:
    """The seeded request sequence of ``name`` and its expected answers."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    text = generate_json(name, seed, seconds)
    record = json.loads(text)
    answers = [_tuples(answer) for answer in record["answers"]]

    def pairs(items):
        return [(path, body.encode()) for path, body in items]

    def expected(ids):
        if isinstance(ids, list):  # a batch: one answer per query
            return ("batch", tuple(answers[i] for i in ids), 0)
        return answers[ids]

    return Workload(
        name=name,
        serve_args=record["serve_args"],
        warmup=pairs(record["warmup"]),
        requests=pairs(record["requests"]),
        expected=[expected(ids) for ids in record["expected"]],
        keepalive=record["keepalive"],
        hash_seed=hash_seed(seed),
    )


def _tuples(value):
    if isinstance(value, list):
        return tuple(_tuples(item) for item in value)
    return value


def _generate(name: str, seed: int, seconds: float) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    length = sequence_length(name, seconds)
    return globals()[f"_build_{name}"](rng, length)


def _predict_body(sql: str, **fields) -> bytes:
    return _body({"schema_version": 2, "sql": sql, **fields})


def _build_warm_keepalive(rng, length) -> Workload:
    pool = _instantiations(rng, POOL_SIZE, distinct=True)
    picks = rng.integers(POOL_SIZE, size=length)
    session = Session(session_config())
    answers = [
        signature(session.predict(PredictRequest(sql=sql)).to_dict(2))
        for sql in pool
    ]
    return Workload(
        name="warm_keepalive",
        serve_args=list(SERVE_ARGS),
        warmup=[("/v1/predict", _predict_body(sql)) for sql in pool],
        requests=[("/v1/predict", _predict_body(pool[i])) for i in picks],
        expected=[answers[i] for i in picks],
        keepalive=2,
    )


def _build_adhoc_cold(rng, length) -> Workload:
    queries = _instantiations(rng, length)
    session = Session(session_config())
    return Workload(
        name="adhoc_cold",
        serve_args=list(SERVE_ARGS),
        warmup=[],
        requests=[("/v1/predict", _predict_body(sql)) for sql in queries],
        expected=[
            signature(session.predict(PredictRequest(sql=sql)).to_dict(2))
            for sql in queries
        ],
    )


def _build_batch_fanout(rng, length) -> Workload:
    pool = _instantiations(rng, POOL_SIZE, distinct=True)
    batches = [
        [pool[i] for i in rng.choice(POOL_SIZE, BATCH_SIZE, replace=False)]
        for _ in range(length)
    ]
    session = Session(session_config())
    fanout = {key: tuple(value) for key, value in BATCH_FANOUT.items()}
    answers = {
        sql: signature(
            session.predict(PredictRequest(sql=sql, **fanout)).to_dict(2)
        )
        for sql in pool
    }

    def batch_body(queries):
        return _body({"schema_version": 2, "queries": queries, **BATCH_FANOUT})

    return Workload(
        name="batch_fanout",
        serve_args=list(SERVE_ARGS),
        warmup=[("/v1/predict-batch", batch_body(pool))],
        requests=[("/v1/predict-batch", batch_body(b)) for b in batches],
        expected=[
            ("batch", tuple(answers[sql] for sql in b), 0) for b in batches
        ],
    )


def _build_routed_feedback(rng, length) -> Workload:
    pool = _instantiations(rng, POOL_SIZE, distinct=True)
    pairs = length // 2
    picks = rng.integers(POOL_SIZE, size=pairs)
    tenants = rng.integers(len(TENANTS), size=pairs)
    noise = rng.standard_normal(pairs)
    # One in-process session per worker, fed what the ring sends that
    # worker: feedback windows live on the worker owning the plan.
    workers = [Session(session_config()) for _ in range(ROUTED_WORKERS)]
    router = ConsistentHashRouter(ROUTED_WORKERS)
    owners = [
        router.owner_point(plan_signature_hash(workers[0].plan(sql)))
        for sql in pool
    ]
    requests, expected = [], []
    for pick, tenant_index, z in zip(picks, tenants, noise):
        sql, tenant = pool[pick], TENANTS[tenant_index]
        worker = workers[owners[pick]]
        served = worker.predict(PredictRequest(sql=sql, tenant=tenant))
        requests.append(("/v1/predict", _predict_body(sql, tenant=tenant)))
        expected.append(signature(served.to_dict(2)))
        observation = Observation(
            sql=sql,
            actual_seconds=served.mean * math.exp(ACTUAL_SIGMA * z),
            tenant=tenant,
            predicted_mean=served.mean,
            predicted_std=served.std,
        )
        requests.append(("/v1/observe", _body(observation.to_dict(2))))
        expected.append(signature(worker.observe(observation).to_dict(2)))
    return Workload(
        name="routed_feedback",
        serve_args=[*SERVE_ARGS, "--workers", str(ROUTED_WORKERS)],
        warmup=[("/v1/predict", _predict_body(sql)) for sql in pool],
        requests=requests,
        expected=expected,
    )


def check(ops, expected) -> list[int]:
    """Indexes of failed operations: non-2xx, transport error, or any
    served number differing from the expected answer."""
    failed = []
    for op, want in zip(ops, expected):
        if op.error is not None or op.status is None or not 200 <= op.status < 300:
            failed.append(op.index)
            continue
        try:
            got = signature(json.loads(op.body))
        except (ValueError, KeyError, TypeError):
            failed.append(op.index)
            continue
        if got != want:
            failed.append(op.index)
    return failed


def _dump(workload: Workload, out) -> None:
    """Write ``workload`` as JSON, each distinct answer once."""
    ids: dict[tuple, int] = {}

    def answer_id(answer):
        return ids.setdefault(answer, len(ids))

    expected = [
        [answer_id(a) for a in want[1]] if want[0] == "batch"
        else answer_id(want)
        for want in workload.expected
    ]
    json.dump(
        {
            "serve_args": workload.serve_args,
            "warmup": [(p, b.decode()) for p, b in workload.warmup],
            "requests": [(p, b.decode()) for p, b in workload.requests],
            "answers": list(ids),
            "expected": expected,
            "keepalive": workload.keepalive,
        },
        out,
    )


if __name__ == "__main__":
    _dump(_generate(sys.argv[1], int(sys.argv[2]), float(sys.argv[3])), sys.stdout)
