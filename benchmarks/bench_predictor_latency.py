"""The low-overhead claim: prediction latency per pipeline stage.

The paper argues distributions come "almost at the cost" of the point
predictor [48]. Here pytest-benchmark times the real wall-clock of the
three prediction stages (sampling pass, cost-function fitting,
distribution assembly) on a SELJOIN query.

The scenario also meters the SoA batch-assembly kernels
(docs/service.md "Batch kernels") against the scalar per-result
assembly + interval loop over the same prepared SELJOIN plans:
``soa_assembly_retained`` carries a hard floor on the speedup and
``soa_assembly_bitwise`` hard-floors bit-identical outputs.

Cost-function fitting is metered the same way against the scalar
per-(operator, unit, grid point) fitter kept in ``tests/
fitting_oracle.py`` (loaded by path, so only one copy exists), cold on
both sides — no NNLS memo: ``fitting_retained`` hard-floors the speedup
and ``fitting_bitwise`` bit-identical fits over every SELJOIN plan.
"""

import importlib.util
import struct
from pathlib import Path

import pytest

from repro.benchreport import Metric, register
from repro.core import UncertaintyPredictor, Variant
from repro.core.concurrency import ConcurrentPredictor
from repro.costfuncs import CostFunctionFitter
from repro.core.variance import assemble_distribution_parameters
from repro.sampling import SelectivityEstimator
from repro.service.kernels import (
    assemble_batch,
    batch_intervals,
    build_batch_plan,
)

ASSEMBLY_VARIANTS = tuple(Variant)
ASSEMBLY_MPLS = (1, 2, 4)
ASSEMBLY_CONFIDENCES = (0.5, 0.9, 0.99)
ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "fitting_oracle.py"


def _scalar_fitter():
    """The oracle fitter class, imported from ``tests/`` by file path."""
    spec = importlib.util.spec_from_file_location("fitting_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ScalarCostFunctionFitter


@register("predictor_latency", tags=("latency", "overhead"))
def scenario(ctx):
    """Per-stage prediction latency on a SELJOIN query (best of N)."""
    lab = ctx.small_lab
    executed = lab.executed_queries("uniform-small", "SELJOIN")[1]
    samples = lab.sample_db("uniform-small", 0.05)
    units = lab.units("PC1")
    estimate = SelectivityEstimator(samples, executed.planned).estimate()
    fitted = CostFunctionFitter(executed.planned, estimate).fit_all()
    predictor = UncertaintyPredictor(units)
    repetitions = ctx.pick(quick=3, full=7)

    stages = {
        "sampling_pass_seconds":
            lambda: SelectivityEstimator(samples, executed.planned).estimate(),
        "fitting_seconds":
            lambda: CostFunctionFitter(executed.planned, estimate).fit_all(),
        "assembly_seconds":
            lambda: assemble_distribution_parameters(
                executed.planned, estimate, fitted, units
            ),
        "end_to_end_seconds":
            lambda: predictor.predict(executed.planned, samples),
    }
    metrics = [
        Metric(name, ctx.best_of(func, repetitions)[0], kind="timing", unit="s")
        for name, func in stages.items()
    ]

    # Cold fitting vs the scalar oracle over every SELJOIN plan.
    fit_inputs = [
        (query.planned, SelectivityEstimator(samples, query.planned).estimate())
        for query in lab.executed_queries("uniform-small", "SELJOIN")
    ]
    oracle = _scalar_fitter()
    oracle_seconds, oracle_fits = ctx.best_of(
        lambda: [oracle(p, e).fit_all() for p, e in fit_inputs], repetitions
    )
    array_seconds, array_fits = ctx.best_of(
        lambda: [CostFunctionFitter(p, e).fit_all() for p, e in fit_inputs],
        repetitions,
    )
    metrics += [
        Metric(
            "fitting_retained", oracle_seconds / array_seconds,
            kind="ratio", floor=2.0,
        ),
        Metric(
            "fitting_bitwise",
            1.0 if _fit_bytes(array_fits) == _fit_bytes(oracle_fits) else 0.0,
            kind="ratio",
            floor=1.0,
        ),
    ]

    # SoA batch assembly vs the scalar per-result loop, over every
    # SELJOIN plan at the full variant x mpl x confidence fan-out.
    # Both sides start from the same prepared artifacts (warm assembler
    # caches), so the ratio isolates the assembly + interval math.
    entries = []
    for query in lab.executed_queries("uniform-small", "SELJOIN"):
        prepared = predictor.prepare(query.planned, samples)
        prepared.assembler(query.planned)  # warm, like a serving cache
        entries.append((query.planned, prepared))
    concurrent = ConcurrentPredictor(units)
    scalar_seconds, scalar_payload = ctx.best_of(
        lambda: _assemble_scalar(entries, concurrent), repetitions
    )
    soa_seconds, soa_payload = ctx.best_of(
        lambda: _assemble_soa(entries, concurrent), repetitions
    )
    metrics += [
        Metric(
            "scalar_assembly_batch_seconds", scalar_seconds,
            kind="timing", unit="s",
        ),
        Metric(
            "soa_assembly_batch_seconds", soa_seconds,
            kind="timing", unit="s",
        ),
        Metric(
            "soa_assembly_retained", scalar_seconds / soa_seconds,
            kind="ratio", floor=2.0,
        ),
        Metric(
            "soa_assembly_bitwise",
            1.0 if soa_payload == scalar_payload else 0.0,
            kind="ratio",
            floor=1.0,
        ),
    ]
    return metrics


def _fit_bytes(fits):
    """Every fitted coefficient, residual and dropped unit, as bytes."""
    return [
        (
            op_id,
            unit,
            function.coefficients.tobytes(),
            struct.pack("<d", function.fit_residual),
        )
        for fitted in fits
        for op_id, functions in fitted.items()
        for unit, function in functions.functions.items()
    ]


def _assemble_scalar(entries, concurrent):
    """The reference loop: one assemble + interval pass per combination."""
    payload = []
    for planned, prepared in entries:
        for mpl in ASSEMBLY_MPLS:
            predictor = concurrent.predictor_at(mpl)
            for variant in ASSEMBLY_VARIANTS:
                result = predictor.predict_prepared(planned, prepared, variant)
                _pack_result(
                    payload,
                    result.breakdown,
                    result.std,
                    [
                        result.confidence_interval(confidence)
                        for confidence in ASSEMBLY_CONFIDENCES
                    ],
                )
    return payload


def _assemble_soa(entries, concurrent):
    """The SoA kernels over the same artifacts, packed in scalar order."""
    batch_plan = build_batch_plan(entries)
    assembly = assemble_batch(
        batch_plan, concurrent, ASSEMBLY_VARIANTS, ASSEMBLY_MPLS
    )
    intervals = batch_intervals(assembly, ASSEMBLY_CONFIDENCES)
    payload = []
    # Walk per submitted entry (query_slots), not per distinct slot, so
    # the payload lines up 1:1 with the scalar loop's even if two
    # SELJOIN plans ever dedup to one slot.
    for slot in (int(index) for index in batch_plan.query_slots):
        for li in range(len(ASSEMBLY_MPLS)):
            for vi in range(len(ASSEMBLY_VARIANTS)):
                payload += [
                    struct.pack("<d", assembly.mean[slot, vi, li]),
                    struct.pack("<d", assembly.variance[slot, vi, li]),
                    struct.pack("<d", assembly.std[slot, vi, li]),
                    struct.pack("<d", assembly.exact_part[slot, vi, li]),
                    struct.pack("<d", assembly.bounded_part[slot, vi, li]),
                    struct.pack("<d", assembly.unit_part[slot, vi, li]),
                ]
                payload += [
                    struct.pack("<d", value)
                    for value in assembly.per_unit_mean[slot, vi, li]
                ]
                for ci in range(len(ASSEMBLY_CONFIDENCES)):
                    payload += [
                        struct.pack("<d", intervals[slot, vi, li, ci, 0]),
                        struct.pack("<d", intervals[slot, vi, li, ci, 1]),
                    ]
    return payload


def _pack_result(payload, breakdown, std, interval_pairs):
    payload += [
        struct.pack("<d", breakdown.mean),
        struct.pack("<d", breakdown.variance),
        struct.pack("<d", std),
        struct.pack("<d", breakdown.exact_selectivity_term),
        struct.pack("<d", breakdown.bounded_covariance_term),
        struct.pack("<d", breakdown.cost_unit_term),
    ]
    payload += [
        struct.pack("<d", value) for value in breakdown.per_unit_mean.values()
    ]
    for low, high in interval_pairs:
        payload += [struct.pack("<d", low), struct.pack("<d", high)]


@pytest.fixture(scope="module")
def setup(small_lab):
    executed = small_lab.executed_queries("uniform-small", "SELJOIN")[1]
    samples = small_lab.sample_db("uniform-small", 0.05)
    units = small_lab.units("PC1")
    estimate = SelectivityEstimator(samples, executed.planned).estimate()
    fitted = CostFunctionFitter(executed.planned, estimate).fit_all()
    return executed, samples, units, estimate, fitted


def test_latency_sampling_pass(setup, benchmark):
    executed, samples, _, _, _ = setup
    benchmark(
        lambda: SelectivityEstimator(samples, executed.planned).estimate()
    )


def test_latency_cost_function_fitting(setup, benchmark):
    executed, _, _, estimate, _ = setup
    benchmark(lambda: CostFunctionFitter(executed.planned, estimate).fit_all())


def test_latency_distribution_assembly(setup, benchmark):
    executed, _, units, estimate, fitted = setup
    benchmark(
        lambda: assemble_distribution_parameters(
            executed.planned, estimate, fitted, units
        )
    )


def test_latency_end_to_end_prediction(setup, small_lab, benchmark):
    executed, samples, units, _, _ = setup
    predictor = UncertaintyPredictor(units)
    result = benchmark(lambda: predictor.predict(executed.planned, samples))
    assert result.mean > 0
