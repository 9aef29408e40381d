"""Production cost-function fits == the scalar oracle, bit for bit.

``repro.costfuncs.fitting`` fits every unit of an operator over one
shared array grid and may answer NNLS problems from a memo. The oracle
(``tests/fitting_oracle.py``) is the per-(operator, unit, grid point)
scalar fitter it replaced. Every comparison here is on coefficient
bytes, residual bits, variable bindings and the set of units dropped as
all-zero — never approximate.

Tier-1 fits 40 random instantiations of every TPC-H template; the slow
tier (``pytest -m slow``, ~45 s) fits 200 of each.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from fitting_oracle import ScalarCostFunctionFitter
from repro.caching import ByteBudgetLRU
from repro.costfuncs import C4, CostFunctionFitter
from repro.costfuncs.families import FAMILY_BY_KIND
from repro.costfuncs.fitting import FIT_MEMO_BYTES, _design_matrix
from repro.optimizer import CostModel, Optimizer
from repro.optimizer.optimizer import PlannedQuery
from repro.plan import MaterializeNode, MergeJoinNode, OpKind
from repro.sampling import SampleDatabase, SelectivityEstimator
from repro.sampling.histogram_estimator import HistogramSelectivityEstimator
from repro.service import PredictionService
from repro.workloads.tpch_templates import TPCH_TEMPLATES

DATABASES = ("uniform", "skewed")
ESTIMATORS = ("sampling", "gee", "histogram")
GRID_WS = (1, 6, 10)
#: Every (database, estimator, grid_w) cell; instantiation i of a
#: template runs in cell i mod 18, so each template covers all cells.
CELLS = [
    (database, estimator, grid_w)
    for database in DATABASES
    for estimator in ESTIMATORS
    for grid_w in GRID_WS
]
TIER1_INSTANTIATIONS = 40
FULL_INSTANTIATIONS = 200

EDGE_SQLS = (
    # SORT: the C4 xl**2 term and the n log2 n count
    "SELECT * FROM orders WHERE o_totalprice > 100000 ORDER BY o_totalprice",
    # LIMIT (no family: every unit dropped) above a sort
    "SELECT * FROM orders WHERE o_totalprice > 200000 "
    "ORDER BY o_totalprice LIMIT 10",
    # INDEX_SCAN: the C2 family over the scan's own selectivity
    "SELECT * FROM lineitem WHERE l_shipdate <= DATE '1992-03-01'",
    # NESTLOOP_JOIN: the C6 xl*xr term (tiny inner side)
    "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey",
    "SELECT COUNT(*) FROM supplier, nation, region "
    "WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
    "AND r_name = 'ASIA'",
    # a scan with no predicate: the co unit is all-zero and dropped
    "SELECT * FROM region",
)


def fit_signature(fitted):
    """Everything a fit serves, as exact bytes, in iteration order."""
    return [
        (
            op_id,
            unit,
            function.family.name,
            function.coefficients.tobytes(),
            struct.pack("<d", function.fit_residual),
            tuple(function.var_bindings.items()),
        )
        for op_id, functions in fitted.items()
        for unit, function in functions.functions.items()
    ]


def assert_matches_oracle(planned, estimate, grid_w):
    oracle = ScalarCostFunctionFitter(planned, estimate, grid_w=grid_w).fit_all()
    fitted = CostFunctionFitter(planned, estimate, grid_w=grid_w).fit_all()
    assert fit_signature(fitted) == fit_signature(oracle)
    return fitted


@pytest.fixture(scope="module")
def environments(tpch_db, skewed_db, optimizer, small_sample_db):
    return {
        "uniform": (optimizer, small_sample_db),
        "skewed": (
            Optimizer(skewed_db),
            SampleDatabase(skewed_db, sampling_ratio=0.02, seed=9),
        ),
    }


def estimate_for(planned, sample_db, estimator):
    if estimator == "histogram":
        return HistogramSelectivityEstimator(planned).estimate()
    return SelectivityEstimator(
        sample_db, planned, use_gee=estimator == "gee"
    ).estimate()


def sweep(environments, template, count):
    """Fit ``count`` random instantiations of ``template`` both ways."""
    rng = np.random.default_rng(20140901 + template.number)
    for index in range(count):
        database, estimator, grid_w = CELLS[index % len(CELLS)]
        optimizer, sample_db = environments[database]
        planned = optimizer.plan_sql(template.instantiate(rng))
        estimate = estimate_for(planned, sample_db, estimator)
        assert_matches_oracle(planned, estimate, grid_w)


@pytest.mark.parametrize(
    "template", TPCH_TEMPLATES, ids=lambda template: f"Q{template.number}"
)
def test_template_instantiations_match_oracle(environments, template):
    sweep(environments, template, TIER1_INSTANTIATIONS)


@pytest.mark.slow
@pytest.mark.parametrize(
    "template", TPCH_TEMPLATES, ids=lambda template: f"Q{template.number}"
)
def test_full_template_sweep_matches_oracle(environments, template):
    sweep(environments, template, FULL_INSTANTIATIONS)


@pytest.mark.parametrize("sql", EDGE_SQLS)
@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "-".join(map(str, cell)))
def test_edge_queries_match_oracle(environments, sql, cell):
    database, estimator, grid_w = cell
    optimizer, sample_db = environments[database]
    planned = optimizer.plan_sql(sql)
    assert_matches_oracle(planned, estimate_for(planned, sample_db, estimator), grid_w)


def test_edge_queries_cover_the_operator_kinds(optimizer):
    kinds = {
        node.kind
        for sql in EDGE_SQLS
        for node in optimizer.plan_sql(sql).root.walk()
    }
    assert {
        OpKind.SORT,
        OpKind.LIMIT,
        OpKind.INDEX_SCAN,
        OpKind.NESTLOOP_JOIN,
    } <= kinds


# ---------------------------------------------------------------------------
# operators the optimizer never emits, and synthetic estimates


def _swap_kinds(planned, swaps):
    """The same plan with some nodes re-typed (op_ids and children kept)."""

    def rebuild(node):
        children = [rebuild(child) for child in node.children]
        swap = swaps.get(node.kind)
        if swap is None:
            node.children = children
            return node
        return swap(node, children)

    return PlannedQuery(
        root=rebuild(planned.root),
        bound=planned.bound,
        database=planned.database,
        alias_tables=planned.alias_tables,
        alias_rows=planned.alias_rows,
        est_cards=planned.est_cards,
    )


def _merge_join(node, children):
    return MergeJoinNode(keys=node.keys, children=children, op_id=node.op_id)


def _materialize(node, children):
    return MaterializeNode(children=children, op_id=node.op_id)


@pytest.mark.parametrize("grid_w", GRID_WS)
def test_merge_join_and_materialize_match_oracle(optimizer, small_sample_db, grid_w):
    sql = (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_totalprice > 150000 ORDER BY o_totalprice"
    )
    planned = _swap_kinds(
        optimizer.plan_sql(sql),
        {OpKind.HASH_JOIN: _merge_join, OpKind.SORT: _materialize},
    )
    kinds = {node.kind for node in planned.root.walk()}
    assert {OpKind.MERGE_JOIN, OpKind.MATERIALIZE} <= kinds
    estimate = SelectivityEstimator(small_sample_db, planned).estimate()
    fitted = assert_matches_oracle(planned, estimate, grid_w)
    join = next(n for n in planned.root.walk() if n.kind is OpKind.MERGE_JOIN)
    assert set(fitted[join.op_id].functions) == {"ct", "co"}


def _with_selectivity(estimate, mean, variance):
    """``estimate`` with every defining variable set to (mean, variance)."""
    return replace(
        estimate,
        per_node={
            op_id: selectivity
            if selectivity.alias_of is not None
            else replace(selectivity, mean=mean, variance=variance)
            for op_id, selectivity in estimate.per_node.items()
        },
    )


SYNTHETIC_SELECTIVITIES = {
    # mean above 1: the clipped interval is empty, the high <= low branch
    "zero-spread-above-1": (1.5, 0.0),
    # zero variance at zero mean: the MIN_RELATIVE_SPREAD floor
    "zero-mean-zero-variance": (0.0, 0.0),
    # low end clipped at 0, high end clipped at 1
    "clipped-at-0": (0.01, 0.04),
    "clipped-at-1": (0.99, 0.04),
    "both-clipped": (0.5, 1.0),
}


@pytest.mark.parametrize(
    "selectivity", SYNTHETIC_SELECTIVITIES.values(), ids=SYNTHETIC_SELECTIVITIES
)
@pytest.mark.parametrize("grid_w", GRID_WS)
def test_synthetic_grids_match_oracle(optimizer, small_sample_db, selectivity, grid_w):
    mean, variance = selectivity
    for sql in EDGE_SQLS + (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey",
    ):
        planned = optimizer.plan_sql(sql)
        estimate = SelectivityEstimator(small_sample_db, planned).estimate()
        assert_matches_oracle(
            planned, _with_selectivity(estimate, mean, variance), grid_w
        )


# ---------------------------------------------------------------------------
# libm, not numpy: the two element-wise calls


def _disagreeing(values, numpy_op, libm_op):
    return [
        value
        for value, expected in zip(values.tolist(), numpy_op(values).tolist())
        if libm_op(value) != expected
    ]


def test_c4_square_uses_libm_pow():
    """numpy's square and libm pow differ in the last bit for some x;
    the design matrix must carry pow's bits, as the scalar row did."""
    values = np.random.default_rng(5).uniform(0.0, 1.0, 200_000)
    witnesses = _disagreeing(values, np.square, lambda v: v**2)
    assert witnesses, "no numpy/libm square disagreement in the draw"
    grid = {"xl": np.array(witnesses[:16])}
    design = _design_matrix(C4, grid, len(grid["xl"]))
    expected = np.asarray([C4.design_row({"xl": v}) for v in grid["xl"].tolist()])
    assert design.tobytes() == expected.tobytes()


def test_sort_count_uses_libm_log2(optimizer):
    values = np.random.default_rng(6).uniform(2.0, 1e7, 200_000)
    witnesses = np.array(_disagreeing(values, np.log2, math.log2)[:16])
    assert len(witnesses), "no numpy/libm log2 disagreement in the draw"
    planned = optimizer.plan_sql(EDGE_SQLS[0])
    sort = planned.root
    assert sort.kind is OpKind.SORT
    model = CostModel(planned.database)
    vector = model.operator_counts(sort, witnesses, 0.0, 0.0)
    for index, n_left in enumerate(witnesses.tolist()):
        scalar = model.operator_counts(sort, n_left, 0.0, 0.0)
        assert struct.pack("<d", vector.no[index]) == struct.pack("<d", scalar.no)
        assert struct.pack("<d", vector.nt[index]) == struct.pack("<d", scalar.nt)


def test_array_counts_equal_scalar_counts_for_every_kind(optimizer):
    """``operator_counts`` over arrays is the scalar call per element."""
    rng = np.random.default_rng(9)
    n_left, n_right, m_out = rng.uniform(0.0, 5e5, (3, 25))
    model = CostModel(optimizer.plan_sql(EDGE_SQLS[0]).database)
    kinds = set()
    for sql in EDGE_SQLS + (
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey",
        "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000",
    ):
        for node in optimizer.plan_sql(sql).root.walk():
            kinds.add(node.kind)
            vector = model.operator_counts(node, n_left, n_right, m_out).as_dict()
            for index in range(len(n_left)):
                scalar = model.operator_counts(
                    node, float(n_left[index]), float(n_right[index]), float(m_out[index])
                ).as_dict()
                for unit, value in scalar.items():
                    got = np.broadcast_to(vector[unit], n_left.shape)[index]
                    assert struct.pack("<d", got) == struct.pack("<d", value)
    assert {OpKind.LIMIT, OpKind.SORT, OpKind.AGGREGATE, OpKind.HASH_JOIN} <= kinds


# ---------------------------------------------------------------------------
# the NNLS memo


def _memo_pool(optimizer):
    rng = np.random.default_rng(31)
    return [
        optimizer.plan_sql(template.instantiate(rng))
        for template in TPCH_TEMPLATES
    ] + [optimizer.plan_sql(sql) for sql in EDGE_SQLS]


def test_memo_hit_equals_cold_fit(optimizer, small_sample_db):
    memo = ByteBudgetLRU(FIT_MEMO_BYTES)
    for planned in _memo_pool(optimizer):
        estimate = SelectivityEstimator(small_sample_db, planned).estimate()
        cold = fit_signature(CostFunctionFitter(planned, estimate).fit_all())
        first = CostFunctionFitter(planned, estimate, memo=memo).fit_all()
        misses = memo.stats.misses
        second = CostFunctionFitter(planned, estimate, memo=memo).fit_all()
        assert memo.stats.misses == misses  # the refit is all hits
        assert fit_signature(first) == cold
        assert fit_signature(second) == cold
    assert memo.stats.hits > 0 and memo.stats.evictions == 0


def test_memo_entries_are_shared_and_read_only(optimizer, small_sample_db):
    memo = ByteBudgetLRU(FIT_MEMO_BYTES)
    planned = optimizer.plan_sql(
        "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey"
    )
    estimate = SelectivityEstimator(small_sample_db, planned).estimate()
    first = CostFunctionFitter(planned, estimate, memo=memo).fit_all()
    second = CostFunctionFitter(planned, estimate, memo=memo).fit_all()
    for op_id, functions in second.items():
        for unit, function in functions.functions.items():
            coefficients = function.coefficients
            if function.family.variables:  # C1 constants bypass the memo
                assert coefficients is first[op_id].functions[unit].coefficients
            assert not coefficients.flags.writeable
            with pytest.raises(ValueError):
                coefficients[0] = -1.0


def test_cold_coefficients_are_read_only_too(optimizer, small_sample_db):
    planned = optimizer.plan_sql(EDGE_SQLS[0])
    estimate = SelectivityEstimator(small_sample_db, planned).estimate()
    fitted = CostFunctionFitter(planned, estimate).fit_all()
    arrays = [
        function.coefficients
        for functions in fitted.values()
        for function in functions.functions.values()
    ]
    assert arrays and not any(array.flags.writeable for array in arrays)


def test_service_prepares_through_its_memo_bitwise(tpch_db, calibrated_units):
    """Served fits (memo on) equal cold library fits (memo off)."""
    service = PredictionService(
        tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
    )
    rng = np.random.default_rng(47)
    for _ in range(2):
        for template in TPCH_TEMPLATES:
            planned = service.plan(template.instantiate(rng))
            served, _ = service.prepare(planned)
            cold = CostFunctionFitter(planned, served.estimate).fit_all()
            assert fit_signature(served.fitted) == fit_signature(cold)
    assert service._fit_memo.stats.hits > 0


# ---------------------------------------------------------------------------
# the invariant per-operator fitting rests on


@pytest.mark.parametrize("kind", list(FAMILY_BY_KIND), ids=lambda kind: kind.name)
def test_units_of_an_operator_share_its_variables(kind):
    variables = {family.variables for family in FAMILY_BY_KIND[kind].values()}
    assert len(variables) <= 1


def test_constant_fast_path_equals_nnls(optimizer, small_sample_db):
    """C1 at one grid point skips NNLS; its answer is NNLS's, bitwise."""
    from repro.costfuncs import nnls

    planned = optimizer.plan_sql("SELECT * FROM region")
    fitter = CostFunctionFitter(
        planned, SelectivityEstimator(small_sample_db, planned).estimate()
    )
    design = np.ones((1, 1))
    constants = 10 ** np.random.default_rng(8).uniform(-7.9, 12.0, 2_000)
    for constant in constants.tolist() + [1.0, 3.0, 1e-8 * 1.5]:
        y = np.array([constant])
        coefficients, residual = fitter._solve(design, y)
        expected, expected_residual = nnls(design, y)
        assert coefficients.tobytes() == expected.tobytes()
        assert struct.pack("<d", residual) == struct.pack("<d", expected_residual)
