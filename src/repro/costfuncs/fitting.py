"""Cost-function fitting (Section 4.2).

For every operator the fitter invokes the engine's cost model on a grid
of candidate selectivities drawn from ``[mu - 3 sigma, mu + 3 sigma]``
(clipped to [0, 1]) and, per cost unit, solves the nonnegative
least-squares problem for the family's coefficients. The result is a
polynomial in the plan's selectivity *variables* — identified by the
op_id of the operator whose selectivity they are — ready for the moment
computations of Section 5.

All units of an operator share its family variables, so the grid is
built once per operator and the cost model evaluates every unit's count
over the whole grid in one array call. An optional NNLS memo (a
:class:`~repro.caching.ByteBudgetLRU`) returns the solution of a
(design, target) problem already solved; identical input bytes give an
identical solution, so a memo hit is bitwise a cold fit.

The fits are bit-identical to evaluating the cost model one grid point
at a time. The one value that needs care is the C4 ``xl**2`` column:
numpy's square and libm ``pow`` disagree in the last bit for some
inputs, so powers above 1 are taken with Python ``**`` per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..caching import ByteBudgetLRU
from ..errors import FittingError
from ..optimizer.cost_model import COST_UNIT_NAMES, CostModel, ResourceCounts
from ..optimizer.optimizer import PlannedQuery
from ..plan.physical import PlanNode
from ..sampling.estimator import SamplingEstimate
from .families import FAMILY_BY_KIND, CostFunctionFamily
from .nnls import nnls

__all__ = [
    "FIT_MEMO_BYTES",
    "FittedCostFunction",
    "OperatorCostFunctions",
    "CostFunctionFitter",
]

#: Number of subintervals W: the grid has W+1 points per variable.
DEFAULT_GRID_W = 6
#: Minimum half-width of the grid interval, relative to the mean, used when
#: the estimated sigma is (near) zero so the regression stays conditioned.
MIN_RELATIVE_SPREAD = 0.05
#: Byte budget of a serving process's NNLS memo (see
#: :class:`CostFunctionFitter`). A 433-query ad-hoc TPC-H sequence
#: leaves ~1.9 MiB of distinct problems in it.
FIT_MEMO_BYTES = 4 << 20
#: Targets this close to zero everywhere mean the unit is unused (the
#: absolute tolerance of ``np.allclose``).
_ZERO_ATOL = 1e-8
#: Bytes charged per memo entry on top of its arrays (key tuple, bytes
#: headers, the result tuple and ndarray object).
_MEMO_ENTRY_OVERHEAD = 512


@dataclass(frozen=True)
class FittedCostFunction:
    """One fitted polynomial: unit, family, coefficients, var bindings."""

    unit: str
    family: CostFunctionFamily
    coefficients: np.ndarray
    #: family variable name ("x"/"xl"/"xr") -> selectivity variable id
    var_bindings: dict[str, int]
    fit_residual: float = 0.0

    def monomials(self) -> list[tuple[float, dict[int, int]]]:
        """(coefficient, {var_id: exponent}) terms, in family order."""
        return [
            (
                coefficient,
                {self.var_bindings[var]: exponent for var, exponent in term.items()},
            )
            for coefficient, term in zip(
                self.coefficients.tolist(), self.family.terms
            )
        ]

    def evaluate(self, var_values: dict[int, float]) -> float:
        """f at concrete selectivity values (keyed by variable id)."""
        return sum(
            math.prod(
                [coefficient]
                + [var_values[var_id] ** exponent for var_id, exponent in monomial.items()]
            )
            for coefficient, monomial in self.monomials()
        )


@dataclass
class OperatorCostFunctions:
    """All fitted per-unit cost functions of one operator."""

    op_id: int
    functions: dict[str, FittedCostFunction]

    def units(self) -> list[str]:
        return list(self.functions)


class CostFunctionFitter:
    """Fits C1..C6 coefficients for every operator of a plan.

    ``memo`` optionally memoizes NNLS solutions across fitters (a
    serving process passes one shared, bounded memo; library calls
    leave it None and always fit cold). Coefficient arrays are
    read-only, because a memoized array is shared by every prediction
    that hit it.
    """

    def __init__(
        self,
        planned: PlannedQuery,
        estimate: SamplingEstimate,
        grid_w: int = DEFAULT_GRID_W,
        memo: ByteBudgetLRU | None = None,
    ):
        self._planned = planned
        self._estimate = estimate
        self._cost_model = CostModel(planned.database)
        self._grid_w = grid_w
        self._memo = memo

    # ------------------------------------------------------------------
    def fit_all(self) -> dict[int, OperatorCostFunctions]:
        return {
            node.op_id: OperatorCostFunctions(node.op_id, self._fit_operator(node))
            for node in self._planned.root.walk()
        }

    # ------------------------------------------------------------------
    def _fit_operator(self, node: PlanNode) -> dict[str, FittedCostFunction]:
        """Every unit's fit of one operator over one shared grid."""
        families = FAMILY_BY_KIND.get(node.kind)
        if not families:
            return {}
        variables = next(iter(families.values())).variables
        bindings = self._bind_variables(node, variables)
        grid, num_points = self._grid(variables, bindings)
        counts = self._counts(node, grid).as_dict()
        designs: dict[str, np.ndarray] = {}
        functions: dict[str, FittedCostFunction] = {}
        for unit in COST_UNIT_NAMES:
            family = families.get(unit)
            if family is None:
                continue
            y = counts[unit]
            if not isinstance(y, np.ndarray):
                y = np.full(num_points, y, dtype=np.float64)
            if np.abs(y).max() <= _ZERO_ATOL:
                continue  # np.allclose(y, 0.0), without its overhead
            if family.name not in designs:
                designs[family.name] = _design_matrix(family, grid, num_points)
            coefficients, residual = self._solve(designs[family.name], y)
            functions[unit] = FittedCostFunction(
                unit=unit,
                family=family,
                coefficients=coefficients,
                var_bindings=bindings,
                fit_residual=residual,
            )
        return functions

    def _bind_variables(self, node: PlanNode, variables) -> dict[str, int]:
        bindings: dict[str, int] = {}
        for var in variables:
            if var == "x":
                bindings[var] = self._estimate.resolve(node.op_id).op_id
            elif var == "xl":
                bindings[var] = self._estimate.resolve(node.children[0].op_id).op_id
            elif var == "xr":
                bindings[var] = self._estimate.resolve(node.children[1].op_id).op_id
            else:
                raise FittingError(f"unknown family variable: {var}")
        return bindings

    def _grid_points(self, var_id: int) -> np.ndarray:
        """W+1 grid points over [mu - 3 sigma, mu + 3 sigma] ∩ [0, 1]."""
        selectivity = self._estimate.per_node[var_id]
        mean = selectivity.mean
        spread = max(3.0 * selectivity.std, MIN_RELATIVE_SPREAD * max(mean, 1e-9))
        low = max(mean - spread, 0.0)
        high = min(mean + spread, 1.0)
        if high <= low:
            high = min(low + 1e-9, 1.0)
        return np.linspace(low, high, self._grid_w + 1)

    def _grid(self, variables, bindings) -> tuple[dict[str, np.ndarray], int]:
        """The grid product as one array per variable, plus its length.

        Two variables form the full product with the first varying
        slowest, the row order of the regression.
        """
        if not variables:
            return {}, 1
        if len(variables) == 1:
            (var,) = variables
            points = self._grid_points(bindings[var])
            return {var: points}, len(points)
        first, second = variables
        outer = self._grid_points(bindings[first])
        inner = self._grid_points(bindings[second])
        grid = {
            first: np.repeat(outer, len(inner)),
            second: np.tile(inner, len(outer)),
        }
        return grid, len(outer) * len(inner)

    def _counts(self, node: PlanNode, grid: dict[str, np.ndarray]) -> ResourceCounts:
        """The engine's resource counts at every grid point, in one call."""
        planned = self._planned
        n_left = 0.0
        n_right = 0.0
        m_out = planned.est_cards[node.op_id]
        if node.children:
            left = node.children[0]
            n_left = (
                planned.leaf_row_product(left) * grid["xl"]
                if "xl" in grid
                else planned.est_cards[left.op_id]
            )
        if len(node.children) > 1:
            right = node.children[1]
            n_right = (
                planned.leaf_row_product(right) * grid["xr"]
                if "xr" in grid
                else planned.est_cards[right.op_id]
            )
        if "x" in grid:
            m_out = planned.leaf_row_product(node) * grid["x"]
        return self._cost_model.operator_counts(node, n_left, n_right, m_out)

    def _solve(self, design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
        """NNLS through the memo, keyed by the problem's exact bytes."""
        if design.shape == (1, 1) and design[0, 0] == 1.0 and y[0] > _ZERO_ATOL:
            # The constant family C1 at its single grid point: NNLS
            # frees the one coefficient, lstsq on [[1.0]] returns y
            # exactly and the residual is 0.0 — about half of all fits.
            return _read_only(y.copy()), 0.0
        if self._memo is None:
            return _frozen_nnls(design, y)
        key = (design.shape, design.tobytes(), y.tobytes())
        solution = self._memo.get(key)
        if solution is None:
            solution = _frozen_nnls(design, y)
            nbytes = (
                design.nbytes + y.nbytes + solution[0].nbytes + _MEMO_ENTRY_OVERHEAD
            )
            self._memo.put(key, solution, nbytes)
        return solution


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _frozen_nnls(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    coefficients, residual = nnls(design, y)
    return _read_only(coefficients), residual


def _design_matrix(
    family: CostFunctionFamily, grid: dict[str, np.ndarray], num_points: int
) -> np.ndarray:
    """The family's regression matrix over the grid, built column-wise.

    Each column multiplies its term's factors onto 1.0 in term order,
    exactly as a per-point product would; powers above 1 go through
    Python ``**`` (libm ``pow``) per element, never numpy's square.
    """
    design = np.empty((num_points, family.num_coefficients))
    for column, term in enumerate(family.terms):
        design[:, column] = 1.0
        for var, exponent in term.items():
            design[:, column] *= (
                grid[var]
                if exponent == 1
                else np.array([value**exponent for value in grid[var].tolist()])
            )
    return design
