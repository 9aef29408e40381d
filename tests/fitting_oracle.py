"""The scalar reference fitter: the differential-test oracle.

This is the cost-function fitter as it was before fitting moved to one
array pass per operator (``repro.costfuncs.fitting``): for every
(operator, unit, grid point) it asks the engine's cost model for one
scalar count, builds the design matrix row by row, and solves one NNLS
problem per unit. It is kept here, outside ``src/``, only as the
oracle that production fits must match bit for bit
(``tests/test_fitting_differential.py``); ``benchmarks/
bench_predictor_latency.py`` loads this file by path to time it.
"""

from __future__ import annotations

import numpy as np

from repro.costfuncs.families import family_for
from repro.costfuncs.fitting import (
    DEFAULT_GRID_W,
    MIN_RELATIVE_SPREAD,
    FittedCostFunction,
    OperatorCostFunctions,
)
from repro.costfuncs.nnls import nnls
from repro.errors import FittingError
from repro.optimizer.cost_model import COST_UNIT_NAMES, CostModel


class ScalarCostFunctionFitter:
    """Fits C1..C6 coefficients one (operator, unit, grid point) at a time."""

    def __init__(self, planned, estimate, grid_w: int = DEFAULT_GRID_W):
        self._planned = planned
        self._estimate = estimate
        self._cost_model = CostModel(planned.database)
        self._grid_w = grid_w

    def fit_all(self) -> dict[int, OperatorCostFunctions]:
        result: dict[int, OperatorCostFunctions] = {}
        for node in self._planned.root.walk():
            functions: dict[str, FittedCostFunction] = {}
            for unit in COST_UNIT_NAMES:
                fitted = self._fit_one(node, unit)
                if fitted is not None:
                    functions[unit] = fitted
            result[node.op_id] = OperatorCostFunctions(node.op_id, functions)
        return result

    def _fit_one(self, node, unit: str) -> FittedCostFunction | None:
        family = family_for(node.kind, unit)
        if family is None:
            return None
        bindings = self._bind_variables(node, family)
        grids = {
            var: self._grid_points(bindings[var]) for var in family.variables
        }
        points = self._grid_product(family.variables, grids)

        rows = []
        targets = []
        for values in points:
            rows.append(family.design_row(values))
            targets.append(self._invoke_cost_model(node, unit, values))
        design = np.asarray(rows)
        y = np.asarray(targets)
        if np.allclose(y, 0.0):
            return None
        coefficients, residual = nnls(design, y)
        return FittedCostFunction(
            unit=unit,
            family=family,
            coefficients=coefficients,
            var_bindings=bindings,
            fit_residual=residual,
        )

    def _bind_variables(self, node, family) -> dict[str, int]:
        bindings: dict[str, int] = {}
        for var in family.variables:
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
        selectivity = self._estimate.per_node[var_id]
        mean = selectivity.mean
        spread = max(3.0 * selectivity.std, MIN_RELATIVE_SPREAD * max(mean, 1e-9))
        low = max(mean - spread, 0.0)
        high = min(mean + spread, 1.0)
        if high <= low:
            high = min(low + 1e-9, 1.0)
        return np.linspace(low, high, self._grid_w + 1)

    @staticmethod
    def _grid_product(variables, grids) -> list[dict[str, float]]:
        if not variables:
            return [{}]
        if len(variables) == 1:
            var = variables[0]
            return [{var: float(v)} for v in grids[var]]
        first, second = variables
        return [
            {first: float(a), second: float(b)}
            for a in grids[first]
            for b in grids[second]
        ]

    def _invoke_cost_model(self, node, unit: str, values: dict[str, float]) -> float:
        """Ask the engine for the unit's count at candidate selectivities."""
        n_left = 0.0
        n_right = 0.0
        m_out = self._planned.est_cards[node.op_id]
        if node.children:
            left = node.children[0]
            xl = values.get("xl")
            n_left = (
                self._planned.leaf_row_product(left) * xl
                if xl is not None
                else self._planned.est_cards[left.op_id]
            )
        if len(node.children) > 1:
            right = node.children[1]
            xr = values.get("xr")
            n_right = (
                self._planned.leaf_row_product(right) * xr
                if xr is not None
                else self._planned.est_cards[right.op_id]
            )
        if "x" in values:
            m_out = self._planned.leaf_row_product(node) * values["x"]
        counts = self._cost_model.operator_counts(node, n_left, n_right, m_out)
        return counts.as_dict()[unit]
