"""Evaluation history and cost accounting for optimization runs.

The paper reports budgets and results in *equivalent high-fidelity
simulations* (e.g. Table 1: "252 coarse and 46 fine data ... equivalent
to the simulation time of 59 high-fidelity data"); :class:`History` is the
single source of truth for that accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..problems.base import Evaluation

__all__ = ["Record", "History"]


@dataclass(frozen=True)
class Record:
    """One evaluated design point."""

    x_unit: np.ndarray
    evaluation: Evaluation
    iteration: int

    @property
    def fidelity(self) -> str:
        return self.evaluation.fidelity

    @property
    def objective(self) -> float:
        return self.evaluation.objective

    @property
    def feasible(self) -> bool:
        return self.evaluation.feasible

    def to_dict(self) -> dict:
        """JSON-serializable payload (see :meth:`Evaluation.to_dict`)."""
        return {
            "x_unit": [float(v) for v in self.x_unit],
            "evaluation": self.evaluation.to_dict(),
            "iteration": int(self.iteration),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Record":
        return cls(
            x_unit=np.asarray(payload["x_unit"], dtype=float),
            evaluation=Evaluation.from_dict(payload["evaluation"]),
            iteration=int(payload["iteration"]),
        )


class History:
    """Ordered log of all evaluations of one optimization run."""

    def __init__(self) -> None:
        self.records: list[Record] = []
        self._x_stack: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.records)

    def add(
        self, x_unit: np.ndarray, evaluation: Evaluation, iteration: int = -1
    ) -> Record:
        """Append one evaluation (unit-cube coordinates)."""
        record = Record(
            x_unit=np.asarray(x_unit, dtype=float).ravel().copy(),
            evaluation=evaluation,
            iteration=int(iteration),
        )
        self._append_to_stack(record.x_unit)
        self.records.append(record)
        return record

    def _append_to_stack(self, x_unit: np.ndarray) -> None:
        """Grow the cached ``(n, d)`` design matrix by one row, doubling
        capacity amortized-O(1) instead of re-stacking every record.

        Called *before* the record joins ``self.records`` so a
        dimensionality error leaves the history unchanged.
        """
        n = len(self.records) + 1
        if self._x_stack is None:
            self._x_stack = np.empty((16, x_unit.size))
        elif x_unit.size != self._x_stack.shape[1]:
            raise ValueError(
                f"design dimensionality changed from {self._x_stack.shape[1]} "
                f"to {x_unit.size}"
            )
        elif n > self._x_stack.shape[0]:
            grown = np.empty((2 * self._x_stack.shape[0], x_unit.size))
            grown[: n - 1] = self._x_stack[: n - 1]
            self._x_stack = grown
        self._x_stack[n - 1] = x_unit

    @property
    def x_unit_matrix(self) -> np.ndarray:
        """All evaluated designs as one ``(n, d)`` read-only view.

        Maintained incrementally on :meth:`add`, so per-iteration
        consumers (e.g. duplicate detection in the BO loop) avoid an
        O(n) re-stack of the whole history.
        """
        if not self.records:
            raise ValueError("history is empty")
        assert self._x_stack is not None  # maintained by add()
        view = self._x_stack[: len(self.records)]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def records_at(self, fidelity: str) -> list[Record]:
        return [r for r in self.records if r.fidelity == fidelity]

    def n_evaluations(self, fidelity: str | None = None) -> int:
        if fidelity is None:
            return len(self.records)
        return len(self.records_at(fidelity))

    def data(self, fidelity: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Training arrays at one fidelity.

        Returns ``(x_unit, objectives, constraints)`` with shapes
        ``(n, d)``, ``(n,)`` and ``(n, n_constraints)``.
        """
        records = self.records_at(fidelity)
        if not records:
            raise ValueError(f"no evaluations at fidelity {fidelity!r}")
        x = np.vstack([r.x_unit for r in records])
        y = np.array([r.objective for r in records])
        constraints = np.vstack(
            [r.evaluation.constraints for r in records]
        ) if records[0].evaluation.constraints.size else np.empty((len(records), 0))
        return x, y, constraints

    def outputs(self, fidelity: str) -> tuple[np.ndarray, list[np.ndarray]]:
        """Training inputs and one target per output at one fidelity.

        The targets are the objective followed by each constraint
        column — the output order of every per-output surrogate.
        """
        x, y, constraints = self.data(fidelity)
        return x, [y] + [constraints[:, i] for i in range(constraints.shape[1])]

    @property
    def total_cost(self) -> float:
        """Accumulated cost in equivalent high-fidelity simulations."""
        return float(sum(r.evaluation.cost for r in self.records))

    # ------------------------------------------------------------------
    # incumbents
    # ------------------------------------------------------------------
    def best_feasible(self, fidelity: str) -> Record | None:
        """Feasible record with the smallest objective at ``fidelity``."""
        feasible = [r for r in self.records_at(fidelity) if r.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda r: r.objective)

    def best_by_violation(self, fidelity: str) -> Record | None:
        """Least-violating record at ``fidelity`` (fallback incumbent)."""
        records = self.records_at(fidelity)
        if not records:
            return None
        return min(
            records,
            key=lambda r: (r.evaluation.total_violation, r.objective),
        )

    def incumbent(self, fidelity: str) -> Record | None:
        """Best feasible record, else the least-violating one."""
        best = self.best_feasible(fidelity)
        return best if best is not None else self.best_by_violation(fidelity)

    # ------------------------------------------------------------------
    # serialization (checkpoint format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable payload that round-trips via :meth:`from_dict`."""
        return {"records": [record.to_dict() for record in self.records]}

    @classmethod
    def from_dict(cls, payload: dict) -> "History":
        """Rebuild a history (including the cached design matrix)."""
        history = cls()
        for entry in payload["records"]:
            record = Record.from_dict(entry)
            history.add(record.x_unit, record.evaluation, record.iteration)
        return history

    def objective_trace(self, fidelity: str) -> np.ndarray:
        """Running best feasible objective vs cumulative cost.

        Returns an array of shape ``(n, 2)`` with columns
        ``(cumulative_cost, best_feasible_objective_so_far)``; infeasible
        prefixes carry ``np.inf``.
        """
        rows, best, cost = [], np.inf, 0.0
        for record in self.records:
            cost += record.evaluation.cost
            if record.fidelity == fidelity and record.feasible:
                best = min(best, record.objective)
            rows.append((cost, best))
        return np.array(rows) if rows else np.empty((0, 2))
