"""WEIBO — single-fidelity GP Bayesian optimization with weighted EI.

The state-of-the-art baseline the paper compares against (Lyu et al.,
TCAS-I 2018, ref. [17]): a plain GP surrogate per output, the weighted
Expected Improvement acquisition (eq. 6), and a multiple-starting-point
acquisition search. All simulations run at the highest fidelity.

Implements the ask/tell :class:`repro.session.Strategy` protocol:
``suggest``/``observe`` drive the loop, ``run()`` is the legacy blocking
wrapper. ``suggest(k > 1)`` produces distinct batch candidates via
kriging-believer fantasization (each picked point is added to the
surrogates with its posterior-mean outcome before the next search).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..acquisition.functions import wei_or_violation
from ..core.history import History
from ..core.strategy import StrategyBase
from ..design.sampling import maximin_latin_hypercube
from ..gp.gpr import GPR
from ..optim.msp import MSPOptimizer
from ..problems.base import Problem
from ..session.protocol import Suggestion

__all__ = ["WEIBO"]


class WEIBO(StrategyBase):
    """Single-fidelity constrained BO baseline.

    Parameters
    ----------
    problem:
        Any :class:`repro.problems.Problem`; only its highest fidelity is
        used.
    budget:
        Number of (high-fidelity) simulations, including the initial
        design — matching the paper's protocol ("WEIBO is initialized
        with 40 high-fidelity data points and limited with 150
        simulations").
    n_init:
        Initial Latin-hypercube design size.
    """

    algorithm_name = "WEIBO"
    strategy_id = "weibo"
    rng_stream_names = ("init", "gp", "acq", "dedup")

    def __init__(
        self,
        problem: Problem,
        *,
        budget: int = 150,
        n_init: int = 40,
        n_restarts: int = 2,
        gp_max_opt_iter: int = 100,
        msp_starts: int = 100,
        msp_polish: int = 3,
        ball_stddev: float = 0.03,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ):
        if budget < n_init:
            raise ValueError("budget must cover the initial design")
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        self.budget = int(budget)
        self.n_init = int(n_init)
        self.n_restarts = int(n_restarts)
        self.gp_max_opt_iter = int(gp_max_opt_iter)
        self.msp_starts = int(msp_starts)
        self.msp_polish = int(msp_polish)
        self.ball_stddev = float(ball_stddev)
        self._setup_base(problem, seed, rng, callback)
        self.acq_optimizer = MSPOptimizer(
            dim=problem.dim,
            n_starts=msp_starts,
            n_polish=msp_polish,
            frac_around_low=0.0,
            frac_around_high=0.40,
            ball_stddev=ball_stddev,
            rng=self._rng_streams["acq"],
        )
        self._fidelity = problem.highest_fidelity

    # ------------------------------------------------------------------
    def _fit_models(self) -> list[GPR]:
        x, targets = self.history.outputs(self._fidelity)
        return [
            GPR(max_opt_iter=self.gp_max_opt_iter).fit(
                x, t, n_restarts=self.n_restarts, rng=self._rng_streams["gp"]
            )
            for t in targets
        ]

    # ------------------------------------------------------------------
    # ask/tell hooks
    # ------------------------------------------------------------------
    def _initial_suggestions(self) -> list[Suggestion]:
        design = maximin_latin_hypercube(
            self.n_init, self.problem.dim, self._rng_streams["init"]
        )
        return [Suggestion(u, self._fidelity) for u in design]

    def _refill(self, k: int) -> None:
        remaining = self.budget - self.history.n_evaluations(self._fidelity)
        m = min(k, remaining)
        if m <= 0:
            return
        self._iteration += 1
        models = self._fit_models()
        feasible = self.history.best_feasible(self._fidelity)
        # The models are extended in place below, so one acquisition
        # serves the whole batch.
        acquisition = wei_or_violation(
            [gp.predict for gp in models],
            None if feasible is None else feasible.objective,
        )
        incumbent = self.history.incumbent(self._fidelity)
        avoid: list[np.ndarray] = []
        for j in range(m):
            result = self.acq_optimizer.maximize(
                acquisition,
                incumbent_high=None if incumbent is None else incumbent.x_unit,
            )
            x_next = self._dedup(result.x, avoid=avoid)
            self._queue.append(Suggestion(x_next, self._fidelity))
            avoid.append(x_next)
            if j < m - 1:
                # Kriging believer: pretend the posterior mean was
                # observed so the next batch member explores elsewhere.
                # The polluted surrogates are local to this refill; the
                # next one refits from real data.
                x2 = x_next[None, :]
                for gp in models:
                    gp.add_points(x2, gp.predict_mean(x2))

    def _done(self) -> bool:
        return self.history.n_evaluations(self._fidelity) >= self.budget

    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {
            "budget": self.budget,
            "n_init": self.n_init,
            "n_restarts": self.n_restarts,
            "gp_max_opt_iter": self.gp_max_opt_iter,
            "msp_starts": self.msp_starts,
            "msp_polish": self.msp_polish,
            "ball_stddev": self.ball_stddev,
        }
