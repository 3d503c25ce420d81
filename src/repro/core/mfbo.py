"""The proposed multi-fidelity Bayesian optimizer — paper Algorithm 1.

Per iteration:

1. fit one low-fidelity GP per output (objective + each constraint) on
   the coarse data;
2. fit one fused NARGP per output on the fine data, reusing the low GPs;
3. maximize the **low-fidelity** wEI acquisition with the MSP strategy
   to obtain ``x_l*``;
4. maximize the **fused** wEI acquisition (Monte-Carlo posterior with
   common random numbers) seeded with ``x_l*`` to obtain the query
   ``x_t``;
5. pick the evaluation fidelity with the eq. 11/12 criterion
   (:class:`repro.core.FidelitySelector`);
6. simulate, log the cost, repeat until the equivalent-high-fidelity
   budget is exhausted.

If no feasible point is known at a fidelity level, the corresponding
acquisition switches to the first-feasible-point search of §4.2
(minimizing predicted total constraint violation, eq. 13).

The optimizer is an **ask/tell strategy** (:mod:`repro.session`): steps
1-5 live in :meth:`MFBOptimizer.suggest`, step 6 is the caller's —
:meth:`MFBOptimizer.observe` feeds the result back. :meth:`run` is the
legacy blocking loop, now a thin driver over an
:class:`repro.session.OptimizationSession` with a serial evaluator.
``suggest(k)`` with ``k > 1`` produces a *batch* of distinct candidates
via constant-liar fantasization: each picked candidate is temporarily
added to copies of the models with its posterior-mean ("kriging
believer") outcome before the next one is searched, so a parallel
evaluator can simulate the whole batch at once.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, NamedTuple

import numpy as np

from ..acquisition.functions import Predictor, wei_or_violation
from ..design.sampling import maximin_latin_hypercube
from ..gp.gpr import GPR
from ..mf.ar1 import AR1
from ..mf.nargp import NARGP
from ..mf.pairs import fit_output_pairs
from ..optim.msp import MSPOptimizer
from ..problems.base import FIDELITY_HIGH, FIDELITY_LOW, Problem
from ..session.protocol import Suggestion
from .fidelity import FidelitySelector
from .history import History
from .strategy import StrategyBase

__all__ = ["MFBOptimizer"]

#: ``propose(j, avoid) -> (x, acquisition value, low models)``, one batch
#: member's search; the low models drive its eq. 11/12 fidelity choice
_Proposer = Callable[[int, list[np.ndarray]], tuple[np.ndarray, float, list]]


class _AheadFit(NamedTuple):
    """A surrogate fitted before the refill that will adopt it."""

    key: tuple[int, int]  # (history length, refill iteration)
    models: tuple[list[GPR], list]
    gp_rng: np.random.Generator  # the "gp" stream as the fit left it
    seconds: float


class _TwoFidelityBO(StrategyBase):
    """The Algorithm-1 loop shared by the single- and multi-objective BO.

    Owns the two-fidelity initial design, the fused-model factory, the
    MSP low-then-fused acquisition search, the eq. 11/12 fidelity choice
    under the cost budget and the per-iteration telemetry. A subclass
    fits its surrogates and builds its acquisitions in ``_refill``, then
    hands the batch to :meth:`_fill_queue`.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        budget: float,
        n_init_low: int,
        n_init_high: int,
        gamma: float,
        n_mc_samples: int,
        n_restarts: int,
        msp_starts: int,
        msp_polish: int,
        ball_stddev: float,
        fusion: str,
        gp_max_opt_iter: int,
        max_iterations: int,
        seed: int | None,
        rng: np.random.Generator | None,
        callback: Callable[[int, History], None] | None,
    ) -> None:
        if len(problem.fidelities) != 2:
            raise ValueError(
                f"{type(self).__name__} needs a two-fidelity problem; got "
                f"{problem.fidelities}"
            )
        if budget <= 0:
            raise ValueError("budget must be positive")
        if n_init_low < 1 or n_init_high < 1:
            raise ValueError("initial designs need at least one point each")
        if fusion not in ("nargp", "ar1"):
            raise ValueError("fusion must be 'nargp' or 'ar1'")
        self.budget = float(budget)
        self.n_init_low = int(n_init_low)
        self.n_init_high = int(n_init_high)
        self.n_mc_samples = int(n_mc_samples)
        self.n_restarts = int(n_restarts)
        self.msp_starts = int(msp_starts)
        self.msp_polish = int(msp_polish)
        self.ball_stddev = float(ball_stddev)
        self.fusion = fusion
        self.gp_max_opt_iter = int(gp_max_opt_iter)
        self.max_iterations = int(max_iterations)
        self._setup_base(problem, seed, rng, callback)
        self.selector = FidelitySelector(gamma=gamma)
        self.acq_optimizer = MSPOptimizer(
            dim=problem.dim,
            n_starts=msp_starts,
            n_polish=msp_polish,
            frac_around_low=0.10,
            frac_around_high=0.40,
            ball_stddev=ball_stddev,
            rng=self._rng_streams["acq"],
        )

    def _initial_suggestions(self) -> list[Suggestion]:
        rng = self._rng_streams["init"]
        init_low = maximin_latin_hypercube(
            self.n_init_low, self.problem.dim, rng
        )
        init_high = maximin_latin_hypercube(
            self.n_init_high, self.problem.dim, rng
        )
        return [Suggestion(u, FIDELITY_LOW) for u in init_low] + [
            Suggestion(u, FIDELITY_HIGH) for u in init_high
        ]

    def _new_fused(self) -> NARGP | AR1:
        """An unfitted fused model of the configured kind."""
        if self.fusion == "nargp":
            return NARGP(
                n_mc_samples=self.n_mc_samples,
                n_restarts=self.n_restarts,
                max_opt_iter=self.gp_max_opt_iter,
            )
        return AR1(n_restarts=self.n_restarts)

    def _fit_pairs(
        self,
        x_low: np.ndarray,
        targets_low: list[np.ndarray],
        x_high: np.ndarray,
        targets_high: list[np.ndarray],
        rng: np.random.Generator,
    ) -> tuple[list[GPR], list]:
        """One (low GP, fused model) pair per target, restarts from ``rng``."""
        return fit_output_pairs(
            x_low, targets_low, x_high, targets_high, self._new_fused,
            n_restarts=self.n_restarts, max_opt_iter=self.gp_max_opt_iter,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # suggestion (Algorithm 1, lines 5-7)
    # ------------------------------------------------------------------
    def _two_stage_search(
        self,
        low_acq: Callable[[np.ndarray], np.ndarray],
        high_acq: Callable[[np.ndarray], np.ndarray],
        incumbent_low: np.ndarray | None,
        incumbent_high: np.ndarray | None,
        avoid: list[np.ndarray],
    ) -> tuple[np.ndarray, float]:
        """MSP search of the low acquisition for ``x_l*`` (l.5), then of
        the fused one with ``x_l*`` as an extra start (l.6).

        Returns the deduplicated candidate and the fused acquisition
        value at the (pre-dedup) optimum — the latter feeds telemetry
        only, never the trajectory.
        """
        low_result = self.acq_optimizer.maximize(
            low_acq, incumbent_low=incumbent_low, incumbent_high=incumbent_high
        )
        high_result = self.acq_optimizer.maximize(
            high_acq,
            incumbent_low=incumbent_low,
            incumbent_high=incumbent_high,
            extra_starts=low_result.x,
        )
        return self._dedup(high_result.x, avoid=avoid), float(high_result.value)

    def _fill_queue(
        self,
        k: int,
        fit_seconds: float,
        propose: _Proposer,
        believe: Callable[[np.ndarray, str], None] | None = None,
    ) -> None:
        """Queue up to ``k`` batch members within the budget.

        ``propose`` searches each member away from the points in its
        ``avoid`` list: the suggestions still in flight on an
        asynchronous evaluator, then the members already picked. Each
        pick gets the eq. 11/12 fidelity; when that no longer fits the
        budget the remainder goes to a coarse simulation instead of
        overshooting, and when not even that fits the run stops, so the
        reported cost respects the equivalent-cost budget the tables are
        keyed on. ``believe(x, fidelity)`` tells the surrogate a
        constant-liar outcome for every in-flight suggestion and every
        pick but the last, so the next search explores elsewhere.
        """
        propose_start = time.perf_counter()
        projected = self.history.total_cost + self.pending_cost
        avoid: list[np.ndarray] = []
        for s in self._pending:
            x_pending = np.asarray(s.x_unit, dtype=float).ravel()
            if believe is not None:
                believe(x_pending, s.fidelity)
            avoid.append(x_pending)
        chosen: list[str] = []
        first_acq: float | None = None
        for j in range(k):
            x_next, acq_value, low_models = propose(j, avoid)
            if j == 0:
                first_acq = acq_value
            fidelity = self.selector.select(x_next, low_models)
            remaining = self.budget - projected
            if self.problem.cost(fidelity) > remaining + 1e-9:
                if self.problem.cost(FIDELITY_LOW) <= remaining + 1e-9:
                    fidelity = FIDELITY_LOW
                else:
                    self._stopped = True
                    break
            self._queue.append(Suggestion(x_next, fidelity))
            chosen.append(fidelity)
            avoid.append(x_next)
            projected += self.problem.cost(fidelity)
            if j < k - 1 and believe is not None:
                believe(x_next, fidelity)
        self._emit_telemetry(
            "iteration",
            fit_s=fit_seconds,
            propose_s=time.perf_counter() - propose_start,
            fidelity=chosen[0] if chosen else None,
            n_suggested=len(chosen),
            acq=first_acq,
            budget_spent=float(projected),
        )

    def _done(self) -> bool:
        return (
            self.history.total_cost >= self.budget - 1e-9
            or self._iteration >= self.max_iterations
        )

    def config_dict(self) -> dict:
        return {
            "budget": self.budget,
            "n_init_low": self.n_init_low,
            "n_init_high": self.n_init_high,
            "gamma": self.selector.gamma,
            "n_mc_samples": self.n_mc_samples,
            "n_restarts": self.n_restarts,
            "msp_starts": self.msp_starts,
            "msp_polish": self.msp_polish,
            "ball_stddev": self.ball_stddev,
            "fusion": self.fusion,
            "gp_max_opt_iter": self.gp_max_opt_iter,
            "max_iterations": self.max_iterations,
        }


class MFBOptimizer(_TwoFidelityBO):
    """Multi-fidelity constrained Bayesian optimizer (the paper's method).

    Parameters
    ----------
    problem:
        A two-fidelity :class:`repro.problems.Problem`.
    budget:
        Total simulation budget in **equivalent high-fidelity
        simulations** (the unit of Tables 1-2).
    n_init_low, n_init_high:
        Initial space-filling design sizes per fidelity (paper §5:
        10 low + 5 high for the PA, 30 low + 10 high for the charge
        pump).
    gamma:
        Fidelity-selection threshold of eq. 11/12 (paper: 0.01).
    n_mc_samples:
        Monte-Carlo samples for fused posterior prediction (eq. 10).
    n_restarts:
        Hyperparameter-training restarts per GP fit.
    msp_starts, msp_polish, ball_stddev:
        MSP acquisition-optimizer settings (§4.1); incumbent-biased
        fractions follow the paper (10% around ``tau_l``, 40% around
        ``tau_h``).
    fusion:
        ``"nargp"`` (paper) or ``"ar1"`` (Kennedy-O'Hagan linear fusion,
        for the abl1 ablation).
    fused_prediction:
        ``"mc"`` uses the Monte-Carlo fused posterior inside the
        acquisition (the paper's method); ``"mean_path"`` pushes only the
        low-fidelity mean through (cheaper, for ablations).
    refit_every:
        Full hyperparameter re-optimization cadence. ``1`` (default)
        re-optimizes every iteration, the paper's protocol.
        With ``k > 1``, iterations between full refits keep the current
        hyperparameters and only update the posterior caches: the GP of
        the fidelity that received the new point is extended with an
        incremental O(n^2) Cholesky append
        (:meth:`repro.gp.GPR.add_points`), and dependent fused models are
        re-cached without any L-BFGS-B work.
    max_iterations:
        Hard iteration cap, a safety net on top of the cost budget.
    seed, rng:
        Seed (or ready generator) for the *root* RNG. The root is split
        with ``Generator.spawn`` into independent per-component streams
        — initial sampling, GP restarts, Monte-Carlo fusion draws,
        acquisition scatter, duplicate nudges — so components never race
        each other for draws and checkpoint/resume and batched
        evaluation stay bit-reproducible.
    callback:
        Optional ``callback(iteration, history)`` invoked after every
        evaluation.

    Examples
    --------
    >>> from repro.problems import ForresterProblem
    >>> from repro.core import MFBOptimizer
    >>> result = MFBOptimizer(
    ...     ForresterProblem(), budget=12.0, n_init_low=8, n_init_high=3,
    ...     seed=0, msp_starts=40, n_restarts=1,
    ... ).run()
    >>> result.feasible
    True

    Ask/tell, driving the evaluation yourself:

    >>> optimizer = MFBOptimizer(
    ...     ForresterProblem(), budget=6.0, n_init_low=6, n_init_high=2,
    ...     seed=0, msp_starts=20, msp_polish=0, n_restarts=1,
    ... )
    >>> while not optimizer.is_done:
    ...     batch = optimizer.suggest()
    ...     if not batch:
    ...         break
    ...     for x, fidelity in batch:
    ...         evaluation = optimizer.problem.evaluate_unit(x, fidelity)
    ...         _ = optimizer.observe(x, fidelity, evaluation)
    >>> optimizer.result().feasible
    True
    """

    algorithm_name = "MF-BO (ours)"
    strategy_id = "mfbo"
    rng_stream_names = ("init", "gp", "mc", "acq", "dedup")

    def __init__(
        self,
        problem: Problem,
        *,
        budget: float = 50.0,
        n_init_low: int = 10,
        n_init_high: int = 5,
        gamma: float = 0.01,
        n_mc_samples: int = 20,
        n_restarts: int = 2,
        msp_starts: int = 100,
        msp_polish: int = 3,
        ball_stddev: float = 0.03,
        fusion: str = "nargp",
        fused_prediction: str = "mc",
        refit_every: int = 1,
        gp_max_opt_iter: int = 100,
        max_iterations: int = 10_000,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ) -> None:
        if fused_prediction not in ("mc", "mean_path"):
            raise ValueError("fused_prediction must be 'mc' or 'mean_path'")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        super().__init__(
            problem, budget=budget, n_init_low=n_init_low,
            n_init_high=n_init_high, gamma=gamma, n_mc_samples=n_mc_samples,
            n_restarts=n_restarts, msp_starts=msp_starts,
            msp_polish=msp_polish, ball_stddev=ball_stddev, fusion=fusion,
            gp_max_opt_iter=gp_max_opt_iter, max_iterations=max_iterations,
            seed=seed, rng=rng, callback=callback,
        )
        self.fused_prediction = fused_prediction
        self.refit_every = int(refit_every)
        # The live surrogate, (low_models, fused_models), as adopted by
        # the last refill; the next incremental update starts from it.
        self._models: tuple[list[GPR], list] | None = None
        self._ahead: _AheadFit | None = None

    # ------------------------------------------------------------------
    # model fitting
    # ------------------------------------------------------------------
    def posterior(self) -> tuple[list[GPR], list] | None:
        """``(low_models, fused_models)`` the next refill will use.

        Fitted on the current history and memoized on its length, so the
        session server's ``predict`` and the next :meth:`suggest` share
        one fit, whichever asks first. ``None`` until the initial design
        has been observed. Asking never changes the trajectory: the fit
        draws from a copy of the ``"gp"`` stream and extends copies of
        the live models, and :meth:`_refill` adopts it only because it is
        exactly the fit the refill would make (same history, same
        iteration, hence the same full-or-incremental decision).
        """
        if self._iteration == 0 and (
            not self._init_drawn or self._queue or self._pending
        ):
            return None
        return self._next_fit().models

    def _next_fit(self) -> _AheadFit:
        """The next refill's fit on the current history (memoized)."""
        key = (len(self.history), self._iteration + 1)
        fit = self._ahead
        if fit is None or fit.key != key:
            rng = copy.deepcopy(self._rng_streams["gp"])
            start = time.perf_counter()
            models = self._fit_models(key[1], rng)
            fit = _AheadFit(key, models, rng, time.perf_counter() - start)
            self._ahead = fit
        return fit

    def _fit_models(
        self, iteration: int, rng: np.random.Generator
    ) -> tuple[list[GPR], list]:
        """Fit per-output low GPs and fused high models as new objects.

        Output order: objective first, then one model per constraint.
        Every ``refit_every``-th iteration performs the full
        hyperparameter optimization, drawing restarts from ``rng``; in
        between, copies of the live models are extended with the cheap
        incremental path. The live models are never modified.
        """
        x_low, targets_low = self.history.outputs(FIDELITY_LOW)
        x_high, targets_high = self.history.outputs(FIDELITY_HIGH)
        if self._models is not None and (iteration - 1) % self.refit_every:
            low_models, fused_models = copy.deepcopy(self._models)
            self._update_models(
                low_models, fused_models,
                x_low, targets_low, x_high, targets_high,
            )
            return low_models, fused_models
        return self._fit_pairs(x_low, targets_low, x_high, targets_high, rng)

    def _update_models(
        self,
        low_models: list[GPR],
        fused_models: list,
        x_low: np.ndarray,
        targets_low: list[np.ndarray],
        x_high: np.ndarray,
        targets_high: list[np.ndarray],
    ) -> None:
        """Cheap posterior-cache update between full refits.

        The GP at the fidelity that received new data is extended with an
        incremental Cholesky append; when the low-fidelity posterior
        moved, the fused model's augmented training inputs are re-cached
        (one factorization, no hyperparameter search). Operates on the
        model lists it is given, so the constant-liar batch path can
        apply the same update to fantasy copies.
        """
        for low_gp, fused, t_low, t_high in zip(
            low_models, fused_models, targets_low, targets_high
        ):
            n_low_old = low_gp.n_train
            low_grew = x_low.shape[0] > n_low_old
            if low_grew:
                low_gp.add_points(x_low[n_low_old:], t_low[n_low_old:])
            if self.fusion == "nargp":
                high_gp = fused.high_model
                n_high_old = high_gp.n_train
                if low_grew:
                    # The low posterior shifted, so every augmented input
                    # [x, f_l(x)] is stale: rebuild the posterior cache at
                    # fixed hyperparameters.
                    augmented = np.column_stack(
                        [x_high, low_gp.predict_mean(x_high)]
                    )
                    high_gp.fit(augmented, t_high, optimize=False)
                elif x_high.shape[0] > n_high_old:
                    x_new = x_high[n_high_old:]
                    augmented_new = np.column_stack(
                        [x_new, low_gp.predict_mean(x_new)]
                    )
                    high_gp.add_points(augmented_new, t_high[n_high_old:])
            else:
                mu_low = low_gp.predict_mean(x_high)
                residual = t_high - fused.rho * mu_low
                fused.delta_model.fit(x_high, residual, optimize=False)

    # ------------------------------------------------------------------
    # suggestion (Algorithm 1, lines 4-7)
    # ------------------------------------------------------------------
    def _fused_predictor(self, model: NARGP | AR1, z: np.ndarray) -> Predictor:
        if self.fused_prediction == "mean_path":
            return model.predict_mean_path
        return lambda x: model.predict(x, z=z)

    def _search(
        self,
        low_models: list[GPR],
        fused_models: list,
        z: np.ndarray,
        avoid: list[np.ndarray],
    ) -> tuple[np.ndarray, float]:
        """wEI (or eq. 13) per fidelity, then the two-stage MSP search."""
        feasible_low = self.history.best_feasible(FIDELITY_LOW)
        feasible_high = self.history.best_feasible(FIDELITY_HIGH)
        best_low = self.history.incumbent(FIDELITY_LOW)
        best_high = self.history.incumbent(FIDELITY_HIGH)
        low_acq = wei_or_violation(
            [m.predict for m in low_models],
            None if feasible_low is None else feasible_low.objective,
        )
        high_acq = wei_or_violation(
            [self._fused_predictor(m, z) for m in fused_models],
            None if feasible_high is None else feasible_high.objective,
        )
        return self._two_stage_search(
            low_acq,
            high_acq,
            None if best_low is None else best_low.x_unit,
            None if best_high is None else best_high.x_unit,
            avoid,
        )

    def _refill(self, k: int) -> None:
        """One Algorithm-1 iteration producing up to ``k`` candidates.

        The first candidate follows the paper exactly. Further candidates
        use constant-liar fantasization: the picked point is added to
        *copies* of the models with its posterior-mean outcome, and the
        acquisition search repeats — yielding distinct batch members
        without spending any simulation budget.

        Suggestions still in flight on an asynchronous evaluator are
        fantasized the same way before the batch loop (and their cost
        counted against the budget), so an out-of-order refill neither
        re-proposes nor re-budgets them; once the real evaluation lands,
        :meth:`observe` retracts the pending entry and the next refill
        replaces the fantasy with the truth. With an empty pending set —
        every synchronous driver — this is a no-op and the trajectory is
        bit-identical to the serial path.

        The models come from :meth:`_next_fit`: a fit made ahead of time
        for this very history and iteration (by :meth:`posterior`) is
        adopted, together with the ``"gp"`` stream state it left behind.
        """
        fit = self._next_fit()
        self._iteration += 1
        self._ahead = None
        self._models = fit.models
        gp_stream = self._rng_streams["gp"].bit_generator
        gp_stream.state = fit.gp_rng.bit_generator.state
        z = self._rng_streams["mc"].standard_normal(self.n_mc_samples)

        models = fit.models  # swapped for fantasy copies at the first lie
        fantasy: dict | None = None  # growing training arrays of the copies

        def propose(j: int, avoid: list[np.ndarray]):
            return (*self._search(*models, z, avoid), models[0])

        def believe(x: np.ndarray, fidelity: str) -> None:
            nonlocal models, fantasy
            if fantasy is None:
                models = copy.deepcopy(fit.models)
                fantasy = self._fantasy_data()
            self._fantasize(*models, fantasy, x, fidelity)

        self._fill_queue(k, fit.seconds, propose, believe)

    def _fantasy_data(self) -> dict:
        """Mutable copies of the per-fidelity training arrays."""
        x_low, t_low = self.history.outputs(FIDELITY_LOW)
        x_high, t_high = self.history.outputs(FIDELITY_HIGH)
        return {
            "x_low": x_low, "t_low": t_low, "x_high": x_high, "t_high": t_high
        }

    def _fantasize(
        self,
        low_models: list[GPR],
        fused_models: list,
        fantasy: dict,
        x: np.ndarray,
        fidelity: str,
    ) -> None:
        """Constant-liar update: believe the posterior mean at ``x``.

        Appends the fantasized outcome to the fantasy data arrays and
        pushes it through the same incremental posterior-cache update the
        ``refit_every`` path uses — no hyperparameter search, no RNG
        consumption.
        """
        x2 = x[None, :]
        if fidelity == FIDELITY_LOW:
            values = [float(m.predict_mean(x2)[0]) for m in low_models]
            fantasy["x_low"] = np.vstack([fantasy["x_low"], x2])
            fantasy["t_low"] = [
                np.append(t, v) for t, v in zip(fantasy["t_low"], values)
            ]
        else:
            values = [
                float(f.predict_mean_path(x2)[0][0]) for f in fused_models
            ]
            fantasy["x_high"] = np.vstack([fantasy["x_high"], x2])
            fantasy["t_high"] = [
                np.append(t, v) for t, v in zip(fantasy["t_high"], values)
            ]
        self._update_models(
            low_models, fused_models,
            fantasy["x_low"], fantasy["t_low"],
            fantasy["x_high"], fantasy["t_high"],
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {
            **super().config_dict(),
            "fused_prediction": self.fused_prediction,
            "refit_every": self.refit_every,
        }

    def _extra_state(self) -> dict:
        """Cached surrogate models (the ``refit_every > 1`` fast path).

        Serialized with their exact posterior caches so a resumed run
        keeps predicting bit-identically; on full-refit iterations the
        cache is rebuilt from scratch anyway.
        """
        if self._models is None:
            return {"models": None}
        low_models, fused_models = self._models
        fused = []
        for model in fused_models:
            fused.append(
                {"type": self.fusion, **model.state_dict(include_low=False)}
            )
        return {
            "models": {
                "low": [m.state_dict() for m in low_models],
                "fused": fused,
            }
        }

    def _load_extra_state(self, extra: dict) -> None:
        self._ahead = None
        models = extra.get("models")
        if models is None:
            self._models = None
            return
        low_models = [
            GPR(max_opt_iter=self.gp_max_opt_iter).load_state_dict(state)
            for state in models["low"]
        ]
        fused_models = []
        for state, low_gp in zip(models["fused"], low_models):
            fused = self._new_fused()
            fused.load_state_dict(state, low_model=low_gp)
            fused_models.append(fused)
        self._models = low_models, fused_models
