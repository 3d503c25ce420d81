"""Fitted surrogate posteriors behind the server's ``predict`` op.

A model-based strategy already fits a surrogate for every history it
suggests from; :meth:`repro.core.StrategyBase.posterior` hands that fit
out, and :meth:`PosteriorCache.serve` wraps it once per fit, scoped to
its run. No second fit happens: ``predict`` and the next ``suggest``
share one.

Strategies without a surrogate of their own (random search, DE, GASPAD,
WEIBO, MOMFBO, and MFBO during its initial design) fall back to a
:class:`SurrogatePosterior` fitted here. :class:`PosteriorCache` keeps
those in an LRU map keyed by a content hash of the evaluation history
(:func:`history_fingerprint`), so the second client to look at the same
history pays a dictionary lookup instead of an L-BFGS-B hyperparameter
search. Any new observation changes the fingerprint, which makes stale
reads structurally impossible — an out-of-date entry can never be
returned, only evicted.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..core.history import History
from ..gp.gpr import GPR
from ..mf.nargp import NARGP
from ..mf.pairs import fit_output_pairs
from ..obs import MetricsRegistry
from ..problems.base import Problem

__all__ = ["history_fingerprint", "SurrogatePosterior", "PosteriorCache"]


def history_fingerprint(problem_name: str, history: History) -> str:
    """Content hash of an evaluation history (hex digest).

    Two histories with identical evaluations (designs, fidelities,
    outcomes) produce the same key; any appended evaluation changes it.
    Floats are hashed through their shortest-``repr`` JSON encoding, the
    same representation the checkpoint format round-trips bit-exactly.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(problem_name.encode())
    for record in history.records:
        digest.update(
            json.dumps(
                [
                    [float(v) for v in record.x_unit],
                    record.fidelity,
                    record.evaluation.to_dict(),
                ],
                sort_keys=True,
            ).encode()
        )
    return digest.hexdigest()


class SurrogatePosterior:
    """Fitted per-output surrogate models for one frozen history.

    One low-fidelity :class:`repro.gp.GPR` plus one fused
    :class:`repro.mf.NARGP` per output (objective first, then each
    constraint), the model set :class:`repro.core.MFBOptimizer` fits
    each iteration. When the history only covers a single fidelity,
    plain GPs at that fidelity are used. Prediction pushes the
    low-fidelity mean through the fused model (deterministic — no
    Monte-Carlo draws), so identical queries against a cached posterior
    return identical answers. :meth:`from_models` wraps a strategy's own
    fit instead of fitting.
    """

    def __init__(
        self,
        problem: Problem,
        history: History,
        *,
        n_restarts: int = 1,
        max_opt_iter: int = 50,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        low_f, high_f = problem.lowest_fidelity, problem.highest_fidelity
        n_low = history.n_evaluations(low_f)
        n_high = history.n_evaluations(high_f)
        self.fused = bool(
            low_f != high_f and n_low >= 2 and n_high >= 2
        )
        if self.fused:
            x_low, lows = history.outputs(low_f)
            x_high, highs = history.outputs(high_f)
            _, self._models = fit_output_pairs(
                x_low, lows, x_high, highs,
                lambda: NARGP(n_restarts=n_restarts, max_opt_iter=max_opt_iter),
                n_restarts=n_restarts, max_opt_iter=max_opt_iter, rng=rng,
            )
        else:
            x, targets = history.outputs(high_f if n_high >= 2 else low_f)
            self._models = [
                GPR(max_opt_iter=max_opt_iter).fit(
                    x, t, n_restarts=n_restarts, rng=rng
                )
                for t in targets
            ]

    @classmethod
    def from_models(cls, fused_models: list) -> "SurrogatePosterior":
        """Serve already-fitted fused models (one per output), no fit."""
        posterior = cls.__new__(cls)
        posterior.fused = True
        posterior._models = fused_models
        return posterior

    @property
    def n_outputs(self) -> int:
        return len(self._models)

    def predict(self, x_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and stddev per output at unit-cube points.

        Returns arrays of shape ``(n_points, n_outputs)`` with the
        objective in column 0 and one constraint per further column.
        """
        x_unit = np.atleast_2d(np.asarray(x_unit, dtype=float))
        means, stds = [], []
        for model in self._models:
            if self.fused:
                mu, var = model.predict_mean_path(x_unit)
            else:
                mu, var = model.predict(x_unit)
            means.append(np.ravel(mu))
            stds.append(np.sqrt(np.maximum(np.ravel(var), 0.0)))
        return np.column_stack(means), np.column_stack(stds)


class PosteriorCache:
    """LRU map from history fingerprints to fitted posteriors.

    >>> cache = PosteriorCache(maxsize=4)
    >>> key = history_fingerprint(problem.name, history)   # doctest: +SKIP
    >>> posterior, hit = cache.get_or_fit(
    ...     key, lambda: SurrogatePosterior(problem, history)
    ... )                                                  # doctest: +SKIP
    """

    def __init__(
        self, maxsize: int = 8, metrics: MetricsRegistry | None = None
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[str, SurrogatePosterior] = OrderedDict()
        # Strategy-served posteriors, one per run: (the fit, its wrapper).
        self._served: dict[str, tuple[object, SurrogatePosterior]] = {}
        # Counters live in an obs registry — the server passes its own
        # so the `stats` op exports them alongside per-op latencies;
        # a standalone cache gets a private registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._evictions = self.metrics.counter("cache.evictions")

    # Legacy int attributes, now read-only views of the obs counters.
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> SurrogatePosterior | None:
        """Cached posterior for ``key``, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return entry

    def put(self, key: str, posterior: SurrogatePosterior) -> None:
        self._entries[key] = posterior
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self.metrics.gauge("cache.size").set(len(self._entries))

    def get_or_fit(
        self, key: str, fit: Callable[[], SurrogatePosterior]
    ) -> tuple[SurrogatePosterior, bool]:
        """Return ``(posterior, was_hit)``, fitting on miss."""
        entry = self.get(key)
        if entry is not None:
            return entry, True
        entry = fit()
        self.put(key, entry)
        return entry, False

    def serve(
        self, run_id: str, fitted: tuple[list, list]
    ) -> tuple[SurrogatePosterior, bool]:
        """Return ``(posterior, was_hit)`` for a run's own surrogate.

        ``fitted`` is what the run's :meth:`~repro.core.StrategyBase.posterior`
        returned. A strategy memoizes its fit, so asking again about an
        unchanged history hands back the same object: a hit. A new object
        means a new fit: a miss. Entries are scoped to ``run_id``, never
        to the history fingerprint — two runs with equal histories may
        hold different fits (different seeds or fit settings).
        """
        entry = self._served.get(run_id)
        if entry is not None and entry[0] is fitted:
            self._hits.inc()
            return entry[1], True
        self._misses.inc()
        posterior = SurrogatePosterior.from_models(fitted[1])
        self._served[run_id] = (fitted, posterior)
        return posterior, False

    def forget(self, run_id: str) -> None:
        """Drop a run's strategy-served posterior (the run was detached)."""
        self._served.pop(run_id, None)

    def stats(self) -> dict:
        """Hit/miss/eviction counters and current size."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
