"""Per-output fitting of (low-fidelity GP, fused model) pairs.

Every multi-fidelity consumer in the library — the paper's optimizer,
its multi-objective extension and the session server's fallback
posterior — fits the same model set: for each output (objective first,
then each constraint) one low-fidelity :class:`~repro.gp.GPR`, then one
fused model trained on top of it (paper Algorithm 1, lines 2-3). This
module is the one place that loop lives.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from ..gp.gpr import GPR
from .ar1 import AR1
from .nargp import NARGP

__all__ = ["fit_output_pairs"]

FusedModel = Union[NARGP, AR1]


def fit_output_pairs(
    x_low: np.ndarray,
    targets_low: Sequence[np.ndarray],
    x_high: np.ndarray,
    targets_high: Sequence[np.ndarray],
    make_fused: Callable[[], FusedModel],
    *,
    n_restarts: int,
    max_opt_iter: int,
    rng: np.random.Generator,
) -> tuple[list[GPR], list[FusedModel]]:
    """Fit one low GP and one fused model per output, in output order.

    ``make_fused`` builds an unfitted :class:`~repro.mf.NARGP` or
    :class:`~repro.mf.AR1`; each is trained with the output's low GP as
    its low-fidelity model. All hyperparameter restarts draw from
    ``rng`` in a fixed order (low GP, then fused model, output by
    output), so a seeded stream reproduces the fit bit for bit.
    """
    low_models: list[GPR] = []
    fused_models: list[FusedModel] = []
    for t_low, t_high in zip(targets_low, targets_high):
        low_gp = GPR(max_opt_iter=max_opt_iter).fit(
            x_low, t_low, n_restarts=n_restarts, rng=rng
        )
        fused = make_fused()
        fused.fit(x_low, t_low, x_high, t_high, rng=rng, low_model=low_gp)
        low_models.append(low_gp)
        fused_models.append(fused)
    return low_models, fused_models
