"""Golden trajectories: pinned digests of whole seeded runs.

The run==manual, session and resume tests compare two drives of the
*same* code, so a refactor that shifts both sides equally slips through
them. These digests were recorded once and are never re-recorded: each
is a sha256 over ``(x_unit, fidelity, objective)`` of every history
record of one small seeded run, covering the single-output MFBO paths
(batching, incremental refits, AR1 fusion, constraints), both MOMFBO
acquisitions and WEIBO. A refactor that claims bit-identical
trajectories must leave every digest unchanged.
"""

import hashlib
import struct

import pytest

from repro import WEIBO, MFBOptimizer, MOMFBOptimizer, OptimizationSession
from repro.problems import ForresterProblem, GardnerProblem, ZDT1Problem

FAST = dict(msp_starts=20, msp_polish=1, n_restarts=1, gp_max_opt_iter=25)


def _mfbo(problem, **kw):
    return MFBOptimizer(
        problem, budget=6.0, n_init_low=6, n_init_high=2, seed=3,
        n_mc_samples=6, **FAST, **kw,
    )


# The constrained cases start from designs small enough that no feasible
# point is known at first, so their runs also cover the eq. 13 violation
# search before the first feasible point lands.
def _gardner(**kw):
    return MFBOptimizer(
        GardnerProblem(), budget=6.0, n_init_low=3, n_init_high=1, seed=0,
        n_mc_samples=6, **FAST, **kw,
    )


def _momfbo(acquisition):
    return MOMFBOptimizer(
        ZDT1Problem(constrained=True), budget=4.0, n_init_low=3,
        n_init_high=1, seed=4, acquisition=acquisition, n_mc_samples=6,
        ehvi_mc_samples=6, **FAST,
    )


def _weibo():
    return WEIBO(
        GardnerProblem(), budget=8, n_init=2, seed=0, msp_starts=20,
        msp_polish=1, n_restarts=1, gp_max_opt_iter=25,
    )


#: name -> (strategy factory, batch size)
CASES = {
    "mfbo-forrester-k1": (lambda: _mfbo(ForresterProblem()), 1),
    "mfbo-forrester-k2": (lambda: _mfbo(ForresterProblem()), 2),
    "mfbo-forrester-refit2": (
        lambda: _mfbo(ForresterProblem(), refit_every=2), 1
    ),
    "mfbo-forrester-ar1": (lambda: _mfbo(ForresterProblem(), fusion="ar1"), 1),
    "mfbo-gardner-k1": (_gardner, 1),
    "mfbo-gardner-k2": (_gardner, 2),
    "mfbo-gardner-refit2": (lambda: _gardner(refit_every=2), 1),
    "mfbo-gardner-ar1": (lambda: _gardner(fusion="ar1"), 1),
    "momfbo-ehvi-k1": (lambda: _momfbo("ehvi"), 1),
    "momfbo-ehvi-k2": (lambda: _momfbo("ehvi"), 2),
    "momfbo-parego-k1": (lambda: _momfbo("parego"), 1),
    "momfbo-parego-k2": (lambda: _momfbo("parego"), 2),
    "weibo-k1": (_weibo, 1),
    "weibo-k2": (_weibo, 2),
}

#: recorded before the shared Algorithm-1 base class existed; never re-record
GOLDEN = {
    'mfbo-forrester-ar1': 'cc826cf1946f446f7ce16394cd1316fef5e00e2896de25a10b54424e20277e10',
    'mfbo-forrester-k1': '17aaedb14941c046a4a4929f2f9ee7585cc5b0469328f06c73e7eaaeb96dfe08',
    'mfbo-forrester-k2': 'e75bda4b67d0409374495d57cb0ca73a8c6c43662b382601c1cd2e0aca915e23',
    'mfbo-forrester-refit2': '690d990eca4164d33d1f04f707a2cc3e2950854124051d9b944423991df3de23',
    'mfbo-gardner-ar1': 'dbd3b216d8e5edeabb01ee0fc02fa0a398b0e418e26010320f4c464112a743dd',
    'mfbo-gardner-k1': '1121c5729706f9be439f6f2c7d2a809a9255691311b301b579f25e22a8c58ed7',
    'mfbo-gardner-k2': '87c6021218ad0eee86560568af5cde73e4b8ddb55dfd837ec50f57ba19998616',
    'mfbo-gardner-refit2': 'c71902b8d5195c4e72fb69ab36bb1794dde7ba1705371b73891598c8c145b92c',
    'momfbo-ehvi-k1': '58f5cfc035d8841f8acedb3b027921bc894b922a8e64b1e5198780e19edfd34d',
    'momfbo-ehvi-k2': 'c9e869cf55c08340a66c6c71f0f9464def4be53a9114f91060198e69956caaec',
    'momfbo-parego-k1': 'f19546dfd7651abce30974422284d24cad340e46261dfa56e09bf0b5c1396b40',
    'momfbo-parego-k2': '0da5a4738c12d3663cd2c5b315424ca465adc1729d52b482a3d4f9ff39e0eb69',
    'weibo-k1': '17f32fa9498efe99600e1ade982766caf35ada5f691c837b9be66740b4784836',
    'weibo-k2': '260afaa1b8f6a4793375e17c3f9809daaaeb145f109c46e28b0633380147b8ed',
}


def trajectory_digest(history) -> str:
    """sha256 over every record's ``(x_unit, fidelity, objective)``."""
    digest = hashlib.sha256()
    for record in history.records:
        digest.update(record.x_unit.astype("<f8").tobytes())
        digest.update(record.fidelity.encode())
        digest.update(struct.pack("<d", float(record.objective)))
    return digest.hexdigest()


def run_case(name: str) -> str:
    factory, k = CASES[name]
    strategy = factory()
    OptimizationSession(strategy).run(batch_size=k)
    return trajectory_digest(strategy.history)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden_digest(name):
    assert run_case(name) == GOLDEN[name]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)
