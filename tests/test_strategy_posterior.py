"""A strategy's own surrogate behind ``predict``: one fit per history.

:meth:`repro.core.MFBOptimizer.posterior` hands out the fit its next
refill will use, and the session server answers ``predict`` from it.
The guarantees under test:

* the trajectory does not depend on whether, or how often, anyone asked
  for the posterior — bitwise-equal histories and equal ``state_dict``
  snapshots, across the incremental (``refit_every``), batch (``k``) and
  AR1 paths, and across a vault kill/resume taken right after a fit made
  ahead of its refill;
* a ``suggest -> observe -> predict x3 -> suggest`` round fits one model
  set per history state, not two;
* runs with equal histories but different fit settings never share a
  posterior, and repeated ``predict`` on one run is a stable cache hit.
"""

import json

import numpy as np
import pytest

from repro.core import MFBOptimizer
from repro.gp.gpr import GPR
from repro.mf.nargp import NARGP
from repro.registry import get_problem, get_strategy
from repro.service import RunVault, connect, serve
from repro.service.cache import SurrogatePosterior

FAST = dict(
    budget=5.0, n_init_low=5, n_init_high=3, seed=11, msp_starts=12,
    msp_polish=1, n_restarts=1, n_mc_samples=6, gp_max_opt_iter=15,
)
GRID = np.array([[i / 4, j / 2] for i in range(5) for j in range(3)])


def _history_bits(history):
    """Every recorded number as raw bits, in order."""
    return [
        (
            np.asarray(r.x_unit, dtype=float).tobytes(),
            r.fidelity,
            np.float64(r.objective).tobytes(),
            np.asarray(r.evaluation.constraints, dtype=float).tobytes(),
            int(r.iteration),
        )
        for r in history.records
    ]


def _state(strategy):
    return json.dumps(strategy.state_dict(), sort_keys=True)


def _drive(config, k, ask):
    """Run MFBO to the end with ``suggest(k)``; optionally ask for the
    posterior (and predict from it) after every observation."""
    problem = get_problem("gardner")
    strategy = MFBOptimizer(problem, **config)
    states = []
    while not strategy.is_done:
        batch = strategy.suggest(k)
        if not batch:
            break
        for s in batch:
            strategy.observe(
                s.x_unit, s.fidelity, problem.evaluate_unit(s.x_unit, s.fidelity)
            )
            if ask:
                for _ in range(2):
                    fitted = strategy.posterior()
                    if fitted is not None:
                        SurrogatePosterior.from_models(fitted[1]).predict(GRID)
            states.append(_state(strategy))
    return strategy, states


@pytest.mark.parametrize(
    "overrides,k",
    [
        ({}, 1),
        ({"refit_every": 2}, 1),
        ({}, 2),
        ({"fusion": "ar1"}, 1),
    ],
    ids=["refit1-k1", "refit2-k1", "refit1-k2", "ar1"],
)
def test_trajectory_independent_of_posterior_calls(overrides, k):
    config = dict(FAST, **overrides)
    plain, plain_states = _drive(config, k, ask=False)
    asked, asked_states = _drive(config, k, ask=True)
    assert plain._iteration > 2  # the model-based loop actually ran
    assert _history_bits(asked.history) == _history_bits(plain.history)
    assert asked_states == plain_states
    assert _state(asked) == _state(plain)


def test_posterior_is_none_until_the_initial_design_is_observed():
    problem = get_problem("gardner")
    strategy = MFBOptimizer(problem, **FAST)
    assert strategy.posterior() is None
    design = strategy.suggest(FAST["n_init_low"] + FAST["n_init_high"])
    for s in design[:-1]:
        strategy.observe(
            s.x_unit, s.fidelity, problem.evaluate_unit(s.x_unit, s.fidelity)
        )
        assert strategy.posterior() is None
    last = design[-1]
    strategy.observe(
        last.x_unit, last.fidelity,
        problem.evaluate_unit(last.x_unit, last.fidelity),
    )
    low_models, fused_models = strategy.posterior()
    assert len(low_models) == len(fused_models) == 2  # objective + 1 constraint
    assert strategy.posterior()[1] is fused_models  # memoized


def test_strategies_without_a_surrogate_return_none():
    problem = get_problem("gardner")
    for name in ("random_search", "weibo"):
        assert get_strategy(name)(problem, seed=0).posterior() is None


def test_state_dict_never_holds_the_fit_made_ahead():
    problem = get_problem("gardner")
    strategy = MFBOptimizer(problem, **dict(FAST, refit_every=2))
    for s in strategy.suggest(FAST["n_init_low"] + FAST["n_init_high"]):
        strategy.observe(
            s.x_unit, s.fidelity, problem.evaluate_unit(s.x_unit, s.fidelity)
        )
    for _ in range(2):
        for s in strategy.suggest(1):
            strategy.observe(
                s.x_unit, s.fidelity,
                problem.evaluate_unit(s.x_unit, s.fidelity),
            )
        before = _state(strategy)
        assert strategy.posterior() is not None
        assert _state(strategy) == before


def test_telemetry_reports_the_adopted_fit_time():
    problem = get_problem("gardner")
    strategy = MFBOptimizer(problem, **FAST)
    for s in strategy.suggest(FAST["n_init_low"] + FAST["n_init_high"]):
        strategy.observe(
            s.x_unit, s.fidelity, problem.evaluate_unit(s.x_unit, s.fidelity)
        )
    strategy.posterior()
    ahead = strategy._ahead
    strategy.take_telemetry()
    strategy.suggest(1)
    (event,) = [e for e in strategy.take_telemetry() if e["event"] == "iteration"]
    assert event["fit_s"] == ahead.seconds > 0.0


def test_vault_resume_right_after_a_fit_made_ahead(tmp_path):
    config = dict(FAST, refit_every=2)
    reference, _ = _drive(config, 1, ask=False)
    vault = RunVault(tmp_path)
    session = vault.open_session("gardner", "mfbo", **config)
    run_id = session.run_id
    for _ in range(FAST["n_init_low"] + FAST["n_init_high"] + 2):
        session.step()
    assert session.strategy.posterior() is not None
    session.save(session.checkpoint_path)  # a checkpoint after that fit
    session._events_file.close()  # SIGKILL: no close()

    resumed = vault.resume(run_id)
    while not resumed.is_done:
        resumed.step()
    assert _history_bits(resumed.history) == _history_bits(reference.history)
    resumed.close()


# ----------------------------------------------------------------------
# over the wire
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    srv = serve(tmp_path / "vault")
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def _observe_design(remote, n):
    for x_unit, fidelity in remote.suggest(n):
        remote.observe(
            x_unit, fidelity, remote.problem.evaluate_unit(x_unit, fidelity)
        )


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_one_fit_set_per_history_state(server, monkeypatch):
    n_outputs = 2  # gardner: objective + one constraint
    with connect(server.address) as client:
        remote = client.create("gardner", "mfbo", **FAST)
        _observe_design(remote, FAST["n_init_low"] + FAST["n_init_high"])
        gp_fits = _count_calls(monkeypatch, GPR, "fit")
        nargp_fits = _count_calls(monkeypatch, NARGP, "fit")

        (x_unit, fidelity), = remote.suggest(1)      # fit on history H0
        remote.observe(                              # history H1
            x_unit, fidelity, remote.problem.evaluate_unit(x_unit, fidelity)
        )
        hits = [remote.predict(GRID)[2] for _ in range(3)]  # fit on H1
        assert remote.suggest(1)                     # reuses the H1 fit
        remote.detach()

    # two history states, one (low GP + NARGP) set each; every NARGP fit
    # also fits its high-fidelity GP
    assert len(nargp_fits) == 2 * n_outputs
    assert len(gp_fits) == 2 * 2 * n_outputs
    assert hits == [False, True, True]
    stats = server.cache.stats()
    assert (stats["hits"], stats["misses"]) == (2, 1)


def test_equal_histories_different_settings_do_not_share(server):
    with connect(server.address) as client:
        coarse = client.create("gardner", "mfbo", **dict(FAST, gp_max_opt_iter=2))
        fine = client.create("gardner", "mfbo", **dict(FAST, gp_max_opt_iter=60))
        for remote in (coarse, fine):
            _observe_design(remote, FAST["n_init_low"] + FAST["n_init_high"])
        assert coarse.history().to_dict() == fine.history().to_dict()

        mean_c, std_c, hit_c = coarse.predict(GRID)
        mean_f, std_f, hit_f = fine.predict(GRID)
        assert not hit_c and not hit_f
        assert not np.array_equal(mean_c, mean_f)

        mean_again, std_again, hit_again = coarse.predict(GRID)
        assert hit_again
        np.testing.assert_array_equal(mean_again, mean_c)
        np.testing.assert_array_equal(std_again, std_c)

        # each run is served its own optimizer's surrogate
        for remote, mean in ((coarse, mean_c), (fine, mean_f)):
            fused = server.sessions[remote.run_id].strategy.posterior()[1]
            own, _ = SurrogatePosterior.from_models(fused).predict(GRID)
            np.testing.assert_array_equal(mean, own)
        coarse.detach()
        fine.detach()


def test_initial_design_predicts_fall_back_to_the_shared_lru(server):
    with connect(server.address) as client:
        runs = [client.create("gardner", "mfbo", **FAST) for _ in range(2)]
        for remote in runs:
            _observe_design(remote, 4)  # mid-design: no surrogate yet
        first = runs[0].predict(GRID)
        second = runs[1].predict(GRID)  # same history, same fallback fit
        assert (first[2], second[2]) == (False, True)
        np.testing.assert_array_equal(first[0], second[0])
        for remote in runs:
            remote.detach()
