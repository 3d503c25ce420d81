"""Per-layer timing for the traced benchmark run, installed from outside.

The program is not edited: :func:`install` replaces a fixed set of class
methods with timing wrappers. Class attributes are looked up at call
time, so every caller sees the wrapper, including callers that bound a
module function at import time (``power_amplifier`` imports
``simulate_transient`` directly, so the transient analysis is timed from
its backend's construction to its ``TransientResult`` instead).

Each thread keeps a stack of open wrapped calls. When a call ends, its
duration is added to its parent's child time, so every layer gets an
inclusive total and a self time (total minus wrapped children). Self
times of one thread add up without double counting.

GP calls made from inside an NARGP method are not recorded on their own:
they stay in the NARGP frame, so ``gp.*`` is GP work outside the fused
models and ``mf.*`` includes the fused models' inner GPs.

Farm workers are forked after :func:`install`, so they run the same
wrappers. A worker rewrites its totals to ``worker-<pid>.json`` in the
run's output directory after every evaluation; the parent sums those
files when the run ends.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

class _ThreadState:
    """What one thread has recorded; the clock keeps one per thread."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [child time] per open call
        self.stats: dict[str, list] = {}  # label -> [calls, total, self]
        self.samples: dict[str, list[float]] = {}
        self.extra: dict[str, float] = {}
        self.tran_start: float | None = None
        self.nargp_depth = 0


class LayerClock:
    """Thread-aware inclusive/self-time accumulator for wrapped calls."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.main_pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _replace(self, owner: object, attr: str, wrapper) -> object:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return original

    def wrap(self, owner, attr: str, name, *, samples: str | None = None,
             nargp: bool = False, skip_in_nargp: bool = False, after=None) -> None:
        """Time ``owner.attr`` under ``name`` (a string or ``f(args)``).

        With ``samples`` set, every call also appends ``(label, seconds)``
        to the thread's ``samples[samples]`` list, in call order.
        """
        clock = self
        original = None

        def wrapper(*args, **kwargs):
            state = clock._state()
            if skip_in_nargp and state.nargp_depth:
                return original(*args, **kwargs)
            label = name(args) if callable(name) else name
            frame = [0.0]
            state.stack.append(frame)
            if nargp:
                state.nargp_depth += 1
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                if nargp:
                    state.nargp_depth -= 1
                state.stack.pop()
                if state.stack:
                    state.stack[-1][0] += elapsed
                entry = state.stats.get(label)
                if entry is None:
                    entry = state.stats[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if samples:
                    state.samples.setdefault(samples, []).append((label, elapsed))
                if after is not None:
                    after(state, result)

        original = self._replace(owner, attr, wrapper)

    def mark(self, owner, attr: str, hook) -> None:
        """Call ``hook(state, args)`` before ``owner.attr`` runs; no timing."""
        clock = self
        original = None

        def wrapper(*args, **kwargs):
            hook(clock._state(), args)
            return original(*args, **kwargs)

        original = self._replace(owner, attr, wrapper)

    def clear(self) -> None:
        """Drop everything recorded so far (call between wrapped calls)."""
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            state.stats.clear()
            state.samples.clear()
            state.extra.clear()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged ``{"stats", "samples", "extra"}`` over every thread."""
        stats: dict[str, list] = {}
        samples: dict[str, list] = {}
        extra: dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for label, (calls, total, own) in list(state.stats.items()):
                entry = stats.setdefault(label, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for label, values in list(state.samples.items()):
                samples.setdefault(label, []).extend(values)
            for key, value in list(state.extra.items()):
                extra[key] = extra.get(key, 0.0) + value
        return {"stats": stats, "samples": samples, "extra": extra}

    def dump_if_worker(self) -> None:
        """In a farm worker, rewrite this process's totals file."""
        pid = os.getpid()
        if pid == self.main_pid:
            return
        path = self.worker_dir / f"worker-{pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def worker_snapshots(self) -> list[dict]:
        return [
            json.loads(path.read_text())
            for path in sorted(self.worker_dir.glob("worker-*.json"))
        ]


def _add(state, key: str, value: float) -> None:
    state.extra[key] = state.extra.get(key, 0.0) + value


def install(clock: LayerClock) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core.strategy import StrategyBase
    from repro.gp.gpr import GPR
    from repro.mf.nargp import NARGP
    from repro.optim.msp import MSPOptimizer
    from repro.problems.base import Problem
    from repro.service.cache import SurrogatePosterior
    from repro.service.server import SessionServer
    from repro.service.vault import VaultSession
    from repro.session.evaluators import SerialEvaluator
    from repro.session.farm import AsyncEvaluator
    from repro.spice.backend import DenseBackend, SparseBackend
    from repro.spice.transient import TransientResult

    def after_evaluate(state, result) -> None:
        if getattr(result, "failed", False):
            _add(state, "problem.failed", 1)
        clock.dump_if_worker()

    def transient_start(state, args) -> None:
        state.tran_start = time.perf_counter()

    def transient_end(state, args) -> None:
        # TransientResult(circuit, times, states) closes the analysis
        # that the most recent backend construction opened.
        if state.tran_start is not None:
            _add(state, "spice.transient_s", time.perf_counter() - state.tran_start)
            state.tran_start = None
        _add(state, "spice.steps", len(args[2]) - 1)

    clock.wrap(GPR, "fit", "gp.fit", skip_in_nargp=True)
    clock.wrap(GPR, "add_points", "gp.add_points", skip_in_nargp=True)
    clock.wrap(GPR, "predict", "gp.predict", skip_in_nargp=True)
    clock.wrap(NARGP, "fit", "mf.nargp_fit", nargp=True)
    clock.wrap(NARGP, "predict", "mf.nargp_predict", nargp=True)
    clock.wrap(MSPOptimizer, "maximize", "optim.msp_maximize")
    clock.wrap(StrategyBase, "suggest", "core.suggest")
    clock.wrap(StrategyBase, "observe", "core.observe")
    clock.wrap(Problem, "evaluate_unit", "problem.evaluate", after=after_evaluate)
    clock.wrap(SerialEvaluator, "evaluate", "session.evaluate")
    clock.wrap(AsyncEvaluator, "evaluate", "session.evaluate")
    for backend in (DenseBackend, SparseBackend):
        clock.wrap(backend, "assemble", "spice.assemble")
        clock.wrap(backend, "solve_newton", "spice.solve_newton")
        clock.mark(backend, "__init__", transient_start)
    clock.mark(TransientResult, "__init__", transient_end)
    clock.wrap(VaultSession, "observe", "service.vault_observe")
    clock.wrap(os, "fsync", "service.fsync")
    clock.wrap(SurrogatePosterior, "__init__", "service.cache_fit")
    clock.wrap(
        SessionServer,
        "handle_request_payload",
        lambda args: f"service.op.{args[1].get('op')}",
        samples="service.op",
    )
