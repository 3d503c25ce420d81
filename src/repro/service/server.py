"""Stdlib TCP session server fronting a :class:`repro.service.RunVault`.

Wire protocol — newline-delimited JSON frames over a plain TCP socket.
Each request is one JSON object on one line with an ``"op"`` key; each
response is one JSON object on one line with ``"ok": true`` plus the
op's payload, or ``"ok": false`` plus ``"error"``/``"etype"``. A
connection may issue any number of requests before closing, and many
connections may be open at once: every run is guarded by its own lock,
so two clients driving *different* runs never contend, while two
clients poking the *same* run serialize per request.

Durability is inherited from the vault: ``observe`` does not respond
until the evaluation is fsynced into the run's event log, so any
observation a client saw acknowledged survives a server kill and is
replayed by ``attach`` after restart.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from pathlib import Path

import numpy as np

from ..obs import LATENCY_BUCKETS_S, MetricsRegistry
from ..problems.base import Evaluation
from .cache import PosteriorCache, SurrogatePosterior, history_fingerprint
from .vault import RunVault, VaultError, VaultSession

__all__ = ["SessionServer", "serve"]

#: Per-connection socket timeout; a wedged peer cannot pin a handler
#: thread forever (REPRO-CONC004).
DEFAULT_REQUEST_TIMEOUT = 60.0


class SessionServer(socketserver.ThreadingTCPServer):
    """Serve concurrent vault-backed optimization sessions over TCP.

    Parameters
    ----------
    vault:
        Vault root path or a ready :class:`RunVault`.
    host, port:
        Bind address; ``port=0`` picks a free port (see
        :attr:`address`).
    cache_size:
        Capacity of the LRU :class:`PosteriorCache` behind the
        ``predict`` op for strategies that do not serve their own
        surrogate.
    request_timeout:
        Socket timeout applied to every client connection.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        vault: RunVault | str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_size: int = 8,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        self.vault = vault if isinstance(vault, RunVault) else RunVault(vault)
        self.request_timeout = float(request_timeout)
        # One registry for the whole server: the cache shares it, so the
        # `stats` op exports cache counters next to per-op latencies.
        self.metrics = MetricsRegistry()
        self.cache = PosteriorCache(maxsize=cache_size, metrics=self.metrics)
        self.sessions: dict[str, VaultSession] = {}
        self._sessions_lock = threading.Lock()
        self._run_locks: dict[str, threading.Lock] = {}
        super().__init__((host, port), _SessionHandler)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)`` pair."""
        host, port = self.server_address[:2]
        return str(host), int(port)

    def start_background(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread and return it."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        thread.start()
        return thread

    def server_close(self) -> None:
        with self._sessions_lock:
            sessions = list(self.sessions.values())
            self.sessions.clear()
        for session in sessions:
            session.close()
        super().server_close()

    # ------------------------------------------------------------------
    # per-run state
    # ------------------------------------------------------------------
    def _run_lock(self, run_id: str) -> threading.Lock:
        with self._sessions_lock:
            lock = self._run_locks.get(run_id)
            if lock is None:
                lock = self._run_locks[run_id] = threading.Lock()
            return lock

    def _session(self, run_id: str) -> VaultSession:
        with self._sessions_lock:
            session = self.sessions.get(run_id)
        if session is None:
            raise VaultError(
                f"run {run_id!r} is not attached; send an 'attach' "
                "(or 'create') request first"
            )
        return session

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def handle_request_payload(self, request: dict) -> dict:
        """Dispatch one decoded request frame; returns the reply payload."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if not isinstance(op, str) or handler is None:
            self.metrics.counter("server.unknown_ops").inc()
            raise VaultError(f"unknown op {op!r}")
        start = time.perf_counter()
        try:
            if op in _PER_RUN_OPS:
                run_id = str(request.get("run_id") or "")
                if not run_id:
                    raise VaultError(f"op {op!r} requires a run_id")
                with self._run_lock(run_id):
                    return handler(request)
            return handler(request)
        except Exception:
            self.metrics.counter(f"op.{op}.errors").inc()
            raise
        finally:
            self.metrics.counter(f"op.{op}.requests").inc()
            self.metrics.histogram(
                f"op.{op}.latency_s", LATENCY_BUCKETS_S
            ).observe(time.perf_counter() - start)

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _op_create(self, request: dict) -> dict:
        session = self.vault.open_session(
            str(request["problem"]),
            str(request.get("strategy") or "mfbo"),
            run_id=request.get("run_id"),
            checkpoint_every=int(request.get("checkpoint_every") or 1),
            problem_kwargs=request.get("problem_kwargs"),
            **(request.get("config") or {}),
        )
        with self._sessions_lock:
            self.sessions[session.run_id] = session
        return self._status_payload(session)

    def _op_attach(self, request: dict) -> dict:
        run_id = str(request["run_id"])
        with self._sessions_lock:
            session = self.sessions.get(run_id)
        if session is None:
            session = self.vault.resume(
                run_id,
                checkpoint_every=int(request.get("checkpoint_every") or 1),
            )
            with self._sessions_lock:
                self.sessions[run_id] = session
        return self._status_payload(session)

    def _op_detach(self, request: dict) -> dict:
        run_id = str(request["run_id"])
        with self._sessions_lock:
            session = self.sessions.pop(run_id, None)
        if session is not None:
            session.close()
        self.cache.forget(run_id)
        return {"run_id": run_id, "detached": session is not None}

    def _op_suggest(self, request: dict) -> dict:
        session = self._session(str(request["run_id"]))
        suggestions = session.suggest(int(request.get("k") or 1))
        return {
            "suggestions": [
                {
                    "x_unit": [float(v) for v in s.x_unit],
                    "fidelity": s.fidelity,
                }
                for s in suggestions
            ],
            "is_done": bool(session.is_done),
        }

    def _op_observe(self, request: dict) -> dict:
        session = self._session(str(request["run_id"]))
        record = session.observe(
            np.asarray(request["x_unit"], dtype=float),
            str(request["fidelity"]),
            Evaluation.from_dict(request["evaluation"]),
        )
        return {
            "iteration": int(record.iteration),
            "objective": float(record.objective),
            "feasible": bool(record.feasible),
            "n_evaluations": len(session.history),
            "is_done": bool(session.is_done),
        }

    def _op_status(self, request: dict) -> dict:
        run_id = str(request["run_id"])
        with self._sessions_lock:
            session = self.sessions.get(run_id)
        payload = self.vault.info(run_id).to_dict()
        meta = self.vault.meta(run_id)
        payload["problem_kwargs"] = meta.get("problem_kwargs") or {}
        payload["attached"] = session is not None
        if session is not None:
            payload["is_done"] = bool(session.is_done)
            payload["n_evaluations"] = len(session.history)
            payload["total_cost"] = float(session.history.total_cost)
        return payload

    def _op_result(self, request: dict) -> dict:
        session = self._session(str(request["run_id"]))
        return {"result": session.strategy.result().to_dict()}

    def _op_history(self, request: dict) -> dict:
        session = self._session(str(request["run_id"]))
        return {"history": session.history.to_dict()}

    def _op_predict(self, request: dict) -> dict:
        session = self._session(str(request["run_id"]))
        history = session.history
        key = history_fingerprint(session.problem.name, history)
        # A strategy with a surrogate serves the fit its next suggestion
        # uses; the rest fall back to a fit cached by history content.
        # (`posterior` is not part of the Strategy protocol: a strategy
        # that does not derive from StrategyBase may lack it.)
        own = getattr(session.strategy, "posterior", None)
        fitted = own() if own is not None else None
        if fitted is not None:
            posterior, hit = self.cache.serve(session.run_id, fitted)
        else:
            posterior, hit = self.cache.get_or_fit(
                key,
                lambda: SurrogatePosterior(session.problem, history),
            )
        mean, std = posterior.predict(
            np.asarray(request["x_unit"], dtype=float)
        )
        return {
            "mean": mean.tolist(),
            "std": std.tolist(),
            "cache_hit": hit,
            "fingerprint": key,
        }

    def _op_cache_stats(self, request: dict) -> dict:
        return self.cache.stats()

    def _op_stats(self, request: dict) -> dict:
        """Server-wide telemetry: per-op latencies plus cache counters.

        Not per-run — the snapshot covers every run the server has
        touched, so it takes no run lock.
        """
        return {"metrics": self.metrics.snapshot(), "cache": self.cache.stats()}

    def _op_ls(self, request: dict) -> dict:
        infos = self.vault.list_runs(
            problem=request.get("problem"),
            strategy=request.get("strategy"),
            status=request.get("status"),
        )
        return {"runs": [info.to_dict() for info in infos]}

    def _op_gc(self, request: dict) -> dict:
        statuses = tuple(request.get("statuses") or ("done",))
        removed = self.vault.gc(
            statuses=statuses, dry_run=bool(request.get("dry_run"))
        )
        return {"removed": removed}

    def _op_shutdown(self, request: dict) -> dict:
        # serve_forever runs on another thread than this handler, so
        # shutdown() (which joins its loop) is safe to call directly.
        threading.Thread(target=self.shutdown, daemon=True).start()
        return {"stopping": True}

    def _status_payload(self, session: VaultSession) -> dict:
        meta = self.vault.meta(session.run_id)
        return {
            "run_id": session.run_id,
            "problem": session.problem.name,
            "problem_kwargs": meta.get("problem_kwargs") or {},
            "strategy": meta["strategy"],
            "status": meta["status"],
            "n_evaluations": len(session.history),
            "is_done": bool(session.is_done),
        }


#: Ops that mutate or read one run's live session state and therefore
#: serialize on that run's lock. ``create`` allocates a fresh run ID so
#: it cannot contend; ``status``/``ls``/``gc`` only touch vault files
#: written atomically.
_PER_RUN_OPS = frozenset(
    {"attach", "detach", "suggest", "observe", "result", "history", "predict"}
)


class _SessionHandler(socketserver.StreamRequestHandler):
    """One thread per connection; one JSON frame per protocol turn."""

    server: SessionServer

    def setup(self) -> None:
        self.request.settimeout(self.server.request_timeout)
        super().setup()

    def handle(self) -> None:
        while True:
            try:
                line = self.rfile.readline()
            except (socket.timeout, ConnectionError, OSError):
                return
            if not line:
                return
            if not line.strip():
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise VaultError("request frame must be a JSON object")
                reply = self.server.handle_request_payload(request)
                frame = {"ok": True, **reply}
            except Exception as exc:  # surfaced to the client, not fatal
                frame = {
                    "ok": False,
                    "error": str(exc),
                    "etype": type(exc).__name__,
                }
            try:
                self.wfile.write(json.dumps(frame).encode() + b"\n")
                self.wfile.flush()
            except (ConnectionError, OSError):
                return


def serve(
    vault: RunVault | str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_size: int = 8,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
) -> SessionServer:
    """Build a :class:`SessionServer` bound to ``(host, port)``.

    The caller decides how to pump it: :meth:`~SessionServer.serve_forever`
    to block (the CLI does this), or
    :meth:`~SessionServer.start_background` for an in-process daemon
    thread (tests and :mod:`examples.service` do this).
    """
    return SessionServer(
        vault,
        host,
        port,
        cache_size=cache_size,
        request_timeout=request_timeout,
    )
