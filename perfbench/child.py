"""One measured execution of a benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per measurement, so that every
execution pays the imports again (they are part of ``setup_s``) and
its peak memory is its own. Modes:

* ``run``    — the workload with tracing off (end-to-end metrics);
* ``traced`` — the same workload with the program's spans on and the
  layer wrappers of ``layers.py`` installed (per-layer metrics).

The result is written to ``result.json`` in ``--out-dir``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402
from repro import AsyncEvaluator, MFBOptimizer, OptimizationSession, connect  # noqa: E402
from repro.circuits.power_amplifier import PowerAmplifierProblem  # noqa: E402
from repro.core.history import History  # noqa: E402
from repro.experiments.scale import SMOKE  # noqa: E402
from repro.obs import MemorySink, tracing  # noqa: E402
from repro.problems.base import FIDELITY_HIGH  # noqa: E402
from repro.service import ServiceError, serve  # noqa: E402

#: Strategy settings shared by every workload: the SMOKE scale.
COMMON = dict(
    n_mc_samples=SMOKE.n_mc_samples,
    n_restarts=SMOKE.n_restarts,
    gp_max_opt_iter=SMOKE.gp_max_opt_iter,
)
PA = dict(
    COMMON,
    budget=SMOKE.tab1_ours_budget,
    n_init_low=SMOKE.tab1_ours_init[0],
    n_init_high=SMOKE.tab1_ours_init[1],
    msp_starts=SMOKE.msp_starts,
    msp_polish=SMOKE.msp_polish,
)
BRANIN = dict(
    COMMON,
    budget=5.0,
    n_init_low=4,
    n_init_high=2,
    msp_starts=SMOKE.msp_starts,
    msp_polish=SMOKE.msp_polish,
)

#: Ask/tell rounds (batches of two) of a PA run. Seed 2019 spends its
#: whole budget in exactly these rounds; seeds that pick one early
#: low-fidelity point spend the last high-fidelity cost unit on many
#: more low-fidelity rounds instead, so a full-budget PA run takes one
#: of two lengths. Capping the rounds keeps each run's work the same.
PA_ROUNDS = 19
PA_BATCH = 2

#: Model-based ``suggest`` calls per service unit (every op >= 100 samples).
SERVICE_SUGGESTS = 100
PREDICTS_PER_OBSERVE = 3
#: The fixed 32-point grid (8 x 4, unit square) every ``predict`` asks for.
GRID = np.array([[i / 7, j / 3] for i in range(8) for j in range(4)])


def summarize(result) -> dict:
    return {
        "best": float(result.best_objective),
        "feasible": bool(result.feasible),
        "n_low": int(result.n_low),
        "n_high": int(result.n_high),
        "cost": float(result.equivalent_cost),
    }


def incumbent_matches(result, history: History) -> bool:
    """The reported best is the history's own high-fidelity incumbent."""
    best = history.incumbent(FIDELITY_HIGH)
    return best is not None and float(best.objective) == float(result.best_objective)


class Timer:
    """Client-side ``(op, seconds)`` of every call, in call order."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, float]] = []

    def add(self, op: str, seconds: float) -> None:
        self.calls.append((op, seconds))

    def timed(self, op: str, method, *args):
        start = time.perf_counter()
        reply = method(*args)
        self.add(op, time.perf_counter() - start)
        return reply


# ----------------------------------------------------------------------
# process accounting for farm workers
# ----------------------------------------------------------------------
def proc_file(pid: int, name: str) -> str:
    """``/proc/<pid>/<name>``, or "" once the process is gone."""
    try:
        return Path(f"/proc/{pid}/{name}").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return ""


def proc_cpu_s(pid: int) -> float:
    stat = proc_file(pid, "stat")
    if not stat:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    for line in proc_file(pid, "status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def running(pid: int) -> bool:
    """Whether ``pid`` has not exited yet (a zombie has)."""
    stat = proc_file(pid, "stat")
    return bool(stat) and stat.rsplit(")", 1)[1].split()[0] != "Z"


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def close_farm(evaluator: AsyncEvaluator) -> tuple[float, float, float]:
    """Read worker CPU and peak memory, close the farm, wait for workers.

    ``AsyncEvaluator.close`` shuts its pool down without waiting, so the
    workers are not reaped yet when it returns and ``RUSAGE_CHILDREN``
    misses their CPU time; ``/proc`` is read while they are alive. The
    pool's manager thread reaps them, at the latest at interpreter exit.
    Returns (worker CPU, summed worker peak RSS, what ``RUSAGE_CHILDREN``
    reads right after ``close``).
    """
    pids = evaluator.worker_pids()
    cpu = sum(proc_cpu_s(pid) for pid in pids)
    rss = sum(proc_peak_rss_mb(pid) for pid in pids)
    evaluator.close()
    rusage_after_close = children_cpu_s()
    deadline = time.monotonic() + 30.0
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in filter(running, pids):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return cpu, rss, rusage_after_close


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class PAWorkload:
    """pa_farm_batch2: ask/tell on the power amplifier, simulated on a farm."""

    def __init__(self, name: str, out_dir: Path) -> None:
        self.evaluator = None
        self.farm_metrics: dict = {}

    def setup(self, seed: int) -> None:
        self.problem = PowerAmplifierProblem()
        self.strategy = MFBOptimizer(self.problem, seed=seed, **PA)
        self.evaluator = AsyncEvaluator(max_workers=2)
        self.session = OptimizationSession(self.strategy, self.evaluator)

    def measure(self, timer: Timer) -> dict:
        """The ask -> evaluate -> tell loop, each call timed."""
        session, problem = self.session, self.problem
        n_init = PA["n_init_low"] + PA["n_init_high"]
        handed = rounds = 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while not session.is_done and rounds < PA_ROUNDS:
            start = time.perf_counter()
            batch = session.suggest(PA_BATCH)
            elapsed = time.perf_counter() - start
            if not batch:
                break
            # handing out the initial design is a queue pop, not a
            # strategy iteration: its latency is kept apart
            handed += len(batch)
            timer.add("suggest" if handed > n_init else "suggest_init", elapsed)
            evaluations = session.evaluator.evaluate(problem, batch)
            for suggestion, evaluation in zip(batch, evaluations):
                timer.timed(
                    "observe", session.observe,
                    suggestion.x_unit, suggestion.fidelity, evaluation,
                )
            rounds += 1
        result = session.result()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        self.farm_metrics = self.evaluator.metrics.snapshot()
        worker_cpu, worker_rss, rusage_cpu = close_farm(self.evaluator)
        self.evaluator = None
        cpu += worker_cpu
        self.farm_metrics["worker_cpu_s"] = worker_cpu
        self.farm_metrics["rusage_children_cpu_s"] = rusage_cpu
        ok = incumbent_matches(result, self.strategy.history) and (
            result.equivalent_cost <= PA["budget"] + 1e-9
        )
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "worker_rss_mb": worker_rss,
            "result": summarize(result),
            "invariants_ok": bool(ok),
        }

    def teardown(self) -> None:
        if self.evaluator is not None:
            close_farm(self.evaluator)


class ServiceWorkload:
    """service_session: one closed-loop client against a loopback server.

    Run ``j`` of a unit with seed ``s`` uses strategy seed ``100 * s + j``.
    """

    def __init__(self, name: str, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.vault_dir = out_dir / "vault"
        self.server = None
        self.client = None
        self.cache_stats: dict = {}

    def _create(self, seed: int):
        return self.client.create("branin", "mfbo", seed=seed, **BRANIN)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.server = serve(self.vault_dir)
        self.thread = self.server.start_background()
        self.client = connect(self.server.address)
        self.remote = self._create(seed * 100)
        self.problem = self.remote.problem

    def measure(self, timer: Timer) -> dict:
        """suggest, evaluate locally, observe, 3x predict, status; repeat.

        Runs follow each other until ``SERVICE_SUGGESTS`` model-based
        suggests have been timed; the run in flight then is detached
        unfinished (it stays resumable in the vault).
        """
        n_init = BRANIN["n_init_low"] + BRANIN["n_init_high"]
        runs: list[dict] = []
        failed = 0
        remote, handed, run_index, suggests = self.remote, 0, 0, 0
        timed = timer.timed
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            while suggests < SERVICE_SUGGESTS:
                start = time.perf_counter()
                batch = remote.suggest(1)
                elapsed = time.perf_counter() - start
                handed += len(batch)
                model_based = handed > n_init
                suggests += model_based
                timer.add("suggest" if model_based else "suggest_init", elapsed)
                done = not batch
                for x_unit, fidelity in batch:
                    evaluation = self.problem.evaluate_unit(x_unit, fidelity)
                    reply = timed("observe", remote.observe, x_unit, fidelity, evaluation)
                    for _ in range(PREDICTS_PER_OBSERVE):
                        timed("predict", remote.predict, GRID)
                    timed("status", remote.status)
                    done = reply["is_done"]
                if done:
                    result = timed("result", remote.result)
                    history = timed("history", remote.history)
                    runs.append(
                        dict(summarize(result), invariants_ok=incumbent_matches(result, history))
                    )
                    timed("detach", remote.detach)
                    run_index += 1
                    remote = timed("create", self._create, self.seed * 100 + run_index)
                    handed = 0
        except ServiceError as exc:
            print(f"service op failed: {exc}", file=sys.stderr)
            failed += 1
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        self.remote = remote
        self.cache_stats = self.server.cache.stats()
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "worker_rss_mb": 0.0,
            "runs": runs,
            "failed_ops": failed,
            "invariants_ok": all(r["invariants_ok"] for r in runs) and bool(runs),
        }

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
        shutil.rmtree(self.vault_dir, ignore_errors=True)


WORKLOADS = {
    "pa_farm_batch2": PAWorkload,
    "service_session": ServiceWorkload,
}


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, fields[2]
    return kind


def blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy builds differ in what they report
        return f"unknown ({type(exc).__name__})"


def environment(out_dir: Path) -> dict:
    threads = (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "blas": blas_library(),
        "thread_env": {name: os.environ.get(name) for name in threads},
        "vault_filesystem": filesystem_of(out_dir),
    }


# ----------------------------------------------------------------------
# traced execution helpers
# ----------------------------------------------------------------------
def write_spans(sink: MemorySink, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in sink.records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("run", "traced"))
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clock = None
    if args.mode == "traced":
        from layers import LayerClock, install

        worker_dir = out_dir / "workers"
        worker_dir.mkdir(exist_ok=True)
        clock = LayerClock(worker_dir)
        install(clock)

    workload = WORKLOADS[args.workload](args.workload, out_dir)
    workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    report: dict = {"setup_s": setup_s, "env": environment(out_dir)}
    timer = Timer()
    if clock is None:
        unit = workload.measure(timer)
    else:
        sink = MemorySink()
        clock.clear()
        with tracing(sink):
            unit = workload.measure(timer)
        unit["layers"] = clock.snapshot()
        unit["workers"] = clock.worker_snapshots()
        clock.uninstall()
        write_spans(sink, out_dir / "spans.jsonl")
    workload.teardown()
    unit.update(
        seed=args.seed,
        calls=timer.calls,
        farm=getattr(workload, "farm_metrics", {}),
        cache=getattr(workload, "cache_stats", {}),
    )
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(unit=unit, peak_rss_mb=self_rss + unit["worker_rss_mb"])
    (out_dir / "result.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
