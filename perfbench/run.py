"""Repository benchmark: seeded workloads from SPICE to the session server.

    python3 perfbench/run.py --workload pa_farm_batch2 --seed 2019 --seconds 50 --trace 0

Run from the root of a checkout. Every unit of work runs in a fresh
interpreter started from ``perfbench/child.py`` with ``src`` on the
path, so imports count towards ``setup_s`` and memory is per unit.

``--trace 0`` runs a workload's units untraced (unit ``i`` uses seed
``seed + 7919 * i``, the tables' repeat rule), starting units until
``--seconds`` have passed, and prints the end-to-end metrics, as
medians over the units. ``--trace 1`` runs one unit
untraced and the same unit traced, and prints the per-layer metrics:
layer times from the traced unit, client op latencies from the
untraced one, and the tracing overhead (traced minus untraced wall
time). Both check every unit against its pinned reference (seeds
without one against invariants) and print one JSON object as the last
line of standard output.

Intermediate files, span traces and a report with the environment go
to ``.perfbench_out/`` in the checkout. ``perfbench/README.md`` names
the workloads and maps every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("pa_farm_batch2", "service_session")

#: A ``--trace 0`` run starts units (one optimization, or for the
#: service one session of 100 model-based suggests; 10-16 s each on a
#: 2-CPU host) until ``--seconds`` have passed, at least ``MIN_UNITS``
#: and at most ``MAX_UNITS``: on a shared host single units swing
#: widely, and the median of several is what keeps a run steady. Every
#: unit's interpreter also gives one ``setup_s`` sample.
MIN_UNITS = 3
MAX_UNITS = 8
DEADLINE_S = 170.0

#: Outcomes (best objective, feasible, low and high evaluations,
#: equivalent cost) of the first six units of seeds 2019 and 2020,
#: pinned at the commit that introduced the benchmark. A service unit
#: lists the runs it completed.
REFERENCES: dict[str, dict[int, object]] = {
    "pa_farm_batch2": {
        2019: (-77.97648005835727, True, 20, 17, 18.000000000000007),
        9938: (-69.83548876375204, True, 20, 17, 18.000000000000004),
        17857: (-76.56815785418347, True, 20, 17, 18.000000000000004),
        25776: (-55.02208662137738, True, 21, 16, 17.05),
        33695: (-66.8016115601599, True, 24, 13, 14.200000000000006),
        41614: (-83.01742907399439, True, 20, 17, 18.000000000000004),
        2020: (-58.44261532687919, True, 22, 15, 16.1),
        9939: (-79.93258772518851, True, 20, 17, 18.000000000000004),
        17858: (-65.94133780498665, True, 21, 16, 17.050000000000004),
        25777: (-78.51554920615746, True, 20, 17, 18.000000000000007),
        33696: (-76.72551081442913, True, 20, 17, 18.000000000000004),
        41615: (-65.70682192928005, True, 24, 13, 14.200000000000006),
    },
    "service_session": {
        2019: [
            (2.8179689923622604, True, 10, 4, 4.999999999999998),
            (96.12540633993468, True, 20, 3, 4.9999999999999964),
            (17.38301140702565, True, 10, 4, 4.999999999999999),
            (20.865452311514346, True, 20, 3, 4.9999999999999964),
            (2.8703452902856714, True, 10, 4, 4.999999999999999),
            (0.4196966870829808, True, 10, 4, 5.0),
            (5.542959136082995, True, 10, 4, 4.999999999999999),
            (127.44123780190208, True, 10, 4, 4.999999999999998),
            (10.959804243109248, True, 10, 4, 4.999999999999999),
            (196.16402370977664, True, 10, 4, 4.999999999999999),
        ],
        9938: [
            (6.935558993372604, True, 10, 4, 4.999999999999998),
            (153.45782618886838, True, 10, 4, 4.999999999999999),
            (4.410370120228228, True, 10, 4, 4.999999999999998),
            (68.22001963856079, True, 10, 4, 4.999999999999998),
            (2.573994392865788, True, 10, 4, 4.999999999999998),
            (0.4701747974190713, True, 10, 4, 4.999999999999998),
            (0.6792186177491928, True, 10, 4, 5.0),
            (21.896529846926445, True, 10, 4, 5.0),
            (4.697950184001148, True, 10, 4, 4.999999999999998),
            (5.43054221184242, True, 10, 4, 4.999999999999998),
            (12.888454135042569, True, 10, 4, 5.0),
            (115.31839776768157, True, 10, 4, 4.999999999999998),
        ],
        17857: [
            (106.76816481215897, True, 10, 4, 4.999999999999998),
            (0.7051825565027237, True, 10, 4, 5.0),
            (1.1569964053748407, True, 20, 3, 4.9999999999999964),
            (4.203166249819267, True, 10, 4, 5.0),
            (5.0006920169471005, True, 10, 4, 4.999999999999999),
            (67.76738060343354, True, 10, 4, 4.999999999999999),
            (3.372330738772332, True, 10, 4, 5.0),
            (7.725106938047694, True, 10, 4, 4.999999999999998),
            (8.91316108334384, True, 10, 4, 4.999999999999998),
            (110.99692457951842, True, 10, 4, 4.999999999999998),
            (14.21405801794886, True, 10, 4, 4.999999999999998),
        ],
        25776: [
            (81.38120988741056, True, 20, 3, 4.9999999999999964),
            (3.9542612223802776, True, 10, 4, 4.999999999999999),
            (88.99353592701227, True, 20, 3, 4.9999999999999964),
            (4.643615794600231, True, 10, 4, 5.0),
            (4.35287037633147, True, 20, 3, 4.999999999999998),
            (2.8629267439447315, True, 10, 4, 5.0),
            (90.9178386733698, True, 10, 4, 5.0),
            (10.959724654863072, True, 10, 4, 5.0),
            (80.5113577233547, True, 10, 4, 4.999999999999998),
        ],
        33695: [
            (70.77488164696413, True, 10, 4, 4.999999999999999),
            (2.1962373096681693, True, 10, 4, 5.0),
            (56.07184608707092, True, 10, 4, 4.999999999999998),
            (59.58161155648652, True, 20, 3, 4.9999999999999964),
            (16.090193361471265, True, 20, 3, 4.9999999999999964),
            (0.7529265231473996, True, 10, 4, 5.0),
            (5.0791992791169776, True, 10, 4, 5.0),
            (2.9083551341133456, True, 10, 4, 4.999999999999999),
            (10.960756061101403, True, 10, 4, 4.999999999999999),
            (9.883682657663849, True, 10, 4, 4.999999999999999),
        ],
        41614: [
            (51.90904846372112, True, 10, 4, 4.999999999999998),
            (5.673074407907149, True, 20, 3, 4.9999999999999964),
            (4.260926441531309, True, 10, 4, 5.0),
            (0.6706528150292144, True, 10, 4, 5.0),
            (6.351209794953887, True, 10, 4, 5.0),
            (1.0403413427758483, True, 10, 4, 5.0),
            (0.8492483139963802, True, 10, 4, 4.999999999999998),
            (133.07180846777965, True, 10, 4, 5.0),
            (10.94438668200279, True, 10, 4, 4.999999999999998),
            (124.88120145203452, True, 10, 4, 4.999999999999998),
            (115.15561963056601, True, 10, 4, 4.999999999999998),
        ],
        2020: [
            (43.26801292841917, True, 20, 3, 4.9999999999999964),
            (57.62251728929331, True, 20, 3, 4.999999999999998),
            (0.9558748311247047, True, 10, 4, 4.999999999999998),
            (61.721741156381995, True, 10, 4, 4.999999999999998),
            (1.900922214000408, True, 10, 4, 5.0),
            (4.1180645471436215, True, 20, 3, 4.9999999999999964),
            (3.069632806390132, True, 10, 4, 5.0),
            (1.6226787120002708, True, 10, 4, 4.999999999999999),
            (5.273135599048814, True, 10, 4, 4.999999999999998),
        ],
        9939: [
            (0.903120679657416, True, 10, 4, 4.999999999999998),
            (1.7126481676664795, True, 10, 4, 5.0),
            (115.42060218732658, True, 10, 4, 4.999999999999999),
            (2.712063365124674, True, 10, 4, 4.999999999999998),
            (19.289306798710278, True, 10, 4, 4.999999999999999),
            (6.0590428678652435, True, 10, 4, 4.999999999999998),
            (17.507444813625433, True, 10, 4, 5.0),
            (6.5667863415164085, True, 10, 4, 5.0),
            (149.78455208776768, True, 20, 3, 4.9999999999999964),
            (87.53976454441022, True, 10, 4, 4.999999999999998),
            (11.946260080679064, True, 10, 4, 4.999999999999998),
        ],
        17858: [
            (144.09601496510572, True, 10, 4, 5.0),
            (0.8999530060074434, True, 10, 4, 4.999999999999999),
            (2.678695996916291, True, 10, 4, 4.999999999999998),
            (12.599029066215047, True, 10, 4, 4.999999999999998),
            (27.323098494945036, True, 10, 4, 4.999999999999998),
            (3.0514964535426685, True, 10, 4, 4.999999999999998),
            (106.10835107950273, True, 10, 4, 4.999999999999998),
            (10.225321638994142, True, 10, 4, 4.999999999999999),
            (8.003134081369355, True, 10, 4, 4.999999999999998),
            (2.1401477533826387, True, 10, 4, 5.0),
            (115.3986544474371, True, 10, 4, 4.999999999999998),
        ],
        25777: [
            (0.8819094905148273, True, 10, 4, 4.999999999999998),
            (0.961418252433516, True, 10, 4, 4.999999999999998),
            (35.77469927595244, True, 10, 4, 4.999999999999999),
            (10.959510438282447, True, 10, 4, 5.0),
            (5.7799618683500835, True, 10, 4, 4.999999999999999),
            (1.0870449357651513, True, 10, 4, 4.999999999999999),
            (57.41107575549605, True, 20, 3, 4.9999999999999964),
            (1.3233194928734289, True, 10, 4, 4.999999999999998),
            (47.175212892835674, True, 20, 3, 4.999999999999998),
        ],
        33696: [
            (65.24657247502495, True, 20, 3, 4.999999999999997),
            (4.978698173967892, True, 10, 4, 4.999999999999998),
            (79.53270529140312, True, 10, 4, 5.0),
            (71.62180202065318, True, 10, 4, 4.999999999999998),
            (6.812435536134542, True, 10, 4, 4.999999999999999),
            (98.45580733025855, True, 10, 4, 5.0),
            (115.80723195679266, True, 10, 4, 5.0),
            (7.5606906590362195, True, 10, 4, 4.999999999999999),
            (32.97231968545256, True, 10, 4, 5.0),
            (5.518502188088307, True, 10, 4, 4.999999999999999),
        ],
        41615: [
            (10.960889035651505, True, 10, 4, 4.999999999999998),
            (9.913978062404052, True, 10, 4, 4.999999999999998),
            (3.6157737846605205, True, 10, 4, 5.0),
            (1.3699409467052366, True, 10, 4, 4.999999999999998),
            (204.65110378564475, True, 10, 4, 4.999999999999999),
            (132.24872243324208, True, 10, 4, 4.999999999999998),
            (10.960622306330759, True, 10, 4, 5.0),
            (1.2460139809585389, True, 10, 4, 5.0),
            (1.1930276706199336, True, 10, 4, 4.999999999999999),
            (71.98732588027268, True, 10, 4, 4.999999999999999),
            (25.72467403985323, True, 10, 4, 4.999999999999998),
        ],
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

CLIENT_OPS = ("suggest", "observe", "predict")
SERVER_OPS = ("suggest", "observe", "predict", "status")
PER_LAYER = [
    *[(f"{op}_p{q}_ms", "ms") for op in CLIENT_OPS for q in (50, 90)],
    ("ops_per_s", "1/s"),
    ("spice.transient_s", "s"),
    ("spice.assemble_s", "s"),
    ("spice.assemble_calls", "count"),
    ("spice.linsolve_s", "s"),
    ("spice.newton_iters", "count"),
    ("spice.newton_per_step", "iter/step"),
    ("problem.evaluate_s", "s"),
    ("problem.evaluations", "count"),
    ("problem.failed", "count"),
    ("gp.fit_s", "s"),
    ("gp.fit_calls", "count"),
    ("gp.add_points_s", "s"),
    ("gp.add_points_calls", "count"),
    ("gp.predict_s", "s"),
    ("mf.nargp_fit_s", "s"),
    ("mf.nargp_predict_s", "s"),
    ("optim.msp_maximize_s", "s"),
    ("optim.msp_calls", "count"),
    ("core.suggest_s", "s"),
    ("core.observe_s", "s"),
    ("session.evaluate_wait_s", "s"),
    ("farm.dispatched", "count"),
    ("farm.completed", "count"),
    ("farm.retries", "count"),
    ("farm.failures", "count"),
    ("farm.worker_busy_s", "s"),
    ("farm.worker_cpu_s", "s"),
    ("farm.utilization", "ratio"),
    *[(f"service.op_server_ms.{op}", "ms") for op in SERVER_OPS],
    ("service.wire_ms", "ms"),
    ("service.vault_observe_s", "s"),
    ("service.fsync_s", "s"),
    ("service.fsync_calls", "count"),
    ("service.cache_fit_s", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("other_s", "s"),
]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    if not values:
        raise BenchError("no samples for a percentile")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, mode: str, out_dir: Path, deadline: float) -> dict:
    """Run ``child.py`` in its own session; kill its process group on timeout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--out-dir", str(out_dir),
    ]
    process = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # farm workers share the child's process group: none may outlive it
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code is None:
        raise BenchError(f"{mode} run of {workload} exceeded the time limit")
    if code != 0:
        raise BenchError(f"{mode} run of {workload} exited with {code}")
    return json.loads((out_dir / "result.json").read_text())


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def same_result(got: dict, want: tuple) -> bool:
    best, feasible, n_low, n_high, cost = want
    return (
        math.isclose(got["best"], best, rel_tol=1e-9, abs_tol=1e-12)
        and (got["feasible"], got["n_low"], got["n_high"]) == (feasible, n_low, n_high)
        and math.isclose(got["cost"], cost, rel_tol=1e-9, abs_tol=1e-12)
    )


def outcome(workload: str, unit: dict):
    """What a unit produced, in the shape of its reference."""
    if workload == "service_session":
        keys = ("best", "feasible", "n_low", "n_high", "cost")
        return [{k: run[k] for k in keys} for run in unit["runs"]]
    return unit["result"]


def unit_ok(workload: str, unit: dict) -> bool:
    if not unit["invariants_ok"] or unit.get("failed_ops"):
        return False
    want = REFERENCES[workload].get(unit["seed"])
    if want is None:
        return True
    got = outcome(workload, unit)
    if workload == "service_session":
        return len(got) == len(want) and all(map(same_result, got, want))
    return same_result(got, want)


def accounting(workload: str, units: list[dict]) -> tuple[int, int]:
    """(attempted, failed): every op the client issued, plus every unit."""
    attempted = sum(1 + len(unit["calls"]) for unit in units)
    failed = sum(
        (0 if unit_ok(workload, unit) else 1) + unit.get("failed_ops", 0)
        for unit in units
    )
    return attempted, failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(reports: list[dict]) -> dict:
    units = [r["unit"] for r in reports]
    return {
        "setup_s": median([r["setup_s"] for r in reports]),
        "wall_s": median([u["wall_s"] for u in units]),
        "cpu_s": median([u["cpu_s"] for u in units]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }


def client_latencies(unit: dict) -> dict:
    """Client-side op latencies of an untraced unit (0 where an op is absent)."""
    values = {"ops_per_s": len(unit["calls"]) / unit["wall_s"]}
    for op in CLIENT_OPS:
        samples = [1e3 * seconds for name, seconds in unit["calls"] if name == op]
        for q in (50, 90):
            values[f"{op}_p{q}_ms"] = percentile(samples, q / 100) if samples else 0.0
    return values


def merge_stats(into: dict, stats: dict) -> None:
    for label, entry in stats.items():
        target = into.setdefault(label, [0, 0.0, 0.0])
        for i in range(3):
            target[i] += entry[i]


def per_layer(untraced: dict, unit: dict) -> dict:
    """Layer metrics of a traced unit; client latencies of an untraced one."""
    layers = unit["layers"]
    stats, samples = layers["stats"], layers["samples"]
    # Farm workers simulate while the main thread waits in evaluate, so
    # their spice and problem times are reported but not added to the
    # coverage of the main thread's wall time.
    everywhere = {label: list(entry) for label, entry in stats.items()}
    extra = dict(layers["extra"])
    for worker in unit["workers"]:
        merge_stats(everywhere, worker["stats"])
        for key, value in worker["extra"].items():
            extra[key] = extra.get(key, 0.0) + value

    def calls(label):
        return everywhere.get(label, [0, 0.0, 0.0])[0]

    def total(label):
        return everywhere.get(label, [0, 0.0, 0.0])[1]

    def own(label):
        return everywhere.get(label, [0, 0.0, 0.0])[2]

    farm = unit["farm"]

    def counter(name):
        return farm.get(name, {}).get("value", 0)

    wait_s = total("session.evaluate")
    busy_s = farm.get("farm.wall_s", {}).get("sum", 0.0)
    steps = extra.get("spice.steps", 0.0)
    cache = unit["cache"]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)

    # Server time per client call: the one client calls in sequence, so
    # the server's calls pair with the client's in order.
    server_calls = samples.get("service.op", [])
    if server_calls and len(server_calls) != len(unit["calls"]):
        raise BenchError("server and client call counts differ")
    server_ms: dict[str, list[float]] = {}
    wire_s = 0.0
    for (op, client_s), (_, server_s) in zip(unit["calls"], server_calls):
        server_ms.setdefault(op, []).append(1e3 * server_s)
        wire_s += client_s - server_s
    n_calls = len(server_calls)

    traced_wall = unit["wall_s"]
    attributed = sum(entry[2] for entry in stats.values()) + wire_s
    values = client_latencies(untraced)
    values.update({
        "spice.transient_s": extra.get("spice.transient_s", 0.0),
        "spice.assemble_s": total("spice.assemble"),
        "spice.assemble_calls": calls("spice.assemble"),
        "spice.linsolve_s": own("spice.solve_newton"),
        "spice.newton_iters": calls("spice.solve_newton"),
        "spice.newton_per_step": calls("spice.solve_newton") / steps if steps else 0.0,
        "problem.evaluate_s": total("problem.evaluate"),
        "problem.evaluations": calls("problem.evaluate"),
        "problem.failed": extra.get("problem.failed", 0),
        "gp.fit_s": own("gp.fit"),
        "gp.fit_calls": calls("gp.fit"),
        "gp.add_points_s": own("gp.add_points"),
        "gp.add_points_calls": calls("gp.add_points"),
        "gp.predict_s": own("gp.predict"),
        "mf.nargp_fit_s": own("mf.nargp_fit"),
        "mf.nargp_predict_s": own("mf.nargp_predict"),
        "optim.msp_maximize_s": own("optim.msp_maximize"),
        "optim.msp_calls": calls("optim.msp_maximize"),
        "core.suggest_s": total("core.suggest"),
        "core.observe_s": total("core.observe"),
        "session.evaluate_wait_s": wait_s,
        "farm.dispatched": counter("farm.dispatched"),
        "farm.completed": counter("farm.completed"),
        "farm.retries": counter("farm.retries"),
        "farm.failures": counter("farm.failures"),
        "farm.worker_busy_s": busy_s,
        "farm.worker_cpu_s": farm.get("worker_cpu_s", 0.0),
        "farm.utilization": busy_s / (2 * wait_s) if busy_s and wait_s else 0.0,
        "service.wire_ms": 1e3 * wire_s / n_calls if n_calls else 0.0,
        "service.vault_observe_s": total("service.vault_observe"),
        "service.fsync_s": total("service.fsync"),
        "service.fsync_calls": calls("service.fsync"),
        "service.cache_fit_s": total("service.cache_fit"),
        "service.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced["wall_s"],
        "trace.coverage": attributed / traced_wall,
        "other_s": traced_wall - attributed,
    })
    for op in SERVER_OPS:
        op_ms = server_ms.get(op)
        values[f"service.op_server_ms.{op}"] = percentile(op_ms, 0.5) if op_ms else 0.0
    return values


def render(values: dict, table: list[tuple[str, str]]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in table}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def measure(args, out_root: Path) -> tuple[dict, list[dict], dict, int]:
    """Run the children for one invocation.

    Returns (environment, units, metrics, extra failures).
    """
    deadline = time.monotonic() + DEADLINE_S
    workload, seed = args.workload, args.seed
    if args.trace:
        report = run_child(workload, seed, "run", out_root / "run", deadline)
        untraced = report["unit"]
        traced = run_child(workload, seed, "traced", out_root / "traced", deadline)["unit"]
        # tracing must not change the trajectory
        drift = int(outcome(workload, untraced) != outcome(workload, traced))
        metrics = render(per_layer(untraced, traced), PER_LAYER)
        return report["env"], [untraced, traced], metrics, drift
    reports: list[dict] = []
    stop = time.monotonic() + args.seconds
    while len(reports) < MIN_UNITS or (
        len(reports) < MAX_UNITS and time.monotonic() < stop
    ):
        i = len(reports)
        reports.append(
            run_child(workload, seed + 7919 * i, "run", out_root / f"unit{i}", deadline)
        )
    units = [r["unit"] for r in reports]
    return reports[0]["env"], units, render(end_to_end(reports), END_TO_END), 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        env, units, metrics, drift = measure(args, out_root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = accounting(args.workload, units)
    failed += drift
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "outcomes": [outcome(args.workload, u) for u in units],
        **summary,
    }
    (out_root / "report.json").write_text(json.dumps(record, indent=1))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
