"""What the benchmark measures: workloads, their inputs, and the metrics.

This module is the single source of ``BENCHMARK.json`` (see
``run.py --write-benchmark-json``).  It imports nothing from memflow, so
the orchestrator can read it before the package is known to be present.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

#: Directories that hold the benchmark, relative to the repository root.
PATHS = ["perfbench"]
COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 35

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


# End-to-end metrics: measured with tracing off, on every workload, in
# reference seconds (reference.py): the host's speed drifts by tens of
# percent within minutes, and scaling by a reference rate sampled next to
# each measurement removes most of that drift.  A workload on several
# worker processes takes ``steps_per_s`` per CPU second.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("steps_per_s", "1/s", "higher", 0.25),
]

# Printed by name on every untraced run and kept in the result record, but
# not gated: wall-clock figures, and figures that are zero by design or
# move with the seed by more than any usable bound (README.md).
REPORTED = [
    Metric("setup_wall_s", "s", "lower"),
    Metric("steps_per_wall_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("tts_s_median", "s", "lower"),
    Metric("runs_per_s", "1/s", "higher"),
    Metric("failed_frac", "1", "lower"),
]

# Per-layer metrics from the traced run.  A layer a workload never calls
# reads 0 on that workload.
PER_LAYER = [
    Metric("netlist.build_multiplier_ms", "ms", "lower"),
    Metric("cnf.encode_cnf_ms", "ms", "lower"),
    Metric("dynamics.first_flow_ms", "ms", "lower"),
    Metric("litgraph.literal_graph_ms", "ms", "lower"),
    Metric("litgraph.distances_ms", "ms", "lower"),
    Metric("dynamics.flow_field_us", "us", "lower"),
    Metric("dynamics.step_us", "us", "lower"),
    Metric("dynamics.check_solution_us", "us", "lower"),
    Metric("dynamics.integrate_us_per_step", "us", "lower"),
    Metric("dynamics.loop_overhead_us_per_step", "us", "lower"),
    Metric("dynamics.steps", "count", "lower"),
    Metric("dynamics.crossings", "count", "lower"),
    Metric("dynamics.crossings_per_step", "1/step", "lower"),
    Metric("dynamics.flow_bytes_computed", "B", "lower"),
    Metric("dynamics.snapshot_mb", "MB", "lower"),
    Metric("ensemble.run_ensemble_s", "s", "lower"),
    Metric("ensemble.run_ensemble_w1_s", "s", "lower"),
    Metric("ensemble.parallel_efficiency", "1", "higher"),
    Metric("ensemble.task_pickle_kb", "kB", "lower"),
    Metric("ensemble.result_pickle_mb", "MB", "lower"),
    Metric("ensemble.spatial_correlation_s", "s", "lower"),
    Metric("ensemble.temporal_correlation_s", "s", "lower"),
    Metric("ensemble.select_temporal_literals_s", "s", "lower"),
    Metric("ensemble.pairs_evaluated", "count", "lower"),
    Metric("toyflow.build_instanton_family_s", "s", "lower"),
    Metric("toyflow.invariance_scan_s", "s", "lower"),
    Metric("toyflow.scan_entries", "count", "higher"),
    Metric("toyflow.tangency_errors", "count", "lower"),
    Metric("artifacts.write_csv_ms", "ms", "lower"),
    Metric("artifacts.csv_bytes", "B", "lower"),
    Metric("cli.overhead_ms", "ms", "lower"),
    Metric("trace.untraced_wall_s", "s", "lower"),
    Metric("trace.traced_wall_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # factorize | analyze | toy
    instances: tuple = ()  # (n, p_bits, q_bits)
    max_time: float = 0.0
    runs: int = 0
    flows: tuple = ()
    scan_points: int = 0
    #: Processes the operations run in.  The reference rate is sampled on
    #: this many CPUs at once, and with more than one ``steps_per_s`` is
    #: taken per CPU second, so an idle worker does not count (README.md).
    workers: int = 1
    setup_reps: int = 7
    #: Listed in BENCHMARK.json.  factorize-12bit is not: its solve times
    #: are heavy-tailed, so its runs are neither steady nor bounded in time.
    listed: bool = True


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "factorize-12bit",
            "user-facing cli factorize to a solution at ~528 clauses; per-step Python overhead and CSV writing",
            "factorize", instances=((3599, 6, 6), (2813, 5, 7), (2491, 6, 6)), max_time=20000.0,
            listed=False),
        Workload(
            "factorize-19bit",
            "cli factorize 497503 (1390 clauses) to a fixed horizon; numpy flow kernels dominate",
            "factorize", instances=((497503, 9, 10),), max_time=200.0),
        Workload(
            "analyze-793",
            "cli analyze ensemble on 2 workers: process-pool dispatch, retained snapshots, C(d) and C(tau) passes",
            "analyze", instances=((793, 4, 6),), runs=12, max_time=20000.0, workers=2),
        Workload(
            "toy-scan",
            "toyflow instanton families and invariance scans; never calls dynamics",
            "toy", flows=("logistic", "spiral"), scan_points=10),
    ]
}

#: Same code paths at a size that runs in seconds (``run.py --smoke``).
TINY = {
    "factorize-12bit": dict(instances=((15, 2, 3), (21, 2, 3), (35, 3, 3)), max_time=2000.0, setup_reps=1),
    "factorize-19bit": dict(max_time=2.0, setup_reps=1),
    "analyze-793": dict(instances=((35, 3, 3),), runs=4, setup_reps=1),
    "toy-scan": dict(scan_points=2, setup_reps=1),
}


def resolve(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, **TINY[name]) if tiny else workload


def operations(workload: Workload, seed: int):
    """Endless, seed-determined stream of operation inputs.

    factorize: (n, p_bits, q_bits, dynamics seed), cycling through the
    instance list in a shuffled order; analyze: (n, p_bits, q_bits, base
    seed); toy: per flow, a seed that picks which scan times to observe.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        if workload.kind == "toy":
            yield {flow: rng.randrange(1 << 30) for flow in workload.flows}
            continue
        order = list(workload.instances)
        rng.shuffle(order)
        for inst in order:
            yield (*inst, rng.randrange(1 << 31))


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.listed],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
