"""Workload process: runs one workload closed-loop and records raw figures.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
Untraced (``--trace 0``) it runs operations one after another until the
time budget is spent.  Traced (``--trace 1``) it spends half the budget
untraced, re-runs the same operations with spans around memflow's public
functions, then times single layers outside the timed region.  Either
way it writes one JSON record to ``--result``.  Set-up layers are timed
by ``setup_probe.py``, not here.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import hashlib
import io
import json
import math
import pickle
import random
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import memflow
from memflow import cli, dynamics, ensemble, toyflow
from memflow.artifacts import read_manifest

import spec
from reference import sampler, to_reference_seconds
from tracer import Tracer, captured

ARTIFACTS = ("crossings.csv", "trajectory.csv", "c_d_*.csv", "c_tau_*.csv", "report.txt")
#: The toy CLI's default number of scan times (``memflow toy --points``);
#: each operation scans a seed-chosen subset of ``scan_points`` of them.
TOY_CLI_POINTS = 20
#: Share of the run's seconds spent replaying trajectory states to time
#: flow_field, step and check_solution one call at a time.
REPLAY_SHARE = 0.2


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if any(fnmatch.fnmatch(p.name, pat) for pat in ARTIFACTS)}


def _cli(argv) -> tuple[int | None, str, str | None]:
    """Run memflow's CLI in-process: (exit code, stdout, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(a) for a in argv])
    except Exception as exc:  # a crashing operation is a failed operation
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), None


def _is_factorization(n: int, result: dict, stdout: str) -> bool:
    """result.txt and stdout both carry factors p, q > 1 with p * q == n."""
    p, q = int(result.get("p", 0)), int(result.get("q", 0))
    return p > 1 and q > 1 and p * q == n and stdout.split() == [str(p), str(q)]


def _record(op, wall: float, attempted: int) -> dict:
    """Per-operation record; ``failed`` counts attempts that did not
    succeed, ``wrong`` lists the failures that fail the run's gate and
    ``notes`` the ones the workload allows."""
    return {"op": op, "wall_s": wall, "attempted": attempted, "failed": 0, "steps": 0,
            "crossings": 0, "wrong": [], "notes": []}


def _fail(rec: dict, count: int, note: str, allowed: bool = False) -> None:
    rec["failed"] += count
    rec["notes" if allowed else "wrong"].append(note)


def _cpu_s() -> float:
    """CPU seconds of this process plus its waited-for children (pool
    workers are waited for when ``run_ensemble`` shuts its pool down)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _steps(traj, dt: float) -> int:
    return round(traj.final_state.t / dt)


class FactorizeRunner:
    """One operation = one ``memflow factorize`` call.

    With ``horizon`` the call is meant to stop at ``max_time`` well before
    it solves, so exit 3 there is a success; otherwise a timeout is an
    allowed failure (the solve times are heavy-tailed).  A reported
    solution must carry the true factors; a crash, a FlowError or a
    non-solution fixed point fails the gate.
    """

    def __init__(self, workload, workdir: Path, horizon: bool):
        self.w = workload
        self.workdir = workdir
        self.horizon = horizon
        self.trajectories: list = []  # filled only while traced

    def run(self, index: int, op) -> dict:
        n, p_bits, q_bits, seed = op
        out = self.workdir / f"op{index}"
        argv = ["factorize", n, "--p-bits", p_bits, "--q-bits", q_bits, "--seed", seed,
                "--max-time", repr(self.w.max_time), "--out", out]
        t0 = time.perf_counter()
        code, stdout, crash = _cli(argv)
        wall = time.perf_counter() - t0
        rec = _record(op, wall, attempted=1)
        if crash is not None:
            _fail(rec, 1, f"{n} seed {seed}: {crash}")
        else:
            result = read_manifest(out / "result.txt")
            status, t_end = result["status"], float(result["t_end"])
            rec["steps"] = round(t_end / float(read_manifest(out / "run_config.txt")["dt"]))
            rec["crossings"] = int(result["crossings"])
            if status == dynamics.SOLVED:
                if code != cli.EXIT_OK or not _is_factorization(n, result, stdout):
                    _fail(rec, 1, f"{n} seed {seed}: exit {code}, printed {stdout.strip()!r}")
            elif (status == dynamics.MAX_TIME and code == cli.EXIT_TIMEOUT
                  and math.isclose(t_end, self.w.max_time)):
                if not self.horizon:
                    _fail(rec, 1, f"{n} seed {seed}: no solution by t={self.w.max_time}", allowed=True)
            elif status == dynamics.FIXED_POINT_NON_SOLUTION and code == cli.EXIT_FIXED_POINT:
                _fail(rec, 1, f"{n} seed {seed}: stalled at a non-solution fixed point")
            else:
                _fail(rec, 1, f"{n} seed {seed}: exit {code} with status {status}")
            rec["csv_bytes"] = sum(p.stat().st_size for p in out.glob("*.csv"))
            rec["digests"] = _digests(out)
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def trace_targets(self):
        return [(cli, "main", "cli.main"),
                (cli, "build_multiplier", "netlist.build_multiplier"),
                (cli, "encode_cnf", "cnf.encode_cnf"),
                (cli, "netlist_to_text", "netlist.netlist_to_text"),
                (cli, "initial_state", "dynamics.initial_state"),
                (cli, "integrate", "dynamics.integrate"),
                (cli, "write_csv", "artifacts.write_csv"),
                (cli, "write_manifest", "artifacts.write_manifest")]

    @contextlib.contextmanager
    def capturing(self):
        calls: list = []
        with captured(cli, "integrate", calls):
            yield
        self.trajectories = calls


class AnalyzeRunner:
    """One operation = one ``memflow analyze`` call: an ensemble of
    ``runs`` trajectories on ``workers`` processes plus both
    correlation passes.  Each trajectory counts as one attempt."""

    def __init__(self, workload, workdir: Path):
        self.w = workload
        self.workdir = workdir
        self.ensembles: list = []  # (args, kwargs, Ensemble) of the first traced call
        self.keep = False

    def run(self, index: int, op) -> dict:
        n, p_bits, q_bits, base_seed = op
        out = self.workdir / f"op{index}"
        argv = ["analyze", n, "--p-bits", p_bits, "--q-bits", q_bits, "-M", self.w.runs,
                "--base-seed", base_seed, "--max-time", repr(self.w.max_time),
                "--workers", self.w.workers, "--out", out]
        calls: list = []
        t0 = time.perf_counter()
        with captured(ensemble, "run_ensemble", calls):
            code, _, crash = _cli(argv)
        wall = time.perf_counter() - t0
        rec = _record(op, wall, attempted=self.w.runs)
        if calls:
            cfg, ens = calls[-1][0][0], calls[-1][2]
            trajs = ens.trajectories
            rec["steps"] = sum(_steps(tr, cfg.params.dt) for tr in trajs)
            rec["crossings"] = sum(len(tr.crossings) for tr in trajs)
            unsolved = sum(tr.termination != dynamics.SOLVED for tr in trajs)
            if unsolved:
                _fail(rec, unsolved, f"base seed {base_seed}: {unsolved} runs not solved by t={self.w.max_time}")
            if self.keep and not self.ensembles:
                self.ensembles.append(calls[-1])
        if crash is not None or code != cli.EXIT_OK:
            _fail(rec, self.w.runs - rec["failed"], f"base seed {base_seed}: exit {code} {crash or ''}")
        else:
            problem = self._check_outputs(out, self.w.runs - rec["failed"])
            if problem:
                _fail(rec, self.w.runs - rec["failed"], f"base seed {base_seed}: {problem}")
            rec["csv_bytes"] = sum(p.stat().st_size for p in out.glob("*.csv"))
            rec["digests"] = _digests(out)
        shutil.rmtree(out, ignore_errors=True)
        return rec

    @staticmethod
    def _check_outputs(out: Path, solved: int) -> str | None:
        summary = read_manifest(next(out.glob("summary_*.txt")))
        if int(summary.get(f"terminated_{dynamics.SOLVED}", 0)) != solved:
            return f"summary counts {summary} disagree with {solved} solved runs"
        c_d = _read_csv(next(out.glob("c_d_*.csv")))
        c_tau = _read_csv(next(out.glob("c_tau_*.csv")))
        values = [x for row in c_d + c_tau for x in row]
        if not c_d or not c_tau or not all(math.isfinite(x) for x in values):
            return "correlation curve missing or not finite"
        if c_tau[0][0] != 0.0 or any(x != 1.0 for x in c_tau[0][1:]):
            return f"C(0) != 1: {c_tau[0]}"
        return None

    def trace_targets(self):
        return [(cli, "main", "cli.main"),
                (cli, "build_multiplier", "netlist.build_multiplier"),
                (cli, "encode_cnf", "cnf.encode_cnf"),
                (cli, "literal_graph", "litgraph.literal_graph"),
                (cli, "analyze", "ensemble.analyze"),
                (cli, "write_csv", "artifacts.write_csv"),
                (cli, "write_manifest", "artifacts.write_manifest"),
                (cli, "export_dimacs", "cnf.export_dimacs"),
                (ensemble, "run_ensemble", "ensemble.run_ensemble"),
                (ensemble, "spatial_correlation", "ensemble.spatial_correlation"),
                (ensemble, "select_temporal_literals", "ensemble.select_temporal_literals"),
                (ensemble, "temporal_correlation", "ensemble.temporal_correlation")]

    @contextlib.contextmanager
    def capturing(self):
        self.ensembles, self.keep = [], True
        try:
            yield
        finally:
            self.keep = False


def _read_csv(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()[1:]
    return [[float(x) for x in line.split(",")] for line in lines]


class ToyRunner:
    """One operation = both toy flows at the toy CLI's defaults: instanton
    family, the default scan times from ``suggest_scan_times``, and an
    invariance scan at a seed-chosen subset of them.  Each scan entry
    counts as one attempt."""

    def __init__(self, workload):
        self.w = workload

    def run(self, index: int, op) -> dict:
        rec = _record(op, 0.0, attempted=0)
        rec.update(digests={}, entries=0, tangency_errors=0)
        for flow_name in self.w.flows:
            t0 = time.perf_counter()
            flow = toyflow.logistic_product(1) if flow_name == "logistic" else toyflow.spiral_sink()
            m = flow.start.n_unstable
            family = toyflow.build_instanton_family(flow, sigma_span=(-4.0, 4.0),
                                                    count=161 if m == 1 else 41, dt=0.02)
            candidates = toyflow.suggest_scan_times(family, 0, TOY_CLI_POINTS)
            picked = sorted(random.Random(op[flow_name]).sample(range(len(candidates)), self.w.scan_points))
            report = toyflow.invariance_scan(family, [0], [(float(candidates[i]),) * m for i in picked])
            text = report.to_text()
            rec["wall_s"] += time.perf_counter() - t0
            rec["steps"] += (len(family.times) - 1) * family.frames.shape[1]
            rec["attempted"] += len(picked)
            rec["entries"] += len(report.entries)
            rec["tangency_errors"] += len(report.errors)
            rec["digests"][f"{flow_name}/report.txt"] = hashlib.sha256(text.encode()).hexdigest()
            if report.errors:
                _fail(rec, len(report.errors), f"{flow_name}: {len(report.errors)} tangency errors")
            bad = [e.times for e in report.entries if e.signed_sum != 1]
            if bad:
                _fail(rec, len(bad), f"{flow_name} value_set {sorted(report.value_set)} at times {bad}")
        return rec

    def trace_targets(self):
        return [(toyflow, "logistic_product", "toyflow.logistic_product"),
                (toyflow, "spiral_sink", "toyflow.spiral_sink"),
                (toyflow, "build_instanton_family", "toyflow.build_instanton_family"),
                (toyflow, "suggest_scan_times", "toyflow.suggest_scan_times"),
                (toyflow, "invariance_scan", "toyflow.invariance_scan")]

    @contextlib.contextmanager
    def capturing(self):
        yield


def make_runner(workload, workdir: Path):
    if workload.kind == "analyze":
        return AnalyzeRunner(workload, workdir)
    if workload.kind == "toy":
        return ToyRunner(workload)
    return FactorizeRunner(workload, workdir, horizon=workload.name == "factorize-19bit")


def closed_loop(runner, ops, budget_s: float, tracer: Tracer | None = None) -> list[dict]:
    """Run operations back to back; stop when the next one would most
    likely end past the budget.  At least one operation always runs.
    The machine's speed is sampled before and after every operation, on
    as many CPUs as the workload has workers, and each operation's CPU
    seconds are recorded.  With a tracer, each operation is one root span
    and one run id."""
    with sampler(runner.w.workers) as reference_rate:
        return _closed_loop(runner, ops, budget_s, tracer, reference_rate)


def _closed_loop(runner, ops, budget_s, tracer, reference_rate) -> list[dict]:
    records = []
    t_start = time.perf_counter()
    before = reference_rate()
    for index, op in enumerate(ops):
        cpu0 = _cpu_s()
        if tracer is None:
            rec = runner.run(index, op)
        else:
            tracer.run_id = index
            with tracer.span("op"):
                rec = runner.run(index, op)
        rec["cpu_s"] = _cpu_s() - cpu0
        after = reference_rate()
        rec["ref_rate"] = 0.5 * (before + after)
        before = after
        records.append(rec)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / len(records) >= budget_s:
            break
    return records


# ---- per-layer figures --------------------------------------------------

def _median(xs, default=0.0) -> float:
    return statistics.median(xs) if xs else default


def _replay(tracer: Tracer, calls: list, budget_s: float) -> dict:
    """Time flow_field, step and check_solution one call at a time on the
    states the traced integrate calls visited.

    ``calls`` holds the traced integrate calls as (args, kwargs, result).
    With theta = 0, stepping from a call's initial state revisits exactly
    the states its run visited.  Trajectories are replayed in order until
    ``budget_s`` is spent (at least 100 states).  The loop overhead
    compares integrate's time per step with step + check_solution over
    the same replayed states, so it is not biased by where they lie.
    """
    spans = tracer.durations("dynamics.integrate")
    if not calls or len(spans) != len(calls):
        return {}
    flow_ns = step_ns = check_ns = visited = 0
    integrate_s = 0.0
    clock = time.perf_counter_ns
    deadline = clock() + budget_s * 1e9
    for (args, _, traj), span_s in zip(calls, spans):
        state, cs, params = args[0], args[1], args[2]
        steps = _steps(traj, params.dt)
        done = 0
        while done < steps and (done < 100 or clock() < deadline):
            t0 = clock()
            memflow.flow_field(state, cs, params)
            t1 = clock()
            state = memflow.step(state, cs, params)
            t2 = clock()
            memflow.check_solution(state, cs)
            t3 = clock()
            flow_ns += t1 - t0
            step_ns += t2 - t1
            check_ns += t3 - t2
            done += 1
        visited += done
        integrate_s += span_s * done / max(steps, 1)
        if clock() >= deadline:
            break
    if not visited:
        return {}
    out = {"dynamics.flow_field_us": flow_ns / visited / 1e3,
           "dynamics.step_us": step_ns / visited / 1e3,
           "dynamics.check_solution_us": check_ns / visited / 1e3}
    out["dynamics.loop_overhead_us_per_step"] = (
        integrate_s / visited * 1e6 - out["dynamics.step_us"] - out["dynamics.check_solution_us"])
    return out


def _flow_bytes(cs) -> int:
    """Compulsory bytes of one flow evaluation, computed from array sizes:
    the padded clause table (int64 variable, float64 sign, bool mask), the
    voltages and both memories read, and the three derivatives written."""
    m, n = len(cs.clauses), cs.num_vars
    width = max(len(c) for c in cs.clauses)
    return m * width * (8 + 8 + 1) + 2 * n * 8 + 4 * m * 8


def _integrate_figures(tracer: Tracer, calls: list) -> dict:
    """Steps, crossings and integrate time per step from traced integrate
    calls; ``calls`` holds (args, kwargs, Trajectory) in call order."""
    spans = tracer.durations("dynamics.integrate")
    if not calls or len(spans) != len(calls):
        return {}
    steps = crossings = 0
    flow_bytes = snapshot = 0
    for args, _, traj in calls:
        cs, params = args[1], args[2]
        k = _steps(traj, params.dt)
        steps += k
        crossings += len(traj.crossings)
        flow_bytes += k * _flow_bytes(cs)
        snapshot = max(snapshot, traj.v.nbytes + traj.times.nbytes)
    return {"dynamics.integrate_us_per_step": sum(spans) / max(steps, 1) * 1e6,
            "dynamics.steps": steps, "dynamics.crossings": crossings,
            "dynamics.flow_bytes_computed": flow_bytes / max(steps, 1),
            "dynamics.snapshot_mb": snapshot / 2**20}


def _per_op(tracer: Tracer, name: str, ops: int, self_time: bool = False) -> float:
    """Median over operations of the summed time (s) in spans ``name``."""
    totals = dict.fromkeys(range(ops), 0.0)
    if self_time:
        for run, dur in zip([s[5] for s in tracer.spans if s[1] == name], tracer.self_times(name)):
            totals[run] += dur
    else:
        totals.update(tracer.per_run_total(name))
    return _median(list(totals.values()))


def traced_run(workload, runner, ops: list, untraced: list[dict], seconds: float) -> tuple[dict, Tracer]:
    tracer = Tracer()
    with runner.capturing(), tracer.wrapped(runner.trace_targets()):
        records = closed_loop(runner, ops, math.inf, tracer)
    untraced_wall = sum(to_reference_seconds(r["wall_s"], r["ref_rate"]) for r in untraced)
    traced_wall = sum(to_reference_seconds(r["wall_s"], r["ref_rate"]) for r in records)
    layer = dict.fromkeys((m.name for m in spec.PER_LAYER), 0.0)
    layer.update({"trace.untraced_wall_s": untraced_wall, "trace.traced_wall_s": traced_wall,
                  "trace.overhead_s": traced_wall - untraced_wall})
    n_ops = len(ops)

    if workload.kind == "factorize":
        layer.update(_integrate_figures(tracer, runner.trajectories))
        layer.update(_replay(tracer, runner.trajectories, REPLAY_SHARE * seconds))
        layer["artifacts.write_csv_ms"] = _per_op(tracer, "artifacts.write_csv", n_ops) * 1e3
        layer["artifacts.csv_bytes"] = _median([r.get("csv_bytes", 0) for r in records])
        layer["cli.overhead_ms"] = _per_op(tracer, "cli.main", n_ops, self_time=True) * 1e3

    elif workload.kind == "analyze":
        layer.update(_analyze_layers(tracer, runner, records, n_ops, seconds))

    elif workload.kind == "toy":
        layer["toyflow.build_instanton_family_s"] = _per_op(tracer, "toyflow.build_instanton_family", n_ops)
        layer["toyflow.invariance_scan_s"] = _per_op(tracer, "toyflow.invariance_scan", n_ops)
        layer["toyflow.scan_entries"] = sum(r["entries"] for r in records)
        layer["toyflow.tangency_errors"] = sum(r["tangency_errors"] for r in records)

    if layer["dynamics.steps"]:
        layer["dynamics.crossings_per_step"] = layer["dynamics.crossings"] / layer["dynamics.steps"]
    return {"layer": layer, "traced_ops": records}, tracer


def _analyze_layers(tracer: Tracer, runner: AnalyzeRunner, records: list[dict], n_ops: int,
                    seconds: float) -> dict:
    layer = {}
    layer["ensemble.run_ensemble_s"] = _per_op(tracer, "ensemble.run_ensemble", n_ops)
    layer["ensemble.spatial_correlation_s"] = _per_op(tracer, "ensemble.spatial_correlation", n_ops)
    layer["ensemble.temporal_correlation_s"] = _per_op(tracer, "ensemble.temporal_correlation", n_ops)
    layer["ensemble.select_temporal_literals_s"] = _per_op(tracer, "ensemble.select_temporal_literals", n_ops)
    layer["artifacts.write_csv_ms"] = _per_op(tracer, "artifacts.write_csv", n_ops) * 1e3
    layer["artifacts.csv_bytes"] = _median([r.get("csv_bytes", 0) for r in records])
    layer["cli.overhead_ms"] = _per_op(tracer, "cli.main", n_ops, self_time=True) * 1e3
    if not runner.ensembles:
        return layer
    (cfg,), _, ens = runner.ensembles[0]
    graph = memflow.literal_graph(cfg.cs)
    layer["ensemble.pairs_evaluated"] = sum(len(graph.pairs_at_distance(d)) for d in range(1, graph.diameter + 1))
    task = (cfg.cs, cfg.params, cfg.base_seed, 0, cfg.seeds, cfg.max_time, cfg.record_stride)
    layer["ensemble.task_pickle_kb"] = len(pickle.dumps(task)) / 1024
    layer["ensemble.result_pickle_mb"] = sum(len(pickle.dumps(tr)) for tr in ens.trajectories) / 2**20
    layer["dynamics.snapshot_mb"] = sum(tr.v.nbytes + tr.times.nbytes for tr in ens.trajectories) / 2**20

    # The same ensemble (that of traced run 0) on one worker runs in this
    # process, so integrate can be traced per trajectory and replayed.
    calls: list = []
    w1_tracer = Tracer()
    with captured(ensemble, "integrate", calls), \
            w1_tracer.wrapped([(ensemble, "integrate", "dynamics.integrate")]):
        t0 = time.perf_counter()
        ensemble.run_ensemble(dataclasses.replace(cfg, workers=1))
        layer["ensemble.run_ensemble_w1_s"] = time.perf_counter() - t0
    w2_s = tracer.per_run_total("ensemble.run_ensemble").get(0)
    if w2_s:
        layer["ensemble.parallel_efficiency"] = layer["ensemble.run_ensemble_w1_s"] / (cfg.workers * w2_s)
    figures = _integrate_figures(w1_tracer, calls)
    figures.pop("dynamics.snapshot_mb", None)
    layer.update(figures)
    layer.update(_replay(w1_tracer, calls, REPLAY_SHARE * seconds))
    return layer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    workload = spec.resolve(args.workload, args.tiny)
    workdir = Path(args.workdir)
    runner = make_runner(workload, workdir)
    ops = spec.operations(workload, args.seed)
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "numpy": np.__version__}
    if args.trace == 0:
        record["ops"] = closed_loop(runner, ops, args.seconds)
    else:
        record["ops"] = closed_loop(runner, ops, args.seconds / 2)
        traced, tracer = traced_run(workload, runner, [r["op"] for r in record["ops"]], record["ops"],
                                     args.seconds)
        record.update(traced)
        if args.spans:
            tracer.write(args.spans)
    kb = 1024.0  # ru_maxrss is in KiB on Linux
    record["peak_rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb
    record["peak_rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
