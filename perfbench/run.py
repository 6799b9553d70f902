"""memflow benchmark: one workload per call, figures as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload factorize-19bit --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke                 # all workloads, tiny, both modes
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

Set-up is timed in fresh processes (``setup_probe.py``); the workload runs
in one more fresh process (``workload.py``).  Human-readable lines go to
stdout first; the last stdout line is the result object.  The exit code is
0 when every gate held, 1 when one failed (a wrong output or a failed
operation the workload does not allow), 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from reference import to_reference_seconds

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"
#: Hard limit on one workload process; the run must end within 180 s.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_once(root: Path, workload: str, seed: int, tiny: bool) -> tuple[float, float, dict]:
    """(seconds to ready, reference rate after set-up, phase times)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rate = proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line or not rate:
        raise BenchError(f"set-up probe failed with exit code {code}")
    return ready, float(rate), json.loads(line)


def _run_workload(root: Path, args, tiny: bool, result_path: Path, spans_path: Path) -> dict:
    workdir = root / OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, env=_env(root), stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed with exit code {proc.returncode}")
    record = json.loads(result_path.read_text())
    result_path.unlink()
    return record


def environment(root: Path, numpy_version: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu}


#: Set-up per-layer metrics and the probe phase (seconds) each is taken from.
SETUP_LAYERS = {"netlist.build_multiplier_ms": "build_s", "cnf.encode_cnf_ms": "encode_s",
                "dynamics.first_flow_ms": "first_flow_s", "litgraph.literal_graph_ms": "literal_graph_s",
                "litgraph.distances_ms": "distances_s"}


def end_to_end(workload, record: dict, setups: list[tuple]) -> dict:
    """Gated timings are in reference seconds (see reference.py), each
    time scaled by the reference rate sampled next to it.  Operations
    spread over several worker processes are timed in CPU seconds of the
    workload process and its workers rather than in wall seconds
    (README.md)."""
    ops = record["ops"]
    wall = sum(op["wall_s"] for op in ops)
    steps = sum(op["steps"] for op in ops)
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    clock = "cpu_s" if workload.workers > 1 else "wall_s"
    timed = sum(to_reference_seconds(op[clock], op["ref_rate"]) for op in ops)
    return {
        "setup_s": statistics.median(to_reference_seconds(t, rate) for t, rate, _ in setups),
        "steps_per_s": steps / timed,
        "setup_wall_s": statistics.median(t for t, _, _ in setups),
        "steps_per_wall_s": steps / wall,
        "peak_rss_mb": record["peak_rss_self_mb"] + record["peak_rss_children_mb"],
        "wall_s": wall,
        "tts_s_median": statistics.median(op["wall_s"] for op in ops),
        "runs_per_s": attempted / wall,
        "failed_frac": failed / attempted,
    }


def run(root: Path, args, tiny: bool = False) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, human-readable lines)."""
    workload = spec.resolve(args.workload, tiny)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    setups = [_setup_once(root, workload.name, args.seed, tiny) for _ in range(workload.setup_reps)]
    record = _run_workload(root, args, tiny, out / f"raw-{tag}.json", out / f"spans-{tag}.jsonl")
    ops = record["ops"]
    every_op = ops + record.get("traced_ops", [])
    attempted = sum(op["attempted"] for op in every_op)
    failed = sum(op["failed"] for op in every_op)
    values = end_to_end(workload, record, setups)
    units = {m.name: m.unit for m in spec.END_TO_END + spec.REPORTED + spec.PER_LAYER}
    if args.trace:
        layer = dict(record["layer"])
        for name, phase in SETUP_LAYERS.items():
            layer[name] = statistics.median(phases.get(phase, 0.0) for _, _, phases in setups) * 1e3
        metrics = {m.name: layer[m.name] for m in spec.PER_LAYER}
    else:
        metrics = {m.name: values[m.name] for m in spec.END_TO_END}

    lines = [f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"]
    env = environment(root, record["numpy"])
    env["workers"] = workload.workers
    env["reference_rate"] = statistics.median(op["ref_rate"] for op in ops)
    lines.append("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for m in spec.END_TO_END + spec.REPORTED:
        gated = "" if m in spec.END_TO_END else "  (reported, not gated)"
        lines.append(f"{m.name} = {values[m.name]:.6g} {m.unit}{gated}")
    if args.trace:
        lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    for name, digest in sorted(ops[0].get("digests", {}).items()):
        lines.append(f"sha256 {name} {digest}  (first operation)")
    wrong = [w for op in every_op for w in op["wrong"]]
    lines += [f"WRONG {w}" for w in wrong[:5]]
    lines += [f"FAILED {n}" for op in every_op for n in op["notes"]][:5]

    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    (out / f"result-{tag}.json").write_text(json.dumps({
        "result": result, "env": env, "end_to_end": values, "setups": setups, "ops": ops,
        "layer": metrics if args.trace else None,
        "traced_ops": record.get("traced_ops")}, indent=1))
    return result, lines


def smoke(root: Path) -> int:
    """Every workload at tiny size, untraced and traced; checks that each
    metric is reported with its unit and every gate held."""
    problems = []
    for name in spec.WORKLOADS:
        for trace, listed in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            args = argparse.Namespace(workload=name, seed=0, seconds=1.0, trace=trace)
            result, _ = run(root, args, tiny=True)
            want = {m.name: m.unit for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: not correct ({result['failed']} failed)")
            print(f"smoke {name} trace {trace}: {len(got)} metrics, correct={result['correct']}", flush=True)
    for p in problems:
        print(f"SMOKE FAILED {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if args.write_benchmark_json:
        (root / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (root / "src" / "memflow" / "__init__.py").is_file():
        print("error: run from the memflow repository root (src/memflow not found)", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        result, lines = run(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
