"""Checks of the benchmark itself (not part of the memflow suite).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
import workload  # noqa: E402
from memflow import cli, dynamics  # noqa: E402


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def _fake_factorize(status: str, code: int, t_end: float):
    """A stand-in for memflow's CLI that writes a factorize run's manifests."""
    def fake(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "result.txt").write_text(f"status={status}\nt_end={t_end}\ncrossings=0\n")
        (out / "run_config.txt").write_text("dt=0.05\n")
        return code, "", None
    return fake


def test_gates_reject_wrong_outputs(tmp_path, monkeypatch):
    assert workload._is_factorization(15, {"p": "3", "q": "5"}, "3 5\n")
    assert not workload._is_factorization(15, {"p": "1", "q": "15"}, "1 15\n")
    assert not workload._is_factorization(15, {"p": "3", "q": "5"}, "5 3\n")

    (tmp_path / "summary_per-trajectory.txt").write_text("terminated_solved=2\n")
    (tmp_path / "c_d_per-trajectory.csv").write_text("d,C\n1,0.5\n")
    (tmp_path / "c_tau_per-trajectory.csv").write_text("tau,C_a\n0.0,1.0\n0.2,0.4\n")
    assert workload.AnalyzeRunner._check_outputs(tmp_path, 2) is None
    assert "disagree" in workload.AnalyzeRunner._check_outputs(tmp_path, 3)
    (tmp_path / "c_tau_per-trajectory.csv").write_text("tau,C_a\n0.0,0.9999999999999999\n")
    assert "C(0)" in workload.AnalyzeRunner._check_outputs(tmp_path, 2)
    (tmp_path / "c_tau_per-trajectory.csv").write_text("tau,C_a\n0.0,1.0\n0.2,nan\n")
    assert "finite" in workload.AnalyzeRunner._check_outputs(tmp_path, 2)

    # Only a timeout on the to-solution workload is an allowed failure; a
    # crash, a FlowError or a non-solution fixed point fails the gate.
    horizon = workload.FactorizeRunner(spec.resolve("factorize-19bit"), tmp_path, horizon=True)
    solve = workload.FactorizeRunner(spec.resolve("factorize-12bit"), tmp_path, horizon=False)
    op = (15, 2, 3, 1)

    monkeypatch.setattr(workload, "_cli", lambda argv: (None, "", "FlowError: state is not finite"))
    rec = horizon.run(0, op)
    assert rec["failed"] == 1 and rec["wrong"]

    monkeypatch.setattr(workload, "_cli", _fake_factorize(dynamics.FIXED_POINT_NON_SOLUTION,
                                                          cli.EXIT_FIXED_POINT, 3.0))
    for runner in (horizon, solve):
        rec = runner.run(0, op)
        assert rec["failed"] == 1 and rec["wrong"]

    monkeypatch.setattr(workload, "_cli", _fake_factorize(dynamics.MAX_TIME, cli.EXIT_TIMEOUT,
                                                          solve.w.max_time))
    rec = solve.run(0, op)
    assert rec["failed"] == 1 and not rec["wrong"] and rec["notes"]


def test_smoke_runs_every_workload_with_every_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct=True") == 2 * len(spec.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-scan", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
