"""The benchmark's own tests, at smoke size.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import _is_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)    # audit_n2 names configs/default.json


def one_pass(name, workdir, traced=False):
    wl = workloads.make(name, 0, True, workdir)
    wl.prepare()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        wl.run()
    finally:
        if tracer:
            tracer.uninstall()
    return wl.outputs(), tracer


def counts(tracer):
    return {k: v for k, v in tracer.layer_metrics().items()
            if not _is_time(k)}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_outputs_identical_and_counts_repeat(name, tmp_path):
    plain, _ = one_pass(name, tmp_path)
    traced1, tr1 = one_pass(name, tmp_path, traced=True)
    traced2, tr2 = one_pass(name, tmp_path, traced=True)
    assert traced1["digest"] == plain["digest"] == traced2["digest"]
    assert counts(tr1) == counts(tr2)
    attempted, failed, messages = workloads.gate(
        workloads.make(name, 0, True, tmp_path), plain, {}, None)
    assert failed == 0, messages


@pytest.mark.parametrize("name,share", [("audit_n2", 0.0),
                                        ("theorem_n3", 1.0),
                                        ("fine_n2", 0.0)])
def test_fd_share_and_coverage(name, share, tmp_path):
    _, tr = one_pass(name, tmp_path, traced=True)
    assert tr.layer_metrics()["model.c2_norm.fd_share"] == share
    assert tr.missing_coverage(name) == []


def test_uninstall_restores_bindings(tmp_path):
    import warpforce.model as model
    import warpforce.verify as verify
    before = (verify.c2_norm, model.Field.__call__, verify.run_check)
    one_pass("fine_n2", tmp_path, traced=True)
    assert (verify.c2_norm, model.Field.__call__, verify.run_check) == before
    assert verify.c2_norm is model.c2_norm


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_runs_in_seconds(name):
    t0 = time.monotonic()
    proc = run_bench(ROOT, "--workload", name, "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 30.0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_reports_every_layer_metric():
    proc = run_bench(ROOT, "--workload", "theorem_n3", "--trace", "1",
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit_n2", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
