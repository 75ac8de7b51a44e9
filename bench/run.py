"""warpforce benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload audit_n2 --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; no install is needed (children run with
PYTHONPATH=src).  --trace 0 measures the end-to-end metrics with tracing
off; --trace 1 measures the per-layer metrics from a traced run.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; a full run record is written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("audit_n2", "theorem_n3", "fine_n2")
SETUP_PROBES = 9
TIME_LIMIT_S = 175.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    for cap in THREAD_CAPS:
        env[cap] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("time limit reached before the workload ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")] + args, cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker {args[0]} exceeded the {TIME_LIMIT_S:g} s limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker {args[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"worker {args[0]} printed no result")
    return json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git
    repository of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    """Hash of src/warpforce/*.py, which names the code without git."""
    import hashlib
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "warpforce").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "value": s[n - 11]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        fail("--seconds must lie in (0, 60]")
    deadline = time.monotonic() + TIME_LIMIT_S
    for need in (ROOT / "src" / "warpforce" / "__init__.py",
                 ROOT / "configs" / "default.json"):
        if not need.is_file():
            fail(f"{need.relative_to(ROOT)} is missing; run from a full "
                 f"checkout of the repository")
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = [] if args.trace else [
        run_worker(["setup"] + common, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)]
    run_args = ["run"] + common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(OUT / f"{stem}-spans.jsonl")]
    res = run_worker(run_args, deadline)

    passes = res["pass_s"]
    wall = statistics.median(passes)
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_caps": {cap: "1" for cap in THREAD_CAPS},
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "passes": len(passes), "pass_s": passes,
        "wall_s_tail": tail_percentile(passes),
        "traced_pass_s": res.get("traced_pass_s"),
        "setup_probe_s": setup, "warmup_s": res["warmup_s"],
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "failures": res["failures"],
        "coverage_missing": res.get("coverage_missing"),
        "spans": res.get("spans"),
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed}: {len(passes)} untraced passes, "
          f"{attempted} checks, {failed} failed")
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
        if res["coverage_missing"]:
            print("  no spans from wrapped functions predicted to run: "
                  + ", ".join(res["coverage_missing"]), file=sys.stderr)
    else:
        tail = record["wall_s_tail"]
        tail_txt = ("no percentile has 10 passes beyond it" if tail is None
                    else f"p{tail['percentile']:.0f} {tail['value']:.4f} s")
        print(f"  wall_s      {wall:.4f} s   median of {len(passes)} "
              f"passes; {tail_txt}; max {max(passes):.4f} s")
        print(f"  setup_s     {metrics['setup_s']['value']:.4f} s   median "
              f"of {len(setup)} fresh interpreters")
        print(f"  peak_rss_mb {res['peak_rss_mb']:.1f} MB")
        print(f"  fail_frac   {failed / attempted:.6g}   ({failed} of "
              f"{attempted} checks)")
    for msg in res["failures"]:
        print(f"  failed: {msg}")
    print(f"  record: {(OUT / (stem + '.json')).relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("bytes_out") or key.endswith("bytes_written"):
        return "bytes"
    if key.endswith(("_share", "_frac", "per_point", "per_report")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
