"""One benchmark process, started by run.py with the BLAS/OpenMP thread caps
already in its environment.

    python3 bench/worker.py setup --workload W --seed S [--smoke]
        Fresh-interpreter set-up probe: times `import warpforce` plus building
        the workload's config or manifold objects; prints {"setup_s": ...}.

    python3 bench/worker.py run --workload W --seed S --seconds T --trace 0|1
                            [--smoke] [--spans PATH]
        Closed loop of back-to-back passes in this single-threaded process,
        each gated for correctness.  With --trace 1 the first half of the
        time runs untraced passes and the second half traced ones, whose
        spans are written to PATH when the loop ends.  Prints one JSON
        object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import workloads


def _import_warpforce():
    import warpforce
    where = Path(warpforce.__file__).resolve()
    src = workloads.ROOT / "src"
    if src not in where.parents:
        raise SystemExit(f"bench: warpforce imported from {where}, "
                         f"not from {src}")


def cmd_setup(args):
    t0 = time.perf_counter()
    _import_warpforce()
    workloads.make(args.workload, args.seed, args.smoke,
                   workloads.BENCH / "out").setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


class Loop:
    """Runs gated passes and keeps their times and check counts."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.last_outputs = None

    def one_pass(self, tracer=None) -> float:
        self.wl.prepare()
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            self.wl.run()
            dt = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        out = self.wl.outputs()
        attempted, failed, messages = workloads.gate(
            self.wl, out, self.reference, self.first_digest)
        if self.first_digest is None:
            self.first_digest = out["digest"]
        self.attempted += attempted
        self.failed += failed
        self.messages += messages[: max(0, 20 - len(self.messages))]
        self.last_outputs = out
        return dt

    def until(self, deadline: float, make_tracer=None) -> tuple:
        """Passes while the next one is predicted to end by `deadline`
        (perf_counter time), at least one; returns (pass times, tracers)."""
        times, tracers = [], []
        while True:
            tracer = make_tracer() if make_tracer else None
            times.append(self.one_pass(tracer))
            tracers.append(tracer)
            if time.perf_counter() + max(times) > deadline:
                return times, tracers


def _is_time(key: str) -> bool:
    return key.endswith("_s") or key.endswith(".s")


def _layer_metrics(tracers, outputs, wall_untraced, traced_times) -> dict:
    """Times are medians over the traced passes; counts must repeat exactly
    from pass to pass."""
    per_pass = [tr.layer_metrics() for tr in tracers]
    merged = {}
    for key in per_pass[0]:
        vals = [m[key] for m in per_pass]
        if _is_time(key):
            merged[key] = statistics.median(vals)
            continue
        if len(set(vals)) != 1:
            raise SystemExit(f"bench: count {key} differs between traced "
                             f"passes: {vals}")
        merged[key] = vals[0]
    reports = outputs["reports"]
    merged.update({
        "verify.reports": reports,
        "verify.error_reports": outputs["error_reports"],
        "verify.marginal_reports": outputs["marginal_reports"],
        "verify.norms_per_report": (merged["model.c2_norm.calls"] / reports
                                    if reports else 0.0),
        "cli.bytes_written": outputs["bytes_written"],
        "trace_overhead_frac": (statistics.median(traced_times)
                                / wall_untraced - 1.0),
    })
    return merged


def _write_spans(path: Path, tracers):
    with open(path, "w") as fh:
        for p, tr in enumerate(tracers):
            for i, (parent, kind, name, start, end, _) in enumerate(tr.spans):
                fh.write(json.dumps([p, i, parent, kind, name, start, end])
                         + "\n")


def cmd_run(args):
    t_start = time.perf_counter()
    _import_warpforce()
    import numpy
    reference = workloads.load_reference()
    workdir = Path(tempfile.mkdtemp(prefix="work-",
                                    dir=workloads.BENCH / "out"))
    try:
        # warm-up: one untimed smoke-size pass fills lazy imports and caches
        smoke = workloads.make(args.workload, args.seed, True, workdir)
        smoke.prepare()
        smoke.run()
        wl = workloads.make(args.workload, args.seed, args.smoke, workdir)
        loop = Loop(wl, reference)
        t_loop = time.perf_counter()
        end = t_loop + args.seconds
        result = {"numpy": numpy.__version__,
                  "warmup_s": t_loop - t_start}
        if not args.trace:
            times, _ = loop.until(end)
            result["pass_s"] = times
        else:
            from tracer import Tracer
            times, _ = loop.until(t_loop + args.seconds / 2.0)
            traced, tracers = loop.until(end, Tracer)
            result["pass_s"] = times
            result["traced_pass_s"] = traced
            result["layers"] = _layer_metrics(
                tracers, loop.last_outputs, statistics.median(times), traced)
            result["coverage_missing"] = tracers[0].missing_coverage(
                args.workload)
            result["spans"] = sum(len(tr.spans) for tr in tracers)
            if args.spans:
                _write_spans(Path(args.spans), tracers)
        result.update({
            "attempted": loop.attempted,
            "failed": loop.failed,
            "failures": loop.messages,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench/worker.py")
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", metavar="PATH")
    args = ap.parse_args(argv)
    (cmd_setup if args.mode == "setup" else cmd_run)(args)


if __name__ == "__main__":
    main()
