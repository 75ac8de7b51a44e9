"""The three benchmark workloads and the correctness gate applied to each pass.

A workload object builds its inputs from the seed, runs one pass through
warpforce's public API (`run`, the timed part), and turns the pass's outputs
into a summary (`outputs`) that `gate` checks.  warpforce is imported inside
the functions, so importing this module does not import the program.

* audit_n2   -- `warpforce verify all` on configs/default.json, in-process.
                Thousands of small analytic-jet norms; the only workload
                through `cli` and the lemma checkers.
* theorem_n3 -- reduced n = 3 theorem sweep (one r0, one center per zone,
                32 points per axis).  Every norm is a finite-difference norm
                of an exp-map-chart pullback.
* fine_n2    -- reduced n = 2 theorem sweep at 1024 points per axis: the same
                code as the theorem part of audit_n2 with ~250x more points
                per norm, so it is bound by array throughput and memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import os
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
NAMES = ("audit_n2", "theorem_n3", "fine_n2")
REFERENCE = BENCH / "reference.json"


def _mod(name: str):
    # always resolve through the module, so tracer wrappers are seen
    return importlib.import_module(name)


class AuditN2:
    """`verify all --config configs/default.json --seed S --out DIR`."""

    name = "audit_n2"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.outdir = workdir / "reports"
        self.argv = ["verify", "all", "--config", "configs/default.json",
                     "--seed", str(seed), "--out", str(self.outdir)]
        instances, cpz = 100, 8
        if smoke:
            self.argv += ["--instances", "2", "--grid", "8"]
            instances = 2
        # five suites of (1 trivial + instances) reports, lemma2.3 twice
        # that, six lemma2.1 t0 values, 4 r0 x 3 zones x cpz theorem centers
        self.expected_reports = 6 * (1 + instances) + 6 + 4 * 3 * cpz
        self.rc = None

    def setup(self):
        cli = _mod("warpforce.cli")
        with open(ROOT / "configs" / "default.json") as fh:
            json.load(fh)
        cli.build_parser().parse_args(self.argv)

    def prepare(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def run(self):
        cli = _mod("warpforce.cli")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                self.rc = cli.main(self.argv)
            except SystemExit as exc:     # argparse usage errors
                self.rc = exc.code

    def outputs(self) -> dict:
        files = [self.outdir / "reports.csv", self.outdir / "reports.json"]
        blobs = [p.read_bytes() if p.exists() else b"" for p in files]
        reports = json.loads(blobs[1]) if blobs[1] else []
        per_r0 = {}
        for r in reports:
            if r["name"] != "theorem" or _is_error(r["notes"]):
                continue
            p = r["params"]
            # rhs = e^{16+6 xi} (e^{-2 r0} + eps)
            eps = r["rhs"] / math.exp(16.0 + 6.0 * p["xi"]) \
                - math.exp(-2.0 * p["r0"])
            cur = per_r0.setdefault(_r0_key(p["r0"]),
                                    {"eps": eps, "eta_max": 0.0})
            cur["eta_max"] = max(cur["eta_max"], r["lhs"])
        return _summary(
            digest=hashlib.sha256(b"".join(blobs)).hexdigest(),
            reports=[(r["passed"], r["marginal"], r["notes"])
                     for r in reports],
            per_r0=per_r0, verdicts=[self.rc == 0],
            bytes_written=sum(len(b) for b in blobs))


class TheoremSweep:
    """`run_theorem_sweep(TheoremConfig(...))` for one reduced sweep."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        if name == "theorem_n3":
            self.n, self.points = 3, (8 if smoke else 32)
        else:
            self.n, self.points = 2, (32 if smoke else 1024)
        self.expected_reports = 3      # one r0, three zones, one center each
        self.instances = None

    def config(self):
        GridSpec = _mod("warpforce.model").GridSpec
        TheoremConfig = _mod("warpforce.verify").TheoremConfig
        return TheoremConfig(n=self.n, r0_values=(5.0,), centers_per_zone=1,
                             seed=self.seed,
                             grid=GridSpec(points_per_axis=self.points))

    def setup(self):
        cfg = self.config()
        wc = _mod("warpforce.warpcore")
        m = _mod("warpforce.manifold").perturbed_hyperbolic(
            n=cfg.n, amplitude=cfg.amplitude, sphere_mode=cfg.sphere_mode,
            radial_center=cfg.radial_center, radial_width=cfg.radial_width,
            r_range=cfg.r_range, grid=cfg.grid)
        for r0 in cfg.r0_values:
            wc.warp_force(m.metric, r0, wc.BumpFunction(cfg.bump_delta))

    def prepare(self):
        self.instances = None

    def run(self):
        self.instances = _mod("warpforce.verify").run_theorem_sweep(
            self.config())

    def outputs(self) -> dict:
        verify = _mod("warpforce.verify")
        reports = [r for inst in self.instances for r in inst.reports]
        sweep = [[inst.r0, inst.xi, inst.eps, inst.eta_max, inst.bound,
                  inst.decay_constant, inst.guard_constant, inst.passed]
                 for inst in self.instances]
        text = json.dumps({"reports": verify.reports_to_csv_rows(reports),
                           "sweep": sweep}, sort_keys=True)
        return _summary(
            digest=hashlib.sha256(text.encode()).hexdigest(),
            reports=[(r.passed, r.marginal, r.notes) for r in reports],
            per_r0={_r0_key(i.r0): {"eps": i.eps, "eta_max": i.eta_max}
                    for i in self.instances},
            verdicts=[i.passed for i in self.instances],
            bytes_written=0)


def make(name: str, seed: int, smoke: bool, workdir: Path):
    if name == "audit_n2":
        return AuditN2(seed, smoke, workdir)
    if name in NAMES:
        return TheoremSweep(name, seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


def _is_error(notes: str) -> bool:
    return notes.startswith("error:")


def _r0_key(r0: float) -> str:
    return f"{r0:g}"


def _summary(digest, reports, per_r0, verdicts, bytes_written) -> dict:
    return {
        "digest": digest,
        "reports": len(reports),
        "error_reports": sum(_is_error(n) for _, _, n in reports),
        "fail_reports": sum(not p and not _is_error(n)
                            for p, _, n in reports),
        "marginal_reports": sum(bool(m) for _, m, _ in reports),
        "per_r0": per_r0,
        "verdicts": verdicts,
        "bytes_written": bytes_written,
    }


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def gate(wl, out: dict, reference: dict, first_digest) -> tuple:
    """Correctness checks of one pass: (checks attempted, checks failed,
    failure messages).

    Every report is a check; an error entry or a FAIL verdict fails it.  On
    top: the report count, each overall verdict (cli exit code for audit_n2,
    TheoremInstance.passed for the sweeps), eps and eta_max per r0 against
    the recorded reference for this seed, and outputs byte-identical to the
    first pass of the run.
    """
    attempted, failed, messages = out["reports"], 0, []

    def check(ok: bool, message: str):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            messages.append(message)

    bad = out["error_reports"] + out["fail_reports"]
    if bad:
        failed += bad
        messages.append(f"{out['error_reports']} error entries and "
                        f"{out['fail_reports']} FAIL verdicts")
    check(out["reports"] == wl.expected_reports,
          f"{out['reports']} reports, expected {wl.expected_reports}")
    for ok in out["verdicts"]:
        check(ok, "overall verdict is not PASS")
    ref = reference.get(wl.name, {})
    expected = None if wl.smoke else ref.get("seeds", {}).get(str(wl.seed))
    for r0, vals in (expected or {}).items():
        got = out["per_r0"].get(r0, {})
        for key, want in vals.items():
            have = got.get(key)
            check(have is not None
                  and abs(have - want) <= ref["rtol"] * abs(want),
                  f"r0={r0} {key}={have!r}, reference {want!r} "
                  f"(rtol {ref['rtol']:g})")
    if first_digest is not None:
        check(out["digest"] == first_digest,
              "outputs differ from the first pass of the run")
    return attempted, failed, messages
