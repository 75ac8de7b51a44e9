"""Command-line front end: bound-check campaigns, deformation audits,
decay tables, and grid dumps.

Exit status: 0 when every check passed (marginal entries included), 1 when
any non-marginal check failed or an error entry exists, 2 for usage and
configuration errors.  Identical config + seed produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from warpforce.model import GridSpec, WarpforceError, dump_grid_csv
from warpforce.manifold import manifold_from_config
from warpforce.verify import (
    CSV_COLUMNS,
    TheoremConfig,
    available_checks,
    check_lemma_2_1,
    remark_decay,
    reports_to_csv_rows,
    run_check,
    run_theorem_sweep,
)
from warpforce.warpcore import BumpFunction, warp_force


def _load_config(parser: argparse.ArgumentParser, path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"config {path} must be a JSON object")
    return doc


def _grid_from(parser, args, cfg: dict) -> Optional[GridSpec]:
    base = cfg.get("grid")
    spec = None
    try:
        if base is not None:
            spec = GridSpec(**base)
        if args.grid is not None:
            spec = dataclasses.replace(spec or GridSpec(),
                                       points_per_axis=args.grid)
    except (TypeError, ValueError) as exc:
        parser.error(f"bad grid: {exc}")
    return spec


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _cell(x) -> str:
    """CSV text of one value: booleans lower-case, numbers to 12 digits."""
    if isinstance(x, bool):
        return str(x).lower()
    return x if isinstance(x, str) else f"{x:.12g}"


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _write_reports(outdir: Optional[str], reports):
    if outdir is None:
        return
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "reports.csv", CSV_COLUMNS, reports_to_csv_rows(reports))
    (out / "reports.json").write_text(
        json.dumps([r.to_json() for r in reports], indent=2) + "\n")


def _exit_code(reports) -> int:
    return 1 if any(not r.passed and not r.marginal for r in reports) else 0


def _print_reports(reports, as_json: bool):
    if as_json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
        return
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        flag = " (marginal)" if r.marginal else ""
        if np.isnan(r.lhs):
            print(f"ERROR {r.name} {r.notes} params={r.params}")
            continue
        print(f"{status}{flag} {r.name} lhs={r.lhs:.6g} rhs={r.rhs:.6g} "
              f"margin={r.margin:.6g}")
    n_pass = sum(r.passed for r in reports)
    n_marg = sum(r.marginal for r in reports)
    print(f"{len(reports)} checks: {n_pass} passed, "
          f"{len(reports) - n_pass} failed ({n_marg} marginal)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(parser, args) -> int:
    cfg = _load_config(parser, args.config)
    for name in cfg.get("checks", []):
        if name not in available_checks():
            parser.error(f"config references unknown check {name!r}")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    instances = (args.instances if args.instances is not None
                 else cfg.get("instances", 100))
    if not (_is_int(instances) and instances >= 0):
        parser.error(f"instances must be an integer >= 0 (got {instances!r})")
    if not _is_int(seed):
        parser.error(f"seed must be an integer (got {seed!r})")
    xi_values = cfg.get("xi_values", (1.0, 1.5))
    grid = _grid_from(parser, args, cfg)

    if args.t0 is not None:
        if args.check != "lemma2.1":
            parser.error("--t0 only applies to the lemma2.1 check")
        if not 2.0 < args.t0 < np.inf:
            parser.error(f"--t0 must exceed 2 and be finite (got {args.t0:g})")
        reports = [check_lemma_2_1(args.t0)]
    else:
        section = cfg if args.check == "all" else cfg.get(args.check)
        try:
            reports = run_check(args.check, seed=seed, instances=instances,
                                xi_values=xi_values, grid=grid,
                                config=section)
        except (ValueError, WarpforceError) as exc:
            parser.error(str(exc))
    _write_reports(args.out, reports)
    _print_reports(reports, args.json)
    return _exit_code(reports)


_SWEEP_COLUMNS = ["r0", "xi", "eps", "eta_max", "bound", "decay_constant",
                  "guard_constant", "passed"]


def cmd_theorem(parser, args) -> int:
    if args.config is None:
        parser.error("theorem requires --config with an instance spec "
                     "(manifold, r0_values, xi)")
    doc = _load_config(parser, args.config)
    known = {f.name for f in dataclasses.fields(TheoremConfig)}
    if "theorem" in doc:
        section = doc["theorem"]
    elif set(doc) & known:
        section = doc
    else:
        parser.error("config has no theorem instance spec (expected a "
                     "'theorem' object or top-level instance fields)")
    section = dict(section)
    if args.seed is not None:
        section["seed"] = args.seed
    grid = _grid_from(parser, args, doc)
    if grid is not None:
        section["grid"] = dataclasses.asdict(grid)
    try:
        tcfg = TheoremConfig.from_dict(section)
        instances = run_theorem_sweep(tcfg)
    except TypeError as exc:
        parser.error(f"bad theorem config: {exc}")
    except (ValueError, WarpforceError) as exc:
        parser.error(str(exc))

    reports = [r for inst in instances for r in inst.reports]
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "theorem_centers.csv", CSV_COLUMNS,
                   reports_to_csv_rows(reports))
        _write_csv(out / "theorem_sweep.csv", _SWEEP_COLUMNS, [
            {c: _cell(getattr(inst, c)) for c in _SWEEP_COLUMNS}
            for inst in instances
        ])
        (out / "theorem.json").write_text(
            json.dumps([inst.to_json() for inst in instances], indent=2)
            + "\n")
    if args.json:
        print(json.dumps([inst.to_json() for inst in instances], indent=2))
    else:
        for inst in instances:
            status = "PASS" if inst.passed else "FAIL"
            print(f"{status} r0={inst.r0:g} eps={inst.eps:.6g} "
                  f"eta_max={inst.eta_max:.6g} bound={inst.bound:.6g} "
                  f"decay_constant={inst.decay_constant:.4g}")
            print(f"  cases {inst.case_counts}  {inst.notes}")
    return _exit_code(reports)


_REMARK_COLUMNS = ["t0", "eps", "ratio_to_prev", "derivative_source"]


def cmd_demo_remark(parser, args) -> int:
    cfg = _load_config(parser, args.config)
    if not 0 < args.step < np.inf:
        parser.error(f"--step must be positive and finite (got {args.step:g})")
    if args.t0_min is not None or args.t0_max is not None:
        lo = args.t0_min if args.t0_min is not None else 2.2
        hi = args.t0_max if args.t0_max is not None else 9.0
        if not 0 < lo < hi < np.inf:
            parser.error(f"need 0 < t0-min < t0-max (got {lo:g}, {hi:g})")
        t0s = [float(t) for t in np.arange(lo, hi + 1e-9, args.step)]
    else:
        t0s = cfg.get("t0_values")
    grid = _grid_from(parser, args, cfg)
    try:
        rows = remark_decay(t0s, grid=grid)
    except (ValueError, WarpforceError) as exc:
        parser.error(str(exc))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "remark.csv", _REMARK_COLUMNS,
                   [{c: _cell(r[c]) for c in _REMARK_COLUMNS} for r in rows])
        (out / "remark.json").write_text(json.dumps(rows, indent=2) + "\n")
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'t0':>6}  {'closeness':>12}  {'ratio':>10}")
        for r in rows:
            ratio = ("" if np.isnan(r["ratio_to_prev"])
                     else f"{r['ratio_to_prev']:.6f}")
            print(f"{r['t0']:>6g}  {r['eps']:>12.6e}  {ratio:>10}")
        contrast = rows[0]["eps"] / rows[-1]["eps"]
        print(f"contrast first/last = {contrast:.1f}")
    return 0


def cmd_dump_grid(parser, args) -> int:
    cfg = _load_config(parser, args.config)
    spec = cfg.get("manifold", {"kind": "punctured", "n": 2})
    try:
        m = manifold_from_config(spec)
        metric = m.metric
        if args.r0 is not None:
            metric = warp_force(metric, args.r0, BumpFunction())
    except (ValueError, WarpforceError) as exc:
        parser.error(str(exc))
    grid = _grid_from(parser, args, cfg)
    out = Path(args.out) if args.out is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "grid.csv"
    rows = dump_grid_csv(metric, path, grid=grid)
    print(f"wrote {rows} rows to {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpforce",
        description=("Measure quantitative closeness bounds for warp-forced "
                     "deformations of near-hyperbolic metrics."))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *extra):
        """The flags every subcommand reads, plus the named `extra` ones."""
        p.add_argument("--config", metavar="PATH",
                       help="JSON configuration file")
        p.add_argument("--out", metavar="DIR",
                       help="directory for CSV/JSON reports")
        p.add_argument("--grid", type=int, metavar="N",
                       help="grid points per axis")
        if "seed" in extra:
            p.add_argument("--seed", type=int, metavar="N",
                           help="seed for randomized instances")
        if "json" in extra:
            p.add_argument("--json", action="store_true",
                           help="print machine-readable JSON to stdout")

    pv = sub.add_parser("verify", help="run a registered bound check")
    pv.add_argument("check", choices=available_checks())
    pv.add_argument("--t0", type=float,
                    help="single evaluation point for the decay-constant "
                         "check (lemma2.1)")
    pv.add_argument("--instances", type=int, metavar="N",
                    help="random instances per lemma suite")
    common(pv, "seed", "json")
    pv.set_defaults(fn=cmd_verify)

    pt = sub.add_parser("theorem",
                        help="audit the warp-forcing deformation bound")
    common(pt, "seed", "json")
    pt.set_defaults(fn=cmd_theorem)

    pr = sub.add_parser("demo-remark",
                        help="closeness decay table for the punctured model")
    pr.add_argument("--t0-min", type=float, dest="t0_min")
    pr.add_argument("--t0-max", type=float, dest="t0_max")
    pr.add_argument("--step", type=float, default=1.0)
    common(pr, "json")
    pr.set_defaults(fn=cmd_demo_remark)

    pd = sub.add_parser("dump-grid",
                        help="write metric grid samples as CSV")
    pd.add_argument("--r0", type=float,
                    help="dump the warp-forced metric at this cut radius")
    common(pd)
    pd.set_defaults(fn=cmd_dump_grid)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(parser, args)


if __name__ == "__main__":
    sys.exit(main())
