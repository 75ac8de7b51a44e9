"""Command-line front end: bound-check campaigns, deformation audits,
decay tables, and grid dumps.

`verify CHECK` runs a registered check (verify.run_check); `theorem` is
`verify theorem` under a shorter name.  Under `verify theorem` and `verify
all`, --out also writes the sweep that the run audited: theorem_sweep.csv,
a row per r0, and theorem.json, its TheoremInstances.

Exit status: 0 when every check passed (marginal entries included), 1 when
any non-marginal check failed or an error entry exists, 2 for usage and
configuration errors, a grid too large to allocate included.  Identical
config + seed produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from warpforce.model import WarpforceError, dump_grid_csv
from warpforce.manifold import polar_form
from warpforce.verify import (
    CSV_COLUMNS,
    _cell,
    available_checks,
    read_document,
    remark_decay,
    report_csv_row,
    run_check,
)
from warpforce.warpcore import BumpFunction, warp_force


def _document(parser: argparse.ArgumentParser, path: Optional[str],
              **flags) -> dict:
    """The config document at `path` ({} without a path), each flag given
    (not None) folded in as its key, so that one reader checks flags and
    keys alike (verify.read_document)."""
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"config {path} is not valid JSON: {exc}")
    if isinstance(doc, dict):       # the reader refuses any other document
        doc |= {k: v for k, v in flags.items() if v is not None}
    return doc


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[dict]):
    """The CSV of `rows`, written a row at a time as they are made."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


_JSON = json.JSONEncoder(indent=2)     # json.dumps(item, indent=2)


def _dump_json(items: Iterable, fh):
    """The JSON list of `items` and a newline, the bytes of
    json.dumps(list(items), indent=2) + "\n", written to fh an item at a
    time as they are made, so that neither the list nor its text exists
    whole.  JSON escapes every newline inside a string, so indenting each
    line of an item's text indents only its structure."""
    sep = "[\n  "
    for item in items:
        fh.write(sep + _JSON.encode(item).replace("\n", "\n  "))
        sep = ",\n  "
    fh.write("[]\n" if sep == "[\n  " else "\n]\n")


def _write_json(path: Path, items: Iterable):
    with open(path, "w") as fh:
        _dump_json(items, fh)


_SWEEP_COLUMNS = ["r0", "xi", "eps", "eta_max", "bound", "decay_constant",
                  "guard_constant", "passed"]


def _write_reports(outdir: Optional[str], reports, sweep=()):
    """reports.csv and reports.json in outdir (nothing without one), and
    theorem_sweep.csv and theorem.json when the run audited a sweep, each
    file written a report or an r0 at a time."""
    if outdir is None:
        return
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "reports.csv", CSV_COLUMNS, map(report_csv_row, reports))
    _write_json(out / "reports.json", (r.to_json() for r in reports))
    if sweep:
        _write_csv(out / "theorem_sweep.csv", _SWEEP_COLUMNS, (
            {c: _cell(getattr(inst, c)) for c in _SWEEP_COLUMNS}
            for inst in sweep))
        _write_json(out / "theorem.json", (inst.to_json() for inst in sweep))


def _exit_code(reports) -> int:
    return 1 if any(not r.passed and not r.marginal for r in reports) else 0


def _print_reports(reports, as_json: bool, sweep=()):
    """A line per report, then two per r0 of the sweep, then the counts;
    with `as_json`, the reports' JSON alone."""
    if as_json:
        _dump_json((r.to_json() for r in reports), sys.stdout)
        return
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        flag = " (marginal)" if r.marginal else ""
        if r.notes.startswith("error:"):
            print(f"ERROR {r.name} {r.notes} params={r.params}")
            continue
        print(f"{status}{flag} {r.name} lhs={r.lhs:.6g} rhs={r.rhs:.6g} "
              f"margin={r.margin:.6g}")
    for inst in sweep:
        print(f"{'PASS' if inst.passed else 'FAIL'} r0={inst.r0:g} "
              f"eps={inst.eps:.6g} eta_max={inst.eta_max:.6g} "
              f"bound={inst.bound:.6g} "
              f"decay_constant={inst.decay_constant:.4g}")
        print(f"  cases {inst.case_counts}  {inst.notes}")
    n_pass = sum(r.passed for r in reports)
    n_marg = sum(r.marginal for r in reports)
    print(f"{len(reports)} checks: {n_pass} passed, "
          f"{len(reports) - n_pass} failed ({n_marg} marginal)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(parser, args) -> int:
    if args.t0 is not None and args.check != "lemma2.1":
        parser.error("--t0 only applies to the lemma2.1 check")
    doc = _document(parser, args.config, seed=args.seed,
                    instances=args.instances)
    section = doc.get("lemma2.1", {}) if isinstance(doc, dict) else None
    if args.t0 is not None and isinstance(section, dict):
        # --t0 X sets the section's t0_values; its other keys are still read
        doc["lemma2.1"] = section | {"t0_values": [args.t0]}
    sweep = []
    try:
        reports = run_check(args.check, doc, args.grid, sweep)
    except (ValueError, WarpforceError) as exc:
        parser.error(str(exc))
    _write_reports(args.out, reports, sweep)
    _print_reports(reports, args.json, sweep)
    return _exit_code(reports)


_REMARK_COLUMNS = ["t0", "eps", "ratio_to_prev", "derivative_source"]


def cmd_demo_remark(parser, args) -> int:
    doc = _document(parser, args.config)
    if not 0 < args.step < np.inf:
        parser.error(f"--step must be positive and finite (got {args.step:g})")
    t0s = None
    if args.t0_min is not None or args.t0_max is not None:
        lo = args.t0_min if args.t0_min is not None else 2.2
        hi = args.t0_max if args.t0_max is not None else 9.0
        if not 0 < lo < hi < np.inf:
            parser.error(f"need 0 < t0-min < t0-max (got {lo:g}, {hi:g})")
        try:
            t0s = [float(t) for t in np.arange(lo, hi + 1e-9, args.step)]
        except ValueError as exc:
            parser.error(f"--t0-min {lo:g} to --t0-max {hi:g} by --step "
                         f"{args.step:g} gives too many t0 values: {exc}")
    try:
        cfg = read_document(doc, args.grid)
        rows = remark_decay(cfg["t0_values"] if t0s is None else t0s,
                            grid=cfg["grid"])
    except (ValueError, WarpforceError) as exc:
        parser.error(str(exc))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "remark.csv", _REMARK_COLUMNS,
                   ({c: _cell(r[c]) for c in _REMARK_COLUMNS} for r in rows))
        _write_json(out / "remark.json", rows)
    if args.json:
        _dump_json(rows, sys.stdout)
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
    doc = _document(parser, args.config)
    out = Path(args.out) if args.out is not None else Path(".")
    path = out / "grid.csv"
    try:
        cfg = read_document(doc, args.grid)
        metric = cfg["manifold"].metric
        if args.r0 is not None:
            metric = warp_force(metric, args.r0, BumpFunction())
        out.mkdir(parents=True, exist_ok=True)
        # the polar columns: f sigma_S + dr^2 of the block f (see polar_form)
        rows = dump_grid_csv(polar_form(metric), path, cfg["grid"])
    except (ValueError, WarpforceError) as exc:
        parser.error(str(exc))
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

    pt = sub.add_parser("theorem", help="the same as `verify theorem`: "
                        "audit the warp-forcing deformation bound")
    common(pt, "seed", "json")
    pt.set_defaults(fn=cmd_verify, check="theorem", t0=None, instances=None)

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
    try:
        return args.fn(parser, args)
    except MemoryError as exc:
        # numpy could not allocate the grid's arrays; a grid past numpy's
        # own size limit is a ValueError, refused by the subcommand
        grid = ("the config's grid" if args.grid is None
                else f"--grid {args.grid}")
        parser.error(f"{grid} is too large to sample: "
                     f"{str(exc) or 'out of memory'}")


if __name__ == "__main__":
    sys.exit(main())
