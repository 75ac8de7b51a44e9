import csv
import dataclasses
import io
import json
import math
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpforce import cli
from warpforce.cli import _write_reports, build_parser, main
from warpforce.model import GridSpec
from warpforce.verify import (CSV_COLUMNS, available_checks, error_report,
                              make_report, remark_decay, reports_to_csv_rows)

from memory import traced_peak_mb


def run_cli(args):
    return main(list(args))


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_THEOREM = {
    "theorem": {
        "n": 2,
        "xi": 1.5,
        "amplitude": 1e-3,
        "r0_values": [4.0],
        "centers_per_zone": 2,
        "seed": 3,
    }
}


# ---------------------------------------------------------------------------
# verify


def test_verify_single_point_passes(capsys):
    assert run_cli(["verify", "lemma2.1", "--t0", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0.0128895" in out


@pytest.mark.parametrize("argv,doc", [
    (["verify", "lemma2.1", "--t0", "3"], {}),
    (["theorem", "--grid", "8"], SMALL_THEOREM),
], ids=["verify", "theorem"])
@pytest.mark.parametrize("estimate,code", [(0.0, 1), (0.4, 0)],
                         ids=["clear", "within-3x"])
def test_a_clear_fail_exits_1(tmp_path, monkeypatch, argv, doc, estimate,
                              code):
    # lhs 2 against rhs 1: a clear FAIL is not marginal and exits 1; within
    # 3x its estimate it stays marginal and exits 0
    from warpforce import verify
    failed = make_report("lemma2.1", {}, 2.0, 1.0, estimate, GridSpec(),
                         "analytic")
    audit = verify.check_main_theorem
    monkeypatch.setattr(verify, "check_lemma_2_1", lambda t0: failed)
    monkeypatch.setattr(verify, "check_main_theorem", lambda cfg, r0: (
        dataclasses.replace(audit(cfg, r0), reports=(failed,))))
    assert run_cli(argv + ["--config", write_cfg(tmp_path, doc)]) == code


def test_verify_rejects_small_t0(tmp_path, capsys):
    # the flag and the config section obey one rule; a non-finite t0 is
    # refused as a number before it is compared with 2
    cfg = write_cfg(tmp_path, {"lemma2.1": {"t0_values": [3.0, float("inf")]}})
    finite = "t0_values must be a non-empty list of finite numbers"
    for argv, err in ((["--t0", "1"], "must exceed 2"),
                      (["--t0", "nan"], finite), (["--t0", "inf"], finite),
                      (["--config", cfg], finite)):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "lemma2.1"] + argv)
        assert exc.value.code == 2
        assert err in capsys.readouterr().err


def test_a_t0_whose_window_overflows_is_a_usage_error(tmp_path, monkeypatch,
                                                      capsys):
    # 14 + 2 t0 = inf built the window [0, inf] and printed FAIL lhs=nan
    # (exit 1); the reader refuses it before the first t0 runs
    from warpforce import verify
    calls = []
    monkeypatch.setattr(verify, "check_lemma_2_1",
                        lambda *a: calls.append(a))
    cfg = write_cfg(tmp_path, {"lemma2.1": {"t0_values": [3.0, 1e308]}})
    for argv in (["--t0", "1e308"], ["--config", cfg]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "lemma2.1"] + argv)
        assert exc.value.code == 2 and calls == []
        assert "lemma2.1 t0 must exceed 2 and keep the window" in \
            capsys.readouterr().err


def test_the_t0_flag_sets_one_key_of_the_section(tmp_path, capsys):
    # --t0 replaces the section's t0_values and leaves its other keys to
    # the reader (a misspelt section ran the flag's t0 alone, and passed)
    cfg = write_cfg(tmp_path, {"lemma2.1": {"t0_values": [5.0, 6.0]}})
    assert run_cli(["verify", "lemma2.1", "--t0", "3", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "1 checks: 1 passed, 0 failed (0 marginal)"
    cfg = write_cfg(tmp_path, {"lemma2.1": {"t0_value": [5.0]}})
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "lemma2.1", "--t0", "3", "--config", cfg])
    assert exc.value.code == 2
    assert "unknown lemma2.1 key 't0_value'" in capsys.readouterr().err


# Documents with one bad section each, and the key their refusal names;
# every subcommand read them through a path that skipped that section.
BAD_SECTIONS = [
    ({"theorem": {"warp_speed": 9}}, "'warp_speed'"),
    ({"manifold": {"kind": "nope"}}, "'nope'"),
    ({"lemma3.2": {"bogus": 1}}, "'bogus'"),
    ({"lemma2.1": {"t0_value": [5.0]}}, "'t0_value'"),
    ({"xi_values": []}, "xi_values"),
    ({"t0_values": []}, "t0_values"),
    ({"theorem": {"r0_values": [2.0]}}, "r0 must exceed 1 + xi"),
]


@pytest.mark.parametrize("doc,key", BAD_SECTIONS, ids=[
    "theorem-key", "manifold-kind", "lemma3.2-key", "lemma2.1-key", "no-xi",
    "no-t0", "theorem-r0"])
@pytest.mark.parametrize("argv", [
    *[["verify", name] for name in available_checks()],
    ["verify", "lemma2.1", "--t0", "3"], ["theorem"], ["demo-remark"],
    ["dump-grid"]], ids=" ".join)
def test_a_bad_section_is_refused_by_every_subcommand(
        tmp_path, monkeypatch, capsys, argv, doc, key):
    # the whole document is read before anything runs, whether or not the
    # run uses the section
    calls = no_work(monkeypatch)
    for name in ("remark_decay", "dump_grid_csv"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--config", write_cfg(tmp_path, doc), "--grid", "8"])
    assert exc.value.code == 2 and calls == []
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv,cfg", [
    (["verify", "lemma2.1", "--grid", "2"], None),
    (["verify", "lemma3.1", "--grid", "3"], None),
    (["theorem", "--grid", "2"], SMALL_THEOREM),
    (["demo-remark", "--grid", "2"], None),
    (["dump-grid", "--grid", "2"], None),
    (["verify", "lemma3.1", "--instances", "-1"], None),
    (["verify", "all", "--instances", "-1"], None),
    (["verify", "lemma3.2"], {"instances": -1}),
    (["verify", "lemma3.2", "--grid", "4"], None),
    (["theorem", "--grid", "4"], SMALL_THEOREM),
    (["dump-grid"], {"manifold": 5}),
    (["verify", "lemma1.1"], {"xi_values": 5}),
    (["verify", "lemma1.1"], {"xi_values": []}),
    (["verify", "lemma3.1"], {"instances": "3"}),
    (["verify", "lemma3.1"], {"seed": 1.5}),
    (["verify", "lemma2.1"], {"lemma2.1": {"t0_values": 3}}),
    (["theorem"], {"theorem": dict(SMALL_THEOREM["theorem"], grid=5)}),
    (["dump-grid", "--seed", "7"], None),
    (["dump-grid", "--json"], None),
    (["demo-remark", "--seed", "7"], None),
    # a malformed theorem section is a usage error under every command
    *[(argv + ["--grid", "8"],
       {"theorem": dict(SMALL_THEOREM["theorem"], **bad)})
      for bad in ({"warp_speed": 9}, {"r0_values": 5},
                  {"grid": {"points": 8}}, {"seed": 1.5}, {"xi": "wide"})
      for argv in (["theorem"], ["verify", "theorem"], ["verify", "all"])],
    (["theorem", "--grid", "8"], dict(SMALL_THEOREM, seed=1.5)),
    (["demo-remark"], {"t0_values": 5}),
    (["demo-remark"], {"t0_values": ["a"]}),
    (["demo-remark"], {"grid": {"points_per_axis": 16.5}}),
    (["verify", "lemma1.1"], {"grid": {"points_per_axis": 16.5}}),
    (["verify", "lemma2.1"], {"lemma2.1": {"t0_values": []}}),
    (["demo-remark", "--t0-max", "1e300"], None),    # too many t0 values
])
def test_bad_numeric_flags_are_usage_errors(tmp_path, monkeypatch, argv, cfg):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        argv = argv + ["--config", write_cfg(tmp_path, cfg)]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("argv,name,grid", [
    (["theorem", "--grid", "1000000000000"], "run_check",
     "--grid 1000000000000"),
    (["verify", "all"], "run_check", "the config's grid"),
    (["demo-remark", "--grid", "1000000000000"], "remark_decay",
     "--grid 1000000000000"),
    (["dump-grid", "--grid", "1000000000000"], "dump_grid_csv",
     "--grid 1000000000000"),
], ids=["theorem", "verify-all", "demo-remark", "dump-grid"])
def test_a_grid_numpy_cannot_allocate_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv, name, grid):
    # np.linspace in Domain.axis_points raised numpy's _ArrayMemoryError
    # for --grid 1000000000000, a traceback; the sampler is replaced by
    # one that raises it, so nothing is allocated
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")
    monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert (f"{grid} is too large to sample: Unable to allocate 7.28 TiB"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["theorem"], ["demo-remark"],
                                  ["dump-grid"]], ids=" ".join)
def test_a_grid_past_numpys_size_limit_is_a_usage_error(tmp_path, monkeypatch,
                                                        argv):
    # numpy refuses 2**62 points per axis before allocating (a ValueError);
    # dump-grid let it escape as a traceback
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--grid", str(2 ** 62)])
    assert exc.value.code == 2


def test_a_refused_grid_leaves_an_earlier_dump_as_it_was(tmp_path, capsys):
    # the refused grid was sized after grid.csv was opened, which left the
    # header line alone in place of the earlier dump
    out = tmp_path / "D"
    assert run_cli(["dump-grid", "--grid", "8", "--out", str(out)]) == 0
    dumped = (out / "grid.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:
        run_cli(["dump-grid", "--grid", str(2 ** 62), "--out", str(out)])
    assert exc.value.code == 2
    assert (out / "grid.csv").read_bytes() == dumped


@pytest.mark.parametrize("argv,cfg,key", [
    (["theorem", "--grid", "8"],
     {"theorem": dict(SMALL_THEOREM["theorem"], guard_constant=float("nan"))},
     "theorem guard_constant"),
    (["dump-grid", "--grid", "8"],
     {"manifold": {"kind": "perturbed", "radial_width": float("nan")}},
     "manifold radial_width"),
    (["verify", "lemma1.1", "--grid", "8"], {"xi_values": [1.0, float("inf")]},
     "top-level xi_values"),
], ids=["guard-nan", "width-nan", "xi-inf"])
def test_non_finite_config_numbers_are_usage_errors(tmp_path, monkeypatch,
                                                    capsys, argv, cfg, key):
    # json.load reads NaN and Infinity: a NaN guard passed every center
    # ("guard 0.9213 <= nan: EXCEEDED"), a NaN width wrote nan in every
    # g11 cell; now each is refused, naming its key, before any output
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--config", write_cfg(tmp_path, cfg), "--out",
                        str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"{key} must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_rejects_unknown_check():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "lemma7.7"])
    assert exc.value.code == 2


def test_verify_t0_flag_only_for_decay_check(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "lemma3.2", "--t0", "3"])
    assert exc.value.code == 2
    assert "lemma2.1" in capsys.readouterr().err


def test_verify_writes_reports(tmp_path, capsys):
    code = run_cli(["verify", "lemma3.1", "--instances", "3",
                    "--out", str(tmp_path), "--seed", "5"])
    assert code == 0
    with open(tmp_path / "reports.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 4  # trivial + 3
    blob = json.loads((tmp_path / "reports.json").read_text())
    assert len(blob) == 4 and blob[0]["name"] == "lemma3.1"


def test_verify_csv_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["verify", "lemma1.1", "--instances", "4",
                        "--out", str(out), "--seed", "9"]) == 0
    assert (a / "reports.csv").read_bytes() == (b / "reports.csv").read_bytes()


def list_csv(columns, rows) -> bytes:
    """The CSV of the list `rows`, as one csv.DictWriter call writes it."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    w.writeheader()
    w.writerows(list(rows))
    return buf.getvalue().encode()


def test_reports_json_streams_in_small_memory(tmp_path):
    # as many reports as `verify all` on the default config; building the
    # JSON text first took 3.3 MB, and every CSV row and to_json() dict
    # before the first byte 0.85 MB
    reports = [make_report("lemma3.1", {"xi": 1.5, "s": 0.01 * i,
                                        "window": [0.0, 3.0]},
                           1e-3 * i, 1.0, 1e-6, GridSpec(), "analytic")
               for i in range(708)]
    _, mb = traced_peak_mb(_write_reports, str(tmp_path), reports)
    assert mb < 0.5
    assert (tmp_path / "reports.json").read_text() == json.dumps(
        [dataclasses.asdict(r) for r in reports], indent=2) + "\n"
    assert (tmp_path / "reports.csv").read_bytes() == list_csv(
        CSV_COLUMNS, reports_to_csv_rows(reports))


def test_reports_csv_rows_are_the_lists_rows(tmp_path):
    # rows written as they are made are the bytes of the whole list's
    # rows, error entries and quoted cells included
    reports = [
        make_report("lemma2.1", {"t0": 3.0, "note": 'a "b", c\nd \u00e9'},
                    1e-3, 1.0, 1e-6, GridSpec(), "analytic",
                    notes='quoted "x", y'),
        error_report("theorem", {"r0": 4.0}, GridSpec(points_per_axis=8),
                     "chart misfit, at\nr = 2"),
    ]
    _write_reports(str(tmp_path), reports)
    assert (tmp_path / "reports.csv").read_bytes() == list_csv(
        CSV_COLUMNS, reports_to_csv_rows(reports))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(st.lists(_JSON_VALUES, max_size=4))
@example([])
@example([{"name": "lemma1.1", "lhs": 0.5}])
@example([{"params": {"window": [0.0, 3.0], "deep": [[], {}, [{"a": []}]]}},
          [1, [2, [3]]]])
@example([{"lhs": math.nan, "rhs": math.inf, "margin": -math.inf}])
@example(['say "hi"\n\tthen \\ go', "\u00e9t\u00e9 \u2264 \u03be \U0001d4c8",
          {"\n": "\""}])
def test_dump_json_writes_the_bytes_of_json_dumps(items):
    fh = io.StringIO()
    cli._dump_json(iter(items), fh)
    assert fh.getvalue() == json.dumps(items, indent=2) + "\n"


def test_verify_json_stdout(capsys):
    assert run_cli(["verify", "lemma2.1", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob) == 6 and all(r["passed"] for r in blob)


def test_verify_config_grid_and_instances(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"instances": 2, "seed": 1,
                               "grid": {"points_per_axis": 32}})
    assert run_cli(["verify", "lemma3.2", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "3 checks: 3 passed" in out


def test_verify_bad_config_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "all", "--config", str(path)])
    assert exc.value.code == 2


ROOT = Path(__file__).resolve().parents[1]


def assert_golden(outdir, *names):
    """The files `names` in outdir equal those of tests/data byte for byte,
    except the lines that hold a run time."""
    for name in names:
        got = (outdir / name).read_bytes().splitlines(keepends=True)
        got = b"".join(line for line in got if b'"runtime_s"' not in line)
        golden = Path(__file__).parent / "data" / name
        assert got == golden.read_bytes(), name


# tests/data holds the outputs of the exact commands of the golden tests.
# The CSVs print 12 significant digits; the JSON's repr floats pin every
# bit.  Only a declared numerical fix may regenerate them, logged in
# CHANGES.md.  From the repository root, with D an empty scratch
# directory, these commands write every file of tests/data (sed drops the
# run-time lines that assert_golden skips):
#
#   wf() { PYTHONPATH=src python -m warpforce.cli "$@"; }
#   T=tests/data
#   wf verify all --config configs/default.json --grid 8 --instances 2 \
#       --seed 0 --out $D
#   mv $D/reports.csv $D/reports.json $T
#   wf verify all --config configs/default.json --out $D
#   mv $D/reports.csv $T/default_reports.csv
#   echo '{"theorem": {"r0_values": [5.0], "centers_per_zone": 2}}' \
#       > $D/t.json
#   wf verify theorem --config $D/t.json --grid 8 --out $D
#   mv $D/reports.csv $T/theorem_centers.csv
#   mv $D/theorem_sweep.csv $T
#   sed '/"runtime_s"/d' $D/theorem.json > $T/theorem.json
#   echo '{"theorem": {"n": 3, "r0_values": [5.0], "centers_per_zone": 1}}' \
#       > $D/t3.json
#   wf verify theorem --config $D/t3.json --grid 8 --out $D
#   sed '/"runtime_s"/d' $D/theorem.json > $T/theorem_n3.json
#   wf verify theorem --config $D/t3.json --grid 32 --out $D
#   sed '/"runtime_s"/d' $D/theorem.json > $T/theorem_n3_32.json
#   wf demo-remark --grid 8 --out $T           # remark.csv, remark.json
#   wf dump-grid --config configs/default.json --grid 8 --r0 5 --out $T
#   for kind in punctured perturbed; do
#       echo "{\"manifold\": {\"kind\": \"$kind\", \"n\": 3}}" > $D/$kind.json
#   done
#   wf dump-grid --config $D/punctured.json --grid 4 --out $D
#   mv $D/grid.csv $T/grid_n3_punctured.csv
#   wf dump-grid --config $D/perturbed.json --grid 4 --out $D
#   mv $D/grid.csv $T/grid_n3.csv
#   wf dump-grid --config $D/perturbed.json --grid 4 --r0 5 --out $D
#   mv $D/grid.csv $T/grid_n3_r0.csv
#
# The three grid_n3 files hold the dumps of the code before the n = 3 block
# became its conformal factor (see test_dump_grid_n3_keeps_its_polar_columns):
# regenerate them only at the commit that wrote them.


def test_verify_all_matches_golden_csv(tmp_path, capsys):
    assert run_cli(["verify", "all", "--config",
                    str(ROOT / "configs" / "default.json"), "--grid", "8",
                    "--instances", "2", "--seed", "0",
                    "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert_golden(tmp_path, "reports.csv", "reports.json")


def test_verify_all_default_config_matches_golden_csv(tmp_path, capsys):
    # every cell of the default campaign's 708 rows, at 64 points per axis
    assert run_cli(["verify", "all", "--config",
                    str(ROOT / "configs" / "default.json"),
                    "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (tmp_path / "reports.csv").rename(tmp_path / "default_reports.csv")
    assert_golden(tmp_path, "default_reports.csv")


def test_theorem_matches_golden(tmp_path, capsys):
    # verify theorem's reports.csv is the centers' table, one row a center
    cfg = write_cfg(tmp_path, {"theorem": {"r0_values": [5.0],
                                           "centers_per_zone": 2}})
    out = tmp_path / "out"
    assert run_cli(["verify", "theorem", "--config", cfg, "--grid", "8",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "reports.csv").rename(out / "theorem_centers.csv")
    assert_golden(out, "theorem_centers.csv", "theorem_sweep.csv",
                  "theorem.json")


def test_one_audit_per_r0_writes_every_file(tmp_path, monkeypatch, capsys):
    # the sweep files are written from the instances whose reports the run
    # returned: no r0 is audited twice
    from warpforce import verify
    audit, calls = verify.check_main_theorem, []
    monkeypatch.setattr(verify, "check_main_theorem",
                        lambda cfg, r0: calls.append(r0) or audit(cfg, r0))
    cfg = write_cfg(tmp_path, {"theorem": {"r0_values": [5.0, 6.0],
                                           "centers_per_zone": 1}})
    assert run_cli(["verify", "theorem", "--config", cfg, "--grid", "8",
                    "--out", str(tmp_path)]) == 0
    assert calls == [5.0, 6.0]
    blob = json.loads((tmp_path / "theorem.json").read_text())
    assert [inst["r0"] for inst in blob] == calls
    assert [r for inst in blob for r in inst["reports"]] == json.loads(
        (tmp_path / "reports.json").read_text())
    with open(tmp_path / "theorem_sweep.csv") as fh:
        assert [float(row["r0"]) for row in csv.DictReader(fh)] == calls
    with open(tmp_path / "reports.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 6
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out if " r0=" in line] == \
        ["r0=5", "r0=6"]


def test_demo_remark_matches_golden(tmp_path, capsys):
    assert run_cli(["demo-remark", "--grid", "8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert_golden(tmp_path, "remark.csv", "remark.json")


def test_dump_grid_matches_golden(tmp_path, capsys):
    assert run_cli(["dump-grid", "--config",
                    str(ROOT / "configs" / "default.json"), "--grid", "8",
                    "--r0", "5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert_golden(tmp_path, "grid.csv")


def assert_theorem_n3_golden(tmp_path, capsys, grid=8,
                             name="theorem_n3.json"):
    cfg = write_cfg(tmp_path, {"theorem": {"n": 3, "r0_values": [5.0],
                                           "centers_per_zone": 1}})
    out = tmp_path / "out"
    assert run_cli(["verify", "theorem", "--config", cfg, "--grid", str(grid),
                    "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "theorem.json").rename(out / name)
    assert_golden(out, name)


def test_theorem_n3_matches_golden(tmp_path, capsys):
    # every other golden is n = 2: this one pins the exp-map pullback and
    # its finite-difference norms
    assert_theorem_n3_golden(tmp_path, capsys)


def test_theorem_n3_matches_golden_across_fd_pieces(tmp_path, capsys):
    # at 32 points a 23,680-row FD walk crosses 27 stencil-piece
    # boundaries, where a slip in the pieces' point layout would show
    assert_theorem_n3_golden(tmp_path, capsys, 32, "theorem_n3_32.json")


def test_theorem_n3_golden_holds_in_small_fd_pieces(tmp_path, capsys,
                                                   monkeypatch):
    # 52 base rows a piece: pieces cut the grid's runs of equal x
    from warpforce import model
    monkeypatch.setattr(model, "_FD_ROWS", 1000)
    assert_theorem_n3_golden(tmp_path, capsys)


# ---------------------------------------------------------------------------
# theorem


# ---------------------------------------------------------------------------
# config documents


@pytest.mark.parametrize("argv,doc", [
    (["verify", "lemma1.1"], {}),
    (["verify", "all"], {}),
    (["demo-remark"], {}),
    (["dump-grid"], {}),
    (["theorem"], SMALL_THEOREM),
])
def test_unknown_top_level_key_is_a_usage_error(tmp_path, monkeypatch,
                                                capsys, argv, doc):
    # a misspelt key must not leave its subcommand on a default (instances
    # 100 for {"instancez": 3}); no lemma runs and no file is written
    from warpforce import verify
    calls = []
    monkeypatch.setattr(verify, "_run_lemma_suite",
                        lambda *a, **k: calls.append(a) or [])
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, dict(doc, instancez=3))
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--config", cfg, "--grid", "8"])
    assert exc.value.code == 2 and calls == []
    assert "unknown top-level key 'instancez'" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def test_the_readme_error_example_is_what_the_cli_prints(tmp_path,
                                                        monkeypatch, capsys):
    # the README's typo.json cases, run: a `known:` list is its table's, and
    # dump-grid refuses a theorem section that it does not use
    monkeypatch.chdir(tmp_path)
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = [i for i, line in enumerate(lines) if "typo.json" in line]
    assert len(examples) == 2
    for i in examples:
        command, doc = lines[i].split("#", 1)
        argv = command.split()[2:]          # after "$ warpforce"
        argv[argv.index("typo.json")] = write_cfg(tmp_path, json.loads(doc))
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == lines[i + 1]
    assert not (tmp_path / "grid.csv").exists()


def test_the_readme_command_list_parses():
    # a renamed or aliased subcommand cannot leave a stale line in the list
    text = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines()]
    assert len(commands) == 6
    for argv in commands:
        assert argv[0] == "warpforce"
        build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("argv,doc", [
    (["verify", "lemma1.1"], {}),
    (["demo-remark"], {}),
    (["dump-grid"], {}),
    (["theorem"], SMALL_THEOREM),
    (["verify", "theorem"], SMALL_THEOREM),
])
def test_fd_step_is_not_a_grid_key(tmp_path, monkeypatch, capsys, argv, doc):
    # the finite-difference step is a constant, not a grid key (a step of
    # 1e-6 inflates an n=3 norm 9x)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, dict(doc, grid={"fd_step": 1e-6}))
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--config", cfg])
    assert exc.value.code == 2
    assert "grid key 'fd_step'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "lemma2.1"], ["theorem"],
                                  ["demo-remark"], ["dump-grid"]],
                         ids=lambda a: a[0])
def test_default_config_runs_every_subcommand(tmp_path, capsys, argv):
    assert run_cli(argv + ["--config", str(ROOT / "configs" / "default.json"),
                           "--grid", "8", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("doc", [
    {"seed": 3, "instances": 5}, {"instances": 3},
    {"grid": {"points_per_axis": 8}}], ids=["seed-instances", "instances",
                                          "grid"])
def test_theorem_reads_a_document_as_verify_theorem_does(tmp_path, capsys,
                                                         doc):
    # `theorem` refused the first two documents and ran the third as a bare
    # theorem section; each runs as a campaign document does everywhere
    cfg = write_cfg(tmp_path, doc)
    outs = []
    for argv in (["theorem"], ["verify", "theorem"]):
        out = tmp_path / argv[-1]
        outs.append((run_cli(argv + ["--config", cfg, "--grid", "8",
                                     "--out", str(out)]),
                     (out / "reports.csv").read_bytes(),
                     (out / "theorem_sweep.csv").read_bytes()))
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert outs[0][1].count(b"\n") == 1 + 4 * 3 * 8      # the default sweep
    assert capsys.readouterr().out.count("PASS r0=") == 2 * 4


def test_theorem_without_config_runs_the_default_document(capsys):
    # `theorem` required --config; it now runs what `verify theorem` runs
    outs = []
    for argv in (["theorem"], ["verify", "theorem"]):
        assert run_cli(argv + ["--grid", "8", "--json"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] == outs[1] and len(outs[0]) == 4 * 3 * 8


def test_theorem_top_level_fields_accepted(tmp_path, capsys):
    # `theorem` accepts the top-level fields every subcommand accepts; the
    # fields of a theorem section are not among them, so a document that is
    # itself a theorem section is refused by its keys under `theorem` and
    # `verify theorem` alike
    cfg = write_cfg(tmp_path, dict(SMALL_THEOREM, seed=3,
                                   grid={"points_per_axis": 8}))
    assert run_cli(["theorem", "--config", cfg]) == 0
    capsys.readouterr()
    section = dict(SMALL_THEOREM["theorem"])
    for argv in (["theorem"], ["verify", "theorem"]):
        for doc, key in ((section, "'n'"), ({"unrelated": 1}, "'unrelated'")):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + ["--config", write_cfg(tmp_path, doc)])
            assert exc.value.code == 2
            assert f"unknown top-level key {key}" in capsys.readouterr().err


def test_a_theorem_section_document_runs_as_its_section(tmp_path, capsys):
    # a document's `theorem` object runs as its section under `theorem` and
    # `verify theorem` alike; the section's own grid takes --grid, its
    # margin kept
    section = dict(SMALL_THEOREM["theorem"],
                   grid={"points_per_axis": 16, "boundary_margin": 0.05})
    outs = []
    for argv in (["theorem"], ["verify", "theorem"]):
        assert run_cli(argv + ["--config",
                               write_cfg(tmp_path, {"theorem": section}),
                               "--grid", "8", "--json"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert {(r["grid"]["points_per_axis"], r["grid"]["boundary_margin"])
            for r in outs[0]} == {(8, 0.05)}


def test_grid_flag_keeps_the_theorem_objects_margin(tmp_path, capsys):
    # --grid N replaces the points per axis of the grid the run would use
    # without it; a `theorem` object's margin was dropped (0.02)
    cfg = write_cfg(tmp_path, {"theorem": {
        "r0_values": [5.0], "centers_per_zone": 1,
        "grid": {"points_per_axis": 16, "boundary_margin": 0.1}}})
    outs = []
    for argv in (["theorem"], ["verify", "theorem"]):
        out = tmp_path / argv[-1]
        assert run_cli(argv + ["--config", cfg, "--grid", "8", "--json",
                               "--out", str(out)]) == 0
        outs.append(json.loads(capsys.readouterr().out))
        blob = json.loads((out / "theorem.json").read_text())
        assert [inst["eps"] for inst in blob] == [0.0036970253939472286]
    assert outs[0] == outs[1]
    assert {tuple(r["grid"].values()) for r in outs[0]} == {(8, 0.1)}


def test_theorem_rejects_unknown_field(tmp_path):
    cfg = write_cfg(tmp_path, {"theorem": {"r0_values": [4.0],
                                           "warp_speed": 9}})
    with pytest.raises(SystemExit) as exc:
        run_cli(["theorem", "--config", cfg])
    assert exc.value.code == 2


def test_theorem_rejects_bad_excess(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"theorem": {"r0_values": [4.0], "xi": 1.0,
                                           "centers_per_zone": 2}})
    with pytest.raises(SystemExit) as exc:
        run_cli(["theorem", "--config", cfg])
    assert exc.value.code == 2
    assert "xi" in capsys.readouterr().err


@pytest.mark.parametrize("theorem", [
    {"centers_per_zone": 0, "r0_values": [5.0]},
    {"r0_values": []},
], ids=["no-centers", "no-r0"])
@pytest.mark.parametrize("argv", [["theorem"],
                                  ["verify", "all", "--instances", "0"]],
                         ids=["theorem", "verify-all"])
def test_vacuous_theorem_is_a_usage_error(tmp_path, capsys, argv, theorem):
    # a sweep with no center or no r0 would report PASS having checked nothing
    cfg = write_cfg(tmp_path, {"theorem": theorem})
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--config", cfg, "--grid", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "centers_per_zone" in err or "r0 value" in err


def no_work(monkeypatch):
    """The audits and lemma suites started, a list that stays empty while
    the run is refused before any of them."""
    from warpforce import verify
    calls = []
    for name in ("check_main_theorem", "_run_lemma_suite", "check_lemma_2_1"):
        monkeypatch.setattr(verify, name, lambda *a, **k: calls.append(a))
    return calls


@pytest.mark.parametrize("argv", [["theorem"], ["verify", "all"]],
                         ids=["theorem", "verify-all"])
def test_a_bad_r0_anywhere_refuses_the_sweep_before_any_audit(
        tmp_path, monkeypatch, capsys, argv):
    # r0 = 5 can be audited, r0 = 2 cannot: nothing runs
    calls = no_work(monkeypatch)
    cfg = write_cfg(tmp_path, {"theorem": {"r0_values": [5.0, 2.0],
                                           "centers_per_zone": 1}})
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--config", cfg, "--grid", "8"])
    assert exc.value.code == 2 and calls == []
    assert "r0 must exceed 1 + xi" in capsys.readouterr().err


@pytest.mark.parametrize("flag,doc", [
    (["--seed", "-1"], {}),
    ([], {"seed": -1}),
    ([], {"theorem": {"seed": -1}}),
], ids=["flag", "top-level", "theorem-section"])
@pytest.mark.parametrize("argv", [["theorem"], ["verify", "all"]],
                         ids=["theorem", "verify-all"])
def test_a_negative_seed_is_refused_by_name(tmp_path, monkeypatch, capsys,
                                            argv, flag, doc):
    # the seeded draws refuse it too, but only at the first instance
    calls = no_work(monkeypatch)
    doc = doc | {"theorem": {"r0_values": [5.0], "centers_per_zone": 1}
                 | doc.get("theorem", {})}
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + flag + ["--config", write_cfg(tmp_path, doc),
                               "--grid", "8"])
    assert exc.value.code == 2 and calls == []
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


def test_a_lemma_run_refuses_a_negative_seed(monkeypatch, capsys):
    calls = no_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "lemma1.1", "--seed", "-1"])
    assert exc.value.code == 2 and calls == []
    assert "seed must be non-negative" in capsys.readouterr().err


def test_theorem_writes_sweep_and_centers(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_THEOREM)
    assert run_cli(["theorem", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "theorem_sweep.csv") as fh:
        sweep = list(csv.DictReader(fh))
    assert len(sweep) == 1 and sweep[0]["passed"] == "true"
    assert float(sweep[0]["eta_max"]) <= float(sweep[0]["bound"])
    with open(tmp_path / "reports.csv") as fh:
        centers = list(csv.DictReader(fh))
    assert len(centers) == 6
    cases = {json.loads(r["params"])["case"] for r in centers}
    assert cases == {1, 2, 3}
    assert "PASS" in capsys.readouterr().out


def test_theorem_fixed_point_eta_equals_eps(tmp_path):
    doc = {"theorem": dict(SMALL_THEOREM["theorem"], amplitude=0.0)}
    cfg = write_cfg(tmp_path, doc)
    assert run_cli(["theorem", "--config", cfg, "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "theorem.json").read_text())
    reports = blob[0]["reports"]
    assert reports
    for r in reports:
        assert r["lhs"] == r["params"]["eps_center"]


def test_theorem_seed_flag_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_THEOREM)
    run_cli(["theorem", "--config", cfg, "--json"])
    first = json.loads(capsys.readouterr().out)
    run_cli(["theorem", "--config", cfg, "--json", "--seed", "77"])
    second = json.loads(capsys.readouterr().out)
    t0_a = [r["params"]["t0"] for r in first]
    t0_b = [r["params"]["t0"] for r in second]
    assert t0_a != t0_b


def center_t0s(argv, cfg, capsys):
    """The t0 of every center a theorem run checks, in report order."""
    assert run_cli(argv + ["--config", cfg, "--grid", "8", "--json"]) == 0
    return [r["params"]["t0"] for r in json.loads(capsys.readouterr().out)]


def test_theorem_and_verify_theorem_draw_the_same_centers(tmp_path, capsys):
    # a top-level seed is read by both commands
    cfg = write_cfg(tmp_path, {"seed": 3, "theorem": {
        "r0_values": [5.0], "centers_per_zone": 1}})
    plain = center_t0s(["theorem"], cfg, capsys)
    assert plain == center_t0s(["verify", "theorem"], cfg, capsys)
    default = write_cfg(tmp_path, {"theorem": {
        "r0_values": [5.0], "centers_per_zone": 1}}, name="default.json")
    assert plain != center_t0s(["theorem"], default, capsys)


def test_verify_theorem_seed_flag_overrides_the_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"theorem": {
        "r0_values": [5.0], "centers_per_zone": 1, "seed": 1}})
    five = center_t0s(["verify", "theorem", "--seed", "5"], cfg, capsys)
    nine = center_t0s(["verify", "theorem", "--seed", "9"], cfg, capsys)
    assert five != nine
    assert five == center_t0s(["theorem", "--seed", "5"], cfg, capsys)


@pytest.mark.parametrize("key,value,message", [
    pytest.param("warp_speed", 9, "'warp_speed'", id="unknown-key"),
    pytest.param("r_range", [0.05], "r_range", id="r_range-one-number"),
    pytest.param("r_range", [0.05, 9.0], "cannot fit three theorem zones",
                 id="r_range-zones-do-not-fit"),
    pytest.param("n", 4, "only n = 2 and n = 3", id="n-4"),
    pytest.param("amplitude", 1.5, "amplitude", id="amplitude-1.5"),
    pytest.param("radial_width", 0, "radial_width", id="radial_width-0"),
    pytest.param("xi", 0.8, "xi > 1", id="xi-0.8"),
    pytest.param("r0_values", [], "at least one r0", id="r0_values-empty"),
    pytest.param("r0_values", [2.0], "r0 must exceed 1 + xi",
                 id="r0_values-2"),
    pytest.param("centers_per_zone", 0, "centers_per_zone",
                 id="centers_per_zone-0"),
])
def test_verify_all_reads_the_theorem_section_first(tmp_path, monkeypatch,
                                                    capsys, key, value,
                                                    message):
    # the default campaign with one theorem key changed is refused before
    # any lemma suite runs
    from warpforce import verify
    calls = []
    monkeypatch.setattr(verify, "_run_lemma_suite",
                        lambda *a, **k: calls.append(a) or [])
    monkeypatch.setattr(verify, "check_lemma_2_1",
                        lambda *a, **k: calls.append(a))
    doc = json.loads((ROOT / "configs" / "default.json").read_text())
    doc["theorem"][key] = value
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "all", "--config", write_cfg(tmp_path, doc),
                 "--grid", "8"])
    assert exc.value.code == 2 and calls == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["theorem"], ["verify", "theorem"],
                                  ["verify", "all"]])
def test_the_theorem_section_is_read_once(tmp_path, monkeypatch, capsys,
                                          argv):
    # --grid takes the points of the section's grid from the one read the
    # run then uses
    from warpforce import verify
    reads, runs = [], []
    from_dict = verify.TheoremConfig.from_dict.__func__
    monkeypatch.setattr(verify.TheoremConfig, "from_dict", classmethod(
        lambda cls, *a: reads.append(a) or from_dict(cls, *a)))
    monkeypatch.setattr(verify, "run_theorem_sweep",
                        lambda cfg: runs.append(cfg) or [])
    monkeypatch.setattr(verify, "_run_lemma_suite", lambda *a: [])
    cfg = write_cfg(tmp_path, {"theorem": {
        "r0_values": [5.0], "seed": 4,
        "grid": {"points_per_axis": 16, "boundary_margin": 0.03}}})
    assert run_cli(argv + ["--config", cfg, "--grid", "8"]) == 0
    capsys.readouterr()
    assert len(reads) == 1
    (run,) = runs
    assert run.r0_values == (5.0,) and run.seed == 4
    assert run.grid == GridSpec(points_per_axis=8, boundary_margin=0.03)


@pytest.mark.parametrize("argv,cfg", [
    (["verify", "theorem"], {"theorem": {"r0_values": [5.0],
                                         "centers_per_zone": 1,
                                         "r_range": [0.05]}}),
    (["theorem"], {"theorem": {"r0_values": [5.0], "centers_per_zone": 1,
                               "r_range": [0.05, 16.0, 99]}}),
    (["dump-grid"], {"manifold": {"kind": "punctured",
                                  "r_range": [0.05, 16.0, 99]}}),
    (["dump-grid"], {"manifold": {"kind": "punctured", "r_range": [1.0]}}),
    (["dump-grid"], {"manifold": {"kind": "perturbed",
                                  "r_range": [8.0, 2.0]}}),
])
def test_bad_r_range_is_a_usage_error(tmp_path, capsys, argv, cfg):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--grid", "8", "--out", str(tmp_path),
                        "--config", write_cfg(tmp_path, cfg)])
    assert exc.value.code == 2
    assert "r_range" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("check,section,key", [
    ("lemma2.1", {"t0_value": [3.0]}, "t0_value"),
    ("lemma3.2", {"instances": 3}, "instances"),
    ("lemma1.1", {"t0_values": [3.0]}, "t0_values"),
])
@pytest.mark.parametrize("all_", [False, True])
def test_unknown_lemma_key_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                            check, section, key, all_):
    # under `verify all` no lemma runs before the sections are read
    from warpforce import verify
    calls = []
    monkeypatch.setattr(verify, "_run_lemma_suite",
                        lambda *a, **k: calls.append(a) or [])
    monkeypatch.setattr(verify, "check_lemma_2_1",
                        lambda *a, **k: calls.append(a))
    cfg = write_cfg(tmp_path, {check: section})
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "all" if all_ else check, "--config", cfg,
                 "--grid", "8", "--out", str(tmp_path)])
    assert exc.value.code == 2 and calls == []
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("xi_values", [
    pytest.param([float("inf")], id="inf"),
    pytest.param([float("nan")], id="nan"),
    pytest.param([1.0, -2], id="second-negative"),
    pytest.param([0], id="zero"),
    pytest.param([], id="empty"),
    pytest.param([True], id="bool"),
])
@pytest.mark.parametrize("check", ["lemma1.1", "all"])
def test_bad_xi_values_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                        xi_values, check):
    # refused before any lemma suite runs, under `verify all` too
    from warpforce import verify
    calls = []
    monkeypatch.setattr(verify, "_run_lemma_suite",
                        lambda *a, **k: calls.append(a) or [])
    monkeypatch.setattr(verify, "check_lemma_2_1",
                        lambda *a, **k: calls.append(a))
    cfg = write_cfg(tmp_path, {"xi_values": xi_values})
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", check, "--config", cfg, "--grid", "8",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2 and calls == []
    assert "xi_values" in capsys.readouterr().err


@pytest.mark.parametrize("value", [False, True, "0.02", None],
                         ids=["false", "true", "string", "null"])
@pytest.mark.parametrize("where", ["top-level", "theorem"])
def test_grid_value_of_the_wrong_kind_is_a_usage_error(
        tmp_path, monkeypatch, capsys, where, value):
    # a bool margin was read as 0 or 1, a string or null reached GridSpec;
    # refused before any lemma suite runs, naming the key
    from warpforce import verify
    calls = []
    monkeypatch.setattr(verify, "_run_lemma_suite",
                        lambda *a, **k: calls.append(a) or [])
    monkeypatch.setattr(verify, "check_lemma_2_1",
                        lambda *a, **k: calls.append(a))
    doc = json.loads((ROOT / "configs" / "default.json").read_text())
    grid = {"points_per_axis": 8, "boundary_margin": value}
    if where == "theorem":
        doc["theorem"]["grid"] = grid
    else:
        doc["grid"] = grid
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "all", "--config", write_cfg(tmp_path, doc)])
    assert exc.value.code == 2 and calls == []
    err = capsys.readouterr().err
    assert "boundary_margin must be a number" in err
    assert ("theorem grid" in err) == (where == "theorem")


def test_only_error_entries_print_as_error(capsys):
    # a NaN sample makes a check FAIL with a NaN lhs; ERROR is kept for the
    # entries that could not be evaluated
    from warpforce.cli import _print_reports
    from warpforce.model import GridSpec
    from warpforce.verify import error_report, make_report
    failed = make_report("lemma1.1", {"instance": 0}, float("nan"), 1.0,
                         0.0, GridSpec(), "analytic")
    error = error_report("theorem", {"r0": 5.0}, GridSpec(), "chart misfit")
    _print_reports([failed, error], as_json=False)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL lemma1.1 lhs=nan rhs=1 margin=nan"
    assert lines[1].startswith("ERROR theorem error: chart misfit")
    assert lines[2] == "2 checks: 0 passed, 2 failed (0 marginal)"


# ---------------------------------------------------------------------------
# demo-remark


def test_demo_remark_table(tmp_path, capsys):
    assert run_cli(["demo-remark", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "remark.csv") as fh:
        rows = list(csv.DictReader(fh))
    eps = [float(r["eps"]) for r in rows]
    t0s = [float(r["t0"]) for r in rows]
    assert eps == sorted(eps, reverse=True)  # monotone decreasing
    by_t0 = dict(zip(t0s, eps))
    assert by_t0[2.2] / by_t0[8.0] > 100
    assert by_t0[8.0] < 1e-3
    assert "contrast" in capsys.readouterr().out


def test_demo_remark_range_flags(capsys):
    assert run_cli(["demo-remark", "--t0-min", "3", "--t0-max", "5",
                    "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["t0"] for r in rows] == [3.0, 4.0, 5.0]


def test_demo_remark_rejects_bad_range():
    with pytest.raises(SystemExit) as exc:
        run_cli(["demo-remark", "--t0-min", "5", "--t0-max", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("step", ["0", "-1"])
def test_demo_remark_rejects_non_positive_step(capsys, step):
    with pytest.raises(SystemExit) as exc:
        run_cli(["demo-remark", "--t0-min", "3", "--t0-max", "4",
                 "--step", step])
    assert exc.value.code == 2
    assert "--step" in capsys.readouterr().err


def test_remark_decay_rejects_empty_t0_values():
    with pytest.raises(ValueError):
        remark_decay([])


# ---------------------------------------------------------------------------
# dump-grid


def test_dump_grid_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["dump-grid", "--grid", "8"]) == 0
    assert "wrote 64 rows" in capsys.readouterr().out
    with open(tmp_path / "grid.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    assert set(rows[0].keys()) == {"theta", "r", "g11", "g12", "g21", "g22"}


@pytest.mark.parametrize("kind,r0,name", [
    ("punctured", None, "grid_n3_punctured.csv"),
    ("perturbed", None, "grid_n3.csv"),
    ("perturbed", "5", "grid_n3_r0.csv"),
])
def test_dump_grid_n3_keeps_its_polar_columns(tmp_path, capsys, kind, r0,
                                              name):
    # the goldens were written when the n = 3 block was diag(f, f sin^2
    # phi), g22 formed as F (sinh^2 r sin^2 phi); polar_form forms it as
    # (F sinh^2 r) sin^2 phi, so a g22 with F != 1 may move by 2 ulps.
    # Every other cell is byte-identical.
    cfg = write_cfg(tmp_path, {"manifold": {"kind": kind, "n": 3}})
    assert run_cli(["dump-grid", "--config", cfg, "--grid", "4",
                    "--out", str(tmp_path)]
                   + (["--r0", r0] if r0 else [])) == 0
    capsys.readouterr()
    got = (tmp_path / "grid.csv").read_text().splitlines()
    want = (Path(__file__).parent / "data" / name).read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want) == 65
    if kind == "punctured":
        assert got == want
    col = want[0].split(",").index("g22")
    for g, w in zip(got[1:], want[1:]):
        g, w = g.split(","), w.split(",")
        assert g[:col] == w[:col] and g[col + 1:] == w[col + 1:]
        assert abs(float(g[col]) - float(w[col])) \
            <= 2 * np.spacing(float(w[col]))


def test_dump_grid_warp_forced(tmp_path):
    cfg = write_cfg(tmp_path, {"manifold": {"kind": "perturbed", "n": 2,
                                            "amplitude": 1e-3}})
    assert run_cli(["dump-grid", "--config", cfg, "--grid", "8",
                    "--r0", "5.0", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "grid.csv").exists()


def test_dump_grid_rejects_unknown_kind(tmp_path):
    cfg = write_cfg(tmp_path, {"manifold": {"kind": "flat"}})
    with pytest.raises(SystemExit) as exc:
        run_cli(["dump-grid", "--config", cfg])
    assert exc.value.code == 2


def test_dump_grid_rejects_unknown_manifold_key(tmp_path, capsys):
    # a misspelt key used to fall back to the default amplitude silently
    cfg = write_cfg(tmp_path, {"manifold": {"kind": "perturbed",
                                            "amplitud": 0.5}})
    with pytest.raises(SystemExit) as exc:
        run_cli(["dump-grid", "--config", cfg, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "'amplitud'" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("amplitude", "0.1"), ("amplitude", None), ("sphere_mode", 2.5),
    ("sphere_mode", True), ("sphere_mode", "3"), ("radial_width", "2"),
    ("radial_center", None), ("n", 2.0),
])
def test_dump_grid_refuses_a_manifold_value_of_the_wrong_kind(
        tmp_path, capsys, key, value):
    # these used to end in a TypeError traceback or to run silently with
    # a rounded value
    cfg = write_cfg(tmp_path, {"manifold": {"kind": "perturbed", key: value}})
    with pytest.raises(SystemExit) as exc:
        run_cli(["dump-grid", "--config", cfg, "--grid", "8",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"manifold {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


# ---------------------------------------------------------------------------
# packaging


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "warpforce.cli", "verify", "lemma2.1",
         "--t0", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.skipif(shutil.which("warpforce") is None,
                    reason="warpforce console script not on PATH "
                           "(package not installed)")
def test_installed_script_if_present():
    proc = subprocess.run(["warpforce", "demo-remark", "--t0-min", "5",
                           "--t0-max", "6"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "contrast" in proc.stdout
