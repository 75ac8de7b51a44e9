import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from warpforce.cli import _write_reports, main
from warpforce.model import GridSpec
from warpforce.verify import CSV_COLUMNS, make_report, remark_decay

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


def test_reports_json_streams_in_small_memory(tmp_path):
    # as many reports as `verify all` on the default config; building the
    # JSON text first took 3.3 MB
    reports = [make_report("lemma3.1", {"xi": 1.5, "s": 0.01 * i,
                                        "window": [0.0, 3.0]},
                           1e-3 * i, 1.0, 1e-6, GridSpec(), "analytic")
               for i in range(708)]
    _, mb = traced_peak_mb(_write_reports, str(tmp_path), reports)
    assert mb < 1.5
    assert (tmp_path / "reports.json").read_text() == json.dumps(
        [dataclasses.asdict(r) for r in reports], indent=2) + "\n"


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
# CHANGES.md.


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
    cfg = write_cfg(tmp_path, {"theorem": {"r0_values": [5.0],
                                           "centers_per_zone": 2}})
    out = tmp_path / "out"
    assert run_cli(["theorem", "--config", cfg, "--grid", "8",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    assert_golden(out, "theorem_centers.csv", "theorem_sweep.csv",
                  "theorem.json")


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
    assert run_cli(["theorem", "--config", cfg, "--grid", str(grid),
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


@pytest.mark.parametrize("argv,doc", [
    (["verify", "lemma1.1"], {}),
    (["demo-remark"], {}),
    (["dump-grid"], {}),
    (["theorem"], SMALL_THEOREM),
    (["theorem"], SMALL_THEOREM["theorem"]),
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


def test_a_theorem_section_document_runs_as_its_section(tmp_path, capsys):
    # the document's own grid takes --grid as a `theorem` document's does
    section = dict(SMALL_THEOREM["theorem"],
                   grid={"points_per_axis": 16, "boundary_margin": 0.05})
    outs = []
    for doc in (section, {"theorem": section, "grid": section["grid"]}):
        assert run_cli(["theorem", "--config", write_cfg(tmp_path, doc),
                        "--grid", "8", "--json"]) == 0
        outs.append([dict(inst, runtime_s=0) for inst in
                     json.loads(capsys.readouterr().out)])
    assert outs[0] == outs[1]
    assert {r["grid"]["boundary_margin"] for inst in outs[0]
            for r in inst["reports"]} == {0.05}


def test_grid_flag_keeps_the_theorem_objects_margin(tmp_path, capsys):
    # --grid N replaces the points per axis of the grid the run would use
    # without it; a `theorem` object's margin was dropped (0.02) unless the
    # document was a bare theorem section
    section = {"r0_values": [5.0], "centers_per_zone": 1,
               "grid": {"points_per_axis": 16, "boundary_margin": 0.1}}
    outs = []
    for argv, doc in ((["theorem"], section),
                      (["theorem"], {"theorem": section}),
                      (["verify", "theorem"], {"theorem": section})):
        assert run_cli(argv + ["--config", write_cfg(tmp_path, doc),
                               "--grid", "8", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        if argv == ["theorem"]:
            assert [inst["eps"] for inst in out] == [0.0036970253939472286]
            out = [r for inst in out for r in inst["reports"]]
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert {tuple(r["grid"].values()) for r in outs[0]} == {(8, 0.1)}


def test_theorem_requires_config(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["theorem"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_theorem_config_needs_instance_spec(tmp_path, capsys):
    for doc, message in (({"unrelated": 1}, "'unrelated'"),
                         ({"instances": 3}, "no theorem instance spec")):
        with pytest.raises(SystemExit) as exc:
            run_cli(["theorem", "--config", write_cfg(tmp_path, doc)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


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


def test_theorem_writes_sweep_and_centers(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_THEOREM)
    assert run_cli(["theorem", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "theorem_sweep.csv") as fh:
        sweep = list(csv.DictReader(fh))
    assert len(sweep) == 1 and sweep[0]["passed"] == "true"
    assert float(sweep[0]["eta_max"]) <= float(sweep[0]["bound"])
    with open(tmp_path / "theorem_centers.csv") as fh:
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


def test_theorem_top_level_fields_accepted(tmp_path):
    cfg = write_cfg(tmp_path, dict(SMALL_THEOREM["theorem"]))
    assert run_cli(["theorem", "--config", cfg]) == 0


def test_theorem_seed_flag_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_THEOREM)
    run_cli(["theorem", "--config", cfg, "--json"])
    first = json.loads(capsys.readouterr().out)
    run_cli(["theorem", "--config", cfg, "--json", "--seed", "77"])
    second = json.loads(capsys.readouterr().out)
    t0_a = [r["params"]["t0"] for r in first[0]["reports"]]
    t0_b = [r["params"]["t0"] for r in second[0]["reports"]]
    assert t0_a != t0_b


def center_t0s(argv, cfg, capsys):
    """The t0 of every center a theorem run checks, in report order."""
    assert run_cli(argv + ["--config", cfg, "--grid", "8", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    reports = blob[0]["reports"] if argv[0] == "theorem" else blob
    return [r["params"]["t0"] for r in reports]


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
