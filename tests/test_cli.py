import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from warpforce.cli import main
from warpforce.verify import CSV_COLUMNS, remark_decay


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


def test_verify_rejects_small_t0(capsys):
    for t0 in ("1", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "lemma2.1", "--t0", t0])
        assert exc.value.code == 2
        assert "must exceed 2" in capsys.readouterr().err


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
])
def test_bad_numeric_flags_are_usage_errors(tmp_path, monkeypatch, argv, cfg):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        argv = argv + ["--config", write_cfg(tmp_path, cfg)]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "grid.csv").exists()


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


def test_verify_json_stdout(capsys):
    assert run_cli(["verify", "lemma2.1", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob) == 6 and all(r["passed"] for r in blob)


def test_verify_config_unknown_check_name(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"checks": ["lemma9.1"]})
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "all", "--config", cfg])
    assert exc.value.code == 2
    assert "lemma9.1" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# theorem


def test_theorem_requires_config(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["theorem"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_theorem_config_needs_instance_spec(tmp_path):
    cfg = write_cfg(tmp_path, {"unrelated": 1})
    with pytest.raises(SystemExit) as exc:
        run_cli(["theorem", "--config", cfg])
    assert exc.value.code == 2


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
