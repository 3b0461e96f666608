import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import thin_gasket
from thin_gasket.cli import RunConfig, dump_config, load_config, main


def run(argv):
    return main([str(a) for a in argv])


def run_process(argv, timeout=60):
    """The CLI in a child interpreter, so a hang fails instead of blocking;
    returns (exit code, stderr)."""
    env = dict(os.environ)
    src = str(Path(thin_gasket.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "thin_gasket.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=timeout, env=env)
    return proc.returncode, proc.stderr


# ---- Configuration -------------------------------------------------------


def test_config_normalized_round_trip(tmp_path):
    cfg = RunConfig(seq=(5, 7, 6), depth=3, seed=4, precision="rational")
    path = tmp_path / "run.cfg"
    path.write_text(dump_config(cfg))
    again = RunConfig.from_items(load_config(path))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)


def test_config_comments_and_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseq=5,6  # levels\ndepth=2\n")
    items = load_config(path)
    assert items == {"seq": "5,6", "depth": "2"}
    with pytest.raises(Exception):
        RunConfig.from_items({"bogus": "1"})


def test_flags_override_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seq=5,7,6\ndepth=3\n")
    rc = run(["build", "--config", path, "--depth", 1, "--out", tmp_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "depth 1 graph: 21 vertices" in out
    assert (tmp_path / "build-5-7-6-d1.json").exists()


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("THIN_GASKET_OUT", str(tmp_path / "envdir"))
    rc = run(["build", "--seq", "5", "--depth", "1"])
    assert rc == 0
    assert (tmp_path / "envdir" / "build-5-d1.json").exists()


# ---- Exit codes ----------------------------------------------------------


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["build", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_domain_error_exits_1(tmp_path, capsys):
    rc = run(["build", "--seq", "4", "--depth", "1", "--out", tmp_path])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["resistance", "--corners", "0,5", "--depth", "1"],  # singular corner system
    ["dm", "--seq", "5", "--depth", "0"],  # more pairs than the graph has
    ["dm", "--seq", "5", "--depth", "1", "--pairs", "0"],  # a vacuous pass
    ["build", "--seq", "5,x", "--depth", "1"],  # malformed level
    ["walk", "--depth", "0", "--trials", "0"],  # no trials
    ["walk", "--depth", "0", "--x", "0", "--y", "7"],  # vertex past the graph
], ids=["corner-index", "dm-pairs", "dm-no-pairs", "seq-parse", "walk-trials",
        "walk-vertex"])
def test_bad_input_exits_1_without_traceback(tmp_path, argv):
    code, err = run_process([*argv, "--out", tmp_path])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


# ---- Artifacts -----------------------------------------------------------


def test_build_json_content(tmp_path, capsys):
    rc = run(["build", "--seq", "5", "--depth", "1", "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "build-5-d1.json").read_text())
    assert data["level"] == 1
    assert len(data["vertices"]) == 21
    assert len(data["cells"]) == 12


def test_render_deterministic_bytes(tmp_path):
    for sub in ("a", "b"):
        rc = run(["render", "--seq", "5,7,6", "--depth", "2",
                  "--out", tmp_path / sub])
        assert rc == 0
    a = (tmp_path / "a" / "render-5-7-6-d2.svg").read_bytes()
    b = (tmp_path / "b" / "render-5-7-6-d2.svg").read_bytes()
    assert a == b
    assert a.startswith(b"<svg ")


def test_energy_golden(tmp_path, capsys):
    rc = run(["energy", "--seq", "5,6", "--depth", "2", "--pin", "1,0,0",
              "--precision", "rational", "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "energy-5-6-d2.json").read_text())
    assert data["energy"] == "2"
    assert data["precision"] == "rational"


def test_resistance_golden(tmp_path, capsys):
    rc = run(["resistance", "--seq", "5,5", "--depth", "2",
              "--precision", "rational", "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "resistance-5-5-d2.json").read_text())
    assert data["value"] == "2/3"
    assert data["exact"] is True


def test_psi_exact_values(tmp_path, capsys):
    rc = run(["psi", "--seq", "5", "--kind", "time", "--s", "1/5",
              "--invert", "3/124", "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "psi-5.json").read_text())
    entry = data["kinds"]["time"]
    assert entry["value"] == "3/124"
    assert Fraction(entry["inverse"]) == Fraction(1, 5)
    assert entry["knots"][1] == {"n": 1, "s": "1/5", "value": "3/124"}


def test_measure_csv(tmp_path, capsys):
    rc = run(["measure", "--seq", "5", "--depth", "1", "--pin", "1,0,0",
              "--precision", "rational", "--out", tmp_path])
    assert rc == 0
    lines = (tmp_path / "measure-5-d1.csv").read_text().strip().splitlines()
    assert lines[0] == "index,word,mass"
    assert len(lines) == 13
    by_word = {row.split(",")[1]: row.split(",")[2] for row in lines[1:]}
    assert by_word["2.0"] == "6/31"


def test_matrices_single_index(tmp_path, capsys):
    rc = run(["matrices", "--l", "5", "--index", "2,0", "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "matrices-l5.json").read_text())
    [mat] = data["matrices"]
    assert mat["index"] == [2, 0]
    assert mat["exact"] is True
    assert mat["entries"][0] == ["16/31", "10/31", "5/31"]


def test_realize_json(tmp_path, capsys):
    rc = run(["realize", "--eta", "eta1", "--n", "4", "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "realize-eta1-n4.json").read_text())
    assert data["certified"] is True
    assert data["n0"] == 1
    assert data["levels"] == ["9", "58", "3001", "8888829"]


def test_doubling_verb(tmp_path, capsys):
    rc = run(["doubling", "--seq", "5", "--kind", "resistance",
              "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "doubling-5.json").read_text())
    assert data["passed"] is True
    assert data["kinds"]["resistance"]["doubling"]["c"] == "6"


def test_walk_csv(tmp_path, capsys):
    rc = run(["walk", "--seq", "5", "--depth", "0", "--trials", "4000",
              "--seed", "17", "--out", tmp_path])
    assert rc == 0
    text = (tmp_path / "walk-5-d0.csv").read_text()
    assert text.startswith("metric,value")
    assert "predicted,4.0" in text


def test_verify_all_subset(tmp_path, capsys):
    rc = run(["verify-all", "--only", "2", "--out", tmp_path])
    assert rc == 0
    data = json.loads((tmp_path / "verify-all.json").read_text())
    assert data["passed"] is True
    [crit] = data["criteria"]
    assert crit["number"] == 2
    assert crit["passed"] is True
    printed = json.loads(capsys.readouterr().out)
    assert printed == data
