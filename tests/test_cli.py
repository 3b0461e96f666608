import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thin_gasket
from thin_gasket.cli import RunConfig, load_config, main, make_parser
from thin_gasket.errors import GasketError
from thin_gasket.forms import base_energy, harmonic_extend
from thin_gasket.geometry import build_graph
from thin_gasket.sequence import LevelSequence


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
    path.write_text("continuation=repeat-last\ndepth=3\ndiverging=false\nout=.\n"
                    "precision=rational\nseed=4\nseq=5,7,6\ntrials=100000\n")
    assert RunConfig.from_items(load_config(path)) == cfg


def test_config_comments_and_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseq=5,6  # levels\ndepth=2\n")
    items = load_config(path)
    assert items == {"seq": "5,6", "depth": "2"}
    with pytest.raises(Exception):
        RunConfig.from_items({"bogus": "1"})


@pytest.mark.parametrize("raw, value", [("true", True), ("Yes", True), ("1", True),
                                        ("false", False), ("NO", False), ("0", False)])
def test_config_diverging_reads_six_words(tmp_path, raw, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"seq=9,58\ndiverging={raw}\n")
    assert RunConfig.from_items(load_config(path)).diverging is value


@pytest.mark.parametrize("raw", ["maybe", "", "2", "on"])
def test_config_diverging_refuses_other_values(tmp_path, raw):
    path = tmp_path / "run.cfg"
    path.write_text(f"seq=9,58\ndiverging={raw}\n")
    with pytest.raises(GasketError, match="diverging must be"):
        RunConfig.from_items(load_config(path))


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


def test_out_precedence_file_env_flag(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out={tmp_path / 'filedir'}\n")
    argv = ["build", "--seq", "5", "--depth", "0", "--config", cfg]
    assert run(argv) == 0
    assert (tmp_path / "filedir" / "build-5-d0.json").exists()
    monkeypatch.setenv("THIN_GASKET_OUT", str(tmp_path / "envdir"))
    assert run(argv) == 0
    assert (tmp_path / "envdir" / "build-5-d0.json").exists()
    assert run([*argv, "--out", tmp_path / "flagdir"]) == 0
    assert (tmp_path / "flagdir" / "build-5-d0.json").exists()


@pytest.mark.parametrize("verb,name", [("doubling", "doubling-9-58.json"),
                                       ("dm", "dm-9-58-d2.json")])
def test_diverging_flag_matches_config(tmp_path, verb, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seq=9,58\ndiverging=true\n")
    assert run([verb, "--config", cfg, "--out", tmp_path / "file"]) == 0
    assert run([verb, "--seq", "9,58", "--diverging", "--out", tmp_path / "flag"]) == 0
    flag, file = tmp_path / "flag" / name, tmp_path / "file" / name
    assert flag.read_bytes() == file.read_bytes()


# ---- Exit codes ----------------------------------------------------------


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["build", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["energy", "--method", "direct"],
    ["extend", "--method", "direct"],
    ["resistance", "--method", "direct"],
    ["energy", "--route", "graph"],
    ["measure", "--route", "graph"],
], ids=["energy", "extend", "resistance", "energy-route", "measure-route"])
def test_method_flag_is_a_usage_error(argv, capsys):
    # one route per query: energy, measure and extend run the cell cascade,
    # and --precision alone picks resistance's route
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


# Every verb's option strings and their choices (None for free values), so a
# new knob shows up as a diff here.
_COMMON_OPTIONS = {
    "--seq": None, "--continuation": ("none", "repeat-last"), "--diverging": None,
    "--depth": None, "--seed": None, "--precision": ("rational", "float"),
    "--trials": None, "--out": None, "--config": None,
}
_VERB_OPTIONS = {
    "build": {},
    "render": {"--size": None},
    "energy": {"--pin": None},
    "extend": {"--pin": None},
    "resistance": {"--corners": None, "--x": None, "--y": None},
    "matrices": {"--l": None, "--index": None},
    "measure": {"--pin": None},
    "certify": {"--pin": None, "--max-depth": None},
    "diverge": {"--pin": None, "--max-depth": None, "--samples": None},
    "psi": {"--kind": ("time", "mass", "resistance", "all"), "--s": None,
            "--invert": None, "--segments": None},
    "doubling": {"--kind": ("time", "mass", "resistance", "all"), "--segments": None},
    "dm": {"--pairs": None},
    "realize": {"--eta": None, "--n": None, "--n0": None, "--min-ratio": None},
    "compare": {"--eta": None, "--n": None},
    "slowdecay": {"--power": None, "--n-max": None},
    "walk": {"--max-steps": None, "--x": None, "--y": None},
    "verify-all": {"--only": None},
}


def _options(parser):
    return {" ".join(a.option_strings): tuple(a.choices) if a.choices else None
            for a in parser._actions if a.option_strings}


def test_parser_surface():
    parser = make_parser()
    assert _options(parser) == {"-h --help": None}
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_VERB_OPTIONS)
    for verb, sp in sub.choices.items():
        expected = {"-h --help": None, **_COMMON_OPTIONS, **_VERB_OPTIONS[verb]}
        assert _options(sp) == expected, verb


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
    ["walk", "--depth", "0", "--max-steps", "-1"],  # a negative step cap
    ["walk", "--seq", "5", "--depth", "4", "--trials", "200"],  # commute ~1.2e7 > cap
    ["walk", "--seq", "5", "--depth", "3"],  # 1e5 trials ~2.8e10 walker-steps
    ["energy", "--pin", "a,b,c"],  # malformed pin values
    ["psi", "--s", "abc"],  # malformed evaluation point
    ["psi", "--invert", "abc"],  # malformed value to invert
    ["verify-all", "--only", "x"],  # malformed criterion number
    ["verify-all", "--only", "11"],  # no such criterion: a vacuous pass
    ["doubling", "--segments", "0"],  # an empty sample pool
    ["diverge", "--samples", "0"],  # a pass on zero addresses
    ["render", "--size", "-1"],  # a negative-size figure
    ["psi", "--s", "1e400"],  # s^beta past double range
    ["psi", "--invert", "1e400"],  # t^(1/beta) past double range
    ["realize", "--eta", "eta2"],  # level 3 past the precision cap
    ["realize", "--eta", "eta3"],  # exp of a number past 2^65536: a hang
    ["realize", "--eta", "eta4"],  # the same: an OverflowError in mpmath
    ["resistance", "--depth", "-1"],  # a negative depth
    # equal ids past the 21-vertex graph: no zero resistance
    ["resistance", "--seq", "5", "--depth", "1", "--x", "999", "--y", "999"],
    ["realize", "--n0", "0"],  # 2^-n0 is no level scale
    ["realize", "--n0", "-2"],
    # exact extend past build_graph's budget: 2.5e9 corner slots
    ["extend", "--seq", "58", "--depth", "4", "--precision", "rational"],
    ["certify", "--seq", "58", "--max-depth", "4"],  # a 19 GiB cell cascade
    # float-only statistics: no silent float run under --precision rational
    ["certify", "--seq", "5,6,7,5", "--max-depth", "3", "--precision", "rational"],
    ["diverge", "--seq", "5,6", "--max-depth", "3", "--precision", "rational"],
    # a config file naming no precision the routes know: no silent float run
    ["energy", "--config", "BAD_PRECISION_CONFIG", "--pin", "1,0,0"],
    # a diverging= value that is neither true nor false: no silent False
    ["build", "--config", "BAD_DIVERGING_CONFIG"],
    ["matrices", "--l", "10001"],  # a full listing past MATRICES_MAX_L
    # config files that cannot be read as UTF-8 text
    ["energy", "--config", "MISSING_CONFIG"],
    ["energy", "--config", "DIRECTORY_CONFIG"],
    ["energy", "--config", "LATIN1_CONFIG"],
    # non-finite powers would be written as the non-JSON Infinity and NaN
    ["slowdecay", "--power", "inf"],
    ["slowdecay", "--power", "nan"],
    ["psi", "--segments", "-1"],  # empty knot lists
    # level 22 is past the precision cap: refused while the window is scanned,
    # not after minutes of levels 18-21 or of exp(2^n) for every n <= N + 9
    ["realize", "--n", "200"],
    ["realize", "--n", "100000"],
    ["compare", "--n", "2000"],
    ["diverge", "--samples", "100000000"],  # an 8.9 GiB children index
], ids=["corner-index", "dm-pairs", "dm-no-pairs", "seq-parse", "walk-trials",
        "walk-vertex", "walk-max-steps", "walk-past-cap", "walk-work-budget",
        "energy-pin", "psi-s", "psi-invert", "verify-only-parse", "verify-only-range",
        "doubling-segments", "diverge-samples", "render-size", "psi-s-overflow",
        "psi-invert-overflow", "realize-eta2", "realize-eta3", "realize-eta4",
        "resistance-depth", "resistance-equal-ids-out-of-range", "realize-n0-zero", "realize-n0-negative",
        "extend-rational-size", "certify-cascade-budget", "certify-rational",
        "diverge-rational", "config-precision", "config-diverging", "matrices-l-budget",
        "config-missing", "config-directory", "config-latin1", "slowdecay-power-inf",
        "slowdecay-power-nan",
        "psi-segments", "realize-n200", "realize-n100000", "compare-n2000",
        "diverge-samples-budget"])
def test_bad_input_exits_1_without_traceback(tmp_path, argv):
    config = tmp_path / "bad-precision.cfg"
    config.write_text("seq=5\ndepth=1\nprecision=exact\n")
    diverging = tmp_path / "bad-diverging.cfg"
    diverging.write_text("seq=5\ndepth=1\ndiverging=maybe\n")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("seq=5  # r\u00e9glage\n".encode("latin-1"))
    files = {"BAD_PRECISION_CONFIG": config, "BAD_DIVERGING_CONFIG": diverging,
             "MISSING_CONFIG": tmp_path / "missing.cfg",
             "DIRECTORY_CONFIG": tmp_path, "LATIN1_CONFIG": latin1}
    argv = [files.get(a, a) for a in argv]
    code, err = run_process([*argv, "--out", tmp_path])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def _int_list(lo, hi, bad):
    good = st.lists(st.integers(lo, hi), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs)))
    return st.one_of(good, st.sampled_from(bad))


_FRACTION = st.one_of(
    st.builds("{}/{}".format, st.integers(-2, 9), st.integers(1, 9)),
    st.sampled_from(["", "x", "1/0", "1//2", "nan", "0.25", "5"]))
_PIN = st.one_of(st.lists(_FRACTION, min_size=3, max_size=3).map(",".join),
                 st.sampled_from(["1,0", "1,0,0,0", "a,b,c"]))
_SMALL = st.integers(-1, 4)
_KIND = st.sampled_from(["time", "mass", "resistance", "all"])
_ETA = st.tuples(st.sampled_from(["eta1", "eta2", "eta3", "eta4", "eta0", "x"]),
                 _SMALL).map(lambda t: ["--eta", t[0], "--n", t[1]])

# verb -> strategy for its own flags, each a list of argv tokens
_VERB_FLAGS = {
    "build": st.just([]),
    "render": st.sampled_from([-1.0, 0.0, 40.0]).map(lambda v: ["--size", v]),
    "energy": _PIN.map(lambda p: ["--pin", p]),
    "extend": _PIN.map(lambda p: ["--pin", p]),
    "resistance": _int_list(-1, 3, ["0", "x", "0,,1"]).map(lambda c: ["--corners", c]),
    "matrices": st.tuples(st.integers(4, 9), _int_list(0, 8, ["x"])).map(
        lambda t: ["--l", t[0], "--index", t[1]]),
    "measure": _PIN.map(lambda p: ["--pin", p]),
    "certify": st.tuples(_PIN, _SMALL).map(lambda t: ["--pin", t[0], "--max-depth", t[1]]),
    "diverge": st.tuples(_PIN, _SMALL, st.integers(-1, 20)).map(
        lambda t: ["--pin", t[0], "--max-depth", t[1], "--samples", t[2]]),
    "psi": st.tuples(_FRACTION, _FRACTION, _SMALL, _KIND).map(
        lambda t: ["--s", t[0], "--invert", t[1], "--segments", t[2], "--kind", t[3]]),
    "doubling": st.tuples(_SMALL, _KIND).map(lambda t: ["--segments", t[0], "--kind", t[1]]),
    "dm": st.integers(-1, 20).map(lambda n: ["--pairs", n]),
    "realize": _ETA,
    "compare": _ETA,
    "slowdecay": st.tuples(st.sampled_from([0.5, 2.5, 4.0]), _SMALL).map(
        lambda t: ["--power", t[0], "--n-max", t[1]]),
    "walk": st.tuples(st.integers(0, 2000), st.integers(-1, 10_000)).map(
        lambda t: ["--trials", t[0], "--max-steps", t[1]]),
    "verify-all": _int_list(0, 11, ["x", "", ","]).map(lambda o: ["--only", o]),
}


def _vertex_count(seq, depth):
    """V of the depth-`depth` graph of a drawn --seq; 0 for a malformed one."""
    try:
        ls = LevelSequence(tuple(int(t) for t in seq.split(",")), continuation="repeat-last")
        return build_graph(ls, depth).n_vertices
    except (GasketError, ValueError):
        return 0


@st.composite
def _cli_argv(draw, verb):
    argv = [verb, *draw(_VERB_FLAGS[verb])]
    seq = draw(_int_list(5, 9, ["4", "x", "5,,6", "5,y"]))
    depth = draw(st.integers(0, 2))
    argv += ["--seq", seq, "--depth", depth]
    if verb == "resistance" and draw(st.booleans()):
        # vertex ids from -1 to V + 1: both ends one past the graph
        ids = st.integers(-1, _vertex_count(seq, depth) + 1)
        argv += ["--x", draw(ids), "--y", draw(ids)]
    if draw(st.booleans()):
        argv.append("--diverging")
    if draw(st.booleans()):
        argv += ["--precision", draw(st.sampled_from(["float", "rational"]))]
    return argv


@pytest.mark.parametrize("verb", sorted(_VERB_FLAGS))
@settings(max_examples=2, derandomize=True)
@given(data=st.data())
def test_cli_never_ends_in_traceback(verb, data):
    """Small random argument sets end in 0, 1 or 2, never a traceback or a
    hang, for every verb; each case is one child interpreter at a time."""
    _assert_clean_exit(data.draw(_cli_argv(verb), label="argv"))


def _assert_clean_exit(argv):
    with tempfile.TemporaryDirectory() as out:
        code, err = run_process([*argv, "--out", out], timeout=120)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)


# one non-trivial argv per verb: depth >= 1 and flags off their defaults,
# where the derandomized draws above start from --seq 5 --depth 0
_VERB_EXAMPLES = {
    "build": ["build", "--seq", "5,7,6", "--depth", "2", "--diverging"],
    "certify": ["certify", "--seq", "6,5", "--depth", "1", "--pin", "1,1/2,0",
                "--max-depth", "2"],
    "compare": ["compare", "--eta", "eta1", "--n", "5", "--depth", "1"],
    "diverge": ["diverge", "--seq", "5,6", "--depth", "1", "--pin", "0,1,1/3",
                "--max-depth", "2", "--samples", "7", "--seed", "3"],
    "dm": ["dm", "--seq", "6,5", "--depth", "2", "--pairs", "9", "--seed", "4"],
    "doubling": ["doubling", "--seq", "7,5", "--depth", "1", "--kind", "resistance",
                 "--segments", "3"],
    "energy": ["energy", "--seq", "5,6", "--depth", "2", "--pin", "1/2,0,1",
               "--precision", "rational"],
    "extend": ["extend", "--seq", "6", "--depth", "1", "--pin", "0,1,1/3",
               "--precision", "rational"],
    "matrices": ["matrices", "--l", "12", "--depth", "1"],
    "measure": ["measure", "--seq", "5,7", "--depth", "2", "--pin", "1,0,2/3",
                "--precision", "rational"],
    "psi": ["psi", "--seq", "5,7,6", "--depth", "1", "--kind", "mass", "--s", "1/40",
            "--invert", "1/3", "--segments", "3"],
    "realize": ["realize", "--eta", "eta1", "--n", "6", "--n0", "2", "--min-ratio", "6",
                "--depth", "1"],
    "render": ["render", "--seq", "6,5", "--depth", "2", "--size", "120"],
    "resistance": ["resistance", "--seq", "6,5", "--depth", "2", "--x", "3", "--y", "17",
                   "--precision", "rational"],
    "slowdecay": ["slowdecay", "--power", "3.0", "--n-max", "7", "--depth", "1"],
    "verify-all": ["verify-all", "--only", "1,4", "--depth", "1"],
    "walk": ["walk", "--seq", "5", "--depth", "1", "--trials", "40", "--max-steps", "5000",
             "--x", "0", "--y", "7", "--seed", "2"],
}


@pytest.mark.parametrize("verb", sorted(_VERB_FLAGS))
def test_cli_verb_example_never_ends_in_traceback(verb, tmp_path, capsys):
    """The same assertions on each verb's explicit argv, run in-process."""
    argv = _VERB_EXAMPLES[verb]
    try:
        code = run([*argv, "--out", tmp_path])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)


@st.composite
def _resistance_pair_argv(draw):
    seq = draw(st.sampled_from(["5", "6,5", "9"]))
    depth = draw(st.integers(0, 2))
    ids = st.integers(-1, _vertex_count(seq, depth) + 1)
    return ["resistance", "--seq", seq, "--depth", depth, "--x", draw(ids), "--y", draw(ids),
            "--precision", draw(st.sampled_from(["float", "rational"]))]


@settings(max_examples=12, derandomize=True)
@given(argv=_resistance_pair_argv())
def test_resistance_pairs_never_end_in_traceback(argv):
    """The same for vertex pairs on well-formed sequences, which the draws
    above rarely reach: both precisions, ids one past either end."""
    _assert_clean_exit(argv)


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


def test_rational_extend_past_the_dense_solve_limit(tmp_path, capsys):
    # 795 vertices, past the 400 the dense exact solve accepts
    rc = run(["extend", "--seq", "8", "--depth", "2", "--pin", "1,2/3,1/9",
              "--precision", "rational", "--out", tmp_path])
    assert rc == 0
    ls = LevelSequence((8,), continuation="repeat-last")
    g = build_graph(ls, 2)
    with (tmp_path / "extend-8-d2.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == g.n_vertices == 795
    assert [[int(r["a"]), int(r["b"])] for r in rows] == g.vertices.tolist()
    values = np.array([Fraction(r["value"]) for r in rows], dtype=object)
    pin = (Fraction(1), Fraction(2, 3), Fraction(1, 9))
    energy = sum(base_energy(corners) for corners in values[g.cells]) / ls.R(2)
    assert energy == base_energy(pin)
    oracle = harmonic_extend(ls, [float(p) for p in pin], 0).cell_values_from_graph(2)
    assert np.max(np.abs(values[g.cells].astype(np.float64) - oracle)) <= 1e-12


def test_matrices_index_at_huge_level_is_constant_time(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = run(["matrices", "--l", 10 ** 7, "--index", "0,0", "--out", tmp_path])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    [mat] = json.loads((tmp_path / f"matrices-l{10 ** 7}.json").read_text())["matrices"]
    assert mat["entries"][1] == ["59999992/60000001", "5/60000001", "4/60000001"]


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


def test_realize_past_the_int_digit_limit(tmp_path, capsys):
    # l_14 of eta1 has 7116 digits, past the default int-to-str limit of 4300
    limit = sys.get_int_max_str_digits()
    assert run(["realize", "--eta", "eta1", "--n", "14", "--out", tmp_path]) == 0
    assert sys.get_int_max_str_digits() == limit
    data = json.loads((tmp_path / "realize-eta1-n14.json").read_text(), parse_int=str)
    assert len(data["levels"][13]) == 7116
    assert data["records"][13]["level"] == data["levels"][13]


def test_slowdecay_below_six_knot_levels(tmp_path, capsys):
    assert run(["slowdecay", "--n-max", "3", "--out", tmp_path]) == 0
    data = json.loads((tmp_path / "slowdecay-p2.5.json").read_text())
    assert data["summable"] is True


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


# Rational-precision files written before the exact and float cascades shared
# one numpy code path; the exact routes must keep writing them byte for byte.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,name", [
    ("measure --seq 5,6 --depth 2 --pin 1,2/3,1/9", "measure-5-6-d2.csv"),
    ("measure --seq 5,6 --depth 1 --pin 1,2/3,1/9", "measure-5-6-d1.csv"),
    ("energy --seq 5,6 --depth 1 --pin 1,2/3,1/9", "energy-5-6-d1.json"),
    ("extend --seq 5 --depth 1 --pin 1,2/3,1/9", "extend-5-d1.csv"),
    ("resistance --seq 5,7,6,12 --depth 3", "resistance-5-7-6-12-d3.json"),
    ("resistance --seq 5 --depth 1 --x 3 --y 11", "resistance-5-d1.json"),
])
def test_rational_outputs_match_golden_bytes(tmp_path, capsys, argv, name):
    assert run([*argv.split(), "--precision", "rational", "--out", tmp_path]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# Float certificate and divergence files written before the energy-measure
# statistics ran on one children-coefficient kernel over whole arrays.
@pytest.mark.parametrize("argv,name", [
    ("certify --seq 5,7,9,6 --max-depth 4", "certify-5-7-9-6-d4.json"),
    ("certify --seq 5 --max-depth 3 --pin 1,1,0", "certify-5-d3.json"),
    ("diverge --seq 5,5,5,5 --max-depth 4 --samples 200 --seed 29",
     "diverge-5-5-5-5-d4.json"),
    ("diverge --seq 5,6 --max-depth 4 --pin 1,1,0 --seed 3", "diverge-5-6-d4.json"),
])
def test_measure_statistics_match_golden_bytes(tmp_path, capsys, argv, name):
    assert run([*argv.split(), "--out", tmp_path]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# Realization files written before levels were certified through reciprocal
# enclosures and the magnitude-guided precision ladder.  The n = 17 file
# (229 KB, l_17 has 56,924 digits) is pinned by its sha256 instead.
GOLDEN_SHA256 = {
    "realize-eta1-n17.json":
        "984261b90f9d7d606e86a984309fd71de076040ba8624fcfb8aa0580ca0995d3",
}


@pytest.mark.parametrize("argv,name", [
    ("realize --eta eta1 --n 13", "realize-eta1-n13.json"),
    ("realize --eta eta2 --n 2", "realize-eta2-n2.json"),
    ("compare --eta eta1 --n 17", "compare-eta1-n17.json"),
    ("compare --eta eta2 --n 2", "compare-eta2-n2.json"),
    ("realize --eta eta1 --n 17", "realize-eta1-n17.json"),
])
def test_realization_outputs_match_golden_bytes(tmp_path, capsys, argv, name):
    assert run([*argv.split(), "--out", tmp_path]) == 0
    data = (tmp_path / name).read_bytes()
    if name in GOLDEN_SHA256:
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]
    else:
        assert data == (GOLDEN / name).read_bytes()


# Resistance files written before unit-resistance queries ran by cell-by-cell
# elimination.  Resistance values move in their last bits, so floats agree
# within 1e-10 relative and everything else exactly; the statistics that read
# no resistance (ball masses and scale functions only) agree exactly.
def _float_close(new, old):
    return new == pytest.approx(old, rel=1e-10, abs=0.0)


def _assert_close_json(new, old, exact=False):
    if isinstance(old, dict):
        assert sorted(new) == sorted(old)
        exact = exact or not str(old.get("name", "resistance")).startswith("resistance")
        for key in old:
            _assert_close_json(new[key], old[key], exact)
    elif isinstance(old, list):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            _assert_close_json(a, b, exact)
    elif isinstance(old, float) and not exact:
        assert type(new) is float and _float_close(new, old)
    else:
        assert type(new) is type(old) and new == old


def _csv_cell_close(new, old):
    try:
        int(old)
    except ValueError:
        try:
            return _float_close(float(new), float(old))
        except ValueError:
            pass
    return new == old


@pytest.mark.parametrize("argv,name", [
    ("dm --seq 5 --depth 3", "dm-5-d3.json"),
    ("dm --seq 9,58 --depth 2 --diverging", "dm-9-58-d2.json"),
    ("walk --seq 5 --depth 1 --x 3 --y 11 --trials 4000 --seed 17", "walk-5-d1.csv"),
])
def test_resistance_outputs_match_golden_within_float_tolerance(tmp_path, capsys, argv,
                                                                 name):
    assert run([*argv.split(), "--out", tmp_path]) == 0
    new, old = (tmp_path / name).read_text(), (GOLDEN / name).read_text()
    if name.endswith(".json"):
        _assert_close_json(json.loads(new), json.loads(old))
        return
    new_rows, old_rows = new.splitlines(), old.splitlines()
    assert len(new_rows) == len(old_rows)
    for a, b in zip(new_rows, old_rows):
        cells_a, cells_b = a.split(","), b.split(",")
        assert len(cells_a) == len(cells_b)
        assert all(_csv_cell_close(x, y) for x, y in zip(cells_a, cells_b))


# A float pair resistance written while `resistance --x --y` still factored
# the whole grounded Laplacian with a sparse LU (method "direct"); the
# elimination agrees within 1e-10 and reports its own route and residual.
def test_float_pair_resistance_matches_golden(tmp_path, capsys):
    name = "resistance-5-d3.json"
    assert run(["resistance", "--seq", "5", "--depth", "3", "--x", "3", "--y", "2000",
                "--out", tmp_path]) == 0
    new = json.loads((tmp_path / name).read_text())
    old = json.loads((GOLDEN / name).read_text())
    assert sorted(new) == sorted(old)
    assert type(new["value"]) is str and _float_close(float(new["value"]), float(old["value"]))
    assert new["method"] == "elimination"
    assert new["residual"] <= 1e-10
    for key in set(old) - {"value", "method", "residual"}:
        assert new[key] == old[key], key


def test_exact_pair_resistance_past_the_dense_limit(tmp_path, capsys):
    # 795 vertices: the exact elimination has no vertex limit
    argv = ["resistance", "--seq", "8", "--depth", "2", "--x", "3", "--y", "11"]
    values = {}
    for precision in ("rational", "float"):
        out = tmp_path / precision
        assert run([*argv, "--precision", precision, "--out", out]) == 0
        values[precision] = json.loads((out / "resistance-8-d2.json").read_text())["value"]
    exact = Fraction(values["rational"])
    assert abs(float(values["float"]) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("argv", [
    "certify --seq 5 --max-depth 3 --pin 1,1,1",
    "diverge --seq 5,6,7 --max-depth 3 --pin 1,1,1",
])
def test_constant_pin_passes(tmp_path, capsys, argv):
    # a constant pin has the zero energy measure, so no cell is admissible
    # and every sampled address collects the full unit per depth
    assert run([*argv.split(), "--out", tmp_path]) == 0
    assert "[PASS]" in capsys.readouterr().out
