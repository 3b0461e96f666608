import argparse
import csv
import hashlib
import json
import os
import re
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
from thin_gasket import cli
from thin_gasket.cli import load_config, main, make_parser
from thin_gasket.errors import GasketError
from thin_gasket.forms import base_energy, harmonic_extend
from thin_gasket.geometry import build_graph
from thin_gasket.linalg import cell_values_from_graph
from thin_gasket.realization import slow_decay_eta
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


def _settings(argv):
    """The eight settings main resolves for argv, by key."""
    args = make_parser().parse_args([str(a) for a in argv])
    cli._resolve_settings(args)
    return {key: getattr(args, key) for key in cli._SETTINGS}


def test_config_normalized_round_trip(tmp_path, monkeypatch):
    monkeypatch.delenv("THIN_GASKET_OUT", raising=False)
    assert _settings(["build"]) == {
        "seq": (5,), "continuation": "repeat-last", "diverging": False, "depth": 2,
        "seed": 0, "precision": "float", "trials": 100_000, "out": "."}
    path = tmp_path / "run.cfg"
    path.write_text("continuation=none\ndepth=3\ndiverging=true\nout= runs \n"
                    "precision=rational\nseed=4\nseq=5,7,6\ntrials=40\n")
    assert _settings(["build", "--config", path]) == {
        "seq": (5, 7, 6), "continuation": None, "diverging": True, "depth": 3,
        "seed": 4, "precision": "rational", "trials": 40, "out": "runs"}


def test_config_comments_and_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseq=5,6  # levels\ndepth=2\n")
    items = load_config(path)
    assert items == {"seq": "5,6", "depth": "2"}
    path.write_text("bogus=1\nseq=5\n")
    with pytest.raises(GasketError, match="unknown config keys: bogus"):
        _settings(["build", "--config", path])


@pytest.mark.parametrize("raw, value", [("true", True), ("Yes", True), ("1", True),
                                        ("false", False), ("NO", False), ("0", False)])
def test_config_diverging_reads_six_words(tmp_path, raw, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"seq=9,58\ndiverging={raw}\n")
    assert _settings(["build", "--config", path])["diverging"] is value


@pytest.mark.parametrize("raw", ["maybe", "", "2", "on"])
def test_config_diverging_refuses_other_values(tmp_path, raw):
    path = tmp_path / "run.cfg"
    path.write_text(f"seq=9,58\ndiverging={raw}\n")
    with pytest.raises(GasketError, match="diverging must be"):
        _settings(["build", "--config", path])


def test_config_continuation_checked_by_every_verb(tmp_path, capsys):
    # realize builds no level sequence, yet refuses the key as build does
    path = tmp_path / "run.cfg"
    path.write_text("continuation=bogus\n")
    for argv in (["realize", "--n", "2"], ["build"]):
        assert run([*argv, "--config", path, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == "error: unknown continuation rule 'bogus'\n"
    assert not any(tmp_path.glob("*.json"))


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


# (verb, output, the setting as config file lines, the same as flags, other
# flags, exit code): one verb that reads each of the eight keys, where the
# setting changes the result
_SETTING_CASES = [
    ("doubling", "doubling-9-58.json", "seq=9,58\ndiverging=true",
     ["--seq", "9,58", "--diverging"], [], 0),
    ("dm", "dm-9-58-d2.json", "seq=9,58\ndiverging=true", ["--seq", "9,58", "--diverging"],
     [], 0),
    ("build", "build-5-7-d1.json", "seq=5,7", ["--seq", "5,7"], ["--depth", "1"], 0),
    ("build", "build-6-d2.json", "continuation=none", ["--continuation", "none"],
     ["--seq", "6", "--depth", "2"], 1),
    ("render", "render-5-d1.svg", "depth=1", ["--depth", "1"], ["--seq", "5", "--size", "90"], 0),
    ("diverge", "diverge-5-d2.json", "seed=3", ["--seed", "3"],
     ["--seq", "5", "--max-depth", "2", "--samples", "5"], 0),
    ("energy", "energy-5-d1.json", "precision=rational", ["--precision", "rational"],
     ["--seq", "5", "--depth", "1", "--pin", "1,1/3,0"], 0),
    ("walk", "walk-5-d0.csv", "trials=40", ["--trials", "40"],
     ["--seq", "5", "--depth", "0", "--max-steps", "1000", "--x", "0", "--y", "1"], 0),
    ("build", "build-5-d0.json", "out={out}", ["--out", "{out}"], ["--seq", "5", "--depth", "0"],
     0),
]


@pytest.mark.parametrize("verb, name, lines, flags, rest, code", _SETTING_CASES,
                         ids=[f"{verb}-{name}" for verb, name, *_ in _SETTING_CASES])
def test_diverging_flag_matches_config(tmp_path, monkeypatch, capsys, verb, name, lines, flags,
                                       rest, code):
    """Each config key gives the same exit code, stderr and bytes from a
    key=value file as from its flag, and a different result from the
    default, so the setting reaches the verb."""
    monkeypatch.delenv("THIN_GASKET_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    got = {}
    for source in ("default", "file", "flag"):
        out = tmp_path / source
        cfg = tmp_path / f"{source}.cfg"
        cfg.write_text(lines.format(out=out) + "\n" if source == "file" else "")
        argv = [verb, *rest, "--config", cfg]
        argv += [f.format(out=out) for f in flags] if source == "flag" else []
        argv += [] if "{out}" in lines else ["--out", out]
        rc = run(argv)
        path = out / name
        got[source] = (rc, capsys.readouterr().err, path.read_bytes() if path.exists() else None)
    assert got["file"] == got["flag"]
    assert got["file"][0] == code and (got["file"][2] is None) == (code == 1)
    assert got["file"] != got["default"]


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
# new knob shows up as a diff here.  A verb takes only the flags it reads,
# and --out and --config.
_SEQ = {"--seq": None, "--continuation": ("none", "repeat-last")}
_PRECISION = {"--precision": ("rational", "float")}
_KIND = {"--kind": ("time", "mass", "resistance", "all")}
_VERB_OPTIONS = {
    "build": {**_SEQ, "--depth": None},
    "render": {**_SEQ, "--depth": None, "--size": None},
    "energy": {**_SEQ, "--depth": None, **_PRECISION, "--pin": None},
    "extend": {**_SEQ, "--depth": None, **_PRECISION, "--pin": None},
    "resistance": {**_SEQ, "--depth": None, **_PRECISION, "--corners": None, "--x": None,
                   "--y": None},
    "matrices": {"--l": None, "--index": None},
    "measure": {**_SEQ, "--depth": None, **_PRECISION, "--pin": None},
    "certify": {**_SEQ, **_PRECISION, "--pin": None, "--max-depth": None},
    "diverge": {**_SEQ, "--seed": None, **_PRECISION, "--pin": None, "--max-depth": None,
                "--samples": None},
    "psi": {**_SEQ, "--diverging": None, **_KIND, "--s": None, "--invert": None,
            "--segments": None},
    "doubling": {**_SEQ, "--diverging": None, **_KIND, "--segments": None},
    "dm": {**_SEQ, "--diverging": None, "--depth": None, "--seed": None, **_PRECISION,
           "--pairs": None},
    "realize": {"--eta": None, "--n": None, "--n0": None, "--min-ratio": None},
    "compare": {"--eta": None, "--n": None},
    "slowdecay": {"--power": None, "--n-max": None},
    "walk": {**_SEQ, "--depth": None, "--seed": None, **_PRECISION, "--trials": None,
             "--max-steps": None, "--x": None, "--y": None},
    "verify-all": {"--only": None},
}

#: The flags every verb once took, whether it read them or not, with a value
#: for each.
_FORMER_COMMON = {"--seq": ["9"], "--continuation": ["none"], "--diverging": [],
                  "--depth": ["5"], "--seed": ["3"], "--precision": ["float"],
                  "--trials": ["3"]}


def _options(parser):
    return {" ".join(a.option_strings): tuple(a.choices) if a.choices else None
            for a in parser._actions if a.option_strings}


def _subparsers():
    [sub] = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_parser_surface():
    assert _options(make_parser()) == {"-h --help": None}
    assert list(_subparsers()) == list(_VERB_OPTIONS)
    for verb, sp in _subparsers().items():
        expected = {"-h --help": None, **_VERB_OPTIONS[verb], "--out": None, "--config": None}
        assert _options(sp) == expected, verb
    assert sum(len(_VERB_OPTIONS[verb]) + 2 for verb in _VERB_OPTIONS) == 114


_UNREAD = [(verb, flag) for verb in _VERB_OPTIONS for flag in _FORMER_COMMON
           if flag not in _VERB_OPTIONS[verb]]


@pytest.mark.parametrize("verb,flag", _UNREAD, ids=[" ".join(vf) for vf in _UNREAD])
def test_unread_former_common_flag_is_a_usage_error(tmp_path, capsys, verb, flag):
    """A flag the verb does not read exits 2 and writes nothing, where it
    was once accepted and ignored: certify --depth 5 wrote a depth-3 file."""
    required = ["--l", "12"] if verb == "matrices" else []
    with pytest.raises(SystemExit) as exc:
        run([verb, *required, flag, *_FORMER_COMMON[flag], "--out", tmp_path])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_readme_lists_each_verbs_flags():
    """The README's "Command line" list names, for each verb, the flags its
    subparser takes besides --out and --config, in the parser's order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = next(par for par in section.split("\n\n") if par.startswith("- `"))
    listed = {}
    for item in block.removeprefix("- ").split("\n- "):
        verb, flags = item.split(":", 1)
        listed[verb.strip("`")] = re.findall(r"--[\w-]+", flags)
    parsed = {verb: [o for o in _options(sp) if o not in ("-h --help", "--out", "--config")]
              for verb, sp in _subparsers().items()}
    assert listed == parsed


def test_readme_lists_every_verb():
    """The README's "Command line" verb block names the verbs of cli.VERBS,
    in order, so a verb added to the table cannot go undocumented."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    assert block.split() == list(cli.VERBS)


def test_float_only_verbs_refuse_rational_before_their_handler(tmp_path, monkeypatch,
                                                              capsys):
    """Every verb VERBS marks float only exits 1 under --precision rational,
    in-process, and its handler never starts."""
    float_only = [verb for verb, (_, _, only) in cli.VERBS.items() if only]
    assert float_only == ["certify", "diverge", "dm", "walk"]

    def no_work(cfg, args):
        raise AssertionError("a float-only handler ran under precision rational")

    for verb in float_only:
        _, flags, only = cli.VERBS[verb]
        monkeypatch.setitem(cli.VERBS, verb, (no_work, flags, only))
        assert run([verb, "--precision", "rational", "--out", tmp_path]) == 1
        assert "runs in float precision only" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_domain_error_exits_1(tmp_path, capsys):
    rc = run(["build", "--seq", "4", "--depth", "1", "--out", tmp_path])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["resistance", "--corners", "0,5", "--depth", "1"],  # singular corner system
    # two pairs named at once: no silent choice of one
    ["resistance", "--seq", "5", "--depth", "1", "--corners", "0,2", "--x", "3", "--y", "11"],
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
    # float-only verbs: no silent float run under --precision rational
    ["certify", "--seq", "5,6,7,5", "--max-depth", "3", "--precision", "rational"],
    ["diverge", "--seq", "5,6", "--max-depth", "3", "--precision", "rational"],
    ["dm", "--seq", "5", "--depth", "1", "--precision", "rational"],
    ["walk", "--seq", "5", "--depth", "1", "--trials", "100", "--precision", "rational"],
    ["dm", "--config", "RATIONAL_CONFIG"],  # the same from a config file
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
    # a deepest knot near 2^-(10^10): refused before any knot is built
    ["slowdecay", "--power", "1e308", "--n-max", "100000"],
    ["psi", "--segments", "-1"],  # empty knot lists
    # level 22 is past the precision cap: refused while the window is scanned,
    # not after minutes of levels 18-21 or of exp(2^n) for every n <= N + 9
    ["realize", "--n", "200"],
    ["realize", "--n", "100000"],
    ["compare", "--n", "2000"],
    ["diverge", "--samples", "100000000"],  # an 8.9 GiB children index
    # empty values are malformed, not absent: no run of all ten criteria or
    # listing of all twelve matrices
    ["verify-all", "--only", ""],
    ["matrices", "--l", "5", "--index", ""],
    # float pins whose energy leaves double range: no inf, 0.0 or vacuous PASS
    ["energy", "--pin", "1e200,0,0", "--depth", "0"],  # E0 = 2e400
    ["energy", "--pin", "1e-170,0,0", "--depth", "1"],  # E0 = 2e-340
    ["certify", "--pin", "1e-170,0,0", "--max-depth", "3"],  # 0 admissible cells
    ["diverge", "--seq", "5", "--max-depth", "2", "--pin", "1e308,-1e308,0"],  # inf masses
    ["measure", "--pin", "1e308,-1e308,0", "--depth", "1"],
], ids=["corner-index", "resistance-corners-and-xy", "dm-pairs", "dm-no-pairs",
        "seq-parse", "walk-trials", "walk-vertex", "walk-max-steps", "walk-past-cap",
        "walk-work-budget",
        "energy-pin", "psi-s", "psi-invert", "verify-only-parse", "verify-only-range",
        "doubling-segments", "diverge-samples", "render-size", "psi-s-overflow",
        "psi-invert-overflow", "realize-eta2", "realize-eta3", "realize-eta4",
        "resistance-depth", "resistance-equal-ids-out-of-range", "realize-n0-zero", "realize-n0-negative",
        "extend-rational-size", "certify-cascade-budget", "certify-rational",
        "diverge-rational", "dm-rational", "walk-rational",
        "dm-config-rational",
        "config-precision", "config-diverging", "matrices-l-budget",
        "config-missing", "config-directory", "config-latin1", "slowdecay-power-inf",
        "slowdecay-power-nan", "slowdecay-knot-budget",
        "psi-segments", "realize-n200", "realize-n100000", "compare-n2000",
        "diverge-samples-budget", "verify-only-empty", "matrices-index-empty",
        "energy-pin-overflow", "energy-pin-underflow", "certify-pin-underflow",
        "diverge-pin-overflow", "measure-pin-overflow"])
def test_bad_input_exits_1_without_traceback(tmp_path, argv):
    config = tmp_path / "bad-precision.cfg"
    config.write_text("seq=5\ndepth=1\nprecision=exact\n")
    diverging = tmp_path / "bad-diverging.cfg"
    diverging.write_text("seq=5\ndepth=1\ndiverging=maybe\n")
    rational = tmp_path / "rational.cfg"
    rational.write_text("seq=5\ndepth=1\nprecision=rational\n")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("seq=5  # r\u00e9glage\n".encode("latin-1"))
    files = {"BAD_PRECISION_CONFIG": config, "BAD_DIVERGING_CONFIG": diverging,
             "RATIONAL_CONFIG": rational,
             "MISSING_CONFIG": tmp_path / "missing.cfg",
             "DIRECTORY_CONFIG": tmp_path, "LATIN1_CONFIG": latin1}
    argv = [files.get(a, a) for a in argv]
    code, err = run_process([*argv, "--out", tmp_path])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,key", [
    (["verify-all", "--only", ""], "criterion number"),
    (["matrices", "--l", "5", "--index", ""], "index entry"),
])
def test_empty_flag_value_is_refused(tmp_path, capsys, argv, key):
    assert run([*argv, "--out", tmp_path]) == 1
    assert f"{key} must be an integer, got ''" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("eta,y", [("eta3", "1/16"), ("eta4", "1/4")])
def test_realize_names_the_first_inverse_past_the_exp_cap(tmp_path, eta, y):
    # the summability screen's enclosure refuses it, before any level
    code, err = run_process(["realize", "--eta", eta, "--out", tmp_path])
    assert code == 1
    assert f"inverse at {y} needs exp of a number past 2^65536" in err


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
    "slowdecay": st.tuples(st.sampled_from([0.5, 2.1, 2.5, 4.0]), _SMALL).map(
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
    """Random flags for `verb`, the shared ones only where its subparser
    takes them, so no draw ends in a usage error by construction."""
    takes = _options(_subparsers()[verb])
    argv = [verb, *draw(_VERB_FLAGS[verb])]
    seq = draw(_int_list(5, 9, ["4", "x", "5,,6", "5,y"]))
    depth = draw(st.integers(0, 2))
    if "--seq" in takes:
        argv += ["--seq", seq]
    if "--depth" in takes:
        argv += ["--depth", depth]
    if verb == "resistance" and draw(st.booleans()):
        # vertex ids from -1 to V + 1: both ends one past the graph
        ids = st.integers(-1, _vertex_count(seq, depth) + 1)
        argv += ["--x", draw(ids), "--y", draw(ids)]
    if draw(st.booleans()) and "--diverging" in takes:
        argv.append("--diverging")
    if draw(st.booleans()) and "--precision" in takes:
        argv += ["--precision", draw(st.sampled_from(["float", "rational"]))]
    return argv


@pytest.mark.parametrize("verb", sorted(_VERB_FLAGS))
@settings(max_examples=2, derandomize=True)
@given(data=st.data())
def test_cli_never_ends_in_traceback(verb, data):
    """Small random argument sets end in 0 or 1, never a usage error, a
    traceback or a hang, for every verb; each case is one child interpreter
    at a time."""
    _assert_clean_exit(data.draw(_cli_argv(verb), label="argv"))


def _assert_clean_exit(argv):
    # the draws pass only flags the verb takes, so a usage error (2) is a fault
    with tempfile.TemporaryDirectory() as out:
        code, err = run_process([*argv, "--out", out], timeout=120)
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err, (argv, err)


# one non-trivial argv per verb: depth >= 1 and flags off their defaults,
# where the derandomized draws above start from --seq 5 --depth 0
_VERB_EXAMPLES = {
    "build": ["build", "--seq", "5,7,6", "--depth", "2"],
    "certify": ["certify", "--seq", "6,5", "--pin", "1,1/2,0", "--max-depth", "2"],
    "compare": ["compare", "--eta", "eta1", "--n", "5"],
    "diverge": ["diverge", "--seq", "5,6", "--pin", "0,1,1/3", "--max-depth", "2",
                "--samples", "7", "--seed", "3"],
    "dm": ["dm", "--seq", "6,5", "--depth", "2", "--pairs", "9", "--seed", "4"],
    "doubling": ["doubling", "--seq", "7,5", "--kind", "resistance", "--segments", "3"],
    "energy": ["energy", "--seq", "5,6", "--depth", "2", "--pin", "1/2,0,1",
               "--precision", "rational"],
    "extend": ["extend", "--seq", "6", "--depth", "1", "--pin", "0,1,1/3",
               "--precision", "rational"],
    "matrices": ["matrices", "--l", "12"],
    "measure": ["measure", "--seq", "5,7", "--depth", "2", "--pin", "1,0,2/3",
                "--precision", "rational"],
    "psi": ["psi", "--seq", "5,7,6", "--kind", "mass", "--s", "1/40", "--invert", "1/3",
            "--segments", "3"],
    "realize": ["realize", "--eta", "eta1", "--n", "6", "--n0", "2", "--min-ratio", "6"],
    "render": ["render", "--seq", "6,5", "--depth", "2", "--size", "120"],
    "resistance": ["resistance", "--seq", "6,5", "--depth", "2", "--x", "3", "--y", "17",
                   "--precision", "rational"],
    "slowdecay": ["slowdecay", "--power", "3.0", "--n-max", "7"],
    "verify-all": ["verify-all", "--only", "1,4"],
    "walk": ["walk", "--seq", "5", "--depth", "1", "--trials", "40", "--max-steps", "5000",
             "--x", "0", "--y", "7", "--seed", "2"],
}


@pytest.mark.parametrize("verb", sorted(_VERB_FLAGS))
def test_cli_verb_example_never_ends_in_traceback(verb, tmp_path, capsys):
    """Each verb's explicit argv, run in-process, succeeds: a usage error
    (exit 2) would test nothing past the parser."""
    argv = _VERB_EXAMPLES[verb]
    try:
        code = run([*argv, "--out", tmp_path])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 0, (argv, err)
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


def test_render_bytes_match_their_sha256(tmp_path):
    # the figure's sha256, written before render_svg formatted each vertex once
    assert run(["render", "--seq", "5,7,6", "--depth", "2", "--out", tmp_path]) == 0
    data = (tmp_path / "render-5-7-6-d2.svg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "6b3cf9a1dab9c6ba43d063dc885a31b3210fcf60c34964a44576863ddead7cc2")


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
    oracle = cell_values_from_graph(harmonic_extend(ls, [float(p) for p in pin], 0), 2)
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


def test_fraction_inputs_stop_past_4300_digits():
    assert cli._parse_fraction("--s", "9" * 4300) == 10 ** 4300 - 1
    assert cli._parse_fraction("--s", "-1/" + "9" * 4300) == Fraction(-1, 10 ** 4300 - 1)
    for raw in ("1e4300", "-1e4300", "1e-4300", "3e-4300"):
        with pytest.raises(GasketError, match="--s is too large"):
            cli._parse_fraction("--s", raw)


@pytest.mark.parametrize("argv, code", [
    (["psi", "--seq", "5", "--s", "1e100000000"], 1),
    (["psi", "--seq", "5", "--invert", "1e-100000000"], 1),
    (["energy", "--precision", "rational", "--depth", "0", "--pin", "1e100000000,0,0"], 1),
    (["energy", "--precision", "rational", "--depth", "0", "--pin", "0e100000000,1,0"], 0),
], ids=["s", "invert", "pin", "pin-zero"])
def test_huge_decimal_exponents_answer_at_once(tmp_path, argv, code):
    """Fraction computes 10**exp before any digit check: a huge exponent is
    refused, and a zero mantissa read as 0, without that power."""
    got, err = run_process([*argv, "--out", tmp_path], timeout=20)
    assert "Traceback" not in err, err
    assert got == code, err
    if code:
        assert err.startswith("error:") and "is too large" in err


@pytest.mark.parametrize("argv, code, name", [
    (["psi", "--seq", "5", "--kind", "time", "--s", "1e5000"], 1, None),
    (["psi", "--seq", "5", "--diverging", "--kind", "time", "--s", "1e3000"], 0, "psi-5.json"),
    (["psi", "--seq", "5", "--kind", "mass", "--invert", "1e-5000"], 1, None),
    (["energy", "--precision", "rational", "--depth", "0", "--pin", "1e3000,0,0"], 0,
     "energy-5-d0.json"),
], ids=["s", "s-squared", "invert", "pin"])
def test_exact_values_past_the_int_digit_limit(tmp_path, argv, code, name):
    """An input past 4300 digits is refused; an output past them (s^2 and
    the energy have 6001 digits) is written in full."""
    got, err = run_process([*argv, "--out", tmp_path])
    assert "Traceback" not in err, err
    assert got == code, err
    if name is None:
        assert err.startswith(f"error: {argv[-2]} is too large")
        assert not any(tmp_path.iterdir())
    else:
        data = json.loads((tmp_path / name).read_text())
        value = data["kinds"]["time"]["value"] if argv[0] == "psi" else data["energy"]
        assert value == ("1" if argv[0] == "psi" else "2") + "0" * 6000


def test_slowdecay_below_six_knot_levels(tmp_path, capsys):
    assert run(["slowdecay", "--n-max", "3", "--out", tmp_path]) == 0
    data = json.loads((tmp_path / "slowdecay-p2.5.json").read_text())
    assert data["summable"] is True


@pytest.mark.parametrize("argv,name", [
    (["--power", "2.1"], "slowdecay-p2.1.json"),  # s_4 = 2^-40
    (["--power", "2.5", "--n-max", "20"], "slowdecay-p2.5.json"),  # s_20 = 2^-40
])
def test_slowdecay_slow_regime(tmp_path, capsys, argv, name):
    """Powers near 2 and deep levels: s_n = 2^(-n/(p-2)) needs no grid."""
    assert run(["slowdecay", *argv, "--out", tmp_path]) == 0
    data = json.loads((tmp_path / name).read_text())
    assert data["report"]["passed"] and data["report"]["dominates"]
    assert data["summable"] is True


@pytest.mark.parametrize("power", ["2", "0.5"])
def test_slowdecay_refuses_a_profile_that_does_not_decay(tmp_path, capsys, power):
    assert run(["slowdecay", "--power", power, "--out", tmp_path]) == 1
    assert "needs 2 < p < inf for r^(p-2) to decay" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_slowdecay_ignores_config_precision(tmp_path, capsys):
    """slowdecay reads no precision: a config file's precision=rational
    changes no byte of its file."""
    config = tmp_path / "rational.cfg"
    config.write_text("precision=rational\n")
    out = tmp_path / "out"
    assert run(["slowdecay", "--power", "3.0", "--n-max", "7", "--config", config,
                "--out", out]) == 0
    golden = (GOLDEN / "slowdecay-p3.0.json").read_bytes()
    assert (out / "slowdecay-p3.0.json").read_bytes() == golden


def test_slowdecay_exact_fields_read_back_nonzero(tmp_path, capsys):
    """s_11 = 2^-1100 and knots from n = 10 on are 0.0 as floats; the exact
    fields read back as the Fractions slow_decay_eta built, all nonzero."""
    assert run(["slowdecay", "--power", "2.01", "--n-max", "12", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "slowdecay-p2.01.json").read_text())["report"]
    eta, _ = slow_decay_eta(2.01, n_max=12)
    r_list = [r for r, _ in eta.knots][::-1]
    s_list = [r * 2 ** (n * n) for n, r in enumerate(r_list)]

    def dyadic(pair):
        m, e = pair
        return Fraction(m) * Fraction(2) ** e

    assert [dyadic(p) for p in report["s_exact"]] == s_list
    assert [(dyadic(r), dyadic(y)) for r, y in report["knots_exact"]] == eta.knots
    terms = [r / r_prev for r_prev, r in zip(r_list, r_list[1:])]
    assert [Fraction(num, den) for num, den in report["terms_exact"]] == terms
    assert all(x for x in s_list + r_list + terms)
    # the floats these fields stand beside underflow
    assert report["s_values"][-1] == 0.0 and report["knots"][0][0] == 0.0


# Verbs that build no adjacency and run no solver, each with the flags that
# keep it small; energy, measure and extend also run in rational precision.
_SCIPY_FREE = [
    ["energy", "--seq", "5,6", "--depth", "2", "--pin", "1,0,1/3"],
    ["measure", "--seq", "5,6", "--depth", "2", "--pin", "1,0,1/3"],
    ["extend", "--seq", "5", "--depth", "2", "--pin", "1,0,1/3"],
    *([verb, "--seq", "5", "--depth", "1", "--pin", "1,0,1/3", "--precision", "rational"]
      for verb in ("energy", "measure", "extend")),
    ["certify", "--seq", "6,5", "--max-depth", "2"],
    ["diverge", "--seq", "5,6", "--max-depth", "2", "--samples", "5"],
    ["matrices", "--l", "7"],
    ["psi", "--seq", "5,7,6", "--s", "1/40", "--segments", "3"],
    ["doubling", "--seq", "7,5", "--segments", "3"],
    ["realize", "--eta", "eta1", "--n", "4"],
    ["compare", "--eta", "eta1", "--n", "4"],
    ["slowdecay", "--power", "3.0", "--n-max", "5"],
    ["render", "--seq", "5", "--depth", "1", "--size", "60"],
    ["resistance", "--seq", "5,6", "--depth", "2", "--corners", "0,2"],
]
# verbs that do load scipy, run after the rest in the same interpreter
_SCIPY_USERS = [
    ["build", "--seq", "5", "--depth", "1"],
    ["dm", "--seq", "5", "--depth", "1", "--pairs", "5"],
    ["walk", "--seq", "5", "--depth", "0", "--trials", "50"],
    ["resistance", "--seq", "5", "--depth", "1", "--x", "3", "--y", "11"],
    ["verify-all", "--only", "3"],
]
_IMPORT_BOUNDARY = """
import json, sys
from thin_gasket.cli import main
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    loaded.append((main(argv), "scipy" in sys.modules))
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_scipy_free_verbs_load_no_scipy(tmp_path):
    """Only linalg imports scipy at load time, and only acceptance imports
    linalg: importing the CLI and running a verb that builds no adjacency
    loads no scipy, and the verbs that need it still run."""
    env = dict(os.environ)
    src = str(Path(thin_gasket.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    free, users = ([[*argv, "--out", str(tmp_path)] for argv in group]
                   for group in (_SCIPY_FREE, _SCIPY_USERS))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY, json.dumps(free),
                           json.dumps(users)], capture_output=True, text=True,
                          timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["loaded"][0] is False
    for argv, (code, loaded) in zip(free, report["loaded"][1:]):
        assert (code, loaded) == (0, False), argv
    assert report["codes"] == [0] * len(users)


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
# enclosures and the magnitude-guided precision ladder, and a slow-decay file
# written while the summability screen had an uncertified inverse of its own.
# The n = 17 file (229 KB, l_17 has 56,924 digits) is pinned by its sha256
# instead.
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
    ("slowdecay --power 3.0 --n-max 7", "slowdecay-p3.0.json"),
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
