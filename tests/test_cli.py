"""End-to-end command line checks: subprocess level, and in process through
cli.main where only the exit code and the messages matter."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from matrixball import cli

CMD = [sys.executable, "-m", "matrixball"]


def run_cli(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kw)


def test_version():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "matrixball" in res.stdout


def test_structure_stdout():
    res = run_cli("structure", "--r", "2", "--b", "1")
    assert res.returncode == 0
    assert "structure r=2 b=1" in res.stdout
    assert "n=6" in res.stdout


@pytest.mark.parametrize("argv", [
    ("structure", "--frobnicate"),
    ("poisson", "phi", "--rule", "disk"),  # every subcommand picks its rule from the rank
], ids=["frobnicate", "rule"])
def test_unknown_flag_exits_2(argv):
    res = run_cli(*argv)
    assert res.returncode == 2


def test_unknown_subcommand_exits_2():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_inadmissible_s_exit_code():
    res = run_cli("poisson", "cs", "--s-re", "0.0")
    assert res.returncode == 2
    assert "admissible" in (res.stderr + res.stdout).lower()


def test_structure_artifacts(tmp_path):
    # prefix semantics: art.json / art.csv next to the prefix
    out = str(tmp_path / "art")
    res = run_cli("structure", "--out", out)
    assert res.returncode == 0
    jp = out + ".json"
    cp = out + ".csv"
    assert os.path.exists(jp) and os.path.exists(cp)
    doc = json.loads(open(jp).read())
    assert set(doc) == {"version", "config", "payload"}
    assert doc["payload"]["n"] == 2
    assert doc["config"]["r"] == 1
    header = open(cp).read().splitlines()
    assert header[0].startswith("#")
    assert any("root,multiplicity" in line for line in header)


def test_artifact_byte_determinism(tmp_path):
    out = str(tmp_path / "det")
    blobs = []
    for _ in range(2):
        res = run_cli("structure", "--out", out)
        assert res.returncode == 0
        with open(out + ".json", "rb") as fh:
            j = fh.read()
        with open(out + ".csv", "rb") as fh:
            c = fh.read()
        blobs.append((j, c))
    assert blobs[0] == blobs[1]


def test_determinism_digests_independent_of_directory(tmp_path):
    # criterion 12 digests suite artifacts written in a fresh temporary directory;
    # runs from two different directories must hash the same
    from matrixball import suite

    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
    d1, d2 = (suite._run_suite_subprocess(7, "1", str(d)) for d in dirs)
    assert d1 and d1 == d2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 1, "b": 1, "level": 3}))
    # trailing separator requests directory semantics: <dir>/spectrum.json
    out = str(tmp_path) + os.sep
    res = run_cli("ktypes", "spectrum", "--config", str(cfg), "--b", "2", "--out", out)
    assert res.returncode == 0
    paths = [os.path.join(out, "spectrum" + ext) for ext in (".json", ".csv")]
    blobs = [open(path).read() for path in paths]
    doc = json.loads(blobs[0])
    # flag wins over file, file wins over default
    assert doc["config"]["b"] == 2
    assert doc["config"]["level"] == 3
    # and the run is the one the flags alone ask for, byte for byte
    res = run_cli("ktypes", "spectrum", "--b", "2", "--level", "3", "--out", out)
    assert res.returncode == 0
    assert [open(path).read() for path in paths] == blobs


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nope": 1}))
    res = run_cli("structure", "--config", str(cfg))
    assert res.returncode == 2
    assert "unknown config" in res.stderr.lower()


def test_workers_config_key_rejected(tmp_path):
    # the battery runs serially; a thread-count key is no longer a config field
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    res = run_cli("structure", "--config", str(cfg))
    assert res.returncode == 2
    assert "unknown config keys: workers" in res.stderr.lower()


def test_rule_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rule": "disk"}))
    assert cli.main(["poisson", "phi", "--config", str(cfg)]) == 2
    assert "unknown config keys: rule" in capsys.readouterr().err


def test_workers_flag_is_usage_error(tmp_path):
    res = run_cli("suite", "--workers", "2", "--criteria", "1", "--profile", "quick",
                  "--out", str(tmp_path / "suite"))
    assert res.returncode == 2
    assert not (tmp_path / "suite").exists()


def test_missing_config_file():
    res = run_cli("structure", "--config", "/nonexistent/cfg.json")
    assert res.returncode == 2


def test_suite_single_criterion(tmp_path):
    out = str(tmp_path / "suite")
    res = run_cli("suite", "--criteria", "1", "--profile", "quick", "--out", out)
    assert res.returncode == 0
    assert "criterion  1" in res.stdout
    assert "PASS" in res.stdout
    assert "suite: 1/1 criteria passed" in res.stdout
    doc = json.loads(open(out + "/suite.json").read())
    assert doc["payload"]["all_passed"] is True
    assert doc["payload"]["results"][0]["passed"] is True
    assert doc["payload"]["results"][0]["index"] == 1


def test_suite_unknown_criterion():
    # a criterion that does not exist is a usage error, like a non-integer one
    res = run_cli("suite", "--criteria", "99", "--profile", "quick")
    assert res.returncode == 2
    assert "unknown criteria" in res.stderr.lower()


@pytest.mark.parametrize("command", [("fatou", "dominate", "2.5"), ("poisson", "cs", "2.5"),
                                     ("poisson", "cs", "1.5")])
def test_chart_mirrors_pass_at_b2(tmp_path, command):
    # the Heisenberg chart's size does not grow with b, so b = 2 is in reach
    *name, s = command
    out = str(tmp_path / "chart")
    res = run_cli(*name, "--b", "2", "--s-re", s, "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(open(out + ".json").read())
    assert doc["payload"]["passed"] is True
    if name == ["poisson", "cs"]:
        # the disk rule's phases are graded toward the kernel's cusp, so the
        # Fatou route meets the chart and the Gamma product (2.1e-7 at s = 1.5)
        # far inside the tolerance of 1e-3
        assert doc["payload"]["worst"] <= 1e-5


def test_degenerate_moebius_exits_3():
    # at t = 30 the base point sits 1e-26 from the boundary: CZ + D = diag(cosh 30, 1)
    # has condition number 5e12, past the Moebius action's 1e12 limit
    res = run_cli("poisson", "kernel", "--t-stop", "30", "--t-step", "30")
    assert res.returncode == 3
    assert "CZ + D" in res.stderr


def test_boundary_rounding_exits_3():
    # at t = 25 the Moebius action succeeds but tanh(25) rounds to 1: a_t . 0 lands
    # on the boundary, a numerical degeneracy rather than a usage error
    res = run_cli("poisson", "kernel", "--t-stop", "25", "--t-step", "25")
    assert res.returncode == 3
    assert "rounds onto the boundary" in res.stderr


def test_poisson_phi_runs(tmp_path):
    # one phi_s call over the whole t grid; a rerun writes the same bytes
    out = str(tmp_path / "phi")
    blobs = []
    for _ in range(2):
        res = run_cli("poisson", "phi", "--s-re", "2.5", "--t-stop", "2.0", "--out", out)
        assert res.returncode == 0
        with open(out + ".csv", "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode().splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert rows[0] == "t,phi_re,phi_im,renormalized_abs"
    assert len(rows) >= 5


@pytest.mark.parametrize("command", [("ktypes", "schur"), ("fatou", "sandwich"),
                                     ("poisson", "norms"), ("fatou", "invert"),
                                     ("ktypes", "spectrum")], ids=" ".join)
def test_rank_one_mirror_at_rank_two_exits_2(command):
    # the message names the restriction, not a rule the command line cannot pick
    res = run_cli(*command, "--r", "2")
    assert res.returncode == 2
    assert "rank-one" in res.stderr
    assert "stiefel_rule" not in res.stderr


@pytest.mark.parametrize("count", ["0", "-5"])
def test_samples_below_one_exits_2(count):
    res = run_cli("poisson", "norms", "--r", "2", "--samples", count)
    assert res.returncode == 2
    assert "--samples must be at least 1" in res.stderr


@pytest.mark.parametrize("command", [("poisson", "phi"), ("poisson", "cs", "--s-re", "3")], ids=" ".join)
def test_domain_beyond_the_sobol_table_exits_2(command):
    # (3, 2) needs 2qr = 30 Sobol coordinates per Stiefel node; the table has 24
    res = run_cli(*command, "--r", "3", "--b", "2")
    assert res.returncode == 2
    assert "2qr = 30" in res.stderr and "has 24" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("flags", [("--t-step", "-1"), ("--t-step", "nan"), ("--t-stop", "inf"),
                                   ("--t-stop", "1e12", "--t-step", "1e-9")],
                         ids=["--t-step--1", "--t-step-nan", "--t-stop-inf", "too-large"])
def test_bad_t_grid_exits_2(flags):
    # a grid numpy cannot allocate is named as a usage error, not a ValueError
    res = run_cli("poisson", "kernel", *flags)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command,value", [
    (("group", "selftest"), "0"),
    (("poisson", "kernel"), "-1e-3"),
    (("ktypes", "schur"), "nan"),
])
def test_bad_tolerance_exits_2(command, value):
    # an explicit tolerance is honoured or rejected, never replaced by the default
    res = run_cli(*command, "--tol=%s" % value)
    assert res.returncode == 2
    assert "--tol must be positive and finite" in res.stderr


def test_tolerance_only_where_a_check_has_one(tmp_path, capsys):
    # --tol exists only on the eight subcommands with a tolerance; elsewhere argparse
    # rejects it, where it used to be ignored without a word
    res = run_cli("fatou", "sandwich", "--tol", "1")
    assert res.returncode == 2
    assert "unrecognized arguments: --tol" in res.stderr
    # a config file cannot slip it past a subcommand without one either
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1.0}))
    assert cli.main(["structure", "--config", str(cfg)]) == 2
    assert "this subcommand does not read tol" in capsys.readouterr().err
    # and where it exists it is read: the worst Hua residual is far above 1e-30
    assert cli.main(["hua", "check", "--samples", "2", "--tol", "1e-30"]) == 1
    assert "-> FAIL" in capsys.readouterr().out


def test_third_ratio_runs_past_n_6(capsys):
    # (2, 2) has n = 8: the third-order operators run on every domain
    assert cli.main(["hua", "third-ratio", "--r", "2", "--b", "2", "--samples", "1"]) == 0
    assert "-> ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("poisson", "phi", "--t-start", "3", "--t-stop", "1"),
    ("poisson", "kernel", "--t-start", "3", "--t-stop", "1"),
    ("fatou", "invert", "--t-start", "0", "--t-stop", "0.5"),
    ("fatou", "dominate", "--t-start", "0", "--t-stop", "0"),
])
def test_empty_t_grid_exits_2(argv, capsys):
    # an empty grid, or one with no t the subcommand can use, is a usage error;
    # no default grid is put in its place
    assert cli.main(list(argv)) == 2
    assert "error: the t grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("fatou", "sandwich", "--level", "-1", "--samples", "1"),
    ("poisson", "phi", "--level", "-1"),
    ("ktypes", "schur", "--level", "-1"),
    ("fatou", "limit", "--level", "-2"),
    ("group", "selftest", "--seed", "-1"),
    ("poisson", "phi", "--s-re", "inf"),
    ("hua", "check", "--s-re", "nan"),
    ("poisson", "cs", "--s-im=-inf"),
    ("fatou", "limit", "--p", "0"),
    ("fatou", "limit", "--p", "-1"),
    ("fatou", "limit", "--p", "nan"),
    ("fatou", "sandwich", "--p", "inf", "--samples", "1", "--level", "3"),
    ("fatou", "sandwich", "--p", "nan", "--samples", "1", "--level", "3"),
    ("fatou", "profile", "--b", "3", "--level", "5"),  # 10,673,289 nodes
    ("poisson", "phi", "--b", "3"),  # the --level 8 default: 144,324,288 nodes
], ids=" ".join)
def test_outside_inputs_exit_2(argv, capsys):
    # a negative level, a negative seed, a non-finite s, a p that is not a finite
    # exponent >= 1 and a rule over the node budget are usage errors, never an
    # empty rule or a raw crash
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("criteria,token", [("a", "'a'"), ("1,,2", "''"), ("", "''")])
def test_suite_non_integer_criteria_exits_2(criteria, token, capsys):
    # an empty list is malformed like an empty entry; it does not mean "all"
    assert cli.main(["suite", "--criteria", criteria, "--profile", "quick"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --criteria") and token in err


@pytest.mark.parametrize("values", [{"seed": "x"}, {"s_re": "2"}, {"level": 2.0}, {"r": True},
                                    {"t_step": False}, {"samples": "5"}, {"out": 3}],
                         ids=["seed-str", "s_re-str", "level-float", "r-bool", "t_step-bool",
                              "samples-str", "out-int"])
def test_config_value_of_wrong_type_exits_2(tmp_path, values, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert cli.main(["structure", "--config", str(cfg)]) == 2
    name = next(iter(values))
    assert capsys.readouterr().err.startswith("error: --config %s: %s must be" % (cfg, name))


def test_config_float_field_takes_an_int(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_re": 3, "t_step": 1, "samples": None}))
    args = cli.build_parser().parse_args(["poisson", "phi", "--config", str(cfg)])
    resolved = cli.resolve_config(args)
    assert (resolved.s_re, resolved.t_step, resolved.samples) == (3, 1, None)


def test_config_profile_outside_quick_and_full_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "huge"}))
    out = tmp_path / "suite"
    assert cli.main(["suite", "--criteria", "1", "--config", str(cfg), "--out", str(out)]) == 2
    assert "profile must be quick or full" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["{", "[1]", "\"r\""])
def test_malformed_config_exits_2(tmp_path, text, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["structure", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: --config")


CHEAP_FLAGS = {
    "structure": (),
    "group selftest": ("--samples", "5"),
    "poisson kernel": (),
    "poisson transform": ("--level", "3", "--t-stop", "1"),
    "poisson phi": ("--level", "3", "--t-stop", "1"),
    "poisson cs": (),
    "poisson norms": ("--level", "3"),
    "hua check": ("--samples", "1"),
    "hua third-ratio": ("--samples", "1"),
    "fatou profile": ("--level", "3"),
    "fatou limit": ("--level", "5"),
    "fatou invert": ("--level", "3", "--t-start", "3", "--t-stop", "4", "--t-step", "1"),
    "fatou dominate": (),
    "fatou sandwich": ("--level", "3", "--samples", "1"),
    "ktypes spectrum": ("--level", "3"),
    "ktypes schur": ("--level", "3"),
    "suite": ("--criteria", "1", "--profile", "quick"),
}


def test_every_artifact_has_the_documented_layout(tmp_path):
    # suite.json included: every JSON is {version, config, payload}, and every
    # CSV (the table subcommands' and suite.csv) starts with the metadata header
    assert set(CHEAP_FLAGS) == {" ".join(words) for words, _, _ in cli.SUBCOMMANDS}
    for words, fn, _ in cli.SUBCOMMANDS:
        out = tmp_path / "-".join(words)
        assert cli.main(list(words) + list(CHEAP_FLAGS[" ".join(words)])
                        + ["--out", str(out) + os.sep]) == 0, words
        jsons, csvs = sorted(out.glob("*.json")), sorted(out.glob("*.csv"))
        assert len(jsons) <= 1 and len(csvs) == (0 if hasattr(fn, "criterion") else 1), words
        for path in jsons:
            assert set(json.loads(path.read_text())) == {"version", "config", "payload"}, path
        for path in csvs:
            assert path.read_text().startswith("# matrixball "), path


FIELDS = tuple(f.name for f in dataclasses.fields(cli.RunConfig))
# a value of the right type for each RunConfig field, for --config files
CONFIG_VALUES = {**cli.RunConfig().as_dict(), "samples": 5, "out": "run", "profile": "quick",
                 "criteria": "1", "tol": 1.0}
UNREAD = [(words, name) for words, fn, _ in cli.SUBCOMMANDS for name in cli.FLAGS
          if name not in fn.reads]


def test_subcommands_take_fewer_flags():
    # 147 (subcommand, flag) pairs but --config, down from 214 when every subcommand
    # took the same twelve flags
    assert set(cli.FLAGS) == set(FIELDS)
    assert sum(len(fn.reads) for _, fn, _ in cli.SUBCOMMANDS) == 147


@pytest.mark.parametrize("words,name", UNREAD, ids=[" ".join(w) + " " + n for w, n in UNREAD])
def test_a_field_the_subcommand_does_not_read_exits_2(tmp_path, capsys, words, name):
    # as a flag, argparse does not know it, nor takes it for a longer flag's prefix
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        cli.main(list(words) + [flag, str(CONFIG_VALUES[name])])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
    # as a --config key of the right type, resolve_config rejects it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: CONFIG_VALUES[name]}))
    assert cli.main(list(words) + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: --config %s: this subcommand does not read %s\n" % (
        cfg, name)


class _Recording(cli.RunConfig):
    """A RunConfig noting in `read` each field read outside as_dict."""

    def __getattribute__(self, name):
        if name in FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)

    def as_dict(self):
        return {name: self.__dict__[name] for name in FIELDS}


# build_rule reads --samples and --seed above rank one, and fatou limit its --samples
RANK_TWO = {
    "poisson transform": (("--samples", "64", "--t-stop", "1"), 0),
    "poisson phi": (("--samples", "64", "--t-stop", "1"), 0),
    "fatou profile": (("--samples", "64", "--t-stop", "1"), 0),
    "fatou limit": (("--samples", "512"), 0),
    "ktypes spectrum": ((), 2),  # rank-one only
}


@pytest.mark.parametrize("words,fn", [(words, fn) for words, fn, _ in cli.SUBCOMMANDS],
                         ids=[" ".join(words) for words, _, _ in cli.SUBCOMMANDS])
def test_each_subcommand_reads_the_fields_it_declares(tmp_path, monkeypatch, words, fn):
    name = " ".join(words)
    runs = [(CHEAP_FLAGS[name], 0)]
    if name in RANK_TWO:
        flags, code = RANK_TWO[name]
        runs.append((("--r", "2") + flags, code))
    read = set()
    resolve = cli.resolve_config

    def recording(args):
        cfg = _Recording(**resolve(args).as_dict())
        cfg.read = read
        return cfg

    monkeypatch.setattr(cli, "resolve_config", recording)
    for flags, code in runs:
        assert cli.main(list(words) + list(flags) + ["--out", str(tmp_path) + os.sep]) == code
    assert read == set(fn.reads)


@pytest.mark.parametrize("words", [("hua", "third-ratio"), ("group", "selftest")], ids=" ".join)
def test_a_mirror_names_s_only_if_it_reads_it(capsys, words):
    # hua third-ratio checks criterion 5's own s list, group selftest no s at all
    assert cli.main(list(words) + list(CHEAP_FLAGS[" ".join(words)])) == 0
    line = capsys.readouterr().out
    assert "-> ok" in line and "s=" not in line
