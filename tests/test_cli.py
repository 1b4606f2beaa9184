"""End-to-end command line checks (subprocess level)."""

import json
import os
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "matrixball"]


def run_cli(*args, **kw):
    env = dict(os.environ)
    env.setdefault("MATRIXBALL_WORKERS", "1")
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, **kw
    )


def test_version():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "matrixball" in res.stdout


def test_structure_stdout():
    res = run_cli("structure", "--r", "2", "--b", "1")
    assert res.returncode == 0
    assert "structure r=2 b=1" in res.stdout
    assert "n=6" in res.stdout


def test_unknown_flag_exits_2():
    res = run_cli("structure", "--frobnicate")
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


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 1, "b": 2, "level": 5}))
    # trailing separator requests directory semantics: <dir>/structure.json
    out = str(tmp_path) + os.sep
    res = run_cli("structure", "--config", str(cfg), "--b", "3", "--out", out)
    assert res.returncode == 0
    doc = json.loads(open(os.path.join(out, "structure.json")).read())
    # flag wins over file, file wins over default
    assert doc["config"]["b"] == 3
    assert doc["config"]["level"] == 5
    assert doc["payload"]["b"] == 3


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nope": 1}))
    res = run_cli("structure", "--config", str(cfg))
    assert res.returncode == 1
    assert "unknown config" in res.stderr.lower()


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
    assert doc["all_passed"] is True
    assert doc["results"][0]["passed"] is True
    assert doc["results"][0]["index"] == 1


def test_suite_unknown_criterion():
    res = run_cli("suite", "--criteria", "99", "--profile", "quick")
    assert res.returncode == 1
    assert "unknown criteria" in res.stderr.lower()


def test_oversized_chart_exits_2():
    res = run_cli("fatou", "dominate", "--b", "2")
    assert res.returncode == 2
    assert "exceeds the cap" in res.stderr


def test_degenerate_moebius_exits_3():
    # at t = 30 the base point sits 1e-26 from the boundary: CZ + D = diag(cosh 30, 1)
    # has condition number 5e12, past the Moebius action's 1e12 limit
    res = run_cli("poisson", "kernel", "--t-stop", "30", "--t-step", "30")
    assert res.returncode == 3
    assert "CZ + D" in res.stderr


def test_poisson_phi_runs(tmp_path):
    out = str(tmp_path / "phi")
    res = run_cli("poisson", "phi", "--s-re", "2.5", "--t-stop", "2.0", "--out", out)
    assert res.returncode == 0
    lines = open(out + ".csv").read().splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert rows[0] == "t,phi_re,phi_im,renormalized_abs"
    assert len(rows) >= 5
