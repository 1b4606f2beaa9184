"""Each mirrored CLI subcommand runs its criterion's check function.

Run with the criterion's inputs (quick profile where the flags can express
it), the subcommand's --out JSON holds the criterion's worst, or the named
per-domain / per-s detail, bit for bit.
"""

import functools
import json

import numpy as np
import pytest

from matrixball import cli, fatou, suite
from matrixball.structure import structure_data


@functools.lru_cache(maxsize=None)
def _criterion(index: int, profile: str = "quick"):
    res = suite.run_criterion(index, seed=7, profile=profile)
    assert res.passed, res.line()
    return res.worst, json.loads(json.dumps(cli._sanitize(res.details)))


def _run(tmp_path, *argv):
    """cli.main on argv; the payload of its JSON artifact."""
    assert cli.main(list(argv) + ["--out", str(tmp_path / "m")]) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["payload"]["passed"] is True
    return doc["payload"]


def test_subcommands_name_their_criterion():
    mirrors = {" ".join(words): fn.criterion for words, fn, _ in cli.SUBCOMMANDS
               if hasattr(fn, "criterion")}
    assert mirrors == {
        "group selftest": 2, "hua check": 4, "hua third-ratio": 5, "poisson cs": 6,
        "fatou limit": 7, "fatou dominate": 8, "fatou sandwich": 9, "poisson norms": 9,
        "ktypes schur": 10, "fatou invert": 11,
    }


@pytest.mark.parametrize("rb", [(1, 1), (2, 1)])
def test_group_selftest_is_criterion_2(tmp_path, rb):
    _, details = _criterion(2)
    got = _run(tmp_path, "group", "selftest", "--r", str(rb[0]), "--b", str(rb[1]),
               "--samples", "20")
    assert got["details"] == details["r%d_b%d" % rb]
    assert got["worst"] == details["r%d_b%d" % rb]["cocycle_worst"]


def test_hua_check_is_criterion_4(tmp_path):
    worst, details = _criterion(4)
    got = _run(tmp_path, "hua", "check", "--samples", "2")
    assert (got["worst"], got["details"]) == (worst, details["r1_b1"])


def test_hua_third_ratio_is_criterion_5(tmp_path):
    # the subcommand runs the full s list; the quick list's s values are a subset,
    # and each s's ratio and CV do not depend on the others
    _, details = _criterion(5)
    got = _run(tmp_path, "hua", "third-ratio", "--samples", "3")["details"]
    for i, s in enumerate(details["s_values"]):
        j = got["s_values"].index(s)
        assert (got["cvs"][j], got["ratios"][j]) == (details["cvs"][i], details["ratios"][i])


def test_poisson_cs_is_criterion_6(tmp_path):
    worst, details = _criterion(6)
    got = _run(tmp_path, "poisson", "cs", "--s-re", "2")
    assert (got["worst"], got["details"]["s_2.0"]) == (worst, details["r1_b1_s_2.0"])
    got = _run(tmp_path, "poisson", "cs", "--r", "2", "--s-re", "4", "--samples", "16384")
    assert got["details"]["s_4.0"] == details["r2_b1_s_4"]


def test_fatou_limit_is_criterion_7(tmp_path):
    worst, details = _criterion(7)
    got = _run(tmp_path, "fatou", "limit", "--s-re", "2.5", "--level", "5", "--t-stop", "5")
    assert (got["worst"], got["details"]) == (worst, details["r1_b1"])


@pytest.mark.parametrize("s", ["1.5", "3.0"])
def test_fatou_dominate_is_criterion_8(tmp_path, s):
    # the criterion's t list (0.5, 1, 2, 4) is no arithmetic grid; t = 0.5 is its
    # first entry, and the t-free details must agree
    _, details = _criterion(8)
    got = _run(tmp_path, "fatou", "dominate", "--s-re", s, "--t-start", "0.5",
               "--t-stop", "0.5")["details"]
    want = details["s_" + s]
    assert got["chart_nodes"] == details["chart_nodes"]
    assert got["s_" + s]["violations"] == want["violations"][:1]
    for key in ("branch", "max_excess", "phi_integral"):
        assert got["s_" + s][key] == want[key]


@pytest.mark.parametrize("command", [("fatou", "sandwich"), ("poisson", "norms")])
def test_sandwich_subcommands_are_criterion_9(tmp_path, command):
    worst, details = _criterion(9)
    got = _run(tmp_path, *command, "--samples", "2", "--level", "6", "--t-stop", "5",
               "--t-step", "1")
    assert (got["worst"], got["details"]) == (worst, details)


def test_sandwich_details_name_the_side_and_the_last_t(tmp_path):
    # the Hardy norm is a sup over the t grid and reaches the lower bound only
    # as t grows: a grid stopping at t = 1 fails the lower side, and says so
    out = str(tmp_path / "m")
    assert cli.main(["poisson", "norms", "--level", "4", "--t-stop", "1", "--out", out]) == 1
    got = json.loads((tmp_path / "m.json").read_text())["payload"]
    assert got["worst"] > 0.5
    assert (got["details"]["worst_side"], got["details"]["t_last"]) == ("lower", 1.0)
    got = _run(tmp_path, "poisson", "norms", "--level", "4")
    assert got["worst"] < 2e-3
    assert (got["details"]["worst_side"], got["details"]["t_last"]) == ("lower", 4.0)


def test_ktypes_schur_is_criterion_10(tmp_path):
    # the subcommand checks K-types up to (3, 3), the full profile's range
    worst, details = _criterion(10, "full")
    got = _run(tmp_path, "ktypes", "schur", "--s-re", "2.5", "--level", "6")
    assert (got["worst"], got["details"]) == (worst, details)


def test_fatou_invert_is_criterion_11(tmp_path):
    worst, details = _criterion(11)
    got = _run(tmp_path, "fatou", "invert", "--level", "5", "--t-start", "3", "--t-stop", "4",
               "--t-step", "1")
    assert (got["worst"], got["details"]) == (worst, details)


def test_recovery_and_inversion_name_the_sub_check_that_set_worst():
    worst, details = _criterion(7)
    assert details["worst_from"] == "r1_b1 sup_err"
    assert worst == details["r1_b1"]["sup_err"]
    # rank two reads the L^2 error; a small rule keeps the check cheap
    sd = structure_data(2, 1)
    worst2, _, d2 = suite.check_fatou(sd, 4.0, 4000, np.arange(0.0, 4.01, 0.5), 7)
    assert (d2["worst_err"], worst2) == ("l2_err", d2["l2_err"])
    worst, details = _criterion(11)
    assert details["worst_from"] == "f_0 t=4"
    assert worst == details["f_0"]["errors"][-1]
    worst, _, details = suite.check_inversion(structure_data(1, 1), 2.0, 3, 5, (3.0, 4.0), 7)
    finals = [details["f_%d" % k]["errors"][-1] for k in range(3)]
    assert details["worst_from"] == "f_%d t=4" % int(np.argmax(finals))
    assert worst == max(finals)


def test_hua_criteria_name_the_s_and_sample_that_set_worst():
    worst, details = _criterion(4)
    res = details["r1_b1"]["s_2.0"]["residuals"]
    assert details["worst_from"] == "r1_b1 s=2.0 pair %d" % int(np.argmax(res))
    assert worst == max(res)
    # the full profile has two domains and three s: the name picks the domain, then s and pair
    worst, details = _criterion(4, "full")
    rb, s, _, j = details["worst_from"].split()
    assert details[rb]["worst_from"] == "%s pair %s" % (s, j)
    assert worst == details[rb]["s_%s" % s[2:]]["residuals"][int(j)]
    worst, _, d2 = suite.check_hua(structure_data(2, 1), (2.0, 3.0), 2, 7)
    rows = [d2["s_%s" % s]["residuals"] for s in (2.0, 3.0)]
    i, j = np.unravel_index(np.argmax(rows), (2, 2))
    assert d2["worst_from"] == "s=%s pair %d" % ((2.0, 3.0)[i], j)
    assert worst == rows[i][j]
    worst, details = _criterion(5)
    s, which = details["worst_from"].split()
    k = details["s_values"].index(float(s[2:]))
    assert worst == {"cv": details["cvs"], "law_err": details["law_errs"]}[which][k]
    assert worst == max(details["cvs"] + details["law_errs"])


def test_domination_names_the_s_that_set_worst(monkeypatch):
    # both s of criterion 8 have excess 0.0: the first s of the tie is named
    worst, details = _criterion(8)
    assert details["worst_from"] == "s=1.5"
    assert worst == details["s_1.5"]["max_excess"] == details["s_3.0"]["max_excess"]
    # with distinct excesses the largest is named, and the first of equal ones
    excesses = [0.0, 3e-11, 3e-11]
    real = fatou.domination_check

    def shifted(sps, t_list, chart):
        reps = real(sps, t_list, chart)
        for rep, excess in zip(reps, excesses):
            rep.max_excess = excess
        return reps

    monkeypatch.setattr(fatou, "domination_check", shifted)
    worst, _, details = suite.check_domination(structure_data(1, 1), (1.5, 2.0, 3.0), (0.5,))
    assert (worst, details["worst_from"]) == (3e-11, "s=2.0")


def test_cocycle_kernel_cs_and_schur_name_the_sub_check_that_set_worst():
    # criterion 2: the domain
    worst, details = _criterion(2)
    domains = [k for k in details if k.startswith("r")]
    assert worst == details[details["worst_from"]]["cocycle_worst"]
    assert worst == max(details[rb]["cocycle_worst"] for rb in domains)
    # criterion 3: the domain, s and pair; test_group checks the pair against a per-sample loop
    worst, details = _criterion(3)
    rb, s, _, j = details["worst_from"].split()
    assert details[rb]["worst_from"] == "%s pair %s" % (s, j)
    assert worst == details[rb]["worst_rel_err"]
    assert worst == max(d["worst_rel_err"] for k, d in details.items() if k.startswith("r"))
    # criterion 6: the domain, s and the two routes whose gap set worst (rank one's)
    worst, details = _criterion(6)
    rb, s, pair = details["worst_from"].split()
    assert details[rb + "_worst_from"] == "%s %s" % (s, pair)
    entry = details["%s_s_%s" % (rb, s[2:])]
    assert worst == entry["max_pairwise_rel_err"]
    value = {k: complex(v["re"], v["im"]) for k, v in entry.items() if isinstance(v, dict)}
    u, v = pair.split("-")
    assert abs(value[u] - value[v]) == max(abs(a - b) for a in value.values() for b in value.values())
    assert details["r2_b1_worst_from"] == "s=4 gk-fatou"
    # criterion 10: the K-type whose CV set worst
    worst, details = _criterion(10)
    assert worst == details[details["worst_from"]]["cv"]
    assert worst == max(d["cv"] for k, d in details.items() if k.startswith("delta_"))


def test_tolerance_flag_overrides_only_the_cli(capsys):
    # the check's worst CV here is ~2e-13, so a 1e-14 CV tolerance fails it
    assert cli.main(["ktypes", "schur", "--s-re", "2.5", "--level", "6", "--tol", "1e-14"]) == 1
    assert "-> FAIL" in capsys.readouterr().out
