import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import camsmeta
from camsmeta.errors import (CamsmetaWarning, ContractError, DomainError,
                             ValidationWarning)
from camsmeta.inference import GridSpec, PriorSpec, fit_bms, fit_cams
from camsmeta.io_cli import (_COMMANDS, _CONFIG_SCHEMA, EXIT_ERROR, EXIT_OK,
                             EXIT_VERIFY_FAIL, RunConfig, build_parser,
                             load_csv, main, run, save_csv)
from camsmeta.reporting import STRATEGY_KINDS, strategy_prevalence
from camsmeta.verify import SimScenario, simulate

HEADER = "study.name,contrast.esti,contrast.se,est,se,ifrac,subgroup12,ifrac2"


def write_csv(path, rows, header=HEADER):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def two_row_study(name="S1", ya=0.1, yb=0.4, sa=0.2, sb=0.3):
    va, vb = sa * sa, sb * sb
    pi = va / (va + vb)
    g = yb - ya
    se_g = math.sqrt(va + vb)
    return [
        f"{name},{g!r},{se_g!r},{ya!r},{sa!r},{pi!r},-0.5,{-pi!r}",
        f"{name},{g!r},{se_g!r},{yb!r},{sb!r},{pi!r},0.5,{1 - pi!r}",
    ]


def test_load_basic(tmp_path):
    path = str(tmp_path / "d.csv")
    write_csv(path, two_row_study() + two_row_study("S2", 0.0, 0.2, 0.3, 0.1))
    data = load_csv(path)
    assert len(data.studies) == 2
    s = data.studies[0]
    assert s.study_id == "S1"
    assert s.obs_a.estimate == 0.1
    assert s.obs_b.std_error == 0.3
    assert s.info_fraction == pytest.approx(0.04 / 0.13)


def test_load_reports_row_numbers(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    rows[1] = rows[1].replace("0.4", "not_a_number", 1)
    write_csv(path, rows)
    with pytest.raises(ContractError, match="row 3"):
        load_csv(path)


def test_load_names_the_file_line_after_a_blank_line(tmp_path):
    # a blank line counts: the bad se on the file's third line is row 3
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    set_cell(rows, 0, 4, "x")
    write_csv(path, [""] + rows)
    with pytest.raises(ContractError, match=r"^row 3: bad se value 'x'$"):
        load_csv(path)


def set_cell(rows, row, column, text):
    parts = rows[row].split(",")
    parts[column] = text
    rows[row] = ",".join(parts)


@pytest.mark.parametrize("edits, want", [
    # a bad est in a later row does not hide an earlier broken ifrac2
    ([(0, 7, "0.9"), (2, 3, "abc")], r"^row 2: ifrac2 0\.9 inconsistent"),
    # a duplicate row is reported before a later unparsable se
    ([(2, 0, "S1"), (3, 4, "abc")], r"^row 4: duplicate subgroup12 -0\.5 "
                                    r"for study 'S1'$"),
    # within one row, est is read before se
    ([(1, 4, "x"), (1, 3, "inf")], r"^row 3: est must be finite, got 'inf'$"),
    # a later row's first check does not hide an earlier row's last one
    ([(1, 1, "-1"), (2, 0, "")],
     r"^row 3: exponentiated contrast\.esti must be positive$"),
    # one row that fails two checks adjacent in the order a row is read
    # reports the earlier; where both are checks of one cell, the cell's
    # first check is paired with the next cell's
    ([(1, 0, ""), (1, 3, "x")], r"^row 3: empty study\.name$"),
    ([(1, 3, "x"), (1, 4, "y")], r"^row 3: bad est value 'x'$"),
    ([(1, 4, "x"), (1, 5, "y")], r"^row 3: bad se value 'x'$"),
    ([(1, 4, "-inf")], r"^row 3: se must be finite, got '-inf'$"),
    ([(1, 4, "-1e200")], r"^row 3: se must be positive, got -1e\+200$"),
    ([(1, 5, "x"), (1, 6, "y")], r"^row 3: bad ifrac value 'x'$"),
    ([(1, 5, "inf"), (1, 6, "y")], r"^row 3: ifrac must be finite"),
    ([(1, 6, "x"), (1, 7, "y")], r"^row 3: bad subgroup12 value 'x'$"),
    ([(1, 6, "nan"), (1, 7, "y")], r"^row 3: subgroup12 must be finite"),
    ([(1, 7, "x"), (1, 6, "0.4")], r"^row 3: bad ifrac2 value 'x'$"),
    ([(1, 7, "inf"), (1, 6, "0.4")], r"^row 3: ifrac2 must be finite"),
    ([(1, 6, "0.4")], r"^row 3: subgroup12 must be -0\.5 or 0\.5, got 0\.4$"),
    ([(1, 7, "0.9"), (1, 3, "-1")], r"^row 3: ifrac2 0\.9 inconsistent"),
    ([(1, 3, "-1"), (1, 1, "x")],
     r"^row 3: exponentiated est must be positive, got -1\.0$"),
    ([(1, 1, "x"), (1, 2, "y")], r"^row 3: bad contrast\.esti value 'x'$"),
    ([(1, 1, "inf"), (1, 2, "y")], r"^row 3: contrast\.esti must be finite"),
    ([(1, 2, "x"), (1, 9, "y")], r"^row 3: bad contrast\.se value 'x'$"),
    ([(1, 2, "nan"), (1, 9, "y")], r"^row 3: contrast\.se must be finite"),
    ([(1, 9, "y"), (1, 1, "-1")], r"^row 3: bad n_b value 'y'$"),
    ([(2, 0, "S1"), (2, 1, "-1")],
     r"^row 4: exponentiated contrast\.esti must be positive$"),
])
def test_load_names_the_first_bad_row(tmp_path, edits, want):
    # the error is the first failing check of the first failing row; the
    # estimates and contrasts are positive, so an exponentiated read adds
    # only the checks of edited cells, and a plain read that lacks them
    # names the same check unless it is one of them
    path = counted_table(tmp_path, edits)
    with pytest.raises(ContractError, match=want):
        load_csv(path, exponentiated_input=True)
    if "exponentiated" not in want:
        with pytest.raises(ContractError, match=want):
            load_csv(path)


def counted_table(tmp_path, edits):
    """Path of two studies with n_a, n_b columns, ``edits`` applied."""
    path = str(tmp_path / "d.csv")
    rows = [row + ",12,34" for row in
            two_row_study() + two_row_study("S2", 0.05, 0.2, 0.3, 0.1)]
    for row, column, text in edits:
        set_cell(rows, row, column, text)
    write_csv(path, rows, header=HEADER + ",n_a,n_b")
    return path


def test_load_checks_the_range_of_se_before_ifrac(tmp_path):
    # the one check of the row order whose error is a DomainError
    path = counted_table(tmp_path, [(1, 4, "1e200"), (1, 5, "x")])
    for exponentiated in (False, True):
        with pytest.raises(DomainError,
                           match=r"^row 3: se 1e\+200 is out of range"):
            load_csv(path, exponentiated_input=exponentiated)


@pytest.mark.parametrize("text, want", [
    ("-4", r"^row 3: n_b must be nonnegative, got -4$"),
    ("1" + "0" * 400, r"^row 3: n_b is too large for a float$"),
], ids=["negative", "too_large"])
def test_load_names_the_row_of_a_bad_count(tmp_path, text, want):
    # a count is checked as its cell is read, before a later check of its
    # row; one that no float holds would break trial_weighted prevalence
    path = counted_table(tmp_path, [(1, 9, text), (1, 1, "-1")])
    with pytest.raises(ContractError, match=want):
        load_csv(path, exponentiated_input=True)


def test_load_rejects_bad_subgroup_code(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    rows[0] = rows[0].replace("-0.5", "-0.4")
    write_csv(path, rows)
    with pytest.raises(ContractError, match="subgroup12"):
        load_csv(path)


def test_load_rejects_broken_ifrac2(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    parts = rows[1].split(",")
    parts[7] = "0.9"
    rows[1] = ",".join(parts)
    write_csv(path, rows)
    with pytest.raises(ContractError, match="ifrac2"):
        load_csv(path)


def test_load_rejects_duplicate_subgroup(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    rows[1] = rows[0]
    write_csv(path, rows)
    with pytest.raises(ContractError, match="duplicate"):
        load_csv(path)


def test_load_rejects_missing_subgroup(tmp_path):
    path = str(tmp_path / "d.csv")
    write_csv(path, two_row_study()[:1])
    with pytest.raises(ContractError, match="no subgroup12"):
        load_csv(path)


def test_load_rejects_nonpositive_se(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    parts = rows[0].split(",")
    parts[4] = "0.0"
    rows[0] = ",".join(parts)
    write_csv(path, rows)
    with pytest.raises(ContractError, match="se must be positive"):
        load_csv(path)


def test_load_rejects_missing_columns(tmp_path):
    path = str(tmp_path / "d.csv")
    write_csv(path, ["S1,0.1,0.2"], header="study.name,est,se")
    with pytest.raises(ContractError, match="missing columns"):
        load_csv(path)


def test_load_warns_on_contrast_mismatch(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    parts = rows[0].split(",")
    parts[1] = "0.9"  # true contrast is 0.3
    rows[0] = ",".join(parts)
    write_csv(path, rows)
    with pytest.warns(ValidationWarning, match="contrast.esti"):
        load_csv(path)


def test_load_warns_once_per_contrast_column_in_order(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    for k in (0, 1):
        parts = rows[k].split(",")
        parts[1], parts[2] = "0.9", "0.5"
        rows[k] = ",".join(parts)
    write_csv(path, rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_csv(path)
    assert [str(w.message) for w in caught] == [
        f"study 'S1': contrast.esti 0.9 differs from est difference "
        f"{0.4 - 0.1}",
        f"study 'S1': contrast.se 0.5 differs from combined se "
        f"{math.sqrt(0.2 ** 2 + 0.3 ** 2)}"]


def test_load_rejects_inconsistent_pair_ifrac(tmp_path):
    path = str(tmp_path / "d.csv")
    rows = two_row_study()
    # change both ifrac and ifrac2 on the B row so the per-row invariant
    # still holds but the pair disagrees
    parts = rows[1].split(",")
    parts[5] = "0.25"
    parts[7] = "0.75"
    rows[1] = ",".join(parts)
    write_csv(path, rows)
    with pytest.raises(ContractError, match="ifrac differs"):
        load_csv(path)


def test_load_exponentiated(tmp_path):
    plain = str(tmp_path / "plain.csv")
    write_csv(plain, two_row_study())
    expd = str(tmp_path / "exp.csv")
    rows = two_row_study()
    for i, row in enumerate(rows):
        parts = row.split(",")
        parts[1] = repr(math.exp(float(parts[1])))
        parts[3] = repr(math.exp(float(parts[3])))
        rows[i] = ",".join(parts)
    write_csv(expd, rows)
    d1 = load_csv(plain)
    d2 = load_csv(expd, exponentiated_input=True)
    assert d2.studies[0].obs_a.estimate == pytest.approx(
        d1.studies[0].obs_a.estimate, abs=1e-12)
    assert d2.studies[0].obs_b.std_error == d1.studies[0].obs_b.std_error


def test_round_trip_bit_exact(tmp_path):
    for uisd in (None, 1.0):
        data = simulate(SimScenario(n_studies=6, alpha=0.1, delta=0.5,
                                    gamma=0.25, tau=0.1, tau_gamma=0.1,
                                    seed=21, uisd=uisd))
        p1 = str(tmp_path / f"a{uisd}.csv")
        p2 = str(tmp_path / f"b{uisd}.csv")
        save_csv(data, p1)
        again = load_csv(p1)
        save_csv(again, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert repr(again.studies) == repr(data.studies)


@pytest.mark.parametrize("n_studies, uisd, seed, digest", [
    # the quickstart_j8 (seed 1) and fit_j1000 (seed 0) benchmark inputs
    (8, 1.0, 1,
     "44a1fb271d705b9de10eeb1bcca67d64441a97d435d0245286b2393075c7174b"),
    (1000, None, 0,
     "c68e686b0e3d52a9954d8fc28f011ba42a7310bb2451336ca30ff86b66262d41"),
])
def test_dataset_digest_is_pinned(tmp_path, n_studies, uisd, seed, digest):
    # the dataset_sha256 every fit's provenance records, and bench/golden
    # stores, survives a CSV round trip unchanged
    data = simulate(SimScenario(n_studies=n_studies, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=uisd, seed=seed))
    path = str(tmp_path / "data.csv")
    save_csv(data, path)
    assert data.sha256 == load_csv(path).sha256 == digest


def test_config_defaults_and_overrides(tmp_path):
    cfg = RunConfig.from_sources(None, {})
    assert cfg.grid_nodes == 101
    assert cfg.estimators == "cams,bim,bms,overall"
    assert cfg.sim_sigma_law == ("lognormal", -1.6, 0.4)
    cfg2 = RunConfig.from_sources(None, {"grid_nodes": "41",
                                         "svg": "true",
                                         "sim_uisd": "1.5"})
    assert cfg2.grid_nodes == 41
    assert cfg2.svg is True
    assert cfg2.sim_uisd == 1.5


def test_config_file_merge(tmp_path):
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write("# comment line\n\ngrid_nodes = 21\nseed = 9\n")
    cfg = RunConfig.from_sources(path, {"grid_nodes": "31"})
    assert cfg.grid_nodes == 31  # flag beats file
    assert cfg.seed == 9


def test_config_rejects_unknown_and_bad_values(tmp_path):
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write("not_a_key = 1\n")
    with pytest.raises(ContractError, match="unknown key"):
        RunConfig.from_sources(path, {})
    with pytest.raises(ContractError, match="bad value"):
        RunConfig.from_sources(None, {"sim_studies": "many"})
    with pytest.raises(ContractError, match="key = value"):
        path2 = str(tmp_path / "run2.cfg")
        with open(path2, "w") as fh:
            fh.write("just some text\n")
        RunConfig.from_sources(path2, {})


def make_input(tmp_path, uisd=1.0):
    data = simulate(SimScenario(n_studies=6, alpha=0.1, delta=0.5,
                                gamma=0.25, tau=0.1, tau_gamma=0.1,
                                seed=8, uisd=uisd))
    path = str(tmp_path / "input.csv")
    save_csv(data, path)
    return path


@pytest.mark.parametrize("flag, value", [
    ("--beta-a", "inf"), ("--beta-a", "nan"),
    ("--beta-b", "inf"), ("--beta-b", "nan"),
])
def test_report_refuses_a_non_finite_beta_law(tmp_path, capsys, flag, value):
    beta = {"--beta-a": "2", "--beta-b": "3", flag: value}
    out = tmp_path / "out"
    code = main(["report", "--input", make_input(tmp_path), "--output-dir",
                 str(out), "--prevalence-value", "0.4",
                 *(x for kv in beta.items() for x in kv)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    name = flag.removeprefix("--beta-")
    assert err == [f"error: beta {name} must be positive and finite, "
                   f"got {float(value)}"]
    assert not (out / "report.json").exists()


def test_report_refuses_a_bad_beta_law_before_any_fit(tmp_path, capsys,
                                                      monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_cams ran before the policies were built")

    monkeypatch.setattr(camsmeta.io_cli, "fit_cams", no_fit)
    code = main(["report", "--input", make_input(tmp_path), "--output-dir",
                 str(tmp_path / "out"), "--prevalence-value", "0.4",
                 "--beta-a", "2", "--beta-b", "inf"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "error: beta b must be positive and finite, got inf"]


def test_run_fit_writes_json(tmp_path):
    path = make_input(tmp_path)
    out = str(tmp_path / "out")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21"})
    assert run("fit", cfg) == EXIT_OK
    for name in ("cams", "bim", "bms", "overall"):
        blob = json.load(open(os.path.join(out, f"fit_{name}.json")))
        assert blob["estimator"].lower().startswith(name[:3])
        assert "gamma" in blob["summaries"] or "mu" in blob["summaries"]
        assert blob["provenance"]["n_studies"] == 6
    with pytest.raises(ContractError, match="unknown estimator"):
        run("fit", RunConfig.from_sources(None, {
            "input": path, "output_dir": out, "estimators": "cams,what"}))


def test_run_report_covers_strategies(tmp_path):
    path = make_input(tmp_path)
    out = str(tmp_path / "rep")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21",
        "prevalence_value": "0.3", "beta_a": "2", "beta_b": "5"})
    assert run("report", cfg) == EXIT_OK
    blob = json.load(open(os.path.join(out, "report.json")))
    strat = blob["strategies"]
    for kind in ("average", "trial_weighted", "overall_if", "optimal_if",
                 "closeness_a", "closeness_b", "external", "beta"):
        assert kind in strat
        assert "skipped" not in strat[kind]
    # every strategy reports the identical interaction summary
    interactions = {json.dumps(strat[k]["interaction"], sort_keys=True)
                    for k in strat}
    assert len(interactions) == 1
    assert blob["configured"]["prevalence_used"]["kind"] == "overall_if"


def test_run_report_skips_unavailable(tmp_path):
    path = make_input(tmp_path, uisd=None)
    out = str(tmp_path / "rep2")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21",
        "prevalence": "average"})
    assert run("report", cfg) == EXIT_OK
    strat = json.load(open(os.path.join(out, "report.json")))["strategies"]
    assert "skipped" in strat["trial_weighted"]
    assert "skipped" in strat["external"]
    assert "beta" not in strat


def test_run_report_skips_trial_weighted_on_a_zero_count(tmp_path):
    path = make_input(tmp_path)
    with open(path) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    rows[0][header.index("n_a")] = "0"
    with open(path, "w") as fh:
        fh.write("".join(",".join(r) + "\n" for r in [header, *rows]))
    out = str(tmp_path / "rep")
    settings = {"input": path, "output_dir": out, "grid_nodes": "21"}
    assert run("report", RunConfig.from_sources(None, settings)) == EXIT_OK
    strat = json.load(open(os.path.join(out, "report.json")))["strategies"]
    assert strat["trial_weighted"] == {
        "skipped": "needs positive n_a and n_b counts"}
    with pytest.raises(ContractError, match="has a zero count"):
        run("report", RunConfig.from_sources(None, {
            **settings, "prevalence": "trial_weighted"}))


@pytest.mark.parametrize("kind", STRATEGY_KINDS + ("beta",))
def test_report_configured_is_its_table_entry(tmp_path, kind):
    path = make_input(tmp_path)
    out = str(tmp_path / "rep")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21",
        "prevalence": kind, "prevalence_value": "0.3", "beta_a": "2",
        "beta_b": "5", "seed": "3"})
    assert run("report", cfg) == EXIT_OK
    blob = json.load(open(os.path.join(out, "report.json")))
    assert blob["configured"] == blob["strategies"][kind]
    assert blob["configured"]["prevalence_used"]["kind"] == kind


def test_report_configured_point_and_skipped_kinds(tmp_path):
    path = make_input(tmp_path, uisd=None)
    out = str(tmp_path / "rep")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21",
        "prevalence": "point", "prevalence_value": "0.3"})
    assert run("report", cfg) == EXIT_OK
    blob = json.load(open(os.path.join(out, "report.json")))
    assert blob["configured"]["prevalence_used"] == {"kind": "point",
                                                     "value": 0.3}
    external = blob["strategies"]["external"]
    for name in ("mu_a", "mu_b", "overall", "interaction"):
        assert blob["configured"][name] == external[name]
    # a configured kind the table skips still reports why it cannot run
    with pytest.raises(ContractError, match="counts"):
        run("report", RunConfig.from_sources(None, {
            "input": path, "output_dir": out, "grid_nodes": "21",
            "prevalence": "trial_weighted"}))
    with pytest.raises(ContractError, match="beta_a and beta_b"):
        run("report", RunConfig.from_sources(None, {
            "input": path, "output_dir": out, "prevalence": "beta"}))


def test_report_reads_every_point_policy_in_one_summaries_batch(
        tmp_path, monkeypatch):
    # the seven point-valued strategies and a configured point value are
    # resolved first; their mu_A, mu_B and overall summaries are then one
    # functional_summaries call of 3 rows each, whose last row is the
    # interaction that every policy, the Beta law's included, reports
    calls = []
    summaries = camsmeta.FitResult.functional_summaries
    monkeypatch.setattr(camsmeta.FitResult, "functional_summaries",
                        lambda self, specs: calls.append(len(specs))
                        or summaries(self, specs))
    cfg = RunConfig.from_sources(None, {
        "input": make_input(tmp_path), "output_dir": str(tmp_path / "rep"),
        "grid_nodes": "21", "prevalence": "point", "prevalence_value": "0.3",
        "beta_a": "2", "beta_b": "5"})
    assert run("report", cfg) == EXIT_OK
    assert calls == [3 * (len(STRATEGY_KINDS) + 1) + 1]


@pytest.mark.parametrize("seed", range(3))
def test_report_interaction_is_the_fit_gamma_summary(tmp_path, seed):
    # the gamma row of the point-policy batch is the fit's own gamma
    # summary, bit for bit, in every strategy (quick-start data, N=101)
    data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=1.0, seed=seed))
    path, out = str(tmp_path / "d.csv"), str(tmp_path / "rep")
    save_csv(data, path)
    assert main(["report", "--input", path, "--output-dir", out,
                 "--prevalence-value", "0.4", "--beta-a", "2",
                 "--beta-b", "3"]) == EXIT_OK
    strategies = json.load(open(os.path.join(out, "report.json")))[
        "strategies"]
    priors = PriorSpec(tau_scale=1.0, tau_gamma_scale=0.5)
    gamma = fit_cams(data, priors, GridSpec.default(priors)).summaries["gamma"]
    assert set(strategies) == {*STRATEGY_KINDS, "beta"}
    for kind, entry in strategies.items():
        assert entry["interaction"] == dataclasses.asdict(gamma), kind


@pytest.mark.parametrize("svg", ["false", "true"])
def test_plotdata_reads_lines_and_width_curve_in_one_batch(tmp_path,
                                                           monkeypatch, svg):
    # the bubble-line medians and the width curve share one quantile batch
    # of 41 prevalences x 2 lines; only the SVG marker runs optimal_if's
    # search, and it reuses the curve's widths: one refining triple is new
    calls = []
    quantiles = camsmeta.FitResult.functional_quantiles
    monkeypatch.setattr(camsmeta.FitResult, "functional_quantiles",
                        lambda self, specs, levels: calls.append(
                            (len(specs), tuple(levels)))
                        or quantiles(self, specs, levels))
    cfg = RunConfig.from_sources(None, {
        "input": make_input(tmp_path), "output_dir": str(tmp_path / "plots"),
        "grid_nodes": "21", "svg": svg})
    assert run("plotdata", cfg) == EXIT_OK
    assert calls[0] == (2 * 41, (0.5, 0.025, 0.975))
    marker = calls[1:]
    assert len(marker) == (svg == "true")
    rows = open(os.path.join(str(tmp_path / "plots"),
                             "width_curve.csv")).read().splitlines()
    assert len(rows) == 42


def test_report_reference_bms_honours_alpha_heterogeneity(tmp_path):
    path = make_input(tmp_path)
    out = str(tmp_path / "rep")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21",
        "alpha_heterogeneity": "true"})
    assert run("report", cfg) == EXIT_OK
    strat = json.load(open(os.path.join(out, "report.json")))["strategies"]
    data = load_csv(path)
    priors = PriorSpec(tau_scale=1.0, tau_gamma_scale=0.5)
    grid = GridSpec.default(priors, n_nodes=21)
    cams = fit_cams(data, priors, grid)
    for kind in ("closeness_a", "closeness_b"):
        want = strategy_prevalence(
            data, cams, kind,
            fit_bms(data, priors, grid, alpha_heterogeneity=True))
        common = strategy_prevalence(data, cams, kind,
                                     fit_bms(data, priors, grid))
        assert strat[kind]["prevalence_used"]["value"] == want != common


@pytest.mark.parametrize("flag, law, why", [
    ("--sim-prevalence-law", "beta", "takes 2 parameter"),
    ("--sim-sigma-law", "fixed:-1", "must be positive"),
    ("--sim-prevalence-law", "uniform:0.2,1.5", "must lie in [0, 1]"),
    ("--sim-prevalence-law", "leverage:0.1,0.2", "takes 3 parameter"),
    ("--sim-prevalence-law", "fixed:nan", "must be finite"),
    ("--sim-sigma-law", "lognormal:-1.6,0", "must be positive"),
    ("--sim-sigma-law", "gamma:1,2", "unknown sigma_law kind"),
    ("--sim-sigma-law", "uniform:0.3,0.1", "lo must not exceed hi"),
    ("--sim-prevalence-law", "leverage:0.8,0.2,0.5", "lo must not exceed hi"),
])
def test_simulate_rejects_malformed_laws(tmp_path, capsys, flag, law, why):
    out = str(tmp_path / "sim")
    assert main(["simulate", flag, law, "--output-dir", out]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "simulated.csv"))


@pytest.mark.parametrize("uisd, why", [
    ("inf", "uisd must be positive and finite"),
    ("nan", "uisd must be positive and finite"),
    ("-1", "uisd must be positive and finite"),
    ("0", "uisd must be positive and finite"),
    ("1e308", "study S01: the subgroup count (uisd / se)^2 overflows"),
])
def test_simulate_refuses_a_bad_uisd(tmp_path, capsys, uisd, why):
    out = str(tmp_path / "sim")
    code = main(["simulate", "--sim-uisd", uisd, "--output-dir", out])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and why in err[0]
    assert not os.path.exists(os.path.join(out, "simulated.csv"))


@pytest.mark.parametrize("flag, value, why", [
    ("--sim-tau", "nan", "tau must be nonnegative and finite, got nan"),
    ("--sim-tau-gamma", "inf",
     "tau_gamma must be nonnegative and finite, got inf"),
    ("--sim-gamma", "nan", "gamma must be finite, got nan"),
    ("--sim-alpha", "inf", "alpha must be finite, got inf"),
    ("--sim-delta", "-inf", "delta must be finite, got -inf"),
])
def test_simulate_names_a_non_finite_flag(tmp_path, capsys, flag, value, why):
    out = str(tmp_path / "sim")
    # the "=" form; test_a_number_after_a_flag_is_its_value covers "-inf"
    # as a separate token
    assert main(["simulate", f"{flag}={value}", "--output-dir",
                 out]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {why}"]
    assert not os.path.exists(os.path.join(out, "simulated.csv"))


@pytest.mark.parametrize("flag, value", [
    ("--sim-alpha", "-1e-3"), ("--sim-alpha", "-.5e1"),
    ("--sim-delta", "-inf"),
    ("--prevalence-value", "-inf"), ("--tau-prior", "-0.5"),
])
def test_a_number_after_a_flag_is_its_value(flag, value):
    # argparse alone reads only -N and -N.N as negative numbers
    args = build_parser().parse_args(["simulate", flag, value])
    assert getattr(args, flag[2:].replace("-", "_")) == value


@pytest.mark.parametrize("value", ["-1e-3", "-.5e1"])
def test_simulate_takes_a_negative_exponent_value(tmp_path, value):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--sim-alpha", value, "--output-dir",
                 out]) == EXIT_OK
    assert len(load_csv(os.path.join(out, "simulated.csv")).studies) == 10


def test_report_reaches_the_check_of_a_negative_infinite_prevalence(
        tmp_path, capsys):
    code = main(["report", "--input", make_input(tmp_path), "--output-dir",
                 str(tmp_path / "out"), "--prevalence-value", "-inf"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "error: prevalence must lie in [0, 1], got -inf"]


def test_a_flag_after_a_flag_is_still_a_missing_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--sim-alpha", "--seed", "3"])
    assert exc.value.code == 2
    assert "argument --sim-alpha: expected one argument" in \
        capsys.readouterr().err


def test_run_simulate_then_fit(tmp_path):
    out = str(tmp_path / "sim")
    cfg = RunConfig.from_sources(None, {
        "output_dir": out, "sim_studies": "5", "seed": "2",
        "sim_gamma": "0.3"})
    assert run("simulate", cfg) == EXIT_OK
    sim = os.path.join(out, "simulated.csv")
    data = load_csv(sim)
    assert len(data.studies) == 5


def test_run_plotdata_outputs(tmp_path):
    path = make_input(tmp_path)
    out = str(tmp_path / "plots")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21", "svg": "true"})
    assert run("plotdata", cfg) == EXIT_OK
    for stem in ("forest", "bubble", "bubble_lines", "width_curve", "trace"):
        lines = open(os.path.join(out, stem + ".csv")).read().splitlines()
        assert len(lines) > 1 and "," in lines[0]
    for stem in ("forest", "bubble", "width_curve", "trace"):
        svg = open(os.path.join(out, stem + ".svg")).read()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # forest has one row per study plus the pooled one
    assert len(open(os.path.join(out, "forest.csv")).read().splitlines()) == 8


def test_run_unknown_command(tmp_path):
    cfg = RunConfig.from_sources(None, {})
    with pytest.raises(ContractError, match="unknown command"):
        run("transmogrify", cfg)


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--no-such-flag", "1"])
    assert exc.value.code == 2
    # a failing battery propagates the dedicated exit code
    import camsmeta.io_cli as cli
    monkeypatch.setattr(cli, "run_battery",
                        lambda **kw: {"all_pass": False, "checks": [],
                                      "n_checks": 0, "n_pass": 0, "n_fail": 0})
    out = str(tmp_path / "v")
    assert main(["verify", "--output-dir", out]) == EXIT_VERIFY_FAIL


def test_main_verify_ok(tmp_path):
    out = str(tmp_path / "v")
    code = main(["verify", "--output-dir", out, "--verify-seeds", "1"])
    assert code == EXIT_OK
    blob = json.load(open(os.path.join(out, "verify.json")))
    assert blob["all_pass"]
    assert blob["n_checks"] == 13


def test_main_report_ratio_overflow_is_clean_error(tmp_path, capsys):
    # log-scale estimates near 800 overflow exp(); the CLI must name the
    # field and exit 1 instead of printing a traceback
    out = str(tmp_path / "big")
    assert main(["simulate", "--sim-alpha", "800", "--sim-studies", "8",
                 "--output-dir", out]) == EXIT_OK
    code = main(["report", "--input", os.path.join(out, "simulated.csv"),
                 "--output-dir", out, "--grid-nodes", "21"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: mu_a.median")
    assert "overflows" in err
    assert not os.path.exists(os.path.join(out, "report.json"))


def write_scaled_quickstart(tmp_path, factor):
    """The quick-start data with every estimate and SE times ``factor``."""
    data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1, tau_gamma=0.1,
                                uisd=1.0, seed=0))
    rows = []
    for s in data.studies:
        pi = s.info_fraction
        for sg, obs in ((-0.5, s.obs_a), (0.5, s.obs_b)):
            rows.append(f"{s.study_id},{obs.estimate * factor!r},"
                        f"{obs.std_error * factor!r},{pi!r},{sg!r},"
                        f"{sg + 0.5 - pi!r}")
    path = str(tmp_path / "scaled.csv")
    write_csv(path, rows, header="study.name,est,se,ifrac,subgroup12,ifrac2")
    return path


@pytest.mark.parametrize("factor, why", [
    (1e200, "is out of range"),     # se ** 2 overflows in load_csv
    (1e-150, "per-node GLS system is numerically singular"),
])
def test_fit_on_extreme_scale_is_clean_error(tmp_path, capsys, factor, why):
    path = write_scaled_quickstart(tmp_path, factor)
    code = main(["fit", "--input", path, "--output-dir", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and why in err[0]


@pytest.mark.parametrize("factor", [1e-100, 1e-150])
def test_singular_node_names_the_node_and_both_prior_scales(tmp_path, capsys,
                                                           factor):
    # tiny standard errors against the default prior scales: the error names
    # the lattice node whose system failed and the two scales to match. The
    # 1-D solves of CAMS and BIM stay regular there; the BMS pair solve,
    # which weighs the contrast and the mean at once, is the one that fails,
    # and the fits that succeeded before it write no file either
    path = write_scaled_quickstart(tmp_path, factor)
    code = main(["fit", "--input", path, "--output-dir", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert re.search(r"singular at tau = \S+, tau_gamma = \S+:", err[0])
    assert "tau_prior" in err[0] and "tau_gamma_prior" in err[0]
    assert not list(tmp_path.glob("fit_*.json"))


@pytest.mark.parametrize("flag, value, why", [
    ("--tau-prior", "inf", "prior scales must be positive and finite"),
    ("--tau-gamma-prior", "inf", "prior scales must be positive and finite"),
    ("--tau-prior", "1e300", "tau_prior: grid prior scale 1e+300 puts the "
     "top grid node at 5e+300, whose square overflows float64"),
    ("--tau-gamma-prior", "1e300", "tau_gamma_prior: grid prior scale 1e+300 "
     "puts the top grid node at 5e+300, whose square overflows float64"),
    ("--tau-prior", "5e-324", "grid prior scale 5e-324 must be positive and "
     "keep the grid nodes in the float range, but they run from 0.0 to "
     "2.5e-323"),
    ("--tau-gamma-prior", "1e308", "grid prior scale 1e+308 must be positive "
     "and keep the grid nodes in the float range, but they run from inf to "
     "inf"),
])
def test_fit_on_extreme_prior_scale_is_clean_error(tmp_path, capsys, flag,
                                                   value, why):
    # an infinite scale or a grid whose squared nodes overflow is refused
    # before any numpy warning can leak
    path = write_scaled_quickstart(tmp_path, 1.0)
    code = main(["fit", "--input", path, "--output-dir", str(tmp_path),
                 flag, value])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and why in err[0]


@pytest.mark.parametrize("flags, key, value", [
    # both axes fail: the tau axis is built, and refused, first
    (["--tau-prior", "5e-324", "--tau-gamma-prior", "1e308"], "tau_prior",
     "5e-324"),
    (["--tau-gamma-prior", "1e308"], "tau_gamma_prior", "1e+308"),
    (["--tau-prior", "1e300"], "tau_prior", "1e+300"),
    (["--tau-gamma-prior", "1e300"], "tau_gamma_prior", "1e+300"),
])
def test_grid_refusal_names_the_config_key(tmp_path, capsys, flags, key,
                                           value):
    code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                 "--output-dir", str(tmp_path)] + flags)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {key}: grid prior scale {value} ")


def test_fit_on_huge_estimates_is_clean_error(tmp_path, capsys):
    # finite estimates of 1e160 against SEs of 1 overflow y'Wy: one error
    # line that names the scale, no NaN weights and no numpy warning
    path = str(tmp_path / "huge.csv")
    write_csv(path, [row for k in range(1, 5) for row in two_row_study(
        f"S{k}", 1e160 * k, 0.0, 1.0, 1.0)])
    code = main(["fit", "--input", path, "--output-dir", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: y'Wy overflows float64")
    assert "e+160" in err[0]


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("flag", ["--tau-prior", "--tau-gamma-prior"])
@pytest.mark.parametrize("command", ["fit", "verify"])
def test_bad_prior_scale_is_refused_up_front(tmp_path, capsys, command, flag,
                                             value):
    # one check, PriorSpec's, for every command and every bad value; verify
    # never builds a prior from the flag, so the refusal comes before any work
    code = main([command, "--input", str(tmp_path / "absent.csv"),
                 "--output-dir", str(tmp_path), flag, value])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "prior scales must be positive and finite" in err[0]
    with pytest.raises(DomainError, match="positive and finite"):
        RunConfig.from_sources(None, {flag[2:].replace("-", "_"): value})


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["report", "--seed", "-1", "--beta-a", "2", "--beta-b", "3"],
    ["verify", "--seed", "-99999"],
    ["verify", "--seed", "-1"],
], ids=["simulate", "report", "verify", "verify-1"])
def test_negative_seed_is_refused_up_front(tmp_path, capsys, argv):
    # numpy seeds only nonnegative integers; verify used to run its battery
    # from base seed 20240 + seed, so -1 ran and -99999 was a traceback
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: seed must be nonnegative, got {argv[2]}"]
    assert not out.exists()


@pytest.mark.parametrize("config, why", [
    ("estimators = cams,bim,foo\n", "unknown estimator 'foo'"),
    ("estimators = bim,cams\nparametrization = implicit\n",
     "unknown key 'parametrization'"),
    ("draws = 5\n", "unknown key 'draws'"),
], ids=["estimator", "parametrization", "draws"])
def test_fit_refuses_a_bad_config_before_any_fit(tmp_path, capsys, config,
                                                 why):
    # the config is checked whole, so no fit_*.json is written before the
    # bad value is reached
    path = write_scaled_quickstart(tmp_path, 1.0)
    out = tmp_path / "out"
    out.mkdir()
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config)
    code = main(["fit", "--config", str(config_path), "--input", path,
                 "--output-dir", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and why in err[0]
    assert not list(out.glob("fit_*.json"))


def test_fit_refuses_a_one_node_grid(tmp_path, capsys):
    # one node per axis would pin both heterogeneities at 0 without a word
    path = write_scaled_quickstart(tmp_path, 1.0)
    out = tmp_path / "out"
    code = main(["fit", "--input", path, "--output-dir", str(out),
                 "--grid-nodes", "1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "grid_nodes" in err[0]
    assert not list(out.glob("fit_*.json"))
    assert main(["fit", "--input", path, "--output-dir", str(out),
                 "--grid-nodes", "2"]) == EXIT_OK
    assert len(list(out.glob("fit_*.json"))) == 4


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_verify_refuses_a_battery_without_equivalence_checks(tmp_path, capsys,
                                                             seeds):
    out = tmp_path / "out"
    code = main(["verify", "--output-dir", str(out), "--verify-seeds", seeds])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (out / "verify.json").exists()


def test_parametrization_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(tmp_path / "absent.csv"),
              "--parametrization", "implicit"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parametrization" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_draws_flag_is_a_usage_error(tmp_path, capsys):
    # a Beta report always takes reporting.BETA_DRAWS draws
    with pytest.raises(SystemExit) as exc:
        main(["report", "--input", str(tmp_path / "absent.csv"),
              "--beta-a", "2", "--beta-b", "3", "--draws", "2000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --draws" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_parser_declares_each_flag_once():
    # one parser: the command, --config and one flag per config key
    parser = build_parser()
    declared = [a for a in parser._actions if a.dest != "help"]
    assert len(declared) == 2 + len(_CONFIG_SCHEMA) == 28
    flags = [s for a in declared for s in a.option_strings]
    assert len(flags) == len(set(flags)) == 1 + len(_CONFIG_SCHEMA)
    for command in _COMMANDS:
        args = parser.parse_args([command, "--seed", "3"])
        assert (args.command, args.seed, args.config) == (command, "3", None)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["transmogrify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("factor", [1e100, 1e150])
def test_fit_on_large_scale_returns_results(tmp_path, factor):
    # no pair covariance is inverted as a 2x2 block, so variances near
    # 1e300 neither overflow a determinant nor cancel
    path = write_scaled_quickstart(tmp_path, factor)
    assert main(["fit", "--input", path, "--output-dir", str(tmp_path)]) == EXIT_OK
    for estimator in ("cams", "bim", "bms", "overall"):
        blob = json.load(open(tmp_path / f"fit_{estimator}.json"))
        values = [v for s in blob["summaries"].values() for v in s.values()]
        assert values and all(math.isfinite(v) for v in values), estimator


def test_fit_hashes_its_dataset_once(tmp_path, monkeypatch):
    import camsmeta.model_core as model_core
    calls = []

    def counting_sha256(data):
        calls.append(len(data))
        return hashlib.sha256(data)

    monkeypatch.setattr(model_core, "hashlib",
                        types.SimpleNamespace(sha256=counting_sha256))
    out = str(tmp_path / "q")
    assert main(["simulate", "--sim-studies", "5", "--output-dir", out]) == EXIT_OK
    assert main(["fit", "--input", os.path.join(out, "simulated.csv"),
                 "--grid-nodes", "11", "--output-dir", out]) == EXIT_OK
    assert len(calls) == 1
    shas = {json.load(open(os.path.join(out, f"fit_{e}.json")))["provenance"]
            ["dataset_sha256"] for e in ("cams", "bim", "bms", "overall")}
    assert len(shas) == 1


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test dependency only: neither the import nor any command
    # may load it
    script = f"""
import os, sys
import camsmeta
from camsmeta.io_cli import main
out = {str(tmp_path)!r}
data = ["--input", os.path.join(out, "simulated.csv"), "--grid-nodes", "11",
        "--output-dir", out]
codes = [main(["simulate", "--sim-studies", "5", "--output-dir", out]),
         main(["fit"] + data), main(["report"] + data),
         main(["plotdata", "--svg", "true"] + data),
         main(["verify", "--verify-seeds", "1", "--output-dir", out])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(camsmeta.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0] []"


FUZZ_CELLS = ("", "x", "nan", "inf", "1e400", "-1", "0")
FUZZ_SCALED = ("contrast.esti", "contrast.se", "est", "se")
FUZZ_PREVALENCE = (
    (), ("--prevalence", "optimal_if"), ("--prevalence", "closeness_b"),
    ("--prevalence", "trial_weighted"), ("--prevalence", "point"),
    ("--prevalence", "external", "--prevalence-value", "0.4"),
    ("--prevalence", "point", "--prevalence-value", "1.5"),
    ("--prevalence-value", "nan"), ("--prevalence", "no_such_kind"),
    ("--prevalence", "beta", "--beta-a", "2", "--beta-b", "3"),
    ("--prevalence", "beta", "--beta-a", "0", "--beta-b", "3"),
    ("--beta-a", "inf", "--beta-b", "1"),
)


def fuzz_table(rng, header, rows):
    """The CSV table (header, rows) under one random mutation."""
    header, rows = list(header), [list(r) for r in rows]
    i = int(rng.integers(len(rows)))
    kind = int(rng.integers(8))
    if kind == 0:    # a bad cell
        col = int(rng.integers(len(header)))
        rows[i][col:col + 1] = [str(rng.choice(FUZZ_CELLS))]
    elif kind == 1:  # a short or a long row
        rows[i] = (rows[i][:rng.integers(len(header))] if rng.random() < 0.5
                   else rows[i] + ["1"] * int(rng.integers(1, 3)))
    elif kind == 2:  # a blank line
        rows.insert(i, [])
    elif kind == 3:  # a duplicated row
        rows.insert(i, list(rows[rng.integers(len(rows))]))
    elif kind == 4:  # a duplicated header
        rows.insert(i, list(header))
    elif kind in (5, 6):  # a dropped or a renamed column
        col = int(rng.integers(len(header)))
        if kind == 5:
            header.pop(col)
            for row in rows:
                del row[col:col + 1]
        else:
            header[col] += "_renamed"
    else:            # estimates and standard errors times 10^k
        factor = 10.0 ** int(rng.integers(-300, 301))
        for col in [header.index(n) for n in FUZZ_SCALED if n in header]:
            for row in rows:
                try:
                    row[col] = repr(float(row[col]) * factor)
                except (IndexError, ValueError):
                    pass  # a cell an earlier mutation removed or broke
    return header, rows


def fuzz_json_leaves(blob):
    """Every number in a parsed JSON value, and every summary dict."""
    if isinstance(blob, dict):
        if {"median", "lower", "upper"} <= blob.keys():
            yield "summary", blob
        for value in blob.values():
            yield from fuzz_json_leaves(value)
    elif isinstance(blob, list):
        for value in blob:
            yield from fuzz_json_leaves(value)
    elif isinstance(blob, float):
        yield "number", blob


def test_cli_contract_under_fuzzed_input(tmp_path, capsys):
    # every run on a mutated quick-start CSV either writes finite, ordered
    # results (exit 0), prints exactly one error line (exit 1), or is an
    # argument error (exit 2); anything else escapes as an exception
    data = simulate(SimScenario(n_studies=3, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=1.0, seed=1))
    base = str(tmp_path / "base.csv")
    save_csv(data, base)
    with open(base) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    rng = np.random.default_rng(20240)
    path, out = str(tmp_path / "fuzz.csv"), str(tmp_path / "out")
    codes = {}
    for case in range(300):
        table = (header, rows)
        for _ in range(int(rng.integers(1, 3))):
            table = fuzz_table(rng, *table)
        with open(path, "w") as fh:
            fh.write("".join(",".join(r) + "\n" for r in [table[0], *table[1]]))
        flags = ("--input", path, "--output-dir", out, "--grid-nodes",
                 str(rng.choice((2, 3, 11)))) + FUZZ_PREVALENCE[
                     rng.integers(len(FUZZ_PREVALENCE))]
        for command in ("fit", "report", "plotdata"):
            shutil.rmtree(out, ignore_errors=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CamsmetaWarning)
                try:
                    code = main([command, *flags])
                except SystemExit as exc:
                    code = exc.code
            err = capsys.readouterr().err
            where = (case, command, flags, table)
            codes[code] = codes.get(code, 0) + 1
            if code == EXIT_ERROR:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), where
                continue
            assert code in (EXIT_OK, 2), where
            if code == 2:
                continue
            for name in os.listdir(out):
                if not name.endswith(".json"):
                    continue
                with open(os.path.join(out, name)) as fh:
                    blob = json.load(fh)
                for kind, leaf in fuzz_json_leaves(blob):
                    if kind == "number":
                        assert math.isfinite(leaf), (where, name)
                    else:
                        assert (leaf["lower"] <= leaf["median"]
                                <= leaf["upper"]), (where, name, leaf)
    # the fuzz reaches both outcomes
    assert codes.get(EXIT_OK) and codes.get(EXIT_ERROR), codes


# hostile values of every config key; counts also take -1 and 1 (none above
# 3, so that no run builds a large grid or loops long), and laws bad strings
FLAG_FUZZ_VALUES = ("-1e-3", "0", "-0", "nan", "inf", "-inf", "1e308",
                    "5e-324", "x", "")
FLAG_FUZZ_COUNTS = ("-1", "1")
FLAG_FUZZ_LAWS = ("fixed", "fixed:", ":1", "fixed:-0", "fixed:0", "fixed:1",
                  "fixed:1e308", "beta:1", "beta:-0,1", "beta:nan,2",
                  "uniform:0.9,0.1", "lognormal:1e308,1",
                  "leverage:0.2,0.8,-0", "x:1,2")
# the keys verify reads and the keys every command checks up front; verify
# runs only these, since any other key reaches nothing in it but the parser
# and the checks, which the other commands run alike
FLAG_FUZZ_VERIFY = ("seed", "verify_seeds", "tau_prior", "tau_gamma_prior",
                    "grid_nodes", "estimators")


def test_every_flag_under_hostile_values(tmp_path, capsys, monkeypatch):
    # each config key with each hostile value, on top of base flags that make
    # every key reach the code that reads it, through each command: exit 0,
    # 2 or 3, or exit 1 with exactly one error line; any other warning than
    # a CamsmetaWarning is an error
    monkeypatch.chdir(tmp_path)  # hostile output paths land here
    data = str(tmp_path / "data.csv")
    save_csv(simulate(SimScenario(n_studies=3, gamma=0.3, tau=0.1,
                                  tau_gamma=0.1, uisd=1.0, seed=1)), data)
    base = ("--input", data, "--output-dir", "out", "--grid-nodes", "3",
            "--verify-seeds", "1", "--sim-studies", "3",
            "--prevalence-value", "0.4", "--beta-a", "2", "--beta-b", "3")
    cases, codes = 0, {}
    for key, (parser, default) in _CONFIG_SCHEMA.items():
        values = FLAG_FUZZ_VALUES + (FLAG_FUZZ_COUNTS if parser is int else ())
        values += FLAG_FUZZ_LAWS if isinstance(default, tuple) else ()
        for value in values:
            flags = base + (f"--{key.replace('_', '-')}", value)
            for command in _COMMANDS:
                if command == "verify" and key not in FLAG_FUZZ_VERIFY:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    warnings.simplefilter("ignore", CamsmetaWarning)
                    try:
                        code = main([command, *flags])
                    except SystemExit as exc:
                        code = exc.code
                err = capsys.readouterr().err
                cases += 1
                codes[code] = codes.get(code, 0) + 1
                if code == EXIT_ERROR:
                    lines = err.splitlines()
                    assert len(lines) == 1 and lines[0].startswith(
                        "error: "), (command, key, value, err)
                else:
                    assert code in (EXIT_OK, 2, EXIT_VERIFY_FAIL), (
                        command, key, value, code)
    # the loop ran its cases (1 250 today), and both outcomes occur
    assert cases > 1000 and codes.get(EXIT_OK) and codes.get(EXIT_ERROR), codes
