import json
import math
import os

import numpy as np
import pytest

from camsmeta.errors import ContractError, ValidationWarning
from camsmeta.inference import GridSpec, PriorSpec, fit_bms, fit_cams
from camsmeta.io_cli import (EXIT_ERROR, EXIT_OK, EXIT_VERIFY_FAIL, RunConfig,
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
        RunConfig.from_sources(None, {"draws": "many"})
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
        "prevalence_value": "0.3", "beta_a": "2", "beta_b": "5",
        "draws": "2000"})
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


@pytest.mark.parametrize("kind", STRATEGY_KINDS + ("beta",))
def test_report_configured_is_its_table_entry(tmp_path, kind):
    path = make_input(tmp_path)
    out = str(tmp_path / "rep")
    cfg = RunConfig.from_sources(None, {
        "input": path, "output_dir": out, "grid_nodes": "21",
        "prevalence": kind, "prevalence_value": "0.3", "beta_a": "2",
        "beta_b": "5", "draws": "2000", "seed": "3"})
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
])
def test_simulate_rejects_malformed_laws(tmp_path, capsys, flag, law, why):
    out = str(tmp_path / "sim")
    assert main(["simulate", flag, law, "--output-dir", out]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "simulated.csv"))


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
