import dataclasses
import json

import pytest

from cvbounds import bounds, cli, harness, toolkit
from cvbounds.harness import ExperimentConfig, PlanSpec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_csv_happy_path(capsys):
    code, out, err = run_cli(capsys, "bound", "--n", "1000", "--p", "0.1", "--eps", "0.3")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "procedure,n,p,eps,vc,b_term,v_term,total,branch"
    fields = lines[1].split(",")
    assert fields[:5] == ["symmetric-combined", "1000", "0.1", "0.3", "1"]
    assert 0.0 <= float(fields[7]) <= 1.0  # clamped by default
    assert fields[8] in ("hoeffding", "small-test")


def test_bound_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--n", "1000", "--k", "5", "--eps", "0.3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    q = bounds.BoundQuery(n=1000, p=0.2, eps=0.3, vc=1, clamp=True)
    value = bounds.bound_sym_combined(q)
    assert payload["p"] == 0.2
    assert payload["total"] == value.total
    assert payload["branch"] == value.branch
    assert payload["clamped"] is True


def test_bound_no_clamp_exceeds_one(capsys):
    base = ["bound", "--n", "100", "--p", "0.2", "--eps", "0.05", "--json"]
    _, out_clamped, _ = run_cli(capsys, *base)
    _, out_raw, _ = run_cli(capsys, *base, "--no-clamp")
    assert json.loads(out_clamped)["total"] == 1.0
    assert json.loads(out_raw)["total"] > 1.0


def test_bound_usage_errors(capsys):
    for argv in (
        ["bound", "--n", "100", "--eps", "0.3"],  # neither --p nor --k
        ["bound", "--n", "100", "--p", "0.2", "--k", "5", "--eps", "0.3"],
        ["bound", "--p", "0.2", "--eps", "0.3"],  # missing --n
        ["bound", "--n", "100", "--k", "1", "--eps", "0.3"],
        ["bound", "--n", "100", "--p", "0.2", "--eps", "0.3", "--procedure", "x"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("ERROR 1:")


def test_bound_reruns_byte_identical(capsys):
    argv = ("bound", "--n", "2000", "--p", "0.25", "--eps", "0.4", "--vc", "2")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_bound_vc_flag_changes_output(capsys):
    _, low, _ = run_cli(capsys, "bound", "--n", "500", "--p", "0.2", "--eps", "0.9")
    _, high, _ = run_cli(
        capsys, "bound", "--n", "500", "--p", "0.2", "--eps", "0.9", "--vc", "3"
    )
    assert low != high


def test_curve_csv_default_grid(capsys):
    code, out, _ = run_cli(capsys, "curve", "--n", "100", "--eps", "0.3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,B,V,total,branch"
    assert len(lines) == 1 + 50


def test_curve_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--n", "10000", "--eps", "0.1", "--json",
        "--strict-proposition",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"points", "transitions", "snapped", "dropped"}
    assert len(payload["transitions"]) >= 1  # strict variant switches branch


def test_curve_l1_needs_no_eps_but_probability_does(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--n", "100", "--procedure", "l1-chained", "--c", "0.5"
    )
    assert code == 0
    assert out.startswith("p,B,V,total,branch")
    code, _, err = run_cli(capsys, "curve", "--n", "100")
    assert code == 1 and "--eps" in err


def test_curve_l1_chained_rejects_negative_c(capsys):
    code, out, err = run_cli(
        capsys, "curve", "--n", "100", "--procedure", "l1-chained", "--c", "-5"
    )
    assert code == 1
    assert out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--procedure", "l1-small", "--eps", "0.3"), "--eps"),
        (("--procedure", "l1-large", "--strict-proposition"), "--strict-proposition"),
        (("--procedure", "l1-chained", "--c", "1", "--strict-proposition"), "--strict-proposition"),
        (("--procedure", "holdout", "--eps", "0.3", "--strict-proposition"), "--strict-proposition"),
        (("--procedure", "kfold", "--eps", "0.3", "--c", "2"), "--c"),
        (("--eps", "0.3", "--c", "2"), "--c"),
    ],
)
def test_curve_refuses_flags_its_procedure_does_not_read(capsys, argv, flag):
    code, out, err = run_cli(capsys, "curve", "--n", "100", *argv)
    assert code == 1 and out == ""
    assert err.startswith("ERROR 1:") and flag in err


def test_curve_accepts_flags_its_procedure_reads(capsys):
    for argv in (
        ("--procedure", "kfold", "--eps", "0.3", "--strict-proposition"),
        ("--procedure", "l1-chained", "--c", "2"),
    ):
        code, out, _ = run_cli(capsys, "curve", "--n", "100", *argv)
        assert code == 0 and out.startswith("p,B,V,total,branch")


@pytest.mark.parametrize("procedure", ["holdout", "symmetric-large"])
@pytest.mark.parametrize("verb", ["bound", "ci"])
def test_probability_verbs_refuse_strict_proposition_they_do_not_read(capsys, verb, procedure):
    extra = ("--p", "0.2", "--eps", "0.3") if verb == "bound" else ("--alpha", "0.05")
    argv = (verb, "--n", "1000", "--procedure", procedure, *extra)
    code, out, err = run_cli(capsys, *argv, "--strict-proposition")
    assert code == 1 and out == ""
    assert err.startswith("ERROR 1:") and "--strict-proposition" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize("verb", ["bound", "ci"])
def test_probability_verbs_accept_strict_proposition_where_read(capsys, verb):
    extra = ("--p", "0.2", "--eps", "0.3") if verb == "bound" else ("--alpha", "0.05")
    for procedure in ("symmetric-small", "symmetric-combined", "kfold"):
        argv = (verb, "--n", "1000", "--procedure", procedure, *extra, "--strict-proposition")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("procedure,")


@pytest.mark.parametrize("verb", ["bound", "ci"])
def test_probability_verbs_name_the_valid_procedures(capsys, verb):
    extra = ("--p", "0.2", "--eps", "0.3") if verb == "bound" else ("--alpha", "0.05")
    code, out, err = run_cli(capsys, verb, "--n", "1000", "--procedure", "l1-large", *extra)
    assert code == 1 and out == ""
    assert "probability procedure is needed" in err
    for name in ("symmetric-large", "symmetric-small", "symmetric-combined", "kfold", "holdout"):
        assert name in err


def test_split_csv_and_modes(capsys):
    code, out, _ = run_cli(capsys, "split", "--n", "5000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mode,n,vc,c,p_raw,p,snap"
    fields = lines[1].split(",")
    assert fields[0] == "computable"
    assert fields[3] == ""  # no c in computable mode
    split = bounds.optimal_split_l1(5000, 1)
    assert float(fields[4]) == split.p_raw
    code, out, _ = run_cli(capsys, "split", "--n", "5000", "--c", "1.0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "chained"
    assert payload["c"] == 1.0


def test_ci_happy_path(capsys):
    code, out, _ = run_cli(capsys, "ci", "--n", "1000", "--alpha", "0.05")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "procedure,n,vc,alpha,eps_star,p_star,achieved_bound"
    fields = lines[1].split(",")
    assert float(fields[4]) == 1.6
    assert float(fields[5]) == 0.1
    code, out, _ = run_cli(capsys, "ci", "--n", "5000", "--alpha", "0.05", "--json")
    payload = json.loads(out)
    assert (payload["eps_star"], payload["p_star"]) == (0.8, 0.1)
    assert payload["achieved_bound"] <= 0.05


def test_ci_infeasible_exit_two(capsys):
    code, _, err = run_cli(capsys, "ci", "--n", "100", "--alpha", "1e-09")
    assert code == 2
    assert err.startswith("ERROR 2:")


def test_simulate_small_run(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "20", "--trials", "30", "--seed", "3"
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == (
        "plan,p,eps,empirical_tail,slack,bound_total,bound_branch,lemma_violations"
    )
    assert all(line.startswith("kfold-5,") for line in lines[1:])
    _, again, _ = run_cli(capsys, "simulate", "--n", "20", "--trials", "30", "--seed", "3")
    assert again == out


def test_simulate_json_config_echo(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "20", "--trials", "10", "--json", "--vc", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["n"] == 20
    assert payload["config"]["trials"] == 10
    assert payload["config"]["class"]["vc"] == 2
    assert payload["config"]["grid_provenance"] == "artifact-default"


def test_simulate_config_file(capsys, tmp_path):
    cfg = ExperimentConfig(
        theta_star=0.5, eta=0.2, n=24, plans=(PlanSpec(kind="kfold", k=4),),
        trials=200, master_seed=9,
    )
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(path), "--trials", "15", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["n"] == 24
    assert payload["config"]["trials"] == 15  # flag overrides file
    assert payload["config"]["theta_star"] == 0.5


def test_simulate_flags_violations_exit_three(capsys, monkeypatch):
    cfg = ExperimentConfig(
        theta_star=0.3, eta=0.1, n=20, plans=(PlanSpec(kind="kfold", k=5),),
        trials=5, master_seed=0,
    )
    real = harness.run_experiment(cfg)
    doctored = dataclasses.replace(real, lemma_violations=(2,))
    monkeypatch.setattr(harness, "run_experiment", lambda _cfg: doctored)
    code, out, err = run_cli(capsys, "simulate", "--n", "20", "--trials", "5")
    assert code == 3
    assert err.startswith("ERROR 3:")
    assert "comparison-lemma" in err
    assert out  # report still emitted before the failure signal


def test_simulate_flags_tail_breach_exit_three(capsys, monkeypatch):
    cfg = ExperimentConfig(
        theta_star=0.3, eta=0.1, n=20, plans=(PlanSpec(kind="kfold", k=5),),
        trials=5, master_seed=0,
    )
    real = harness.run_experiment(cfg)
    rows = list(real.rows)
    rows[0] = dataclasses.replace(rows[0], empirical_tail=1.0, bound_total=0.1, slack=0.0)
    doctored = dataclasses.replace(real, rows=tuple(rows))
    monkeypatch.setattr(harness, "run_experiment", lambda _cfg: doctored)
    code, _, err = run_cli(capsys, "simulate", "--n", "20", "--trials", "5")
    assert code == 3
    assert "above bound" in err


def test_compare_flags_tail_breach_exit_three(capsys, monkeypatch):
    cfg = ExperimentConfig(
        theta_star=0.3, eta=0.1, n=20, plans=(PlanSpec(kind="kfold", k=5),),
        trials=5, master_seed=0,
    )
    real = harness.run_experiment(cfg)
    rows = list(real.rows)
    rows[0] = dataclasses.replace(rows[0], empirical_tail=1.0, bound_total=0.1, slack=0.0)
    doctored = dataclasses.replace(real, rows=tuple(rows))
    monkeypatch.setattr(harness, "run_experiment", lambda _cfg: doctored)
    code, out, err = run_cli(capsys, "compare", "--n", "20", "--k", "5", "--trials", "5")
    assert code == 3
    assert err.startswith("ERROR 3:")
    assert "above bound" in err
    assert "plan,p,eps,b_sym_over_b_hold" in out  # tables still emitted


def test_compare_two_tables(capsys):
    code, out, err = run_cli(
        capsys, "compare", "--n", "20", "--k", "5", "--trials", "10", "--seed", "2"
    )
    assert code == 0 and err == ""
    assert "plan,p,eps,empirical_tail" in out
    assert "plan,p,eps,b_sym_over_b_hold,v_kfold_over_v_sym" in out
    assert "lvo-4-exhaustive," in out
    assert "holdout-0.2," in out


def test_compare_json_and_bad_k(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--n", "20", "--k", "5", "--trials", "5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "l1", "ratios", "config"}
    code, _, err = run_cli(capsys, "compare", "--n", "20", "--k", "3", "--trials", "5")
    assert code == 1
    assert "divide" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "10", "--k", "0"),
        ("--n", "10", "--k", "1"),
        ("--n", "10", "--k", "-2"),
        ("--n", "0"),
        ("--n", "1", "--k", "1"),
    ],
)
def test_compare_refuses_small_n_and_k(capsys, argv):
    code, out, err = run_cli(capsys, "compare", *argv, "--trials", "5")
    assert code == 1 and out == ""
    assert err.startswith("ERROR 1:") and err.count("\n") == 1


def test_verify_single_inequality_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--procedure", "pareto")
    assert code == 0 and err == ""
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["inequality"] == "pareto-expectation"
    assert all(entry["holds"] for entry in reports[0]["grid"])


def test_verify_ignores_inapplicable_flags(capsys):
    # --n means nothing to the pareto check; it is filtered, not an error
    code, out, _ = run_cli(capsys, "verify", "--procedure", "pareto", "--n", "50")
    assert code == 0
    assert "pareto" in json.loads(out)[0]["inequality"]


def test_verify_pipeline_flags_forwarded(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--procedure", "pipeline", "--n", "500", "--p", "0.25"
    )
    assert code == 0
    report = json.loads(out)[0]
    assert report["params"]["n"] == 500
    assert report["params"]["p"] == 0.25


def test_verify_proof_form_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--procedure", "moment-gamma", "--gamma-proof-form"
    )
    assert code == 0
    assert json.loads(out)[0]["params"]["variant"] == "proof"


@pytest.mark.parametrize(
    "argv",
    [
        ("split", "--n", "1000", "--no-clamp"),
        ("simulate", "--n", "20", "--k", "5", "--trials", "10", "--strict-proposition"),
        ("bound", "--n", "1000", "--p", "0.1", "--eps", "0.3", "--gamma-proof-form"),
    ],
)
def test_verbs_refuse_switches_they_do_not_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ERROR 1:")


def test_verify_unknown_name(capsys):
    code, _, err = run_cli(capsys, "verify", "--procedure", "sharpe")
    assert code == 1
    assert err.startswith("ERROR 1:") and "unknown inequality" in err


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "2000", "--n", "50")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == len(toolkit.VERIFIERS)


def test_verify_failure_exit_three(capsys, monkeypatch):
    def broken(**kwargs):
        return {
            "inequality": "pareto-expectation",
            "params": {},
            "grid": [{"eps": 0.1, "empirical": 1.0, "bound": 0.0, "slack": 0.0,
                      "holds": False}],
        }

    monkeypatch.setitem(toolkit.VERIFIERS, "pareto", broken)
    code, out, err = run_cli(capsys, "verify", "--procedure", "pareto")
    assert code == 3
    assert err.startswith("ERROR 3:")
    assert out  # report emitted even when the check fails


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "bound.csv"
    code, out, _ = run_cli(
        capsys, "bound", "--n", "1000", "--p", "0.1", "--eps", "0.3",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, "bound", "--n", "1000", "--p", "0.1", "--eps", "0.3")
    assert target.read_text() == direct


def test_unknown_verb_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("ERROR 1:")
