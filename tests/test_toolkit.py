import math

import numpy as np
import pytest
from mpmath import mp

import oracles
from cvbounds import toolkit
from cvbounds.bounds import l1_bound_large
from cvbounds.toolkit import (
    KAPPA_PROOF,
    KAPPA_STATEMENT,
    LAPLACE_CONSTANT,
    TailSpec,
    VERIFIERS,
    chernoff_sum,
    expectation_from_pareto_tail,
    expectation_from_subgaussian_tail,
    hoeffding_tail,
    laplace_bound_from_moments,
    log_chernoff_sum,
    log_kfold_pipeline,
    log_kfold_proof_form,
    mcdiarmid_tail,
    reverse_markov_check,
    subgaussian_moment_gamma,
    vc_tail,
)


def test_hoeffding_unit_range_mean():
    assert hoeffding_tail([(0.0, 1.0)], 0.1, 100) == pytest.approx(
        math.exp(-2.0), rel=1e-12
    )
    assert hoeffding_tail([(0.0, 1.0)], 0.0, 100) == 1.0


def test_hoeffding_broadcast_matches_explicit_list():
    single = hoeffding_tail((0.0, 1.0), 0.07, 40)
    listed = hoeffding_tail([(0.0, 1.0)] * 40, 0.07)
    assert single == listed
    hetero = hoeffding_tail([(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)], 0.3)
    span2 = 1.0 + 4.0 + 4.0
    assert hetero == pytest.approx(math.exp(-2 * 9 * 0.09 / span2), rel=1e-12)


def test_hoeffding_validation():
    with pytest.raises(ValueError):
        hoeffding_tail([(0.0, 1.0), (0.5, 0.5)], 0.1)
    with pytest.raises(ValueError):
        hoeffding_tail([(0.0, 1.0)], -0.1, 10)
    with pytest.raises(ValueError):
        hoeffding_tail([(0.0, 1.0)] * 3, 0.1, 5)
    with pytest.raises(ValueError):
        hoeffding_tail([], 0.1)


def test_vc_tail_oracle_and_branches():
    assert oracles.close_log(
        math.log(vc_tail(100, 1, 0.5)), oracles.o_vc_tail(100, 1, 0.5)
    )
    # growth-function constant wins at small vc, entropy constant at large
    direct = 2.0 * (2 * 100 + 1) ** 1 * math.exp(-100 * 0.25 / 8)
    assert vc_tail(100, 1, 0.5) == pytest.approx(direct, rel=1e-12)
    alt = math.log(2.0) + 50 * math.log(2 * 100 * math.e / 50)
    assert math.log(vc_tail(100, 50, 0.5)) == pytest.approx(
        alt - 100 * 0.25 / 8, rel=1e-12
    )
    # entropy constant inadmissible below vc points
    small = 2.0 * (2 * 3 + 1) ** 5 * math.exp(-3 * 0.25 / 8)
    assert vc_tail(3, 5, 0.5) == pytest.approx(small, rel=1e-12)
    with pytest.raises(ValueError):
        vc_tail(0, 1, 0.5)
    with pytest.raises(ValueError):
        vc_tail(10, 1, -0.5)


def test_mcdiarmid_values():
    got = mcdiarmid_tail((0.1, 0.2, 0.3), 0.05)
    assert got == pytest.approx(math.exp(-2 * 0.0025 / 0.14), rel=1e-12)
    # equal weights 1/n recover the plain mean bound exp(-2 n eps^2)
    assert mcdiarmid_tail([1.0 / 50] * 50, 0.1) == pytest.approx(
        math.exp(-2 * 50 * 0.01), rel=1e-12
    )
    with pytest.raises(ValueError):
        mcdiarmid_tail([], 0.1)
    with pytest.raises(ValueError):
        mcdiarmid_tail([0.1, -0.2], 0.1)


def test_subgaussian_expectation_conversion():
    assert expectation_from_subgaussian_tail(1.0, 1.0) == pytest.approx(math.sqrt(2.0))
    assert expectation_from_subgaussian_tail(math.e**2, 4.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expectation_from_subgaussian_tail(0.5, 1.0)
    with pytest.raises(ValueError):
        expectation_from_subgaussian_tail(2.0, 0.0)


def test_subgaussian_expectation_rebuilds_l1_bound():
    # the published L1 form is exactly two applications of the conversion
    n, p, vc = 2000, 0.2, 2
    lead = math.log(2 * n * (1 - p) + 1) + 4.0
    train = expectation_from_subgaussian_tail(
        math.exp(vc * lead - 2.0), n * (1 - p) / 100.0
    )
    test = expectation_from_subgaussian_tail(1.0, n * p / 25.0)
    assert train + test == pytest.approx(l1_bound_large(n, p, vc), rel=1e-12)


def test_pareto_expectation_values():
    assert expectation_from_pareto_tail(1.0) == 1.0
    assert expectation_from_pareto_tail(1.5) == 1.0
    assert expectation_from_pareto_tail(1.0 / math.e) == pytest.approx(
        2.0 / math.e, rel=1e-15
    )
    assert expectation_from_pareto_tail(0.5) == pytest.approx(
        0.5 * (1 + math.log(2)), rel=1e-15
    )
    with pytest.raises(ValueError):
        expectation_from_pareto_tail(0.0)


def test_reverse_markov_two_point_equality():
    sample = np.array([-0.5, 0.5] * 500)
    lhs, rhs, holds = reverse_markov_check(sample, 0.5)
    assert lhs == 0.5
    assert rhs == pytest.approx(0.5, abs=0.01)
    assert holds


def test_reverse_markov_degenerate_zero_sample():
    lhs, rhs, holds = reverse_markov_check(np.zeros(100), 0.1)
    assert lhs == 0.0
    assert rhs >= 0.0
    assert holds


def test_reverse_markov_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        reverse_markov_check(np.clip(rng.normal(0.4, 0.01, 500), -1, 1), 0.2)
    with pytest.raises(ValueError):
        reverse_markov_check([0.0, 1.5], 0.2)
    with pytest.raises(ValueError):
        reverse_markov_check([0.5], 0.2)
    with pytest.raises(ValueError):
        reverse_markov_check([-0.1, 0.1], 0.0)


def test_moment_gamma_oracle_and_scaling():
    got = subgaussian_moment_gamma(0.2, 2.0)
    assert oracles.close_linear(got, oracles.o_moment_gamma(0.2, 2.0))
    assert subgaussian_moment_gamma(0.4, 7.0) == pytest.approx(
        4.0 * subgaussian_moment_gamma(0.2, 7.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        subgaussian_moment_gamma(0.2, 1.5)
    with pytest.raises(ValueError):
        subgaussian_moment_gamma(0.0, 3.0)


def test_kappa_variants_agree():
    assert KAPPA_STATEMENT == pytest.approx(KAPPA_PROOF, rel=1e-15)
    assert subgaussian_moment_gamma(0.3, 5.0, proof_form=True) == pytest.approx(
        subgaussian_moment_gamma(0.3, 5.0, proof_form=False), rel=1e-12
    )


def test_laplace_bound_values():
    # constant is sqrt2 e^(1/6); decimal expansion starts 1.670696...
    assert LAPLACE_CONSTANT == pytest.approx(1.6706959179, abs=1e-9)
    assert laplace_bound_from_moments(0.7, 0.0) == LAPLACE_CONSTANT
    assert laplace_bound_from_moments(0.7, 1.3) == laplace_bound_from_moments(0.7, -1.3)
    got = laplace_bound_from_moments(0.5, 0.8)
    assert oracles.close_linear(got, oracles.o_laplace(0.5, 0.8))
    with pytest.raises(ValueError):
        laplace_bound_from_moments(-0.1, 1.0)


def test_chernoff_sum_values():
    assert chernoff_sum(2.0, 1.0, 3, 0.0) == pytest.approx(8.0, rel=1e-12)
    assert chernoff_sum(1.0, 1.0, 1, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
    grid = [chernoff_sum(1.5, 0.5, 4, e) for e in (0.1, 0.4, 0.9)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    lg = log_chernoff_sum(LAPLACE_CONSTANT, math.e * 0.7, 10, 0.3)
    assert oracles.close_log(lg, oracles.o_chernoff_log(LAPLACE_CONSTANT, math.e * 0.7, 10, 0.3))
    with pytest.raises(ValueError):
        chernoff_sum(0.0, 1.0, 1, 0.1)
    with pytest.raises(ValueError):
        chernoff_sum(1.0, 1.0, 0, 0.1)


def test_pipeline_matches_printed_form():
    for p in (0.5, 0.25, 0.2, 0.1):
        for eps in (0.5, 1.0, 2.0):
            lhs = log_kfold_pipeline(1000, p, eps, 1)
            rhs = log_kfold_proof_form(1000, p, eps, 1)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    with pytest.raises(ValueError):
        log_kfold_pipeline(1000, 0.3, 0.5, 1)
    with pytest.raises(ValueError):
        log_kfold_pipeline(1001, 0.1, 0.5, 1)


@pytest.mark.parametrize(
    "n, p", [(1001, 0.1), (1000, 0.3), (5, 0.1), (1000, 0.0), (1000, 1.0)]
)
def test_both_kfold_chain_forms_refuse_the_same_arguments(n, p):
    with pytest.raises(ValueError):
        log_kfold_pipeline(n, p, 1.0, 1)
    with pytest.raises(ValueError):
        log_kfold_proof_form(n, p, 1.0, 1)


def test_tail_spec_validation():
    TailSpec(c=2.0, sigma2=0.3)
    TailSpec(c=0.5, sigma2=0.3, form="generic")
    with pytest.raises(ValueError):
        TailSpec(c=1.5, sigma2=0.3)
    with pytest.raises(ValueError):
        TailSpec(c=2.0, sigma2=0.0)
    with pytest.raises(ValueError):
        TailSpec(c=2.0, sigma2=0.3, form="magic")


def _holds_everywhere(report):
    assert set(report) == {"inequality", "params", "grid"}
    for entry in report["grid"]:
        assert set(entry) == {"eps", "empirical", "bound", "slack", "holds"}
        assert entry["holds"], entry
    return report


def test_verifier_registry_keys():
    assert set(VERIFIERS) == {
        "hoeffding", "vc", "mcdiarmid", "reverse-markov",
        "pareto", "moment-gamma", "pipeline",
    }


def test_verify_hoeffding_small_run():
    _holds_everywhere(toolkit.verify_hoeffding(n=50, reps=4000, seed=1))


def test_verify_vc_small_run():
    _holds_everywhere(toolkit.verify_vc(n=50, reps=300, seed=1))


def test_verify_mcdiarmid_small_run():
    _holds_everywhere(toolkit.verify_mcdiarmid(n=50, reps=4000, seed=1))


def test_verify_reverse_markov_small_run():
    _holds_everywhere(toolkit.verify_reverse_markov(reps=20000, seed=1))


def test_verify_pareto_exact_equality_case():
    report = _holds_everywhere(toolkit.verify_pareto())
    for entry in report["grid"]:
        if entry["eps"] < 1.0:
            assert abs(entry["empirical"] - entry["bound"]) <= 1e-8


def test_verify_moment_gamma_variants_recorded():
    report = _holds_everywhere(toolkit.verify_moment_gamma(q_max=6))
    assert report["params"]["tighter"] == "equal"
    proof = _holds_everywhere(toolkit.verify_moment_gamma(q_max=6, proof_form=True))
    assert proof["params"]["variant"] == "proof"


def test_verify_pipeline_identity():
    _holds_everywhere(toolkit.verify_pipeline())


def test_moment_chain_is_composed_of_toolkit_pieces():
    # chaining by hand: sigma^2=4/(np), c=2(2np+1)^vc, then Laplace+Chernoff
    n, p, vc = 1000, 0.2, 1
    sigma = 2.0 / math.sqrt(n * p)
    c = 2.0 * (2.0 * n * p + 1.0) ** vc
    gamma = subgaussian_moment_gamma(sigma, c)
    manual = log_chernoff_sum(LAPLACE_CONSTANT, math.e * gamma, round(1 / p), 0.8)
    assert manual == log_kfold_pipeline(n, p, 0.8, vc)
