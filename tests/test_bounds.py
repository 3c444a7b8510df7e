import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from cvbounds import bounds
from cvbounds.bounds import (
    BoundQuery,
    InfeasibleCiError,
    bound_abs_large,
    bound_abs_small,
    bound_holdout,
    bound_kfold_combined,
    bound_kfold_improved,
    bound_large_lower,
    bound_large_upper,
    bound_sym_combined,
    confidence_interval_search,
    estimation_curve,
    evaluate_procedure,
    l1_bound_chained,
    l1_bound_large,
    l1_bound_small,
    log_ratio_b_sym_over_b_hold,
    log_ratio_v_kfold_over_v_sym,
    optimal_split_l1,
)


def q(n, p, eps, vc, **kw):
    return BoundQuery(n=n, p=p, eps=eps, vc=vc, **kw)


def check_term(lib_linear, lib_log, ref_log):
    assert oracles.close_log(lib_log, ref_log)
    ref_linear = mp.exp(ref_log)
    if 1e-290 < abs(float(ref_linear)) < 1e290:
        assert oracles.close_linear(lib_linear, ref_linear)


def test_query_validation():
    with pytest.raises(ValueError):
        q(1, 0.5, 0.1, 1).validate()
    with pytest.raises(ValueError):
        q(10, 0.15, 0.1, 1).validate()  # np not integer
    with pytest.raises(ValueError):
        q(10, 0.0, 0.1, 1).validate()
    with pytest.raises(ValueError):
        q(10, 0.5, 0.0, 1).validate()
    with pytest.raises(ValueError):
        q(10, 0.5, 0.1, 0).validate()
    q(10, 0.5, 0.1, 1).validate()


def test_large_upper_formula_oracle():
    value = bound_large_upper(q(1000, 0.1, 0.5, 1))
    log_b, log_v = oracles.o_large_upper(1000, 0.1, 0.5, 1)
    check_term(value.b_term, value.log_b_term, log_b)
    check_term(value.v_term, value.log_v_term, log_v)
    assert value.total == value.b_term + value.v_term
    assert value.branch == "hoeffding"


def test_large_upper_underflows_to_zero_for_huge_eps():
    value = bound_large_upper(q(1000, 0.1, 10.0, 1))
    assert value.total == 0.0
    assert value.log_b_term < -700 and value.log_v_term < -700


def test_large_upper_v_term_decreases_in_p():
    v1 = bound_large_upper(q(1000, 0.1, 0.5, 1)).v_term
    v2 = bound_large_upper(q(1000, 0.2, 0.5, 1)).v_term
    assert v2 < v1


def test_large_lower_formula_oracle():
    got = bound_large_lower(q(500, 0.5, 0.3, 2))
    assert oracles.close_linear(got, mp.exp(oracles.o_large_lower(500, 0.3, 2)))


def test_large_lower_limit_and_monotonicity():
    # invariant eps > 0, so the eps -> 0 value is approached, not hit
    got = bound_large_lower(q(500, 0.5, 1e-12, 2))
    assert got == pytest.approx((2 * 500 + 1) ** 8, rel=1e-12)
    grid = [bound_large_lower(q(500, 0.5, e, 2)) for e in (0.1, 0.2, 0.4, 0.8)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_abs_large_formula_oracle():
    value = bound_abs_large(q(1000, 0.1, 0.5, 1))
    log_b, log_v = oracles.o_abs_large(1000, 0.1, 0.5, 1)
    check_term(value.b_term, value.log_b_term, log_b)
    check_term(value.v_term, value.log_v_term, log_v)
    # leading constant is the only difference from the one-sided form
    up = bound_large_upper(q(1000, 0.1, 0.5, 1))
    assert value.b_term == pytest.approx(up.b_term * 5 / 4, rel=1e-12)
    assert value.v_term == up.v_term


def test_abs_large_monotonicity_in_p():
    values = [bound_abs_large(q(1000, p, 0.5, 1)) for p in (0.1, 0.2, 0.3, 0.4)]
    bs = [v.b_term for v in values]
    vs = [v.v_term for v in values]
    assert all(a < b for a, b in zip(bs, bs[1:]))
    assert all(a > b for a, b in zip(vs, vs[1:]))


def test_l1_large_formula_oracle():
    got = l1_bound_large(10000, 0.1, 1)
    assert oracles.close_linear(got, oracles.o_l1_large(10000, 0.1, 1))


def test_l1_large_vanishes_for_large_n():
    grid = [l1_bound_large(n, 0.1, 1) for n in (10**3, 10**5, 10**8)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    assert grid[-1] < 0.01


def test_l1_large_second_term_at_two_test_points():
    lead = math.log(2 * 18 + 1) + 4
    assert l1_bound_large(20, 0.1, 1) == pytest.approx(
        10 * math.sqrt(lead / 18) + 5.0, rel=1e-15
    )


def test_abs_small_formula_oracle_loo_like():
    value = bound_abs_small(q(2000, 1 / 2000, 0.2, 1))
    log_b, log_v = oracles.o_abs_small(2000, 1 / 2000, 0.2, 1)
    check_term(value.b_term, value.log_b_term, log_b)
    check_term(value.v_term, value.log_v_term, log_v)
    assert math.isfinite(value.total)
    assert value.branch == "small-test"


def test_abs_small_strict_variant():
    loose = bound_abs_small(q(2000, 0.1, 0.2, 1))
    strict = bound_abs_small(q(2000, 0.1, 0.2, 1, strict_proposition=True))
    _, log_v_strict = oracles.o_abs_small(2000, 0.1, 0.2, 1, strict=True)
    check_term(strict.v_term, strict.log_v_term, log_v_strict)
    # the two printed factors differ by exactly 256
    assert loose.v_term == pytest.approx(strict.v_term * 256.0, rel=1e-12)


def test_abs_small_v_term_decreases_in_training_size():
    # v term depends on n(1-p) only; shrinking p grows it
    v_small_train = bound_abs_small(q(1000, 0.5, 0.2, 1)).v_term
    v_large_train = bound_abs_small(q(1000, 0.1, 0.2, 1)).v_term
    assert v_large_train < v_small_train


def test_abs_small_vacuous_at_tiny_eps_clamps():
    value = bound_abs_small(q(1000, 0.1, 1e-12, 1, clamp=True))
    assert value.v_term > 1.0
    assert value.total == 1.0


def test_l1_small_formula_oracle():
    got = l1_bound_small(5000, 0.2, 2)
    assert oracles.close_linear(got, oracles.o_l1_small(5000, 0.2, 2))


def test_l1_small_grows_with_vc_in_informative_regime():
    # increasing while the inner sqrt stays below e; vacuous far beyond
    grid = [l1_bound_small(100, 0.5, vc) for vc in range(1, 11)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert all(v > 0 for v in grid)


def test_l1_small_decreases_in_n():
    grid = [l1_bound_small(n, 0.2, 2) for n in (10**3, 10**4, 10**5)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_sym_combined_formula_oracle():
    value = bound_sym_combined(q(1000, 0.1, 0.3, 1))
    log_b, log_v_hoef, log_v_small = oracles.o_sym_combined(1000, 0.1, 0.3, 1)
    check_term(value.b_term, value.log_b_term, log_b)
    expected = min(log_v_hoef, log_v_small)
    check_term(value.v_term, value.log_v_term, expected)
    assert value.branch == ("hoeffding" if log_v_hoef <= log_v_small else "small-test")


def test_sym_combined_large_np_takes_hoeffding():
    assert bound_sym_combined(q(10000, 0.5, 0.5, 1)).branch == "hoeffding"


def test_sym_combined_loo_small_eps_branch():
    # with one test point the Hoeffding-type term is nearly 1; the strict
    # small-test factor undercuts it, the safe 16/eps factor does not
    strict = bound_sym_combined(q(2000, 1 / 2000, 0.1, 1, strict_proposition=True))
    assert strict.branch == "small-test"
    loose = bound_sym_combined(q(2000, 1 / 2000, 0.1, 1))
    assert loose.branch == "hoeffding"


def test_sym_combined_v_never_exceeds_either_branch():
    for eps in (0.05, 0.2, 0.8, 1.1):
        for p in (0.1, 0.25, 0.5):
            qq = q(1000, p, eps, 1)
            sym = bound_sym_combined(qq)
            assert sym.v_term <= bound_abs_large(qq).v_term * (1 + 1e-15)
            assert sym.v_term <= bound_abs_small(qq).v_term * (1 + 1e-15)
            assert sym.total <= bound_abs_small(qq).total * (1 + 1e-15)


def test_sym_combined_can_exceed_abs_large_total():
    # the combined form trades exponent 1/25 for 1/64 in its training
    # term, so for large eps it is NOT below the large-test bound
    qq = q(1000, 0.1, 1.1, 1)
    assert bound_sym_combined(qq).total > bound_abs_large(qq).total


def test_kfold_improved_formula_oracle():
    got = bound_kfold_improved(10000, 0.1, 0.2, 1)
    assert oracles.close_linear(got, mp.exp(oracles.o_kfold_improved(10000, 0.1, 0.2, 1)))


def test_kfold_improved_rejects_half_and_non_integer():
    with pytest.raises(ValueError):
        bound_kfold_improved(1000, 0.5, 0.2, 1)
    with pytest.raises(ValueError):
        bound_kfold_improved(1000, 0.3, 0.2, 1)


def test_kfold_improved_geometric_decay_at_fixed_test_size():
    # n*p pinned at 100: growing k shrinks the bound exponentially, with
    # a constant successive ratio below one
    values = [bound_kfold_improved(100 * k, 1.0 / k, 1.5, 1) for k in range(3, 13)]
    assert all(a > b for a, b in zip(values, values[1:]))
    ratios = [b / a for a, b in zip(values, values[1:])]
    expected = 2.0 * math.exp(
        -100 * 1.5**2 / (64 * (math.sqrt(math.log(2 * 201)) + 2))
    )
    for r in ratios:
        assert r == pytest.approx(expected, rel=1e-9)
    assert expected < 1.0


def test_kfold_combined_formula_oracle():
    value = bound_kfold_combined(q(5000, 0.2, 0.25, 2))
    log_b, v1, v2, v3 = oracles.o_kfold_combined(5000, 0.2, 0.25, 2)
    check_term(value.b_term, value.log_b_term, log_b)
    check_term(value.v_term, value.log_v_term, min(v1, v2, v3))


def test_kfold_combined_branch_tags_follow_argmin():
    value = bound_kfold_combined(q(5000, 0.2, 0.25, 2))
    _, v1, v2, v3 = oracles.o_kfold_combined(5000, 0.2, 0.25, 2)
    tags = {0: "hoeffding", 1: "small-test", 2: "improved"}
    ref = tags[min(range(3), key=lambda i: float((v1, v2, v3)[i]))]
    assert value.branch == ref


def test_kfold_combined_two_folds_matches_standalone_forms():
    qq = q(1000, 0.5, 0.4, 1)
    _, v1, v2, v3 = oracles.o_kfold_combined(1000, 0.5, 0.4, 1)
    assert oracles.close_log(
        math.log(bound_abs_large(qq).v_term), v1
    )  # Hoeffding branch at p=1/2
    assert oracles.close_log(math.log(bound_abs_small(qq).v_term), v2)
    value = bound_kfold_combined(qq)
    check_term(value.v_term, value.log_v_term, min(v1, v2, v3))


def test_kfold_combined_third_branch_is_doubled_improved_term():
    # identity: third branch = 2 * improved term at deviation eps/5
    for n, k in ((3000, 3), (10000, 10)):
        p = 1.0 / k
        _, _, _, v3 = oracles.o_kfold_combined(n, p, 1.0, 1)
        direct = 2.0 * bound_kfold_improved(n, p, 1.0 / 5.0, 1)
        assert oracles.close_log(math.log(direct), v3, tol=1e-9)


def test_kfold_combined_improved_branch_wins_for_large_eps():
    # at k=10, n=10^4 the improved tail term undercuts the small-test
    # term once eps is large; at small eps the Hoeffding term rules
    big = bound_kfold_combined(q(10000, 0.1, 3.0, 1))
    _, v1, v2, v3 = oracles.o_kfold_combined(10000, 0.1, 3.0, 1)
    assert float(v3) < float(v2)
    assert big.branch == ("improved" if v3 < v1 else "hoeffding")
    small = bound_kfold_combined(q(10000, 0.1, 0.1, 1))
    assert small.branch == "hoeffding"


def test_kfold_combined_rejects_non_fold_p():
    with pytest.raises(ValueError):
        bound_kfold_combined(q(1000, 0.3, 0.2, 1))


def test_holdout_formula_oracle():
    value = bound_holdout(q(2000, 0.25, 0.2, 1))
    log_b, log_v = oracles.o_holdout(2000, 0.25, 0.2, 1)
    check_term(value.b_term, value.log_b_term, log_b)
    check_term(value.v_term, value.log_v_term, log_v)


def test_holdout_v_term_stuck_at_fixed_test_count():
    vs = [bound_holdout(q(n, 100.0 / n, 0.2, 1)).v_term for n in (10**3, 10**4, 10**5)]
    assert vs[0] == pytest.approx(vs[1], rel=1e-12)
    assert vs[1] == pytest.approx(vs[2], rel=1e-12)
    assert vs[0] > 0.1  # genuinely non-vanishing


def test_b_ratio_sym_over_holdout_falls_to_zero():
    logs = [log_ratio_b_sym_over_b_hold(n, 0.1, 0.1, 1) for n in (10**3, 10**4, 10**5)]
    assert all(a > b for a, b in zip(logs, logs[1:]))
    assert logs[-1] < -50
    for n, lg in zip((10**3, 10**4, 10**5), logs):
        assert oracles.close_log(lg, oracles.o_ratio_b(n, 0.1, 0.1, 1))


def test_v_ratio_kfold_over_sym_falls_at_fixed_test_size():
    logs = [
        log_ratio_v_kfold_over_v_sym(n, 100.0 / n, 1.5, 1)
        for n in (10**3, 10**4, 10**5)
    ]
    assert all(a > b for a, b in zip(logs, logs[1:]))
    for n, lg in zip((10**3, 10**4, 10**5), logs):
        assert oracles.close_log(lg, oracles.o_ratio_v(n, 100.0 / n, 1.5, 1))
    with pytest.raises(ValueError):
        log_ratio_v_kfold_over_v_sym(1000, 0.5, 1.5, 1)


def test_evaluate_procedure_dispatch():
    qq = q(1000, 0.1, 0.3, 1, procedure="holdout")
    assert evaluate_procedure(qq) == bound_holdout(qq)
    with pytest.raises(ValueError):
        evaluate_procedure(q(1000, 0.1, 0.3, 1, procedure="mystery"))


PROBABILITY = ["symmetric-large", "symmetric-small", "symmetric-combined", "kfold", "holdout"]


def test_evaluate_procedure_refuses_expected_deviation_bounds():
    with pytest.raises(ValueError, match="probability procedure is needed") as err:
        evaluate_procedure(q(1000, 0.1, 0.3, 1, procedure="l1-large"))
    assert all(name in str(err.value) for name in PROBABILITY)
    with pytest.raises(ValueError, match="unknown procedure"):
        bounds.procedure_entry("mystery")


def test_registry_values_match_direct_evaluators():
    direct = {
        "symmetric-large": bound_abs_large,
        "symmetric-small": bound_abs_small,
        "symmetric-combined": bound_sym_combined,
        "kfold": bound_kfold_combined,
        "holdout": bound_holdout,
    }
    assert [name for name, e in bounds.REGISTRY.items() if e.reads_eps] == list(direct)
    for name, fn in direct.items():
        for strict in (False, True):
            qq = q(1000, 0.2, 0.3, 2, clamp=True, strict_proposition=strict)
            entry = bounds.REGISTRY[name]
            assert entry.value(1000, 0.2, 0.3, 2, True, strict) == fn(qq)
            assert evaluate_procedure(q(1000, 0.2, 0.3, 2, procedure=name)) == fn(q(1000, 0.2, 0.3, 2))
    l1 = {
        "l1-large": l1_bound_large(1000, 0.2, 2),
        "l1-small": l1_bound_small(1000, 0.2, 2),
        "l1-chained": l1_bound_chained(1000, 0.2, 2, 3.0),
    }
    for name, total in l1.items():
        value = bounds.REGISTRY[name].value(1000, 0.2, None, 2, c=3.0)
        assert value.total == total and value.branch == "l1"


def test_registry_reads_match_what_each_bound_uses():
    for name in PROBABILITY:
        entry = bounds.REGISTRY[name]
        plain = entry.value(1000, 0.1, 0.3, 1)
        strict = entry.value(1000, 0.1, 0.3, 1, strict_proposition=True)
        assert (plain != strict) == entry.reads_strict, name
        assert entry.value(1000, 0.1, 0.3, 1, c=7.0) == plain
    chained = bounds.REGISTRY["l1-chained"]
    assert chained.value(1000, 0.1, None, 1, c=1.0) != chained.value(1000, 0.1, None, 1, c=2.0)
    for name in ("l1-large", "l1-small"):
        entry = bounds.REGISTRY[name]
        assert not entry.reads_c and not entry.reads_eps
        assert entry.value(1000, 0.1, None, 1, c=1.0) == entry.value(1000, 0.1, 5.0, 1, c=2.0)


@pytest.mark.parametrize("procedure", PROBABILITY)
def test_curve_without_eps_is_a_value_error(procedure):
    with pytest.raises(ValueError, match="needs eps"):
        estimation_curve(100, None, 1, procedure)


def test_improved_kfold_term_has_one_admissibility_check():
    bad = [
        (1000, 0.1, -0.5, 1), (1000, 0.1, 0.0, 1), (1000, 0.1, 0.5, 0),
        (1, 0.1, 0.5, 1), (1000, 0.5, 0.5, 1), (1000, 0.3, 0.5, 1),
        (1000, 0.1, -0.5, 0),
    ]
    for args in bad:
        assert bounds.improved_kfold_folds(*args) is None, args
        with pytest.raises(ValueError):
            bound_kfold_improved(*args)
        with pytest.raises(ValueError):
            log_ratio_v_kfold_over_v_sym(*args)
    assert bounds.improved_kfold_folds(1000, 0.1, 0.5, 1) == 10
    assert bounds.improved_kfold_folds(999, 1.0 / 3.0, 0.5, 1) == 3


def test_improved_exponent_constants_are_named_and_distinct():
    # branch 3 of the k-fold bound is the standalone term at eps/5, doubled
    n, p, k, eps = 3000, 1.0 / 3.0, 3, 1.0
    log_in_combined = bounds._log_improved(n, p, k, eps, 1, bounds.IMPROVED_IN_COMBINED)
    log_standalone = bounds._log_improved(n, p, k, eps / 5.0, 1, bounds.IMPROVED_STANDALONE)
    assert log_in_combined == pytest.approx(log_standalone + math.log(2.0), rel=1e-12)
    assert bounds.IMPROVED_STANDALONE != bounds.IMPROVED_IN_COMBINED


def test_curve_values_match_pointwise_calls():
    curve = estimation_curve(1000, 0.3, 1, "symmetric-combined", p_grid=[0.1, 0.2, 0.5])
    assert [pt.p for pt in curve.points] == [0.1, 0.2, 0.5]
    for pt in curve.points:
        direct = bound_sym_combined(q(1000, pt.p, 0.3, 1))
        assert pt.value == direct


def test_curve_transition_strict_variant():
    curve = estimation_curve(
        10000, 0.1, 1, "symmetric-combined", strict_proposition=True
    )
    assert len(curve.transitions) >= 1
    tags = {t.branch_before for t in curve.transitions} | {
        t.branch_after for t in curve.transitions
    }
    assert tags <= {"hoeffding", "small-test"}


def test_curve_transition_default_variant_larger_eps():
    quiet = estimation_curve(10000, 0.1, 1, "symmetric-combined")
    assert len(quiet.transitions) == 0
    loud = estimation_curve(10000, 0.7, 1, "symmetric-combined")
    assert len(loud.transitions) >= 1


def test_curve_single_branch_zero_transitions():
    curve = estimation_curve(1000, 0.3, 1, "holdout", p_grid=[0.1, 0.2, 0.5])
    assert curve.transitions == ()
    assert all(pt.value.branch == "hoeffding" for pt in curve.points)


def test_curve_snapping_and_dropping():
    curve = estimation_curve(
        100, 0.3, 1, "symmetric-combined", p_grid=[0.005, 0.123, 1 / 3, 0.5, 1.0]
    )
    assert [pt.p for pt in curve.points] == [0.12, 0.33, 0.5]
    assert dict(curve.snapped) == {0.123: 0.12, 1 / 3: 0.33}
    assert set(curve.dropped) == {0.005, 1.0}


def test_curve_kfold_grid_keeps_divisors_only():
    curve = estimation_curve(100, 0.3, 1, "kfold", p_grid=[1 / 3, 0.25, 0.2])
    assert [pt.p for pt in curve.points] == [0.25, 0.2]
    assert curve.dropped == (1 / 3,)


def test_curve_default_grid_dedupes():
    curve = estimation_curve(100, 0.3, 1, "symmetric-combined")
    ps = [pt.p for pt in curve.points]
    assert len(ps) == len(set(ps)) == 50
    assert ps[0] == 0.01


def test_curve_l1_chained_zero_c():
    curve = estimation_curve(1000, None, 1, "l1-chained", p_grid=[0.1, 0.2], c=0.0)
    for pt in curve.points:
        assert pt.value.b_term == 0.0
        assert pt.value.total == pytest.approx(
            2 * math.sqrt(6 / (1000 * pt.p)), rel=1e-12
        )
        assert pt.value.branch == "l1"


def test_l1_chained_formula_oracle():
    got = l1_bound_chained(10**4, 0.1, 1, 1.0)
    assert oracles.close_linear(got, oracles.o_l1_chained(10**4, 0.1, 1, 1.0))
    assert l1_bound_chained(100, 0.5, 1, 0.0) == pytest.approx(
        2 * math.sqrt(6 / 50), rel=1e-15
    )
    with pytest.raises(ValueError):
        l1_bound_chained(100, 0.5, 1, -1.0)


def test_chained_split_sits_within_one_grid_step_of_argmin():
    # closed form vs direct grid minimization on the admissible grid
    split = optimal_split_l1(5, 1, c=1.0, mode="chained")
    grid = [0.2, 0.4, 0.6, 0.8]
    values = [l1_bound_chained(5, p, 1, 1.0) for p in grid]
    argmin = grid[values.index(min(values))]
    assert abs(split.p - argmin) <= 0.2 + 1e-12


def test_optimal_split_chained_unit_inner_term():
    c = math.sqrt(2 * math.sqrt(6))  # c^2 vc = 2 sqrt 6
    split = optimal_split_l1(1000, 1, c=c, mode="chained")
    assert split.p_raw == pytest.approx(0.5, rel=1e-12)
    assert split.p == 0.5
    assert split.snap == "exact"


def test_optimal_split_computable_oracle():
    split = optimal_split_l1(5000, 2)
    ref = oracles.o_split_raw(5000, 2, None, "computable")
    assert oracles.close_linear(split.p_raw, ref)
    assert abs(split.p - split.p_raw) <= 0.5 / 5000 + 1e-12
    assert split.snap in ("down", "up", "exact")
    assert split.mode == "computable"


def test_optimal_split_decreases_with_vc():
    raws = [optimal_split_l1(5000, vc).p_raw for vc in range(1, 11)]
    assert all(a > b for a, b in zip(raws, raws[1:]))
    snapped = [optimal_split_l1(5000, vc).p for vc in range(1, 11)]
    assert all(a > b for a, b in zip(snapped, snapped[1:]))


def test_optimal_split_validation():
    with pytest.raises(ValueError):
        optimal_split_l1(5000, 1, mode="chained")  # missing c
    with pytest.raises(ValueError):
        optimal_split_l1(5000, 1, mode="wild")
    with pytest.raises(ValueError):
        optimal_split_l1(1, 1)


def test_ci_alpha_at_least_one_takes_smallest_eps():
    res = confidence_interval_search(1000, 1, alpha=1.0)
    assert res.eps_star == 0.05
    assert res.p_star == 0.1  # smallest grid p wins the tie


def test_ci_selects_ten_percent_split():
    res = confidence_interval_search(1000, 1, alpha=0.05)
    assert (res.eps_star, res.p_star) == (1.6, 0.1)
    assert res.achieved_bound <= 0.05
    res5k = confidence_interval_search(5000, 1, alpha=0.05)
    assert (res5k.eps_star, res5k.p_star) == (0.8, 0.1)


def test_ci_monotone_in_eps_grid():
    small = confidence_interval_search(
        2000, 1, alpha=0.05, eps_grid=[0.5, 1.0, 1.5, 2.0]
    )
    wide = confidence_interval_search(
        2000, 1, alpha=0.05, eps_grid=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    )
    assert wide.eps_star <= small.eps_star


def test_ci_infeasible_raises():
    with pytest.raises(InfeasibleCiError):
        confidence_interval_search(100, 1, alpha=1e-12, eps_grid=[0.05])
    with pytest.raises(ValueError):
        confidence_interval_search(1000, 1, alpha=-0.1)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2**20))
def test_bound_values_nonnegative_and_clamp(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(50, 50001)
    m = rng.randrange(1, n)
    p = m / n
    eps = rng.uniform(0.01, 3.0)
    vc = rng.randrange(1, 6)
    procedure = rng.choice(
        ["symmetric-large", "symmetric-small", "symmetric-combined", "holdout"]
    )
    plain = evaluate_procedure(q(n, p, eps, vc, procedure=procedure))
    clamped = evaluate_procedure(q(n, p, eps, vc, procedure=procedure, clamp=True))
    assert plain.b_term >= 0 and plain.v_term >= 0
    assert plain.total == plain.b_term + plain.v_term
    assert 0 <= clamped.total <= 1
    assert clamped.total == min(1.0, plain.total)
    assert plain.branch in ("hoeffding", "small-test", "improved")


def test_training_term_grows_and_hoeffding_term_falls_in_p():
    # the trade-off that motivates the whole optimization, at formula level
    grid = [m / 1000 for m in range(100, 901, 100)]
    for op in (bound_large_upper, bound_abs_large, bound_abs_small, bound_sym_combined):
        values = [op(q(1000, p, 0.5, 1)) for p in grid]
        bs = [v.b_term for v in values]
        assert all(a < b for a, b in zip(bs, bs[1:])), op.__name__
    hoef_ops = (bound_large_upper, bound_abs_large, bound_holdout)
    for op in hoef_ops:
        vs = [op(q(1000, p, 0.5, 1)).v_term for p in grid]
        assert all(a > b for a, b in zip(vs, vs[1:])), op.__name__


def test_kfold_training_term_grows_in_p():
    ks = [10, 5, 4, 2]
    values = [bound_kfold_combined(q(1000, 1.0 / k, 0.5, 1)) for k in ks]
    bs = [v.b_term for v in values]
    assert all(a < b for a, b in zip(bs, bs[1:]))
