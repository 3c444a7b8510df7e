import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvbounds import cv, harness, learners
from cvbounds.learners import ZERO_ONE, CLIPPED_ABSOLUTE, Dataset, HypothesisClass
from cvbounds.learners import SyntheticDistribution
from cvbounds.resampling import (
    make_custom,
    make_holdout,
    make_kfold,
    make_leave_v_out,
    make_loo,
)

THRESH = HypothesisClass.threshold()


def plan_atoms(plan):
    return [(v.bits, prob) for v, prob in plan.atoms]


def test_two_fold_hand_computation():
    # by hand: fold {3,4,5} fits the always-one predictor (1 error),
    # scoring 2/3 on fold {0,1,2}; fold {0,1,2} fits cut 0.25 (0 errors),
    # scoring 1/3 on {3,4,5}; average 1/2. Full-sample fit errs once.
    d = Dataset(
        np.array([0.1, 0.2, 0.3, 0.6, 0.7, 0.8]),
        np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0]),
    )
    plan = make_kfold(6, 2)
    est = cv.estimates(plan, d, THRESH, ZERO_ONE)
    assert est.r_cv == pytest.approx(0.5, abs=1e-15)
    assert est.r_hat_n == pytest.approx(1 / 6, abs=1e-15)
    assert est.r_tilde_n is None and est.r_bar is None


def test_realizable_folds_give_zero_estimate():
    x = np.array([0.1, 0.9, 0.2, 0.8, 0.15, 0.85, 0.25, 0.75])
    d = Dataset(x, (x >= 0.5).astype(np.float64))
    est = cv.estimates(make_kfold(8, 2), d, THRESH, ZERO_ONE)
    assert est.r_cv == 0.0
    assert est.r_hat_n == 0.0


def test_leave_two_out_matches_brute_force():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(42)))
    x = rng.random(6)
    y = (rng.random(6) < 0.5).astype(np.float64)
    d = Dataset(x, y)
    plan = make_leave_v_out(6, 2)
    assert plan.num_atoms == 15
    got = cv.cross_validate(plan, d, THRESH, ZERO_ONE)
    ref = oracles.brute_cv(plan_atoms(plan), x.tolist(), y.tolist())
    assert got == pytest.approx(ref, abs=1e-12)


def test_estimates_against_straight_line_oracle():
    dist = SyntheticDistribution(theta_star=0.5, eta=0.1)
    d = dist.sample(20, harness.trial_generator(7, 0))
    plan = make_kfold(20, 5)
    est = cv.estimates(plan, d, THRESH, ZERO_ONE, dist=dist)

    x, y = d.x.tolist(), d.y.tolist()
    t_full, e_full = oracles.brute_threshold_erm(x, y)
    ref_r_hat = e_full / 20
    ref_r_tilde = 0.1 + 0.8 * abs(t_full - 0.5)
    ref_r_cv = oracles.brute_cv(plan_atoms(plan), x, y)
    terms = []
    for bits, prob in plan_atoms(plan):
        train = [i for i, b in enumerate(bits) if b == 1]
        t_a, _ = oracles.brute_threshold_erm([x[i] for i in train], [y[i] for i in train])
        terms.append(prob * (0.1 + 0.8 * abs(t_a - 0.5)))
    ref_r_bar = math.fsum(terms)

    assert est.r_hat_n == pytest.approx(ref_r_hat, abs=1e-12)
    assert est.r_cv == pytest.approx(ref_r_cv, abs=1e-12)
    assert est.r_tilde_n == pytest.approx(ref_r_tilde, abs=1e-12)
    assert est.r_bar == pytest.approx(ref_r_bar, abs=1e-12)


def test_resubstitution_equals_full_mask_risk():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2)))
    x = rng.random(12)
    y = (rng.random(12) < 0.5).astype(np.float64)
    d = Dataset(x, y)
    t, errs = oracles.brute_threshold_erm(x.tolist(), y.tolist())
    assert cv.resubstitution(d, THRESH, ZERO_ONE) == errs / 12


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2**20))
def test_cv_never_below_resubstitution(seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n = int(rng.choice([4, 6, 8, 12]))
    eta = float(rng.choice([0.0, 0.1, 0.3]))
    dist = SyntheticDistribution(theta_star=float(rng.random()), eta=eta)
    d = dist.sample(n, rng)
    divisors = [k for k in range(2, n + 1) if n % k == 0]
    k = int(rng.choice(divisors))
    for plan in (make_kfold(n, k), make_loo(n)):
        assert cv.supports_exact_comparison(plan, THRESH, ZERO_ONE)
        assert cv.cv_at_least_resub_exact(plan, d, THRESH, ZERO_ONE)
        est = cv.estimates(plan, d, THRESH, ZERO_ONE)
        assert est.r_cv >= est.r_hat_n - 1e-12


def test_exact_lemma_check_on_nonuniform_plan():
    # dyadic mixture of three complementary-pair splits: symmetric, not
    # uniform, every weight an exact binary float, so the Fraction
    # fallback sees the ideal plan and the comparison must hold exactly
    atoms = [
        ((1, 1, 1, 1, 0, 0, 0, 0), 0.25),
        ((0, 0, 0, 0, 1, 1, 1, 1), 0.25),
        ((1, 0, 1, 0, 1, 0, 1, 0), 0.125),
        ((0, 1, 0, 1, 0, 1, 0, 1), 0.125),
        ((1, 1, 0, 0, 1, 1, 0, 0), 0.125),
        ((0, 0, 1, 1, 0, 0, 1, 1), 0.125),
    ]
    plan = make_custom(8, atoms)
    assert plan.symmetric() and not plan.uniform
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    for _ in range(20):
        d = Dataset(rng.random(8), (rng.random(8) < 0.5).astype(np.float64))
        assert cv.cv_at_least_resub_exact(plan, d, THRESH, ZERO_ONE)


def test_lemma_integer_shortcut_agrees_with_fraction_path():
    # dyadic uniform plans: every atom probability is an exact binary float,
    # so both paths decide the same exact rational inequality, ties included
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    seen = set()
    for plan in (make_kfold(16, 2), make_kfold(16, 4), make_kfold(16, 8), make_loo(16)):
        assert plan.uniform and plan.equal_test_sizes
        ts, a = plan.test_size, plan.num_atoms
        counts = rng.integers(0, ts + 1, size=(60, a))
        tie = 16 * counts.sum(axis=1) // (a * ts)
        full_errs = np.concatenate([tie - 1, tie, tie + 1]).clip(0, 16)
        counts = np.concatenate([counts, counts, counts])
        fast = cv.lemma_holds(plan, counts, full_errs)
        exact = [cv._lemma_fraction(plan, row, int(e)) for row, e in zip(counts, full_errs)]
        assert fast.tolist() == exact
        seen.update(exact)
    assert seen == {True, False}


UNEQUAL_PLAN_10 = (
    ((0, 1, 1, 1, 1, 1, 1, 1, 1, 1), 0.5),
    ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1), 0.5),
)


@pytest.mark.parametrize("kind", ["threshold", "interval"])
@pytest.mark.parametrize("plan_kind", ["kfold", "unequal"])
@pytest.mark.parametrize("bad", ["label", "feature"])
def test_estimator_rejects_data_outside_the_erm_domain(kind, plan_kind, bad):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(29)))
    x = rng.random(10)
    y = (rng.random(10) < 0.5).astype(np.float64)
    if bad == "label":
        y[0] = 0.5
    else:
        x = -0.5 + 2.0 * x
    if plan_kind == "kfold":
        plan = make_kfold(10, 5)
    else:
        plan = make_custom(10, UNEQUAL_PLAN_10, allow_unequal_test_sizes=True)
    cls = HypothesisClass(kind, 1 if kind == "threshold" else 2)
    with pytest.raises(ValueError):
        cv.cross_validate(plan, Dataset(x, y), cls, ZERO_ONE)


def test_plan_convexity_of_the_estimator():
    a = make_kfold(6, 2)
    b = make_leave_v_out(6, 3)
    lam = 0.5
    mixed = make_custom(
        6,
        [(v, lam * prob) for v, prob in a.atoms]
        + [(v, (1 - lam) * prob) for v, prob in b.atoms],
    )
    rng = np.random.Generator(np.random.Philox(key=np.uint64(8)))
    d = Dataset(rng.random(6), (rng.random(6) < 0.5).astype(np.float64))
    r_mixed = cv.cross_validate(mixed, d, THRESH, ZERO_ONE)
    r_a = cv.cross_validate(a, d, THRESH, ZERO_ONE)
    r_b = cv.cross_validate(b, d, THRESH, ZERO_ONE)
    assert r_mixed == pytest.approx(lam * r_a + (1 - lam) * r_b, abs=1e-12)


def test_permutation_symmetry():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(13)))
    x = rng.random(8)
    y = (rng.random(8) < 0.5).astype(np.float64)
    plan = make_kfold(8, 4)
    perm = rng.permutation(8)
    permuted_atoms = []
    for v, prob in plan.atoms:
        bits = [0] * 8
        for new_i, old_i in enumerate(perm):
            bits[new_i] = v.bits[old_i]
        permuted_atoms.append((tuple(bits), prob))
    plan_p = make_custom(8, permuted_atoms)
    r = cv.cross_validate(plan, Dataset(x, y), THRESH, ZERO_ONE)
    r_p = cv.cross_validate(plan_p, Dataset(x[perm], y[perm]), THRESH, ZERO_ONE)
    assert r == pytest.approx(r_p, abs=1e-12)


def test_montecarlo_lvo_converges_to_exhaustive():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(31)))
    dist = SyntheticDistribution(theta_star=0.4, eta=0.2)
    d = dist.sample(8, rng)
    exhaustive = make_leave_v_out(8, 2)
    risks = cv.atom_risks(exhaustive, d, THRESH, ZERO_ONE)
    r_exh = cv.cross_validate(exhaustive, d, THRESH, ZERO_ONE)
    m = 10**5
    mc = make_leave_v_out(8, 2, mode="montecarlo", m=m, seed=12)
    r_mc = cv.cross_validate(mc, d, THRESH, ZERO_ONE)
    sigma = float(np.std(risks))  # population std over subsets
    assert abs(r_mc - r_exh) <= 3.0 * sigma / math.sqrt(m) + 1e-12


def _per_atom_cv(plan, d, cls):
    from cvbounds.learners import empirical_risk, erm_fit
    from cvbounds.resampling import test_vector as _complement

    terms = []
    for v, prob in plan.atoms:
        phi = erm_fit(cls, v, d, ZERO_ONE)
        terms.append(prob * empirical_risk(phi, _complement(v), d, ZERO_ONE))
    return math.fsum(terms)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_interval_class_takes_batched_path(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(17)))
    x = rng.random(9)
    y = (rng.random(9) < 0.5).astype(np.float64)
    d = Dataset(x, y)
    cls = HypothesisClass.interval()
    plan = make_kfold(9, 3)
    want = _per_atom_cv(plan, d, cls)
    fits = _count_calls(monkeypatch, learners, "erm_fit")
    kernel = _count_calls(monkeypatch, learners, "_interval_erm")
    got = cv.cross_validate(plan, d, cls, ZERO_ONE)
    assert got == pytest.approx(want, abs=1e-15)
    # one kernel call on all three training sets, no per-atom fit
    assert fits == [] and [xs.shape for xs, _ in kernel] == [(3, 6)]


def test_unequal_test_sizes_fit_interval_atoms_one_by_one(monkeypatch):
    d = Dataset(np.array([0.1, 0.4, 0.6, 0.9]), np.array([0.0, 1.0, 1.0, 0.0]))
    cls = HypothesisClass.interval()
    plan = make_custom(
        4,
        [((0, 1, 1, 1), 0.25), ((0, 0, 1, 1), 0.5), ((1, 1, 0, 1), 0.25)],
        allow_unequal_test_sizes=True,
    )
    want = _per_atom_cv(plan, d, cls)
    fits = _count_calls(monkeypatch, learners, "erm_fit")
    assert cv.cross_validate(plan, d, cls, ZERO_ONE) == pytest.approx(want, abs=1e-15)
    assert len(fits) == plan.num_atoms


def test_holdout_supports_no_exact_comparison():
    plan = make_holdout(6, 0.5, test_indices=[3, 4, 5])
    assert not cv.supports_exact_comparison(plan, THRESH, ZERO_ONE)
    unequal = make_custom(
        4,
        [((0, 1, 1, 1), 0.5), ((0, 0, 1, 1), 0.5)],
        allow_unequal_test_sizes=True,
    )
    assert not cv.supports_exact_comparison(unequal, THRESH, ZERO_ONE)


def test_estimator_rejects_mismatched_inputs():
    d = Dataset(np.array([0.1, 0.9]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        cv.cross_validate(make_kfold(4, 2), d, THRESH, ZERO_ONE)
    with pytest.raises(ValueError):
        cv.cross_validate(make_loo(2), d, THRESH, CLIPPED_ABSOLUTE)


def test_atom_predictors_align_with_risks():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(23)))
    x = rng.random(10)
    y = (rng.random(10) < 0.5).astype(np.float64)
    d = Dataset(x, y)
    plan = make_loo(10)
    fits = cv.atom_predictors(plan, d, THRESH, ZERO_ONE)
    risks = cv.atom_risks(plan, d, THRESH, ZERO_ONE)
    assert len(fits) == plan.num_atoms
    for a, (v, _) in enumerate(plan.atoms):
        i = v.indices(0)[0]
        pred = float(fits[a].predict(np.array([x[i]]))[0])
        assert risks[a] == (1.0 if pred != y[i] else 0.0)


def test_batched_path_never_builds_binary_vectors():
    n = 60
    d = SyntheticDistribution(theta_star=0.3, eta=0.1).sample(n, harness.trial_generator(5, 0))
    plan = make_loo(n)
    cv.cross_validate(plan, d, THRESH, ZERO_ONE)
    assert "atoms" not in vars(plan)


def test_batched_interval_path_never_builds_binary_vectors():
    n = 60
    d = SyntheticDistribution(theta_star=0.3, eta=0.1).sample(n, harness.trial_generator(5, 0))
    plan = make_loo(n)
    cv.cross_validate(plan, d, HypothesisClass.interval(), ZERO_ONE)
    assert "atoms" not in vars(plan)
