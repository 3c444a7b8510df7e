import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cvbounds import bounds, cv, harness, learners, resampling
from cvbounds.harness import (
    DEFAULT_EPS_GRID,
    ExperimentConfig,
    PlanSpec,
    compare_procedures,
    run_experiment,
    run_trial,
    splitmix64,
    trial_generator,
    trial_key,
)
from cvbounds.learners import ZERO_ONE


def small_config(**overrides):
    base = dict(
        theta_star=0.3,
        eta=0.1,
        n=20,
        plans=(PlanSpec(kind="kfold", k=5), PlanSpec(kind="holdout", p=0.2)),
        trials=50,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_splitmix64_canonical_stream():
    # reference stream from seed 0: output i is mix(state + (i+1)*golden)
    golden = 0x9E3779B97F4A7C15
    assert splitmix64(golden) == 0xE220A8397B1DCDAF
    assert splitmix64(2 * golden) == 0x6E789E6AA1B965F4
    assert splitmix64(3 * golden) == 0x06C45D188009454F


def test_trial_key_frozen_vectors():
    assert trial_key(0, 0) == (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)
    assert trial_key(0, 1) == (0x06C45D188009454F, 0xF88BB8A8724C81EC)
    with pytest.raises(ValueError):
        trial_key(0, -1)


def test_trial_keys_distinct_across_trials_and_seeds():
    keys = {trial_key(5, t) for t in range(200)}
    assert len(keys) == 200
    assert trial_key(5, 3) != trial_key(6, 3)


def test_trial_generator_reproducible():
    a = trial_generator(11, 4).random(8)
    b = trial_generator(11, 4).random(8)
    assert np.array_equal(a, b)
    c = trial_generator(11, 5).random(8)
    assert not np.array_equal(a, c)


def test_run_trial_repeatable_and_aligned():
    cfg = small_config()
    rec1 = run_trial(cfg, 3)
    rec2 = run_trial(cfg, 3)
    assert rec1 == rec2
    assert rec1.trial_id == 3
    for est, dev in zip(rec1.estimates, rec1.deviations):
        assert dev[0] == abs(est.r_cv - est.r_tilde_n)
        assert dev[1] == est.r_cv - est.r_bar
        assert dev[2] == est.r_bar - est.r_tilde_n


def test_run_trial_builds_plans_once_per_config(monkeypatch):
    calls = []
    make_kfold = resampling.make_kfold

    def counted(*args, **kwargs):
        calls.append(args)
        return make_kfold(*args, **kwargs)

    monkeypatch.setattr(resampling, "make_kfold", counted)
    cfg = small_config()
    for t in range(5):
        run_trial(cfg, t)
    assert calls == [(20, 5)]


def test_run_trial_lemma_flags_by_symmetry():
    rec = run_trial(small_config(), 0)
    assert rec.lemma_ok[0] is True  # kfold plan, lemma applies and holds
    assert rec.lemma_ok[1] is None  # single split, out of scope


def test_run_trial_noise_free_resubstitution_is_zero():
    rec = run_trial(small_config(eta=0.0), 2)
    for est in rec.estimates:
        assert est.r_hat_n == 0.0


def test_run_experiment_deterministic():
    cfg = small_config(trials=30)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_run_experiment_matches_loop_oracle():
    cfg = small_config(
        trials=40,
        plans=(
            PlanSpec(kind="kfold", k=5),
            PlanSpec(kind="loo"),
            PlanSpec(kind="holdout", p=0.2),
        ),
    )
    report = run_experiment(cfg)
    plans = cfg.built_plans()
    devs = [[] for _ in plans]
    for t in range(cfg.trials):
        d = cfg.dist.sample(cfg.n, trial_generator(cfg.master_seed, t))
        x, y = d.x.tolist(), d.y.tolist()
        t_full, _ = oracles.brute_threshold_erm(x, y)
        r_tilde = learners.true_risk(learners.ThresholdPredictor(t_full), cfg.dist, ZERO_ONE)
        for devs_p, plan in zip(devs, plans):
            atoms = [(v.bits, prob) for v, prob in plan.atoms]
            devs_p.append(abs(oracles.brute_cv(atoms, x, y) - r_tilde))
    assert report.lemma_violations == (0, 0, 0)
    rows = iter(report.rows)
    for devs_p, l1 in zip(devs, report.l1_rows):
        for eps in cfg.eps_grid:
            row = next(rows)
            assert row.eps == eps
            tail_count = sum(1 for dev in devs_p if dev >= eps)
            assert round(row.empirical_tail * cfg.trials) == tail_count
        mean_dev = math.fsum(devs_p) / cfg.trials
        assert abs(l1.empirical_mean_abs_dev - mean_dev) <= 1e-12


def test_interval_class_rejected_before_any_work(monkeypatch):
    cfg = small_config(hyp_kind="interval")
    with pytest.raises(ValueError, match="closed form only for thresholds"):
        cfg.validate()

    def no_sampling(*args):
        raise AssertionError("sampling started before validation")

    monkeypatch.setattr(harness, "_batch_labels", no_sampling)
    with pytest.raises(ValueError, match="closed form only for thresholds"):
        run_experiment(cfg)


def test_report_tails_within_bounds_and_no_violations():
    cfg = small_config(n=50, trials=300, eps_grid=(0.1, 0.2, 0.4))
    report = run_experiment(cfg)
    assert report.lemma_violations == (0, 0)
    assert len(report.rows) == 2 * 3
    for row in report.rows:
        assert row.lemma_violations == 0
        assert 0.0 <= row.empirical_tail <= 1.0
        assert row.empirical_tail <= row.bound_total + row.slack
    for l1 in report.l1_rows:
        assert l1.empirical_mean_abs_dev >= 0.0
        assert l1.l1_bound_large > 0.0 and l1.l1_bound_small > 0.0


def test_doubling_trials_shrinks_slack():
    eps_grid = (0.05, 0.1)
    base = small_config(eta=0.3, trials=400, eps_grid=eps_grid)
    double = small_config(eta=0.3, trials=800, eps_grid=eps_grid)
    row4 = run_experiment(base).rows[0]
    row8 = run_experiment(double).rows[0]
    assert row4.slack > 0 and row8.slack > 0
    ratio = row8.slack / row4.slack
    assert 0.55 <= ratio <= 0.85  # about 1/sqrt(2) up to tail-rate noise


def test_csv_shape():
    report = run_experiment(small_config(trials=10, eps_grid=(0.1, 0.4)))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == (
        "plan,p,eps,empirical_tail,slack,bound_total,bound_branch,lemma_violations"
    )
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "kfold-5"
    assert float(first[1]) == 0.2


def test_report_json_payload():
    report = run_experiment(small_config(trials=10))
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "rows", "l1", "lemma_violations"}
    assert payload["config"]["master_seed"] == 7
    assert len(payload["rows"]) == 2 * len(DEFAULT_EPS_GRID)


def test_config_json_roundtrip():
    cfg = small_config(
        plans=(
            PlanSpec(kind="kfold", k=5),
            PlanSpec(kind="lvo", v=2, mode="montecarlo", m=30, seed=4),
            PlanSpec(kind="holdout", p=0.2, test_indices=(0, 3, 5, 6)),
        ),
        grid_provenance="hand-picked",
    )
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    # provenance defaults to user-config when absent from the payload
    data = json.loads(cfg.to_json())
    del data["grid_provenance"]
    assert ExperimentConfig.from_dict(data).grid_provenance == "user-config"


def test_plan_spec_labels():
    assert PlanSpec(kind="kfold", k=5).label == "kfold-5"
    assert PlanSpec(kind="loo").label == "loo"
    assert PlanSpec(kind="lvo", v=2).label == "lvo-2-exhaustive"
    assert PlanSpec(kind="lvo", v=2, mode="montecarlo", m=9, seed=0).label == "lvo-2-mc"
    assert PlanSpec(kind="holdout", p=0.2).label == "holdout-0.2"
    with pytest.raises(ValueError):
        PlanSpec(kind="bootstrap").label


def test_plan_spec_build_defaults_and_errors():
    plan = PlanSpec(kind="holdout", p=0.2).build(10)
    bits, prob = plan.atoms[0]
    assert prob == 1.0
    assert bits.bits == (0, 0, 1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        PlanSpec(kind="kfold").build(10)
    with pytest.raises(ValueError):
        PlanSpec(kind="lvo").build(10)
    with pytest.raises(ValueError):
        PlanSpec(kind="holdout").build(10)
    with pytest.raises(ValueError):
        PlanSpec(kind="holdout", p=0.15).build(10)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0).validate()
    with pytest.raises(ValueError):
        small_config(n=1).validate()
    with pytest.raises(ValueError):
        small_config(plans=()).validate()
    with pytest.raises(ValueError):
        small_config(eps_grid=(0.2, 0.1)).validate()
    with pytest.raises(ValueError):
        small_config(eta=0.5).validate()
    with pytest.raises(ValueError):
        small_config(theta_star=1.5).validate()


def test_attach_bound_branch_tags():
    kfold = PlanSpec(kind="kfold", k=5).build(100)
    total, branch = harness.attach_bound(kfold, 100, 0.3, 1)
    assert branch.startswith(("sym:", "kf:"))
    assert 0.0 <= total <= 1.0
    hold = PlanSpec(kind="holdout", p=0.2).build(100)
    total_h, branch_h = harness.attach_bound(hold, 100, 0.3, 1)
    assert branch_h.startswith("hold:")
    assert 0.0 <= total_h <= 1.0
    # symmetric non-fold plan falls back to the symmetric family only
    lvo = PlanSpec(kind="lvo", v=2).build(8)
    _, branch_l = harness.attach_bound(lvo, 8, 0.3, 1)
    assert branch_l.startswith("sym:")


def test_kfold_bound_only_for_partition_plans(monkeypatch):
    def zero(q):
        return bounds.BoundValue(
            b_term=0.0, v_term=0.0, total=0.0, branch="stub",
            log_b_term=-math.inf, log_v_term=-math.inf,
        )

    monkeypatch.setattr(bounds, "bound_kfold_combined", zero)
    lvo = PlanSpec(kind="lvo", v=2).build(8)
    assert harness.attach_bound(lvo, 8, 0.3, 1)[1].startswith("sym:")
    kfold = PlanSpec(kind="kfold", k=5).build(100)
    assert harness.attach_bound(kfold, 100, 0.3, 1) == (0.0, "kf:stub")


@pytest.mark.parametrize(
    "build, n, eps, total, tag",
    [
        # totals and tags as computed before the procedure table existed
        (lambda: resampling.make_kfold(100, 5), 100, 0.3, 1.0, "sym:hoeffding"),
        (lambda: resampling.make_kfold(100, 2), 100, 0.3, 1.0, "sym:hoeffding"),
        (lambda: resampling.make_kfold(40, 4, shuffle_seed=3), 40, 0.6, 1.0, "sym:hoeffding"),
        (lambda: resampling.make_kfold(20000, 10), 20000, 0.6, 9.664790937523516e-26, "sym:hoeffding"),
        (lambda: resampling.make_kfold(20000, 2), 20000, 1.0, 2.4567337286587867e-101, "sym:hoeffding"),
        (lambda: resampling.make_loo(50), 50, 0.3, 1.0, "sym:hoeffding"),
        (lambda: resampling.make_leave_v_out(8, 2), 8, 0.3, 1.0, "sym:hoeffding"),
        (
            lambda: resampling.make_leave_v_out(20, 4, mode="montecarlo", m=30, seed=1),
            20, 0.3, math.nan, "none",
        ),
        (lambda: resampling.make_holdout(100, 0.2, range(20)), 100, 0.3, 1.0, "hold:hoeffding"),
        (
            lambda: resampling.make_holdout(20000, 0.2, range(4000)),
            20000, 0.3, 6.21368047508688e-13, "hold:hoeffding",
        ),
        (
            lambda: resampling.make_custom(4, [((1, 1, 0, 0), 0.5), ((0, 0, 1, 1), 0.5)]),
            4, 0.3, 1.0, "sym:hoeffding",
        ),
        (
            lambda: resampling.make_custom(4, [((1, 1, 0, 0), 0.25), ((0, 0, 1, 1), 0.75)]),
            4, 0.3, math.nan, "none",
        ),
    ],
)
def test_attach_bound_builder_plans_keep_their_tags(build, n, eps, total, tag):
    got_total, got_tag = harness.attach_bound(build(), n, eps, 1)
    assert got_tag == tag
    if math.isnan(total):
        assert math.isnan(got_total)
    else:
        assert got_total == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize(
    "plan",
    [
        resampling.make_custom(6, [((1, 1, 0, 1, 1, 1), 1.0)]),
        resampling.make_leave_v_out(20, 4, mode="montecarlo", m=1, seed=1),
    ],
    ids=["custom-one-atom", "lvo-montecarlo-m1"],
)
def test_single_atom_plans_get_the_holdout_bound(plan):
    total, tag = harness.attach_bound(plan, plan.n, 0.3, 1)
    assert tag == "hold:hoeffding"
    q = bounds.BoundQuery(n=plan.n, p=plan.p, eps=0.3, vc=1, clamp=True)
    assert total == bounds.bound_holdout(q).total


def test_attach_bound_ties_go_to_the_symmetric_bound(monkeypatch):
    def same_as_sym(q):
        value = bounds.bound_sym_combined(q)
        return bounds.BoundValue(
            value.b_term, value.v_term, value.total, "stub",
            value.log_b_term, value.log_v_term,
        )

    monkeypatch.setattr(bounds, "bound_kfold_combined", same_as_sym)
    plan = PlanSpec(kind="kfold", k=5).build(20000)
    assert harness.attach_bound(plan, 20000, 0.6, 1)[1] == "sym:hoeffding"


def test_report_slack_is_the_shared_formula():
    cfg = small_config(trials=50, eps_grid=(0.05, 0.1))
    for row in run_experiment(cfg).rows:
        assert row.slack == bounds.sampling_slack(row.empirical_tail, 50)


def test_importing_the_library_does_not_load_scipy():
    import os
    import subprocess
    import sys

    import cvbounds

    src = os.path.dirname(os.path.dirname(cvbounds.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cvbounds, cvbounds.harness; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_attach_bound_picks_the_smaller_family():
    plan = PlanSpec(kind="kfold", k=5).build(100)
    total, branch = harness.attach_bound(plan, 100, 0.3, 1)
    q = bounds.BoundQuery(n=100, p=0.2, eps=0.3, vc=1, clamp=True)
    sym = bounds.bound_sym_combined(q)
    kf = bounds.bound_kfold_combined(q)
    assert total == min(sym.total, kf.total)


def test_compare_procedures_ratio_columns():
    cfg = small_config(
        n=100,
        trials=20,
        eps_grid=(0.2, 0.4),
        plans=(PlanSpec(kind="kfold", k=5), PlanSpec(kind="kfold", k=2)),
    )
    out = compare_procedures(cfg)
    assert set(out) == {"rows", "l1", "ratios", "config"}
    by_plan = {}
    for row in out["ratios"]:
        by_plan.setdefault(row["plan"], []).append(row)
    for row in by_plan["kfold-5"]:
        assert row["b_sym_over_b_hold"] == bounds.ratio_b_sym_over_b_hold(
            100, 0.2, row["eps"], 1
        )
        assert row["v_kfold_over_v_sym"] == bounds.ratio_v_kfold_over_v_sym(
            100, 0.2, row["eps"], 1
        )
    for row in by_plan["kfold-2"]:
        assert row["v_kfold_over_v_sym"] is None  # improved term needs k >= 3


def test_mean_deviation_falls_with_sample_size():
    means = []
    for n in (20, 80):
        cfg = small_config(
            n=n, trials=2000, plans=(PlanSpec(kind="kfold", k=5),),
            master_seed=101,
        )
        report = run_experiment(cfg)
        means.append(report.l1_rows[0].empirical_mean_abs_dev)
    assert means[1] < means[0]


def test_default_acceptance_configs_shape():
    configs = harness.default_acceptance_configs(trials=10)
    assert len(configs) == 9
    ns = sorted({cfg.n for cfg in configs})
    assert ns == [20, 50, 100]
    for cfg in configs:
        assert cfg.trials == 10
        assert cfg.theta_star == 0.3
        labels = [spec.label for spec in cfg.plans]
        assert labels[-1] == "loo"
        assert len(labels) == len(set(labels))
        if cfg.n == 20:
            assert labels == ["kfold-2", "kfold-5", "kfold-10", "loo"]
        cfg.validate()


def test_batch_labels_match_stacked_samples():
    dist = learners.SyntheticDistribution(theta_star=0.3, eta=0.2)
    xs, ys = harness._batch_labels(dist, 9, 17, 4, 11)
    for i, t in enumerate(range(4, 11)):
        d = dist.sample(9, trial_generator(17, t))
        assert xs[i].tobytes() == d.x.tobytes()
        assert ys[i].tobytes() == d.y.tobytes()


SAMPLER_SEEDS = (0, -1, 2**63 + 5, 2**64 + 3, 2**70)
SAMPLER_T0 = (0, 4, 2**40)


def assert_chunk_matches_trial_generator(dist, n, seed, t0, t1):
    xs, ys = harness._batch_labels(dist, n, seed, t0, t1)
    assert xs.shape == ys.shape == (t1 - t0, n)
    want = [dist.sample(n, trial_generator(seed, t)) for t in range(t0, t1)]
    assert xs.tobytes() == np.stack([d.x for d in want]).tobytes()
    assert ys.tobytes() == np.stack([d.y for d in want]).tobytes()


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
@pytest.mark.parametrize("t0", SAMPLER_T0)
def test_trial_keys_match_trial_key(seed, t0):
    k0, k1 = harness._trial_keys(seed, t0, t0 + 6)
    assert k0.dtype == k1.dtype == np.uint64
    assert list(zip(k0.tolist(), k1.tolist())) == [trial_key(seed, t) for t in range(t0, t0 + 6)]


def test_trial_keys_reject_negative_trials():
    with pytest.raises(ValueError):
        harness._trial_keys(0, -1, 3)


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
@pytest.mark.parametrize("t0", SAMPLER_T0)
def test_philox_words_match_numpy_philox(seed, t0):
    # 2n words for n = 2, 3 (the last block half used), 7 and 20, and
    # lengths that end inside a block
    for m in (1, 3, 4, 5, 6, 14, 40):
        words = harness._philox_words(*harness._trial_keys(seed, t0, t0 + 3), m)
        assert words.dtype == np.uint64 and words.shape == (3, m)
        for i, t in enumerate(range(t0, t0 + 3)):
            key = np.array(trial_key(seed, t), dtype=np.uint64)
            assert np.array_equal(words[i], np.random.Philox(key=key).random_raw(m))


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
@pytest.mark.parametrize("t0", SAMPLER_T0)
@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_batch_labels_match_trial_generator(seed, t0, n):
    dist = learners.SyntheticDistribution(theta_star=0.3, eta=0.2)
    assert_chunk_matches_trial_generator(dist, n, seed, t0, t0 + 5)


@given(
    seed=st.integers(-(2**70), 2**70),
    t0=st.integers(0, 2**62),
    length=st.integers(1, 12),
    n=st.integers(2, 41),
    eta=st.sampled_from([0.0, 0.1, 0.3]),
)
def test_batch_labels_match_trial_generator_property(seed, t0, length, n, eta):
    dist = learners.SyntheticDistribution(theta_star=0.3, eta=eta)
    assert_chunk_matches_trial_generator(dist, n, seed, t0, t0 + length)


def test_draw_reads_features_then_flips():
    dist = learners.SyntheticDistribution(theta_star=0.3, eta=0.2)
    rng = trial_generator(5, 2)
    x_ref = rng.random(11)
    flips = rng.random(11) < dist.eta
    x, y = dist.draw(11, trial_generator(5, 2))
    assert x.tobytes() == x_ref.tobytes()
    assert np.array_equal(y, ((x_ref >= dist.theta_star) != flips).astype(np.float64))


def test_harness_builds_no_philox_per_trial(monkeypatch):
    cfg = small_config(trials=30)
    want = run_experiment(cfg).to_json()
    rec = run_trial(cfg, 3)

    def no_philox(*args, **kwargs):
        raise AssertionError("a Philox generator was built")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    assert run_experiment(cfg).to_json() == want
    assert run_trial(cfg, 3) == rec


@pytest.mark.parametrize("chunk", [1, 2, 7, None])
def test_report_bytes_do_not_depend_on_chunk_size(monkeypatch, chunk):
    cfg = small_config(
        n=12,
        trials=40,
        plans=(
            PlanSpec(kind="kfold", k=3),
            PlanSpec(kind="loo"),
            PlanSpec(kind="lvo", v=2),
            PlanSpec(kind="holdout", p=0.25),
        ),
    )
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    whole = run_experiment(cfg)
    if chunk is not None:
        monkeypatch.setattr(harness, "_chunk_size", lambda n, plans: chunk)
    else:
        assert harness._chunk_size(cfg.n, cfg.built_plans()) >= cfg.trials
    # chunks of 1 and 2 trials hold fewer trials than there are workers
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "_cpu_count", lambda w=workers: w)
        report = run_experiment(cfg)
        assert report.to_json() == whole.to_json()
        assert report.to_csv() == whole.to_csv()


def test_report_bytes_hold_with_more_workers_than_cpus_under_fast_switching(monkeypatch):
    cfg = small_config(
        n=15, trials=60, plans=(PlanSpec(kind="loo"), PlanSpec(kind="kfold", k=3))
    )
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    want = run_experiment(cfg).to_json()
    monkeypatch.setattr(harness, "_cpu_count", lambda: 8)
    monkeypatch.setattr(harness, "_chunk_size", lambda n, plans: 30)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [run_experiment(cfg).to_json() for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3


def test_chunks_are_drawn_on_the_calling_thread_and_split(monkeypatch):
    draw, score = harness._batch_labels, harness._score_slice
    drawers, scorers = [], []

    def traced_draw(*args):
        drawers.append(threading.get_ident())
        return draw(*args)

    def traced_score(cfg, plans, xs, ys):
        scorers.append((threading.get_ident(), len(xs)))
        return score(cfg, plans, xs, ys)

    monkeypatch.setattr(harness, "_batch_labels", traced_draw)
    monkeypatch.setattr(harness, "_score_slice", traced_score)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_chunk_size", lambda n, plans: 10)
    run_experiment(small_config(trials=35))
    me = threading.get_ident()
    assert drawers == [me] * 4
    # each chunk is split in two, the first half scored on the calling thread
    assert sorted(size for _, size in scorers) == [2, 3, 5, 5, 5, 5, 5, 5]
    assert {ident == me for ident, _ in scorers} == {True, False}


def test_report_bytes_do_not_depend_on_count_layout(monkeypatch):
    cfg = small_config(
        n=20,
        trials=60,
        plans=(PlanSpec(kind="loo"), PlanSpec(kind="kfold", k=10), PlanSpec(kind="lvo", v=2)),
    )
    whole = run_experiment(cfg)
    kernel = cv.threshold_atom_counts

    def fortran(plan, batch):
        cuts, counts = kernel(plan, batch)
        return np.asfortranarray(cuts), np.asfortranarray(counts)

    monkeypatch.setattr(cv, "threshold_atom_counts", fortran)
    monkeypatch.setattr(harness, "_chunk_size", lambda n, plans: 7)
    report = run_experiment(cfg)
    assert report.to_json() == whole.to_json()
    assert report.to_csv() == whole.to_csv()


# SHA-256 of to_json() + to_csv() of the nine acceptance-grid reports at 300
# trials, computed with the per-atom sort kernel that preceded SortedSamples.
GRID_300_DIGESTS = {
    "n=20,eta=0.0": "af303ddb0f0bf417120fd3430cf7e413567b8f32551e2df941a037e3540edb53",
    "n=20,eta=0.1": "6313026a3168757cb00f62539957d9c54d9bc2f02406bf472021cd3f65d40b88",
    "n=20,eta=0.3": "61da587e23d249f206c4f51789f8757f571db3fe3b36489e828bac4aabcc6322",
    "n=50,eta=0.0": "76da61bfc2f9be0fb190eaf4a5a0d078f48f0b1e019d246db044e3983e2ad1ec",
    "n=50,eta=0.1": "25d1d4df6e37c2b39b8a0f7b63adf5dc1652224cf5e3c766499106c68082703a",
    "n=50,eta=0.3": "9cd12496bf77457549fc63a1a398ecd6faee8b6c8a38336f3a3ecf407358c626",
    "n=100,eta=0.0": "2e7b7d85ea6fb2b38ce6aa5f33d51e28e0d3585397ccf274b27ecaa50cce1e6b",
    "n=100,eta=0.1": "4df275c69907f727b7b966cc24f1bb6f1dc197247e61f0f48af6e0ac66959f62",
    "n=100,eta=0.3": "f3be531737d46500bb754341936ad6f342c54f4a115feb96a8ec6b14b4fe6a64",
}


def test_acceptance_grid_report_bytes_are_pinned():
    got = {}
    for cfg in harness.default_acceptance_configs(trials=300):
        report = run_experiment(cfg)
        text = report.to_json() + report.to_csv()
        got[f"n={cfg.n},eta={cfg.eta}"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GRID_300_DIGESTS
