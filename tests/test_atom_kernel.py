"""Differential tests of the sort-once threshold kernel.

learners.SortedSamples and cv.threshold_atom_counts are checked against
per-atom learners._batch_threshold_erm on each gathered training set and
against the loop oracle, on data built to hit ties, duplicate features,
adjacent floats and the 0/1 domain edges, for every builder that makes
equal-test-size plans, with atoms in one block and in many. The
one-point kernel, SortedSamples.leave_one_out, is checked against
leave_out with one test point as well.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvbounds import cv, learners
from cvbounds.resampling import (
    make_custom,
    make_holdout,
    make_kfold,
    make_leave_v_out,
    make_loo,
)

MID = 0.5
UP, DOWN = np.nextafter(MID, 1.0), np.nextafter(MID, 0.0)
POOL = (0.0, 1.0, MID, UP, DOWN, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 0.25, 0.75)


def reference(xs, ys, test_idx):
    """Per-atom _batch_threshold_erm on the gathered training sets."""
    c, n = xs.shape
    train = np.ones((len(test_idx), n), dtype=bool)
    np.put_along_axis(train, np.asarray(test_idx), False, axis=1)
    cuts = np.empty((c, len(test_idx)))
    errs = np.empty((c, len(test_idx)), dtype=np.int64)
    for a, mask in enumerate(train):
        cuts[:, a], errs[:, a] = learners._batch_threshold_erm(xs[:, mask], ys[:, mask])
    return cuts, errs


def check_plan(plan, xs, ys):
    batch = learners.SortedSamples(xs, ys)
    full_cuts, full_errs = learners._batch_threshold_erm(xs, ys)
    assert np.array_equal(batch.full_cuts, full_cuts)
    assert np.array_equal(batch.full_errs, full_errs)
    tei = plan.test_index_matrix
    got_cuts, got_errs = batch.leave_out(tei)
    want_cuts, want_errs = reference(xs, ys, tei)
    assert np.array_equal(got_cuts, want_cuts)
    assert got_errs.dtype.kind == "i" and np.array_equal(got_errs, want_errs)
    cuts, counts = cv.threshold_atom_counts(plan, batch)
    assert np.array_equal(cuts, got_cuts)
    assert counts.dtype.kind == "i"
    for t in range(xs.shape[0]):
        x, y = xs[t].tolist(), ys[t].tolist()
        for a, test in enumerate(tei.tolist()):
            train = sorted(set(range(plan.n)) - set(test))
            t_ref, e_ref = oracles.brute_threshold_erm([x[i] for i in train], [y[i] for i in train])
            assert cuts[t, a] == t_ref
            assert got_errs[t, a] == e_ref
            wrong = sum(1 for i in test if (1.0 if x[i] >= t_ref else 0.0) != y[i])
            assert counts[t, a] == wrong


def builder_plans(draw, n):
    """One plan from each builder that makes equal-test-size plans for n."""
    plans = [make_loo(n)]
    ks = [k for k in range(2, n + 1) if n % k == 0]
    k = draw(st.sampled_from(ks))
    plans.append(make_kfold(n, k, shuffle_seed=draw(st.none() | st.integers(0, 50))))
    v = draw(st.integers(1, n - 1))
    plans.append(make_holdout(n, v / n, draw(st.permutations(range(n)))[:v]))
    plans.append(make_leave_v_out(n, v, mode="montecarlo", m=draw(st.integers(1, 6)), seed=7))
    if v <= 3 and n <= 9:
        plans.append(make_leave_v_out(n, v))
    masks = draw(
        st.lists(st.permutations(range(n)), min_size=1, max_size=4).map(
            lambda perms: sorted({tuple(sorted(p[:v])) for p in perms})
        )
    )
    weights = [draw(st.integers(1, 5)) for _ in masks]
    atoms = [
        (tuple(0 if i in test else 1 for i in range(n)), w / sum(weights))
        for test, w in zip(masks, weights)
    ]
    plans.append(make_custom(n, atoms))
    return plans


@st.composite
def samples(draw):
    n = draw(st.integers(2, 10))
    c = draw(st.integers(1, 3))
    feature = st.sampled_from(POOL) | st.floats(0.0, 1.0)
    label = st.sampled_from((0.0, 1.0))

    def rows(values):
        row = st.lists(values, min_size=n, max_size=n)
        return np.array(draw(st.lists(row, min_size=c, max_size=c)))

    xs = rows(feature)
    ys = np.full((c, n), draw(label)) if draw(st.booleans()) else rows(label)
    return xs, ys, builder_plans(draw, n)


@settings(max_examples=150)
@given(samples())
def test_kernel_matches_per_atom_erm_and_oracle(case):
    xs, ys, plans = case
    for plan in plans:
        check_plan(plan, xs, ys)


def one_point_plans(draw, n):
    """Every builder plan whose atoms leave out one point."""
    plans = [
        make_loo(n),
        make_leave_v_out(n, 1),
        make_leave_v_out(n, 1, mode="montecarlo", m=draw(st.integers(1, 8)), seed=3),
        make_holdout(n, 1 / n, [draw(st.integers(0, n - 1))]),
    ]
    # repeated atoms allowed: some test points appear more than once
    tests = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    atoms = [(tuple(int(i != t) for i in range(n)), 1 / len(tests)) for t in tests]
    plans.append(make_custom(n, atoms))
    return plans


@st.composite
def one_point_samples(draw):
    n = draw(st.integers(2, 12))
    c = draw(st.integers(1, 3))
    label = st.sampled_from((0.0, 1.0))

    def rows(values):
        row = st.lists(values, min_size=n, max_size=n)
        return np.array(draw(st.lists(row, min_size=c, max_size=c)))

    xs = rows(st.sampled_from(POOL))
    ys = np.full((c, n), draw(label)) if draw(st.booleans()) else rows(label)
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    return xs, ys, idx, one_point_plans(draw, n)


@settings(max_examples=200)
@given(one_point_samples())
def test_leave_one_out_matches_leave_out_and_reference(case):
    xs, ys, idx, plans = case
    batch = learners.SortedSamples(xs, ys)
    cuts, errs = batch.leave_one_out()
    assert cuts.shape == errs.shape == xs.shape and errs.dtype.kind == "i"
    pos = batch.rank_t[idx].T
    got_cuts = np.take_along_axis(cuts, pos, axis=1)
    got_errs = np.take_along_axis(errs, pos, axis=1)
    want_cuts, want_errs = batch.leave_out(idx[:, None])
    assert np.array_equal(got_cuts, want_cuts) and np.array_equal(got_errs, want_errs)
    ref_cuts, ref_errs = reference(xs, ys, idx[:, None])
    assert np.array_equal(got_cuts, ref_cuts) and np.array_equal(got_errs, ref_errs)
    for plan in plans:
        check_plan(plan, xs, ys)


def test_one_point_plans_use_no_range_queries(monkeypatch):
    rng = np.random.default_rng(5)
    n = 9
    xs = rng.choice(POOL, size=(4, n))
    ys = rng.integers(0, 2, size=(4, n)).astype(np.float64)
    plans = [
        make_loo(n),
        make_leave_v_out(n, 1),
        make_leave_v_out(n, 1, mode="montecarlo", m=5, seed=2),
        make_holdout(n, 1 / n, [4]),
        make_custom(n, [(tuple(int(i != t) for i in range(n)), 0.25) for t in (3, 3, 0, 8)]),
    ]
    batch = learners.SortedSamples(xs, ys)
    want = [batch.leave_out(plan.test_index_matrix) for plan in plans]

    def no_range_min(*args):
        raise AssertionError("_range_min was called for a one-point plan")

    monkeypatch.setattr(learners.SortedSamples, "_range_min", no_range_min)
    for plan, (want_cuts, _) in zip(plans, want):
        cuts, counts = cv.threshold_atom_counts(plan, batch)
        assert np.array_equal(cuts, want_cuts)
        assert cuts.flags.c_contiguous and counts.flags.c_contiguous
        tei = plan.test_index_matrix
        wrong = (xs[:, tei] >= want_cuts[:, :, None]) != (ys[:, tei] > 0.5)
        assert np.array_equal(counts, wrong.sum(axis=2))


EDGE_CASES = {
    # the three 0.5s are indices 0-2: leaving index 1 out puts a test point
    # between two equal training features
    "duplicate pair straddling a test point": ([0.5, 0.5, 0.5, 0.2, 0.8], [1, 0, 1, 0, 1]),
    "only 1.0 point in the test sets": ([0.1, 1.0, 0.4, 0.7], [0, 1, 0, 0]),
    "features at 0.0": ([0.0, 0.0, 0.3, 0.0, 0.9], [1, 0, 0, 1, 1]),
    "adjacent floats": ([MID, UP, DOWN, np.nextafter(UP, 1.0)], [1, 0, 1, 0]),
    "all labels one": ([0.2, 0.9, 0.4, 0.6], [1, 1, 1, 1]),
    "all labels zero": ([0.2, 0.9, 1.0, 0.6], [0, 0, 0, 0]),
    "n = 2": ([0.3, 0.3], [1, 0]),
    "all features equal": ([0.7] * 6, [0, 1, 1, 0, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_kernel_edge_cases(name):
    x, y = EDGE_CASES[name]
    n = len(x)
    xs, ys = np.array([x], dtype=np.float64), np.array([y], dtype=np.float64)
    plans = [make_loo(n)] + [make_kfold(n, k) for k in range(2, n) if n % k == 0]
    for v in range(1, n):
        plans.append(make_leave_v_out(n, v))
        for test in itertools.combinations(range(n), v):
            plans.append(make_holdout(n, v / n, test))
    for plan in plans:
        check_plan(plan, xs, ys)


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_atom_blocks_match_one_block(monkeypatch, budget):
    rng = np.random.default_rng(3)
    xs = rng.choice(POOL, size=(3, 10))
    ys = rng.integers(0, 2, size=(3, 10)).astype(np.float64)
    plans = [
        make_loo(10),
        make_kfold(10, 5),
        make_leave_v_out(10, 3),
        make_leave_v_out(10, 2, mode="montecarlo", m=9, seed=1),
    ]
    batch = learners.SortedSamples(xs, ys)
    whole = [cv.threshold_atom_counts(plan, batch) for plan in plans]
    monkeypatch.setattr(cv, "CELL_BUDGET", budget)
    for plan, (cuts, counts) in zip(plans, whole):
        got_cuts, got_counts = cv.threshold_atom_counts(plan, batch)
        assert np.array_equal(got_cuts, cuts) and np.array_equal(got_counts, counts)
        assert got_cuts.flags.c_contiguous and got_counts.flags.c_contiguous
        check_plan(plan, xs, ys)


def test_atom_kernel_memory_is_bounded_by_blocks():
    plan = make_leave_v_out(20, 10)  # 184,756 atoms, about 2·10^6 cells
    tei = plan.test_index_matrix
    rng = np.random.default_rng(0)
    xs = rng.random((1, 20))
    ys = (rng.random((1, 20)) < 0.5).astype(np.float64)
    batch = learners.SortedSamples(xs, ys)
    tracemalloc.start()
    try:
        cuts, counts = cv.threshold_atom_counts(plan, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all atoms in one block peak near 215 MB
    assert peak < 60 * 2**20
    sel = np.sort(rng.choice(plan.num_atoms, 2000, replace=False))
    one_block, _ = batch.leave_out(tei[sel])
    assert np.array_equal(cuts[:, sel], one_block)
    want_cuts, _ = reference(xs, ys, tei[sel])
    assert np.array_equal(cuts[:, sel], want_cuts)
    wrong = (xs[:, tei[sel]] >= want_cuts[:, :, None]) != (ys[:, tei[sel]] > 0.5)
    assert np.array_equal(counts[:, sel], wrong.sum(axis=2))
