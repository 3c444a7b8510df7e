"""Differential tests of the batched interval kernel.

learners._interval_erm is checked row by row against the double loop over
cut pairs in oracles.loop_interval_erm (the tie-rule reference) and against
the brute-force error count, on features drawn to hit ties, duplicates,
adjacent floats and the 0/1 domain edges. The batched cv path is checked
against per-atom erm_fit on every builder that makes equal-test-size plans.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvbounds import cv, harness, learners
from cvbounds.learners import ZERO_ONE, Dataset, HypothesisClass, SyntheticDistribution
from cvbounds.resampling import BinaryVector, make_kfold, make_leave_v_out, make_loo
from test_atom_kernel import DOWN, MID, POOL, UP, builder_plans

INTERVAL = HypothesisClass.interval()
FEATURE = st.sampled_from(POOL) | st.floats(0.0, 1.0)
LABEL = st.sampled_from((0.0, 1.0))


def labels(draw, shape):
    if draw(st.booleans()):
        return np.full(shape, draw(LABEL))
    return np.array(draw(st.lists(LABEL, min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1]))).reshape(shape)


@st.composite
def batches(draw):
    m = draw(st.integers(1, 9))
    b = draw(st.integers(1, 4))
    xs = np.array(draw(st.lists(FEATURE, min_size=b * m, max_size=b * m))).reshape(b, m)
    return xs, labels(draw, (b, m))


@settings(max_examples=300)
@given(batches())
def test_kernel_matches_loop_and_brute_force(case):
    xs, ys = case
    lows, highs, errs = learners._interval_erm(xs, ys)
    assert lows.shape == highs.shape == errs.shape == (xs.shape[0],)
    assert errs.dtype.kind == "i"
    for row in range(xs.shape[0]):
        (low, high), err = oracles.loop_interval_erm(xs[row], ys[row])
        assert (lows[row], highs[row], errs[row]) == (low, high, err)
        assert errs[row] == oracles.brute_interval_erm(xs[row].tolist(), ys[row].tolist())


EDGE_CASES = {
    "one point labelled one": ([0.4], [1]),
    "one point labelled zero": ([0.4], [0]),
    "one point at 1.0": ([1.0], [1]),
    "all labels zero: empty interval": ([0.2, 0.5, 0.8], [0, 0, 0]),
    "equal gains: first left end": ([0.1, 0.2, 0.3, 0.4, 0.5], [1, 0, 0, 0, 1]),
    "equal gains: first right end": ([0.1, 0.2, 0.3, 0.4], [1, 0, 1, 0]),
    "gain zero: empty interval": ([0.1, 0.2], [1, 0]),
    "duplicates straddle the best cut": ([0.5, 0.5, 0.5, 0.2, 0.8], [1, 0, 1, 0, 1]),
    "adjacent floats": ([MID, UP, DOWN, np.nextafter(UP, 1.0)], [1, 0, 1, 0]),
    "all features equal": ([0.7] * 5, [0, 1, 1, 0, 1]),
    "domain edges": ([0.0, 0.0, 1.0, 1.0], [1, 0, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_kernel_edge_cases(name):
    x, y = (np.array([v], dtype=np.float64) for v in EDGE_CASES[name])
    lows, highs, errs = learners._interval_erm(x, y)
    (low, high), err = oracles.loop_interval_erm(x[0], y[0])
    assert (lows[0], highs[0], errs[0]) == (low, high, err)


def test_erm_fit_reads_the_kernel():
    x = np.array([0.1, 0.35, 0.5, 0.65, 0.9])
    y = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    phi = learners.erm_fit(INTERVAL, BinaryVector((1,) * 5), Dataset(x, y), ZERO_ONE)
    (low, high), _ = oracles.loop_interval_erm(x, y)
    assert (phi.low, phi.high) == (low, high)
    assert type(phi.low) is float and type(phi.high) is float


def check_plan(plan, d):
    """Batched fits and counts equal per-atom erm_fit and the double loop on
    each training set."""
    fits, counts = cv._atom_fits_and_counts(plan, d, INTERVAL, ZERO_ONE)
    assert "atoms" not in vars(plan)
    assert counts.dtype.kind == "i" and len(fits) == len(counts) == plan.num_atoms
    for a, train in enumerate(plan.train_matrix):
        phi = learners.erm_fit(INTERVAL, BinaryVector(tuple(train.astype(int))), d, ZERO_ONE)
        assert (fits[a].low, fits[a].high) == (phi.low, phi.high)
        assert oracles.loop_interval_erm(d.x[train], d.y[train])[0] == (phi.low, phi.high)
        test = ~train
        assert counts[a] == int((phi.predict(d.x[test]) != d.y[test]).sum())


@st.composite
def planned_samples(draw):
    n = draw(st.integers(2, 9))
    x = np.array(draw(st.lists(FEATURE, min_size=n, max_size=n)))
    return Dataset(x, labels(draw, (1, n))[0]), builder_plans(draw, n)


@settings(max_examples=100)
@given(planned_samples())
def test_batched_atoms_match_per_atom_erm_fit(case):
    d, plans = case
    for plan in plans:
        check_plan(plan, d)


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_atom_blocks_match_per_atom_erm_fit(monkeypatch, budget):
    rng = np.random.default_rng(4)
    d = Dataset(rng.choice(POOL, size=10), rng.integers(0, 2, size=10).astype(np.float64))
    monkeypatch.setattr(cv, "CELL_BUDGET", budget)
    for plan in (make_loo(10), make_kfold(10, 5), make_leave_v_out(10, 3)):
        check_plan(plan, d)


def test_interval_atom_memory_is_bounded_by_blocks():
    n = 2000
    d = SyntheticDistribution(theta_star=0.3, eta=0.1).sample(n, harness.trial_generator(9, 0))
    plan = make_loo(n)
    tracemalloc.start()
    try:
        r_cv = cv.cross_validate(plan, d, INTERVAL, ZERO_ONE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 100 bytes per training cell of a block of CELL_BUDGET cells;
    # all 2000 × 2000 cells in one block would peak near 400 MB
    assert peak < 64 * 2**20
    assert 0.0 <= r_cv <= 1.0
