import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cvbounds import resampling
from cvbounds.resampling import (
    BinaryVector,
    make_custom,
    make_holdout,
    make_kfold,
    make_leave_v_out,
    make_loo,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)

# resampling.test_vector is library API; referenced through the module so
# the collector does not mistake it for a test.
complement = resampling.test_vector


def atom_set(plan):
    return {(v.bits, prob) for v, prob in plan.atoms}


def test_binary_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        BinaryVector((0, 2, 1))
    with pytest.raises(ValueError):
        BinaryVector(())
    with pytest.raises(ValueError):
        BinaryVector((0, 0, 0))


def test_binary_vector_counts_and_indices():
    v = BinaryVector((1, 0, 1, 1))
    assert (v.n, v.ones, v.zeros) == (4, 3, 1)
    assert v.indices(1) == (0, 2, 3)
    assert v.indices(0) == (1,)
    assert BinaryVector.from_string(v.as_string()) == v


def test_complement_mask_examples():
    assert complement(BinaryVector((0, 1, 1))).bits == (1, 0, 0)
    assert complement(BinaryVector((1, 1, 0, 0))).bits == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        complement(BinaryVector((1, 1, 1)))


def test_complement_partitions_indices():
    v = BinaryVector((1, 0, 1, 0, 1))
    w = complement(v)
    assert set(v.indices(1)) | set(w.indices(1)) == set(range(5))
    assert set(v.indices(1)) & set(w.indices(1)) == set()


def test_kfold_four_two():
    plan = make_kfold(4, 2)
    assert atom_set(plan) == {((0, 0, 1, 1), 0.5), ((1, 1, 0, 0), 0.5)}
    assert plan.kind == "k-fold"
    assert plan.p == 0.5
    assert plan.test_size == 2 and plan.train_size == 2


def test_kfold_n_equals_k_is_leave_one_out():
    assert atom_set(make_kfold(3, 3)) == atom_set(make_loo(3))
    assert atom_set(make_kfold(4, 4)) == atom_set(make_loo(4))


def test_kfold_rejects_non_divisible_and_small_k():
    with pytest.raises(ValueError):
        make_kfold(5, 2)
    with pytest.raises(ValueError):
        make_kfold(4, 1)


def test_kfold_each_index_tested_once():
    plan = make_kfold(12, 3)
    tested = np.zeros(12, dtype=int)
    for v, _ in plan.atoms:
        for i in v.indices(0):
            tested[i] += 1
    assert np.all(tested == 1)


def test_kfold_train_probability_matches_fold_count():
    for n, k in [(10, 2), (12, 3), (20, 5), (8, 8)]:
        probs = make_kfold(n, k).train_probability()
        assert np.allclose(probs, 1.0 - 1.0 / k, atol=1e-12)


def test_kfold_shuffle_seed_permutes_but_keeps_structure():
    plan = make_kfold(6, 3, shuffle_seed=11)
    assert plan.num_atoms == 3
    assert plan.test_size == 2
    assert plan.symmetric()
    # same seed, same layout
    assert atom_set(plan) == atom_set(make_kfold(6, 3, shuffle_seed=11))


def test_loo_two_points():
    assert atom_set(make_loo(2)) == {((0, 1), 0.5), ((1, 0), 0.5)}


def test_leave_v_out_exhaustive_counts():
    plan = make_leave_v_out(4, 2)
    assert plan.num_atoms == math.comb(4, 2)
    assert all(prob == 1.0 / 6.0 for _, prob in plan.atoms)
    assert len(atom_set(plan)) == 6
    assert plan.kind == "leave-v-out-exhaustive"


def test_leave_v_out_v1_is_leave_one_out():
    assert atom_set(make_leave_v_out(4, 1)) == atom_set(make_loo(4))


def test_leave_v_out_atom_cap():
    with pytest.raises(ValueError):
        make_leave_v_out(40, 20, atom_cap=10**4)


def test_leave_v_out_montecarlo_frequencies():
    exhaustive = make_leave_v_out(6, 2)
    mc = make_leave_v_out(6, 2, mode="montecarlo", m=100, seed=1)
    assert mc.kind == "leave-v-out-montecarlo"
    assert mc.num_atoms == 100
    target = exhaustive.train_probability()
    p = 2.0 / 6.0
    slack = 3.0 * math.sqrt(p * (1.0 - p) / 100.0)
    got = mc.train_probability()
    assert np.all(np.abs(got - target) <= slack)


def test_leave_v_out_montecarlo_needs_seed_and_m():
    with pytest.raises(ValueError):
        make_leave_v_out(6, 2, mode="montecarlo", m=100)
    with pytest.raises(ValueError):
        make_leave_v_out(6, 2, mode="montecarlo", seed=1)


def test_holdout_single_atom():
    plan = make_holdout(4, 0.5, test_indices=[2, 3])
    assert plan.num_atoms == 1
    assert plan.atoms[0][0].bits == (1, 1, 0, 0)
    assert plan.atoms[0][1] == 1.0
    assert not plan.symmetric()


def test_holdout_rejects_count_mismatch():
    with pytest.raises(ValueError):
        make_holdout(4, 0.25, test_indices=[0, 1])
    with pytest.raises(ValueError):
        make_holdout(4, 0.25, test_indices=[7])


def test_symmetry_flags():
    assert make_kfold(10, 5).symmetric()
    assert make_loo(7).symmetric()
    assert make_leave_v_out(6, 2).symmetric()
    assert not make_holdout(6, 0.5, test_indices=[0, 1, 2]).symmetric()


def test_custom_plan_unequal_sizes_opt_in():
    atoms = [((0, 1, 1, 1), 0.5), ((0, 0, 1, 1), 0.5)]
    with pytest.raises(ValueError):
        make_custom(4, atoms)
    plan = make_custom(4, atoms, allow_unequal_test_sizes=True)
    assert not plan.equal_test_sizes
    assert plan.p == pytest.approx(0.5 * 0.25 + 0.5 * 0.5)
    with pytest.raises(ValueError):
        plan.test_size  # noqa: B018  (property raises for such plans)


def test_custom_plan_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        make_custom(3, [((0, 1, 1), 0.6), ((1, 0, 1), 0.6)])
    with pytest.raises(ValueError):
        make_custom(3, [((0, 1, 1), 1.0), ((1, 0, 1), 0.0)])
    with pytest.raises(ValueError):
        make_custom(3, [((1, 1, 1), 1.0)])  # nothing left out


def test_plan_json_roundtrip_and_schema():
    plan = make_kfold(6, 3)
    data = json.loads(plan_to_json(plan))
    assert set(data) == {"n", "p", "kind", "atoms"}
    assert data["n"] == 6 and data["kind"] == "k-fold"
    assert all(set(a) == {"bits", "prob"} for a in data["atoms"])
    assert all(len(a["bits"]) == 6 for a in data["atoms"])
    back = plan_from_json(plan_to_json(plan))
    assert back.n == plan.n and back.p == plan.p
    assert atom_set(back) == atom_set(plan)


def test_plan_json_is_deterministic():
    assert plan_to_json(make_loo(5)) == plan_to_json(make_loo(5))


def test_plan_from_dict_rejects_p_mismatch():
    data = plan_to_dict(make_kfold(4, 2))
    data["p"] = 0.25
    with pytest.raises(ValueError):
        plan_from_dict(data)


def test_probs_and_matrices_are_consistent():
    plan = make_leave_v_out(5, 2)
    assert plan.probs.shape == (plan.num_atoms,)
    assert math.fsum(plan.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert plan.train_matrix.shape == (plan.num_atoms, 5)
    assert plan.test_index_matrix.shape == (plan.num_atoms, 2)
    for a in range(plan.num_atoms):
        train = set(np.flatnonzero(plan.train_matrix[a]).tolist())
        test = set(plan.test_index_matrix[a].tolist())
        assert train | test == set(range(5)) and not train & test


@given(st.integers(min_value=2, max_value=8), st.data())
def test_kfold_properties(k, data):
    n = k * data.draw(st.integers(min_value=1, max_value=4))
    plan = make_kfold(n, k)
    assert plan.num_atoms == k
    assert plan.symmetric()
    assert plan.uniform
    assert math.fsum(prob for _, prob in plan.atoms) == pytest.approx(1.0, abs=1e-12)
    assert all(v.zeros == n // k for v, _ in plan.atoms)
    assert plan.p == pytest.approx((n // k) / n, abs=1e-15)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=4),
)
def test_leave_v_out_properties(n, v):
    if v >= n:
        v = n - 1
    plan = make_leave_v_out(n, v)
    assert plan.num_atoms == math.comb(n, v)
    assert plan.symmetric()
    got = plan.train_probability()
    assert np.allclose(got, (n - v) / n, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**20))
def test_json_roundtrip_random_plans(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 8)
    num = rng.randint(1, min(5, 2**n - 2))
    masks = set()
    while len(masks) < num:
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        if any(bits) and not all(bits):
            masks.add(bits)
    weights = [rng.random() + 0.05 for _ in masks]
    total = sum(weights)
    atoms = [(bits, w / total) for bits, w in zip(masks, weights)]
    plan = make_custom(n, atoms, allow_unequal_test_sizes=True)
    back = plan_from_json(plan_to_json(plan))
    assert atom_set(back) == atom_set(plan)


UNEQUAL = [((0, 1, 1, 1), 0.25), ((0, 0, 1, 1), 0.75)]
THREE = [((0, 1, 1), 1 / 3), ((1, 0, 1), 1 / 3), ((1, 1, 0), 1 / 3)]

BUILDER_CASES = [
    (lambda: make_kfold(12, 3), lambda: oracles.ref_kfold(12, 3)),
    (lambda: make_kfold(12, 4, shuffle_seed=11), lambda: oracles.ref_kfold(12, 4, 11)),
    (lambda: make_kfold(5, 5, shuffle_seed=0), lambda: oracles.ref_kfold(5, 5, 0)),
    (lambda: make_loo(7), lambda: oracles.ref_loo(7)),
    (lambda: make_leave_v_out(7, 3), lambda: oracles.ref_leave_v_out(7, 3)),
    (
        lambda: make_leave_v_out(9, 2, mode="montecarlo", m=25, seed=4),
        lambda: oracles.ref_leave_v_out(9, 2, "montecarlo", 25, 4),
    ),
    (lambda: make_holdout(10, 0.3, [7, 2, 2, 5]), lambda: oracles.ref_holdout(10, [7, 2, 5])),
    (lambda: make_custom(3, THREE), lambda: oracles.ref_custom(3, THREE)),
    (
        lambda: make_custom(4, UNEQUAL, allow_unequal_test_sizes=True),
        lambda: oracles.ref_custom(4, UNEQUAL),
    ),
]


@pytest.mark.parametrize("build, reference", BUILDER_CASES)
def test_builders_match_bitwise_reference(build, reference):
    plan = build()
    atoms, p, equal, text = reference()
    assert [(v.bits, prob) for v, prob in plan.atoms] == atoms
    assert plan.p == p
    assert plan.equal_test_sizes is equal
    assert plan_to_json(plan) == text


def test_plan_arrays_are_read_only():
    plan = make_kfold(6, 3)
    for arr in (plan.train_matrix, plan.probs, plan.test_sizes, plan.test_index_matrix):
        assert not arr.flags.writeable
    assert plan.train_matrix.dtype == bool and plan.train_matrix.shape == (3, 6)


def test_unequal_plan_has_no_index_matrices():
    plan = make_custom(4, UNEQUAL, allow_unequal_test_sizes=True)
    assert plan.test_sizes.tolist() == [1, 2]
    with pytest.raises(ValueError):
        plan.test_index_matrix  # noqa: B018


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: make_kfold(12, 3), True),
        (lambda: make_kfold(12, 4, shuffle_seed=5), True),
        (lambda: make_loo(6), True),
        (lambda: make_leave_v_out(6, 1), True),
        (lambda: make_leave_v_out(6, 2), False),
        (lambda: make_leave_v_out(6, 1, mode="montecarlo", m=6, seed=1), False),
        (lambda: make_holdout(6, 0.5, [0, 1, 2]), False),
        (lambda: make_custom(3, THREE), True),
        # symmetric, every index left out once, but unequal weights
        (lambda: make_custom(2, [((0, 1), 0.25), ((1, 0), 0.75)]), False),
        # symmetric and uniform, but every index left out twice
        (lambda: make_custom(3, [(tuple(1 - b for b in v), q) for v, q in THREE]), False),
    ],
)
def test_partition_truth_table(build, expected):
    assert build().partition is expected


def test_loo_build_peak_memory_is_one_matrix():
    n = 4000
    tracemalloc.start()
    try:
        plan = make_loo(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.num_atoms == n
    assert peak < 4 * n * n


def test_symmetric_verdict_is_cached_and_casts_no_full_matrix(monkeypatch):
    n = 4000
    plan = make_loo(n)
    tracemalloc.start()
    try:
        assert plan.symmetric()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n

    def no_recompute(self):
        raise AssertionError("symmetric() recomputed the training probabilities")

    monkeypatch.setattr(resampling.ResamplingPlan, "train_probability", no_recompute)
    assert plan.symmetric()


@pytest.mark.parametrize(
    "build",
    [build for build, _ in BUILDER_CASES]
    + [
        lambda: make_loo(300),
        lambda: make_kfold(240, 8, shuffle_seed=3),
        lambda: make_leave_v_out(30, 3),
        lambda: make_leave_v_out(100, 3, mode="montecarlo", m=1000, seed=5),
        lambda: make_holdout(50, 0.2, range(10, 20)),
    ],
)
def test_train_probability_matches_one_float_product(build):
    plan = build()
    want = plan.train_matrix.T.astype(np.float64) @ plan.probs
    got = plan.train_probability()
    assert np.max(np.abs(got - want)) <= 1e-15
    assert plan.symmetric() is (float(want.max() - want.min()) <= resampling.SYMMETRY_TOL)
