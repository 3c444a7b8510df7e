"""Binary train/test masks and finite distributions over them.

A resampling plan is a finite probability distribution over binary training
vectors of a common length n. Every data-splitting procedure handled here
(k-fold, leave-one-out, leave-v-out, hold-out) is encoded as such a
distribution, so estimators and bounds can treat them uniformly. A plan
stores one read-only (atoms, n) boolean training matrix and its atom
probabilities; BinaryVector masks are built only on request, for the JSON
form and per-atom callers. Plans are immutable after construction and safe
to share across workers.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12
SYMMETRY_TOL = 1e-12
DEFAULT_ATOM_CAP = 10**6
_CAST_BUDGET = 1 << 23  # bytes of float64 per block in train_probability


@dataclass(frozen=True)
class BinaryVector:
    """A 0/1 mask selecting a nonempty subsample of n indexed points."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("bit vector must have positive length")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bit vector entries must be 0 or 1")
        if not any(self.bits):
            raise ValueError("bit vector must select at least one index")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def ones(self) -> int:
        return int(sum(self.bits))

    @property
    def zeros(self) -> int:
        return self.n - self.ones

    def indices(self, value: int = 1) -> tuple[int, ...]:
        """Positions holding the given bit value."""
        return tuple(i for i, b in enumerate(self.bits) if b == value)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @staticmethod
    def from_string(s: str) -> "BinaryVector":
        if not s or any(ch not in "01" for ch in s):
            raise ValueError("bit string must be nonempty over {0,1}")
        return BinaryVector(tuple(int(ch) for ch in s))


def test_vector(v_tr: BinaryVector) -> BinaryVector:
    """Complement mask: the test subsample left out by a training mask.

    Train and test are disjoint and partition the index set. Raises
    ValueError on an all-ones input, which would leave an empty test set.
    """
    if v_tr.zeros == 0:
        raise ValueError("training mask covers every index; empty test set")
    return BinaryVector(tuple(1 - b for b in v_tr.bits))


@dataclass(frozen=True, eq=False)
class ResamplingPlan:
    """Finite distribution over training masks of a common length n.

    Plans compare and hash by identity.

    Parameters
    ----------
    n : int
        Sample size; every atom mask has this length.
    p : float
        Test fraction. For plans whose atoms all leave out the same number
        of points this is exactly test_size / n; otherwise it is the
        probability-weighted mean test fraction.
    kind : str
        Tag in {"k-fold", "leave-one-out", "leave-v-out-exhaustive",
        "leave-v-out-montecarlo", "hold-out", "custom"}.
    train_matrix : ndarray of bool, shape (num_atoms, n), read-only
        Row a is True where atom a trains on an index.
    probs : ndarray of float64, shape (num_atoms,), read-only
        Positive atom probabilities summing to one.
    equal_test_sizes : bool
        True when every atom leaves out the same number of points. The
        concentration-bound machinery requires this and refuses plans
        without it; the estimator itself does not.
    """

    n: int
    p: float
    kind: str
    train_matrix: np.ndarray
    probs: np.ndarray
    equal_test_sizes: bool = True

    @property
    def num_atoms(self) -> int:
        return len(self.probs)

    @cached_property
    def test_sizes(self) -> np.ndarray:
        """Points left out by each atom."""
        out = self.n - np.count_nonzero(self.train_matrix, axis=1)
        out.setflags(write=False)
        return out

    @property
    def test_size(self) -> int:
        """Points left out per atom. Only meaningful with equal_test_sizes."""
        if not self.equal_test_sizes:
            raise ValueError("plan has varying test sizes")
        return int(self.test_sizes[0])

    @property
    def train_size(self) -> int:
        return self.n - self.test_size

    @cached_property
    def atoms(self) -> tuple[tuple[BinaryVector, float], ...]:
        """(training mask, probability) pairs, built on first use."""
        rows = self.train_matrix.astype(np.int8).tolist()
        return tuple(
            (BinaryVector(tuple(bits)), prob) for bits, prob in zip(rows, self.probs.tolist())
        )

    @cached_property
    def test_index_matrix(self) -> np.ndarray:
        """(num_atoms, test_size) int matrix of test indices per atom."""
        out = np.nonzero(~self.train_matrix)[1].reshape(self.num_atoms, self.test_size)
        out.setflags(write=False)
        return out

    @cached_property
    def uniform(self) -> bool:
        """True when all atom probabilities are exactly equal."""
        return bool(np.all(self.probs == self.probs[0]))

    @cached_property
    def partition(self) -> bool:
        """Uniform weights and every index left out by exactly one atom
        (k-fold and leave-one-out)."""
        return self.uniform and bool(np.all(self.train_matrix.sum(axis=0) == self.num_atoms - 1))

    def train_probability(self) -> np.ndarray:
        """Per-index probability of landing in the training set.

        Columns are cast to float64 a block at a time, about 8 MB and at
        least 32 columns, instead of the whole matrix at once; blocks of a
        multiple of 32 columns keep the BLAS sums of the one-block product.
        """
        width = max(32, _CAST_BUDGET // (8 * self.num_atoms) // 32 * 32)
        out = np.empty(self.n, dtype=np.float64)
        for j in range(0, self.n, width):
            block = self.train_matrix[:, j : j + width].T.astype(np.float64)
            out[j : j + width] = block @ self.probs
        return out

    @cached_property
    def _symmetric(self) -> bool:
        probs = self.train_probability()
        return float(probs.max() - probs.min()) <= SYMMETRY_TOL

    def symmetric(self) -> bool:
        """Whether every index has the same training probability.

        This is the applicability condition for the crossing bounds; a
        hold-out plan with 0 < p < 1 always fails it. Computed once per plan.
        """
        return self._symmetric


def _assemble(
    n: int,
    kind: str,
    train: np.ndarray,
    probs: np.ndarray,
    allow_unequal_test_sizes: bool = False,
) -> ResamplingPlan:
    """Validate a (num_atoms, n) training matrix and its atom probabilities
    and build a plan; shared by all constructors."""
    if n < 2:
        raise ValueError("plans need n >= 2")
    if len(probs) == 0:
        raise ValueError("plan must have at least one atom")
    zeros = n - np.count_nonzero(train, axis=1)
    if not np.all(zeros < n):
        raise ValueError("every atom must train on at least one point")
    if not zeros.all():
        raise ValueError("every atom must leave out at least one point")
    if not np.all(probs > 0.0):
        raise ValueError("atom probabilities must be positive")
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"atom probabilities sum to {total!r}, not 1")
    equal = bool(np.all(zeros == zeros[0]))
    if equal:
        p = int(zeros[0]) / n
    elif allow_unequal_test_sizes:
        p = math.fsum((probs * (zeros / n)).tolist())
    else:
        raise ValueError(
            "atoms leave out varying numbers of points; pass "
            "allow_unequal_test_sizes=True to accept such a plan "
            "(bound formulas will refuse it)"
        )
    train.setflags(write=False)
    probs.setflags(write=False)
    return ResamplingPlan(n, p, kind, train, probs, equal_test_sizes=equal)


def _leave_out(n: int, kind: str, test_sets) -> ResamplingPlan:
    """Equally weighted plan whose atom a leaves out the indices test_sets[a]."""
    test = np.asarray(test_sets, dtype=np.intp)
    train = np.ones((len(test), n), dtype=bool)
    np.put_along_axis(train, test, False, axis=1)
    return _assemble(n, kind, train, np.full(len(test), 1.0 / len(test)))


def make_kfold(n: int, k: int, shuffle_seed: int | None = None) -> ResamplingPlan:
    """k-fold plan: k atoms of probability 1/k, fold j left out of atom j.

    Folds are contiguous index blocks of size n/k in construction order.
    A shuffle seed, when given, permutes the indices once before the block
    assignment; default off so plans are deterministic functions of (n, k).
    """
    if k < 2:
        raise ValueError("k-fold needs k >= 2")
    if n % k != 0:
        raise ValueError(f"n={n} is not divisible by k={k}")
    order = list(range(n))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    return _leave_out(n, "k-fold", np.reshape(order, (k, n // k)))


def make_loo(n: int) -> ResamplingPlan:
    """Leave-one-out plan: n atoms of probability 1/n, one zero each."""
    if n < 2:
        raise ValueError("leave-one-out needs n >= 2")
    return _leave_out(n, "leave-one-out", np.arange(n)[:, None])


def make_leave_v_out(
    n: int,
    v: int,
    mode: str = "exhaustive",
    m: int | None = None,
    seed: int | None = None,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> ResamplingPlan:
    """Leave-v-out plan over all (or sampled) v-subsets of the index set.

    Parameters
    ----------
    mode : {"exhaustive", "montecarlo"}
        Exhaustive enumerates all C(n, v) subsets (each an atom of equal
        probability) and requires C(n, v) <= atom_cap. Monte Carlo draws m
        subsets uniformly WITH replacement using the given seed; each draw
        is one atom of weight 1/m, so repeated subsets appear as repeated
        atoms.
    """
    if not (1 <= v < n):
        raise ValueError("need 1 <= v < n")
    if mode == "exhaustive":
        count = math.comb(n, v)
        if count > atom_cap:
            raise ValueError(
                f"C({n},{v}) = {count} atoms exceeds the cap of {atom_cap}"
            )
        combos = itertools.combinations(range(n), v)
        test = np.fromiter(combos, dtype=np.dtype((np.intp, v)), count=count)
        return _leave_out(n, "leave-v-out-exhaustive", test)
    if mode == "montecarlo":
        if m is None or m < 1:
            raise ValueError("montecarlo mode needs m >= 1 draws")
        if seed is None:
            raise ValueError("montecarlo mode needs an explicit seed")
        rng = random.Random(seed)
        test = [rng.sample(range(n), v) for _ in range(m)]
        return _leave_out(n, "leave-v-out-montecarlo", test)
    raise ValueError(f"unknown mode {mode!r}")


def make_holdout(n: int, p: float, test_indices) -> ResamplingPlan:
    """Single-split plan: one atom of probability 1 leaving out test_indices.

    Not symmetric whenever 0 < p < 1: left-out indices have training
    probability 0 while the rest have 1.
    """
    test = sorted(set(int(i) for i in test_indices))
    if any(i < 0 or i >= n for i in test):
        raise ValueError("test indices out of range")
    want = n * p
    if abs(want - round(want)) > 1e-9:
        raise ValueError(f"n*p = {want!r} is not an integer")
    if len(test) != round(want):
        raise ValueError(
            f"got {len(test)} distinct test indices, expected n*p = {round(want)}"
        )
    return _leave_out(n, "hold-out", [test])


def make_custom(
    n: int,
    atoms,
    kind: str = "custom",
    allow_unequal_test_sizes: bool = False,
) -> ResamplingPlan:
    """Build a plan from explicit (mask, probability) pairs.

    Accepts anything passing the invariant checks. Equal test sizes across
    atoms are enforced unless explicitly opted out; opted-out plans are
    marked so bound operations can refuse them.
    """
    masks, probs = [], []
    for v, prob in atoms:
        if not isinstance(v, BinaryVector):
            v = BinaryVector(tuple(int(b) for b in v))
        if v.n != n:
            raise ValueError(f"atom length {v.n} does not match n={n}")
        masks.append(v.bits)
        probs.append(float(prob))
    train = np.array(masks, dtype=bool).reshape(len(masks), n)
    return _assemble(n, kind, train, np.array(probs), allow_unequal_test_sizes)


def plan_to_dict(plan: ResamplingPlan) -> dict:
    return {
        "n": plan.n,
        "p": plan.p,
        "kind": plan.kind,
        "atoms": [
            {"bits": v.as_string(), "prob": prob} for v, prob in plan.atoms
        ],
    }


def plan_to_json(plan: ResamplingPlan) -> str:
    """Serialize a plan; bit order in each "bits" string is index order."""
    return json.dumps(plan_to_dict(plan), sort_keys=True)


def plan_from_dict(data: dict) -> ResamplingPlan:
    n = int(data["n"])
    atoms = [
        (BinaryVector.from_string(a["bits"]), float(a["prob"]))
        for a in data["atoms"]
    ]
    plan = make_custom(n, atoms, kind=str(data["kind"]), allow_unequal_test_sizes=True)
    # serialized p is redundant; recomputed from the atoms, mismatch rejected
    if abs(plan.p - float(data["p"])) > 1e-9:
        raise ValueError(
            f"serialized p={data['p']!r} does not match atoms (p={plan.p!r})"
        )
    return plan


def plan_from_json(text: str) -> ResamplingPlan:
    return plan_from_dict(json.loads(text))
