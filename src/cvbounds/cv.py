"""Cross-validation estimates computed as exact finite expectations.

For a plan, a dataset, a hypothesis class, and a loss, the estimator is
the plan-weighted average of test-mask risks of predictors fitted on the
corresponding training masks. The plan is a finite distribution, so this
is an exact sum over atoms; nothing is sampled here.

On the atoms of an equal-test-size plan, threshold ERM runs through one
kernel, threshold_atom_counts, which reads a learners.SortedSamples batch
(the dataset sorted once) instead of sorting each training set, and
interval ERM runs through learners._interval_erm on blocks of gathered
training sets. learners.erm_fit fits atom by atom only the plans with
unequal test sizes, and the full sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import learners
from .learners import Dataset, HypothesisClass, Loss, SyntheticDistribution
from .resampling import BinaryVector, ResamplingPlan


@dataclass(frozen=True)
class CvEstimates:
    """The four companion estimates for one dataset under one plan.

    r_hat_n: resubstitution estimate (fit on everything, score on
    everything). r_cv: the cross-validation estimate. r_tilde_n:
    generalization error of the full-sample fit, when the generating
    distribution is known. r_bar: plan-weighted expected true risk of the
    fold-trained predictors, again requiring the distribution.
    """

    r_hat_n: float
    r_cv: float
    r_tilde_n: float | None = None
    r_bar: float | None = None


def supports_exact_comparison(plan: ResamplingPlan, cls: HypothesisClass, loss: Loss) -> bool:
    """Whether r_cv >= r_hat_n is guaranteed for this configuration.

    Requires a symmetric plan with equal test sizes, exact ERM (zero-one
    loss), and a fitter that ignores sample order; the last holds for both
    classes implemented here.
    """
    return loss.kind == "zero-one" and plan.equal_test_sizes and plan.symmetric()


def _check_compatible(plan: ResamplingPlan, d: Dataset, loss: Loss) -> None:
    if plan.n != d.n:
        raise ValueError(f"plan is for n={plan.n}, dataset has n={d.n}")
    if loss.kind != "zero-one":
        raise ValueError("exact risk minimization is supported for the zero-one loss only")
    learners.check_zero_one_sample(d.x, d.y)


# Cells that an atom kernel handles at once: (test size + 1) per atom per
# sample for SortedSamples.leave_out, (train size + 1) per atom for
# learners._interval_erm; each holds about 100-150 bytes of temporaries.
CELL_BUDGET = 500_000


def threshold_atom_counts(plan: ResamplingPlan, batch: learners.SortedSamples):
    """Exact threshold ERM on every atom of an equal-test-size plan, for the
    c samples of a sorted batch. Returns the per-atom cuts and integer
    test-error counts, both C-order arrays of shape (c, num_atoms).

    Plans with one test point per atom read batch.leave_one_out, which
    fits every one-point training set at once, at each atom's sorted
    position. Larger test sets go through batch.leave_out in blocks of at
    most CELL_BUDGET cells, so memory stays bounded whatever the number
    of atoms."""
    tei = plan.test_index_matrix
    c = batch.xs.shape[0]
    if plan.test_size == 1:
        test = tei[:, 0]
        pos = np.ascontiguousarray(batch.rank_t[test].T)
        cuts = np.take_along_axis(batch.leave_one_out()[0], pos, axis=1)
        wrong = (batch.xs[:, test] >= cuts) != (batch.ys[:, test] > 0.5)
        return cuts, wrong.astype(np.int64)
    step = max(1, CELL_BUDGET // (c * (plan.test_size + 1)))
    cuts, counts = [], []
    for lo in range(0, plan.num_atoms, step):
        block = tei[lo : lo + step]
        cut, _ = batch.leave_out(block)
        cuts.append(cut)
        wrong = (batch.xs[:, block] >= cut[:, :, None]) != (batch.ys[:, block] > 0.5)
        counts.append(wrong.sum(axis=2))
    return np.concatenate(cuts, axis=1), np.concatenate(counts, axis=1)


def _interval_atom_counts(plan: ResamplingPlan, d: Dataset):
    """Exact interval ERM on every atom of an equal-test-size plan: the
    per-atom lows, highs and integer test-error counts, shape (num_atoms,).
    Each block of at most CELL_BUDGET training cells goes through one
    learners._interval_erm call on the gathered training sets."""
    step = max(1, CELL_BUDGET // (plan.train_size + 1))
    tei = plan.test_index_matrix
    lows, highs, counts = [], [], []
    for lo in range(0, plan.num_atoms, step):
        train = np.nonzero(plan.train_matrix[lo : lo + step])[1].reshape(-1, plan.train_size)
        low, high, _ = learners._interval_erm(d.x[train], d.y[train])
        test = tei[lo : lo + step]
        x, y = d.x[test], d.y[test]
        wrong = ((x >= low[:, None]) & (x <= high[:, None])) != (y > 0.5)
        lows.append(low)
        highs.append(high)
        counts.append(wrong.sum(axis=1))
    return np.concatenate(lows), np.concatenate(highs), np.concatenate(counts)


def _atom_fits_and_counts(plan: ResamplingPlan, d: Dataset, cls: HypothesisClass, loss: Loss):
    """Per-atom ERM fits plus integer test-error counts, in atom order."""
    _check_compatible(plan, d, loss)
    if cls.kind == "threshold" and plan.equal_test_sizes:
        batch = learners.SortedSamples(d.x[None, :], d.y[None, :])
        cuts, counts = threshold_atom_counts(plan, batch)
        return [learners.ThresholdPredictor(float(t)) for t in cuts[0]], counts[0]
    if plan.equal_test_sizes:
        lows, highs, counts = _interval_atom_counts(plan, d)
        fits = [learners.IntervalPredictor(a, b) for a, b in zip(lows.tolist(), highs.tolist())]
        return fits, counts
    # unequal test sizes: fit atom by atom
    fits = [learners.erm_fit(cls, v, d, loss) for v, _ in plan.atoms]
    test = ~plan.train_matrix
    counts = np.array(
        [int((phi.predict(d.x[m]) != d.y[m]).sum()) for phi, m in zip(fits, test)],
        dtype=np.int64,
    )
    return fits, counts


def _risks(plan: ResamplingPlan, counts: np.ndarray) -> np.ndarray:
    return counts / plan.test_sizes


def _plan_average(plan: ResamplingPlan, values: np.ndarray) -> float:
    """Compensated sum in atom order: reproducible whatever the batching."""
    return math.fsum((plan.probs * values).tolist())


def atom_predictors(plan: ResamplingPlan, d: Dataset, cls: HypothesisClass, loss: Loss):
    """Per-atom train-mask ERM fits, in atom order."""
    return _atom_fits_and_counts(plan, d, cls, loss)[0]


def atom_risks(plan: ResamplingPlan, d: Dataset, cls: HypothesisClass, loss: Loss) -> np.ndarray:
    """Test-mask risk of the train-mask fit, one entry per atom."""
    return _risks(plan, _atom_fits_and_counts(plan, d, cls, loss)[1])


def cross_validate(plan: ResamplingPlan, d: Dataset, cls: HypothesisClass, loss: Loss) -> float:
    """Plan-weighted average of test risks; exact expectation over atoms."""
    return _plan_average(plan, atom_risks(plan, d, cls, loss))


def _full_fit_and_count(d: Dataset, cls: HypothesisClass, loss: Loss):
    ones = BinaryVector((1,) * d.n)
    phi = learners.erm_fit(cls, ones, d, loss)
    errs = int((phi.predict(d.x) != d.y).sum())
    return phi, errs


def resubstitution(d: Dataset, cls: HypothesisClass, loss: Loss) -> float:
    """Risk of the full-sample fit on its own training data."""
    _, errs = _full_fit_and_count(d, cls, loss)
    return errs / d.n


def lemma_holds(plan: ResamplingPlan, counts, full_errs) -> np.ndarray:
    """Exact r_cv >= r_hat_n for c datasets, from per-atom test-error counts
    (c, num_atoms) and full-sample training errors (c,). Uniform plans with
    equal test sizes compare integers; other plans lift each atom
    probability to the exact fraction of its float value."""
    counts = np.asarray(counts, dtype=np.int64)
    full_errs = np.asarray(full_errs, dtype=np.int64)
    if plan.equal_test_sizes and plan.uniform:
        return plan.n * counts.sum(axis=1) >= plan.num_atoms * plan.test_size * full_errs
    return np.array([_lemma_fraction(plan, row, int(e)) for row, e in zip(counts, full_errs)])


def _lemma_fraction(plan: ResamplingPlan, counts, full_errs: int) -> bool:
    total = Fraction(0)
    for prob, size, cnt in zip(plan.probs.tolist(), plan.test_sizes.tolist(), counts):
        total += Fraction(prob) * Fraction(int(cnt), size)
    return total >= Fraction(full_errs, plan.n)


@dataclass(frozen=True)
class PlanFit:
    """ERM on the full sample and on every atom of a plan, each fitted once;
    estimates() and lemma_ok() both reduce these fits."""

    plan: ResamplingPlan
    d: Dataset
    loss: Loss
    phi_full: object
    full_errs: int
    fits: list
    counts: np.ndarray

    def estimates(self, dist: SyntheticDistribution | None = None) -> CvEstimates:
        r_cv = _plan_average(self.plan, _risks(self.plan, self.counts))
        r_tilde_n = r_bar = None
        if dist is not None:
            r_tilde_n = learners.true_risk(self.phi_full, dist, self.loss)
            true_risks = [learners.true_risk(phi, dist, self.loss) for phi in self.fits]
            r_bar = _plan_average(self.plan, np.array(true_risks, dtype=np.float64))
        return CvEstimates(self.full_errs / self.d.n, r_cv, r_tilde_n, r_bar)

    def lemma_ok(self) -> bool:
        return bool(lemma_holds(self.plan, self.counts[None, :], [self.full_errs])[0])


def fit_plan(plan: ResamplingPlan, d: Dataset, cls: HypothesisClass, loss: Loss) -> PlanFit:
    """Fit the full sample and every atom of the plan once."""
    fits, counts = _atom_fits_and_counts(plan, d, cls, loss)
    return PlanFit(plan, d, loss, *_full_fit_and_count(d, cls, loss), fits, counts)


def estimates(
    plan: ResamplingPlan,
    d: Dataset,
    cls: HypothesisClass,
    loss: Loss,
    dist: SyntheticDistribution | None = None,
) -> CvEstimates:
    """All four companion quantities; the last two need the distribution."""
    return fit_plan(plan, d, cls, loss).estimates(dist)


def cv_at_least_resub_exact(
    plan: ResamplingPlan, d: Dataset, cls: HypothesisClass, loss: Loss
) -> bool:
    """Exact (integer/rational arithmetic) check that r_cv >= r_hat_n."""
    return fit_plan(plan, d, cls, loss).lemma_ok()
